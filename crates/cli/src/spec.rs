//! The `.dep` spec file format: schema, dependencies, and data in one
//! plain-text file.
//!
//! ```text
//! # comments start with '#'; blank lines are ignored
//! schema EMP(NAME, DEPT)
//! schema MGR(NAME, DEPT)
//!
//! dep MGR[NAME, DEPT] <= EMP[NAME, DEPT]
//! dep EMP: NAME -> DEPT
//!
//! row EMP hilbert math
//! row MGR hilbert math
//! ```
//!
//! `row` entries are whitespace-separated values; an entry parses as an
//! integer when it looks like one, otherwise as a string.
//!
//! [`SpecHead::parse`] reads a spec in one pass over its lines. It parses
//! `schema` and `dep` lines as it meets them and tokenizes each `row` line
//! once, straight into its relation's
//! [`RowBuffer`](depkit_core::RowBuffer). A `row` body that is all ASCII
//! is split and its integers summed byte by byte; any other body takes
//! `str::split_whitespace` and `str::parse`, which read ASCII the same
//! way.
//!
//! The `validate` subcommand additionally reads a *delta script* — the
//! streaming-mutation companion format parsed by [`parse_deltas`]:
//!
//! ```text
//! insert EMP noether math    # queue an insertion
//! delete MGR hilbert math    # queue a deletion
//! commit                     # apply the batch, report violations
//! ```
//!
//! `commit` ends a batch; trailing operations form a final implicit batch.

use depkit_core::constraint::ConstraintSet;
use depkit_core::delta::Delta;
use depkit_core::prelude::*;
use depkit_core::schema::RelationScheme;
use depkit_core::RowBuffer;
use std::collections::HashMap;

/// A parsed spec file: constraints plus the optional inline database.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Schema + dependencies.
    pub constraints: ConstraintSet,
    /// The inline database (empty when the file has no `row` lines).
    pub database: Database,
}

/// A parse error with its line number (1-based) and the offending text,
/// so a bad line in a long script is diagnosable from the message alone.
#[derive(Debug)]
pub struct SpecError {
    /// 1-based line number (0 for whole-file errors with no single line).
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// The offending line, trimmed (empty for whole-file errors).
    pub text: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if !self.text.is_empty() {
            write!(f, " (in `{}`)", self.text)?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, text: &str, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
        text: text.trim().to_owned(),
    }
}

/// A spec's constraints, parsed, and its rows, read into one
/// [`RowBuffer`] per relation — all in one pass over the text.
///
/// Each `row` line is tokenized once, straight into its relation's buffer:
/// ints inline, other values in the buffer's side list. Rows may come
/// before the `schema` lines, so until the walk ends the buffers are keyed
/// by relation name; then every row is checked against the schema
/// (relation and arity) and the buffers are put in schema order. A bad row
/// fails the parse before a consumer has seen any row.
///
/// The head does not borrow the text, so a caller can free the text
/// before it builds from the rows. `depkit discover` hands the buffers to
/// [`ColumnStore::from_buffers`](depkit_core::ColumnStore::from_buffers)
/// through [`SpecHead::into_parts`]; `depkit serve` seeds its catalog from
/// [`SpecHead::rows`], which replays the rows in file order.
#[derive(Debug)]
pub struct SpecHead {
    /// Schema + dependencies.
    pub constraints: ConstraintSet,
    /// One buffer per relation, in schema order.
    buffers: Vec<RowBuffer>,
    /// The file's rows as runs of `(relation, row count)`, in file order.
    runs: Vec<(usize, usize)>,
}

impl SpecHead {
    /// Parse the `schema` and `dep` lines of `text` and read its `row`
    /// lines. Lines may come in any order. The first error wins in this
    /// order: a bad directive line (in file order), then the schema, then
    /// the dependencies, then the first bad row in the file; each carries
    /// the line number and text of its line.
    pub fn parse(text: &str) -> Result<SpecHead, SpecError> {
        let mut schemes: Vec<RelationScheme> = Vec::new();
        let mut deps: Vec<(usize, &str, Dependency)> = Vec::new();
        let mut rows = RowReader::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (keyword, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            match keyword {
                "schema" => {
                    let scheme = depkit_core::parser::parse_scheme(rest)
                        .map_err(|e| err(line_no, line, e.to_string()))?;
                    schemes.push(scheme);
                }
                "dep" => {
                    let dep: Dependency = rest
                        .parse()
                        .map_err(|e: CoreError| err(line_no, line, e.to_string()))?;
                    deps.push((line_no, line, dep));
                }
                "row" if rest.is_empty() => {
                    return Err(err(line_no, line, "row needs a relation name"))
                }
                "row" => rows.read(line_no, line, rest),
                other => {
                    return Err(err(
                        line_no,
                        line,
                        format!("unknown directive `{other}` (expected schema/dep/row)"),
                    ))
                }
            }
        }
        let schema = DatabaseSchema::new(schemes).map_err(|e| err(0, "", e.to_string()))?;
        let mut constraints =
            ConstraintSet::new(schema, Vec::new()).map_err(|e| err(0, "", e.to_string()))?;
        for (line_no, text, dep) in deps {
            constraints
                .push(dep)
                .map_err(|e| err(line_no, text, e.to_string()))?;
        }
        rows.finish(constraints)
    }

    /// Every row, in file order, as `(relation index in schema order,
    /// values)`, replayed from the buffers.
    pub fn rows(&self) -> impl Iterator<Item = (usize, impl Iterator<Item = Value> + '_)> + '_ {
        let mut next = vec![0; self.buffers.len()];
        self.runs.iter().flat_map(move |&(r, count)| {
            let start = next[r];
            next[r] += count;
            (start..start + count).map(move |row| (r, self.buffers[r].row(row)))
        })
    }

    /// The constraints, and the rows as one buffer per relation in schema
    /// order, ready for
    /// [`ColumnStore::from_buffers`](depkit_core::ColumnStore::from_buffers).
    pub fn into_parts(self) -> (ConstraintSet, Vec<RowBuffer>) {
        (self.constraints, self.buffers)
    }
}

/// The `row` lines of a spec as [`SpecHead::parse`] reads them, before the
/// schema is known: one buffer per relation name, in first-seen order.
///
/// Two records find the first bad row in the file. A relation the schema
/// lacks, or whose first row has the wrong arity, is bad at that first
/// row, which [`NamedRows`] keeps. Any other relation's bad rows are its
/// rows whose value count differs from its first row's, so the first of
/// those in the whole file (`mismatch`) is its candidate. Once `mismatch`
/// is set the parse must fail, and no later row can be the first bad row
/// (a relation first seen later starts later), so the reader stops
/// buffering.
#[derive(Default)]
struct RowReader<'a> {
    named: Vec<NamedRows<'a>>,
    /// `named` index by relation name.
    index: HashMap<&'a str, usize>,
    /// Runs of `(named index, row count)`, in file order.
    runs: Vec<(usize, usize)>,
    /// The first row whose value count differs from its relation's first
    /// row's: `(line number, line, named index, value count)`.
    mismatch: Option<(usize, &'a str, usize, usize)>,
}

/// One relation name's rows, and the line of its first row.
struct NamedRows<'a> {
    name: &'a str,
    first: (usize, &'a str),
    rows: RowBuffer,
}

impl<'a> RowReader<'a> {
    /// Buffer one row from its body: the relation name, then the values.
    fn read(&mut self, line_no: usize, line: &'a str, body: &'a str) {
        if self.mismatch.is_some() {
            return;
        }
        let (name, values) = body.split_once(char::is_whitespace).unwrap_or((body, ""));
        let n = match self.runs.last_mut() {
            Some((n, count)) if self.named[*n].name == name => {
                *count += 1;
                *n
            }
            _ => {
                let n = *self.index.entry(name).or_insert_with(|| {
                    self.named.push(NamedRows {
                        name,
                        first: (line_no, line),
                        rows: RowBuffer::new(values.split_whitespace().count()),
                    });
                    self.named.len() - 1
                });
                self.runs.push((n, 1));
                n
            }
        };
        let rows = &mut self.named[n].rows;
        if values.is_ascii() {
            push_ascii_values(values, rows);
        } else {
            for token in values.split_whitespace() {
                rows.push(parse_value(token));
            }
        }
        if let Err(count) = rows.end_row() {
            self.mismatch = Some((line_no, line, n, count));
        }
    }

    /// Check every row against the schema and put the buffers in schema
    /// order, with the runs renumbered to match. First rows were met in
    /// file order and all precede `mismatch`, so the first error found is
    /// the first bad row in the file.
    fn finish(self, constraints: ConstraintSet) -> Result<SpecHead, SpecError> {
        let schema = constraints.schema();
        let schemes = schema.schemes();
        let mut slots = Vec::with_capacity(self.named.len());
        for named in &self.named {
            let actual = named.rows.arity();
            let e = match schema.scheme_index(&RelName::new(named.name)) {
                Some(r) if schemes[r].arity() == actual => {
                    slots.push(r);
                    continue;
                }
                Some(r) => CoreError::TupleArity {
                    relation: named.name.into(),
                    expected: schemes[r].arity(),
                    actual,
                },
                None => CoreError::UnknownRelation(named.name.into()),
            };
            let (line_no, line) = named.first;
            return Err(err(line_no, line, e.to_string()));
        }
        if let Some((line_no, line, n, actual)) = self.mismatch {
            let named = &self.named[n];
            let e = CoreError::TupleArity {
                relation: named.name.into(),
                expected: named.rows.arity(),
                actual,
            };
            return Err(err(line_no, line, e.to_string()));
        }
        let mut buffers: Vec<RowBuffer> =
            schemes.iter().map(|s| RowBuffer::new(s.arity())).collect();
        for (named, &r) in self.named.into_iter().zip(&slots) {
            buffers[r] = named.rows;
        }
        let runs = self
            .runs
            .into_iter()
            .map(|(n, count)| (slots[n], count))
            .collect();
        Ok(SpecHead {
            constraints,
            buffers,
            runs,
        })
    }
}

/// Whether `b` separates `row` values: exactly the ASCII bytes
/// `char::is_whitespace` accepts, so an ASCII body splits as
/// `split_whitespace` would split it (`u8::is_ascii_whitespace` lacks
/// `\x0B`).
fn is_space(b: &u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Push the values of an ASCII `row` body into `rows` in one pass over
/// its bytes. Each token is summed as an integer while it is scanned: a
/// sign and 1 to 18 digits cannot overflow, so they are an `i64` as
/// `i64::from_str` reads them. Any other token goes to [`parse_value`].
fn push_ascii_values(values: &str, rows: &mut RowBuffer) {
    let bytes = values.as_bytes();
    let mut i = 0;
    loop {
        while bytes.get(i).is_some_and(is_space) {
            i += 1;
        }
        if i == bytes.len() {
            return;
        }
        let start = i;
        let negative = bytes[i] == b'-';
        if negative || bytes[i] == b'+' {
            i += 1;
        }
        let digits = i;
        // Past 18 digits the sum may wrap, but it is not used.
        let mut v: i64 = 0;
        while let Some(d) = bytes
            .get(i)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d <= 9)
        {
            v = v.wrapping_mul(10).wrapping_add(i64::from(d));
            i += 1;
        }
        if (1..=18).contains(&(i - digits)) && bytes.get(i).is_none_or(is_space) {
            rows.push_int(if negative { -v } else { v });
        } else {
            while bytes.get(i).is_some_and(|b| !is_space(b)) {
                i += 1;
            }
            rows.push(parse_value(&values[start..i]));
        }
    }
}

/// Parse a spec from text: [`SpecHead::parse`], then its rows collected
/// into the inline [`Database`].
pub fn parse_spec(text: &str) -> Result<Spec, SpecError> {
    let head = SpecHead::parse(text)?;
    let schema = head.constraints.schema();
    let names: Vec<RelName> = schema.schemes().iter().map(|s| s.name().clone()).collect();
    let mut database = Database::empty(schema.clone());
    for (r, values) in head.rows() {
        database
            .insert(&names[r], Tuple::new(values.collect()))
            .expect("SpecHead::parse checked every row's arity");
    }
    Ok(Spec {
        constraints: head.constraints,
        database,
    })
}

/// A `row` entry parses as an integer when it looks like one (so `7`,
/// `007` and `+7` are the same value), otherwise as a string.
fn parse_value(token: &str) -> Value {
    match token.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::str(token),
    }
}

/// Parse a delta script into mutation batches: `insert R v...` /
/// `delete R v...` lines, batches separated by `commit`. Trailing
/// operations without a final `commit` form a last batch; empty batches
/// (e.g. consecutive `commit` lines) are dropped. Everything from a `#`
/// to the end of the line is a comment (so values cannot contain `#`).
pub fn parse_deltas(text: &str) -> Result<Vec<Delta>, SpecError> {
    let mut batches: Vec<Delta> = Vec::new();
    let mut current = Delta::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let uncommented = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let line = uncommented.trim();
        if line.is_empty() {
            continue;
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        match keyword {
            "commit" => {
                if !current.is_empty() {
                    batches.push(std::mem::take(&mut current));
                }
            }
            "insert" | "delete" => {
                let mut parts = rest.split_whitespace();
                let rel = parts
                    .next()
                    .ok_or_else(|| err(line_no, line, format!("{keyword} needs a relation name")))?
                    .to_string();
                let t = Tuple::new(parts.map(parse_value).collect());
                if keyword == "insert" {
                    current.insert(rel.as_str(), t);
                } else {
                    current.delete(rel.as_str(), t);
                }
            }
            other => {
                return Err(err(
                    line_no,
                    line,
                    format!("unknown directive `{other}` (expected insert/delete/commit)"),
                ))
            }
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::generate::Rng;

    const SAMPLE: &str = "\
# example
schema EMP(NAME, DEPT)
schema MGR(NAME, DEPT)

dep MGR[NAME, DEPT] <= EMP[NAME, DEPT]
dep EMP: NAME -> DEPT

row EMP hilbert math
row EMP noether math
row MGR hilbert math
";

    #[test]
    fn parses_sample() {
        let spec = parse_spec(SAMPLE).unwrap();
        assert_eq!(spec.constraints.dependencies().len(), 2);
        assert_eq!(spec.database.total_tuples(), 3);
        assert!(spec.constraints.is_consistent(&spec.database).unwrap());
    }

    #[test]
    fn integer_values_parse_as_ints() {
        let spec = parse_spec("schema R(A, B)\nrow R 1 x\n").unwrap();
        let r = spec.database.relation(&RelName::new("R")).unwrap();
        let t = r.tuples().next().unwrap();
        assert_eq!(t.at(0), &Value::Int(1));
        assert_eq!(t.at(1), &Value::str("x"));
    }

    #[test]
    fn errors_carry_line_numbers_and_offending_text() {
        let e = parse_spec("schema R(A)\nbogus directive\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "bogus directive");
        assert!(e.to_string().contains("(in `bogus directive`)"), "{e}");
        let e2 = parse_spec("schema R(A)\nrow R 1 2\n").unwrap_err();
        assert_eq!(e2.line, 2); // arity mismatch
        assert_eq!(e2.text, "row R 1 2");
        let e3 = parse_spec("schema R(A)\ndep S[A] <= R[A]\n").unwrap_err();
        assert_eq!(e3.line, 2); // unknown relation in dep
        assert_eq!(e3.text, "dep S[A] <= R[A]");
    }

    /// The parser this module had before [`SpecHead`]: one walk with `str`
    /// splitting that collects every row, kept as the oracle for the
    /// buffered reader.
    fn reference_parse_spec(text: &str) -> Result<Spec, SpecError> {
        reference_parse(text).map(|(spec, _)| spec)
    }

    /// Rows in file order, as `(relation index in schema order, values)`.
    type FileRows = Vec<(usize, Vec<Value>)>;

    /// [`reference_parse_spec`], with the rows also in file order.
    fn reference_parse(text: &str) -> Result<(Spec, FileRows), SpecError> {
        let mut schemes: Vec<RelationScheme> = Vec::new();
        let mut deps: Vec<(usize, String, Dependency)> = Vec::new();
        let mut rows: Vec<(usize, String, String, Vec<Value>)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (keyword, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            match keyword {
                "schema" => schemes.push(
                    depkit_core::parser::parse_scheme(rest)
                        .map_err(|e| err(line_no, line, e.to_string()))?,
                ),
                "dep" => deps.push((
                    line_no,
                    line.to_owned(),
                    rest.parse()
                        .map_err(|e: CoreError| err(line_no, line, e.to_string()))?,
                )),
                "row" => {
                    let mut parts = rest.split_whitespace();
                    let rel = parts
                        .next()
                        .ok_or_else(|| err(line_no, line, "row needs a relation name"))?
                        .to_string();
                    rows.push((
                        line_no,
                        line.to_owned(),
                        rel,
                        parts.map(parse_value).collect(),
                    ));
                }
                other => {
                    return Err(err(
                        line_no,
                        line,
                        format!("unknown directive `{other}` (expected schema/dep/row)"),
                    ))
                }
            }
        }
        let schema = DatabaseSchema::new(schemes).map_err(|e| err(0, "", e.to_string()))?;
        let mut constraints = ConstraintSet::new(schema.clone(), Vec::new())
            .map_err(|e| err(0, "", e.to_string()))?;
        for (line_no, text, dep) in deps {
            constraints
                .push(dep)
                .map_err(|e| err(line_no, &text, e.to_string()))?;
        }
        let mut database = Database::empty(schema.clone());
        let mut in_order = Vec::with_capacity(rows.len());
        for (line_no, text, rel, values) in rows {
            let name = RelName::new(&rel);
            database
                .insert(&name, Tuple::new(values.clone()))
                .map_err(|e| err(line_no, &text, e.to_string()))?;
            in_order.push((schema.scheme_index(&name).unwrap(), values));
        }
        let spec = Spec {
            constraints,
            database,
        };
        Ok((spec, in_order))
    }

    /// Both parsers agree: the same schema, Σ and rows, or the same error
    /// at the same line with the same text. Returns whether they parsed.
    fn assert_parsers_agree(text: &str) -> bool {
        match (parse_spec(text), reference_parse_spec(text)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.constraints.schema(), b.constraints.schema());
                assert_eq!(a.constraints.dependencies(), b.constraints.dependencies());
                assert_eq!(a.database, b.database);
                assert_rows_in_file_order(text);
                true
            }
            (Err(a), Err(b)) => {
                assert_eq!((a.line, a.message, a.text), (b.line, b.message, b.text));
                false
            }
            (a, b) => panic!("parsers disagree on {text:?}: {a:?} vs {b:?}"),
        }
    }

    /// [`SpecHead::rows`] replays the reference's rows in file order.
    fn assert_rows_in_file_order(text: &str) {
        let head = SpecHead::parse(text).unwrap();
        let rows: FileRows = head.rows().map(|(r, v)| (r, v.collect())).collect();
        assert_eq!(rows, reference_parse(text).unwrap().1, "{text:?}");
    }

    #[test]
    fn the_buffered_reader_matches_the_reference_on_every_fixture() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "dep") {
                assert_parsers_agree(&std::fs::read_to_string(&path).unwrap());
                seen += 1;
            }
        }
        assert!(seen >= 5, "found only {seen} fixtures in {dir}");
    }

    #[test]
    fn rows_may_come_before_the_schema_and_errors_keep_their_lines() {
        let rows_first = "row EMP noether math\nrow MGR hilbert math\n\
                          row EMP hilbert math\n# late schema\n\
                          schema EMP(NAME, DEPT)\nschema MGR(NAME, DEPT)\n\
                          dep MGR[NAME, DEPT] <= EMP[NAME, DEPT]\n";
        assert_parsers_agree(rows_first);
        assert_eq!(parse_spec(rows_first).unwrap().database.total_tuples(), 3);
        assert_parsers_agree(SAMPLE);
        for bad in [
            "schema R(A)\nrow R 1\nrow S 2\nrow R 3 4\n",
            "schema R(A)\nrow R 1\nrow R 3 4\nrow S 2\n",
            "row R 1 2\nschema R(A)\n",
            "schema R(A)\nrow\n",
            "schema R(A)\nrow R 1\ndep S[A] <= R[A]\nrow S 2\n",
            "schema R(A)\nrow R 1\nbogus\n",
            "schema R(A\nrow R 1\n",
            "schema R(A)\nschema R(B)\n",
        ] {
            assert_parsers_agree(bad);
        }
    }

    #[test]
    fn a_bad_row_fails_the_head_before_any_row_is_yielded() {
        // Good rows first, then one naming an unknown relation: the head
        // refuses the spec, so no consumer ever receives the good rows.
        let e = SpecHead::parse("schema R(A)\nrow R 1\nrow R 2\nrow S 3\n").unwrap_err();
        assert_eq!((e.line, e.text.as_str()), (4, "row S 3"));
        assert!(e.message.contains("unknown relation `S`"), "{e}");
        let e = SpecHead::parse("schema R(A)\nrow R 1\nrow R 2 3\n").unwrap_err();
        assert_eq!((e.line, e.text.as_str()), (3, "row R 2 3"));
        assert!(e.message.contains("arity"), "{e}");
        let head = SpecHead::parse("row R x\nschema S(B)\nschema R(A)\nrow S 7\n").unwrap();
        let rows: Vec<(usize, Vec<Value>)> = head.rows().map(|(r, v)| (r, v.collect())).collect();
        assert_eq!(
            rows,
            vec![(1, vec![Value::str("x")]), (0, vec![Value::Int(7)])]
        );
    }

    /// Separators between `row` tokens: every ASCII byte
    /// `char::is_whitespace` accepts, and non-ASCII whitespace, which sends
    /// a line down the `str` path.
    const SEPARATORS: [&str; 10] = [
        " ", " ", "\t", "\x0B", "\x0C", "\r", "\u{85}", "\u{A0}", "\u{2028}", "\u{3000}",
    ];

    /// `row` values: ints in their several spellings, tokens `i64::from_str`
    /// refuses (a bare or doubled sign), the ends of `i64`, 19- and 20-digit
    /// overflows, digit runs of 18 and 19, and non-ASCII strings.
    const VALUES: [&str; 24] = [
        "0",
        "7",
        "007",
        "+7",
        "-0",
        "-",
        "+",
        "+-1",
        "-+1",
        "x",
        "7x",
        "12ab",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "-9223372036854775809",
        "12345678901234567890",
        "000000000000000000000042",
        "999999999999999999",
        "-999999999999999999",
        "1234567890123456789",
        "ü",
        "日本",
        "7\u{301}",
    ];

    /// A seeded random spec: `schema`, `dep`, `row`, comment and blank
    /// lines in any order, mixed separators and line endings, and with some
    /// probability a few injected faults.
    fn random_spec(seed: u64) -> String {
        let mut rng = Rng::new(seed);
        let names = ["R", "S", "T", "Ü"];
        let arities: Vec<usize> = (0..rng.range(1, 3)).map(|_| rng.range(1, 3)).collect();
        // A third of the specs separate with non-ASCII whitespace too.
        let separators = &SEPARATORS[..if rng.chance(1, 3) { 10 } else { 6 }];
        let sep = |rng: &mut Rng| -> String {
            let n = rng.range(1, 2);
            (0..n).map(|_| *rng.choose(separators)).collect()
        };
        let row = |rng: &mut Rng, rel: &str, arity: usize| -> String {
            let mut line = format!("row{}{rel}", sep(rng));
            for _ in 0..arity {
                line.push_str(&sep(rng));
                line.push_str(rng.choose::<&str>(&VALUES));
            }
            line
        };
        let mut lines: Vec<String> = Vec::new();
        for (r, &arity) in arities.iter().enumerate() {
            for _ in 0..rng.range(0, 6) {
                lines.push(row(&mut rng, names[r], arity));
            }
        }
        for (r, &arity) in arities.iter().enumerate() {
            let attrs: Vec<String> = (0..arity).map(|c| format!("A{c}")).collect();
            let at = rng.range(0, lines.len());
            lines.insert(at, format!("schema {}({})", names[r], attrs.join(", ")));
        }
        if rng.chance(1, 2) {
            let r = rng.below(arities.len());
            let dep = if arities[r] > 1 {
                format!("dep {}: A0 -> A1", names[r])
            } else {
                format!("dep {n}[A0] <= {n}[A0]", n = names[r])
            };
            let at = rng.range(0, lines.len());
            lines.insert(at, dep);
        }
        for extra in ["# a comment", "", "   "] {
            if rng.chance(1, 3) {
                let at = rng.range(0, lines.len());
                lines.insert(at, extra.to_owned());
            }
        }
        if rng.chance(2, 3) {
            for _ in 0..rng.range(1, 3) {
                let r = rng.below(arities.len());
                let fault = match rng.below(9) {
                    0 => row(&mut rng, "Q", 1),
                    1 => row(&mut rng, names[r], arities[r] + 1),
                    2 => row(&mut rng, names[r], arities[r] - 1),
                    3 => format!("row{}", sep(&mut rng)),
                    4 => format!("schema {}(A0", names[r]),
                    5 => format!("dep {}[Z] <= {}[A0]", names[r], names[r]),
                    6 => "dep ???".to_owned(),
                    7 => "bogus 1 2".to_owned(),
                    _ => row(&mut rng, names[arities.len()], 1),
                };
                // Early faults are likelier to be a relation's first row.
                let at = rng.range(0, lines.len() / 2);
                lines.insert(at, fault);
            }
        }
        let mut text = String::new();
        for line in lines {
            if rng.chance(1, 4) {
                text.push_str(&sep(&mut rng));
            }
            text.push_str(&line);
            if rng.chance(1, 4) {
                text.push_str(&sep(&mut rng));
            }
            text.push_str(if rng.chance(1, 3) { "\r\n" } else { "\n" });
        }
        text
    }

    /// The one-pass reader against the reference on seeded random specs:
    /// the same schema, Σ and rows (`rows()` in file order), or the same
    /// `(line, message, text)` error; no input panics. The generator must
    /// reach both outcomes, both line paths (ASCII lines split by `\x0B`
    /// among them), and specs that fail after their first row.
    #[test]
    fn the_one_pass_reader_matches_the_reference_on_random_specs() {
        let (mut parsed, mut refused, mut later_bad) = (0, 0, 0);
        let (mut ascii_vt, mut unicode) = (0, 0);
        for seed in 0..2000 {
            let text = random_spec(seed);
            if assert_parsers_agree(&text) {
                parsed += 1;
            } else {
                refused += 1;
            }
            let rows = || text.lines().filter(|l| l.contains("row"));
            ascii_vt += usize::from(rows().any(|l| l.is_ascii() && l.contains('\x0B')));
            unicode += usize::from(rows().any(|l| !l.is_ascii()));
            if let Err(e) = parse_spec(&text) {
                let first_row = text
                    .lines()
                    .position(|l| l.trim_start().starts_with("row "));
                later_bad += usize::from(first_row.is_some_and(|at| e.line > at + 1));
            }
        }
        assert!(parsed >= 400, "{parsed} random specs parsed");
        assert!(refused >= 400, "{refused} random specs refused");
        assert!(
            ascii_vt >= 400,
            "{ascii_vt} specs with an ASCII row line split by \\x0B"
        );
        assert!(unicode >= 400, "{unicode} specs with non-ASCII row lines");
        assert!(
            later_bad >= 100,
            "{later_bad} specs failing after their first row"
        );
    }

    /// A spec whose relations interleave and whose rows precede its
    /// `schema` lines seeds a catalog through [`SpecHead::rows`] exactly as
    /// the reference's rows in file order do: equal checkpoint documents,
    /// so equal interner ids and checkpoint bytes. Seeding the same rows in
    /// another order yields a different document, so the check has teeth.
    #[test]
    fn seeding_from_the_replayed_rows_matches_the_reference_file_order() {
        use depkit_solver::incremental::CatalogState;
        let text = "row MGR noether math\nrow EMP hilbert math\n\
                    row MGR hilbert 7\nrow EMP noether math\nrow EMP ada 7\n\
                    row EMP hilbert math\n\
                    schema EMP(NAME, DEPT)\nschema MGR(NAME, DEPT)\n\
                    dep MGR[NAME, DEPT] <= EMP[NAME, DEPT]\ndep EMP: NAME -> DEPT\n";
        let (spec, in_order) = reference_parse(text).unwrap();
        let sigma = spec.constraints.dependencies().to_vec();
        let seeded = |rows: FileRows| {
            let cat = CatalogState::new(spec.constraints.schema(), &sigma).unwrap();
            cat.seed_rows(rows).unwrap();
            cat.quiesced(|d| d.clone())
        };
        let head = SpecHead::parse(text).unwrap();
        let replayed: FileRows = head.rows().map(|(r, v)| (r, v.collect())).collect();
        let mut by_relation = in_order.clone();
        by_relation.sort_by_key(|(r, _)| *r);
        let want = seeded(in_order);
        assert_eq!(seeded(replayed), want);
        assert_ne!(seeded(by_relation), want);
    }

    /// `parse_deltas` over mutated scripts never panics.
    #[test]
    fn mutated_delta_scripts_parse_or_fail_without_panicking() {
        let script = "insert EMP noether math # queue\r\ndelete MGR 7 -0\ncommit\n\
                      insert EMP 9223372036854775808 x\n";
        let palette: Vec<char> = "#\n\r\t\x0B\x0C \u{85}\u{A0}\u{3000}-+0ü日commitinsertdelete"
            .chars()
            .collect();
        let mut rng = Rng::new(17);
        for _ in 0..2000 {
            let mut chars: Vec<char> = script.chars().collect();
            for _ in 0..rng.range(1, 6) {
                let at = rng.below(chars.len() + 1);
                match rng.below(3) {
                    0 => chars.insert(at, *rng.choose(&palette)),
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ => chars.truncate(at),
                }
            }
            let text: String = chars.into_iter().collect();
            let _ = parse_deltas(&text);
        }
    }

    #[test]
    fn parses_delta_batches() {
        let script = "\
# warm-up
insert EMP noether math   # inline comments are stripped
delete MGR hilbert math
commit                    # batch boundary
commit
insert EMP banach 7
";
        let batches = parse_deltas(script).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].inserts.len(), 1);
        assert_eq!(batches[0].deletes.len(), 1);
        // Trailing ops without `commit` form a final batch.
        assert_eq!(batches[1].inserts.len(), 1);
        assert_eq!(
            batches[1].inserts[0].1,
            Tuple::new(vec![Value::str("banach"), Value::Int(7)])
        );
    }

    #[test]
    fn delta_errors_carry_line_numbers_and_offending_text() {
        let e = parse_deltas("insert R 1\nupsert R 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "upsert R 2");
        assert!(e.to_string().contains("(in `upsert R 2`)"), "{e}");
        let e2 = parse_deltas("insert\n").unwrap_err();
        assert_eq!(e2.line, 1);
        assert_eq!(e2.text, "insert");
    }

    #[test]
    fn violations_detected() {
        let spec = parse_spec("schema R(A, B)\ndep R: A -> B\nrow R 1 2\nrow R 1 3\n").unwrap();
        let v = spec.constraints.validate(&spec.database).unwrap();
        assert_eq!(v.len(), 1);
    }
}
