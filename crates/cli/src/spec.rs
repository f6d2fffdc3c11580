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

/// The directive lines of a spec: `(line number, trimmed line, keyword,
/// rest)` for every line that is neither blank nor a `#` comment.
fn directives(text: &str) -> impl Iterator<Item = (usize, &str, &str, &str)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        Some((idx + 1, line, keyword, rest))
    })
}

/// A spec's constraints, parsed, with every `row` line already checked
/// against the schema (relation and arity) but none materialized.
///
/// This is the first of the spec's two passes. The second,
/// [`SpecHead::rows`], walks the text again and yields each row, so a
/// consumer that wants the rows in another form than a [`Database`] —
/// `depkit serve` seeding its catalog, `depkit discover` building its
/// column store — never holds them twice. Because every row was checked
/// before any is yielded, a bad row fails the parse before a consumer has
/// applied anything.
#[derive(Debug)]
pub struct SpecHead<'a> {
    text: &'a str,
    /// Schema + dependencies.
    pub constraints: ConstraintSet,
}

impl<'a> SpecHead<'a> {
    /// Parse the `schema` and `dep` lines of `text` and check its `row`
    /// lines. Lines may come in any order; errors carry the line number
    /// and text of the first offending line.
    pub fn parse(text: &'a str) -> Result<SpecHead<'a>, SpecError> {
        let mut schemes: Vec<RelationScheme> = Vec::new();
        let mut deps: Vec<(usize, &str, Dependency)> = Vec::new();
        for (line_no, line, keyword, rest) in directives(text) {
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
                "row" => {}
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
        let schemes = constraints.schema().schemes();
        for (line_no, line, rel, values) in row_lines(text) {
            let arity = values.count();
            let checked = match relation_index(schemes, rel) {
                None => Err(CoreError::UnknownRelation(rel.to_owned())),
                Some(r) if schemes[r].arity() != arity => Err(CoreError::TupleArity {
                    relation: rel.to_owned(),
                    expected: schemes[r].arity(),
                    actual: arity,
                }),
                Some(_) => Ok(()),
            };
            checked.map_err(|e| err(line_no, line, e.to_string()))?;
        }
        Ok(SpecHead { text, constraints })
    }

    /// The second pass: every row, in file order, as `(relation index in
    /// schema order, values)`. Each row's values are parsed as they are
    /// read, so a consumer that buffers them its own way never sees a
    /// per-row `Vec`.
    pub fn rows(&self) -> impl Iterator<Item = (usize, impl Iterator<Item = Value> + '_)> + '_ {
        let schemes = self.constraints.schema().schemes();
        row_lines(self.text).map(move |(_, _, rel, values)| {
            let r = relation_index(schemes, rel).expect("SpecHead::parse checked every relation");
            (r, values.map(parse_value))
        })
    }
}

/// The `row` lines of a spec: `(line number, trimmed line, relation,
/// value tokens)`. [`SpecHead::parse`] has refused any row line without a
/// relation before this runs.
fn row_lines(
    text: &str,
) -> impl Iterator<Item = (usize, &str, &str, std::str::SplitWhitespace<'_>)> {
    directives(text)
        .filter(|d| d.2 == "row")
        .map(|(line_no, line, _, rest)| {
            let mut parts = rest.split_whitespace();
            let rel = parts.next().expect("row lines name a relation");
            (line_no, line, rel, parts)
        })
}

fn relation_index(schemes: &[RelationScheme], rel: &str) -> Option<usize> {
    schemes.iter().position(|s| s.name().name() == rel)
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

    /// The one-pass parser this module had before the constraints pass and
    /// the row pass were split, kept as the oracle for the split parser.
    fn reference_parse_spec(text: &str) -> Result<Spec, SpecError> {
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
        let mut database = Database::empty(schema);
        for (line_no, text, rel, values) in rows {
            database
                .insert(&RelName::new(&rel), Tuple::new(values))
                .map_err(|e| err(line_no, &text, e.to_string()))?;
        }
        Ok(Spec {
            constraints,
            database,
        })
    }

    /// Both parsers agree: the same schema, Σ and rows, or the same error
    /// at the same line with the same text.
    fn assert_parsers_agree(text: &str) {
        match (parse_spec(text), reference_parse_spec(text)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.constraints.schema(), b.constraints.schema());
                assert_eq!(a.constraints.dependencies(), b.constraints.dependencies());
                assert_eq!(a.database, b.database);
            }
            (Err(a), Err(b)) => {
                assert_eq!((a.line, a.message, a.text), (b.line, b.message, b.text))
            }
            (a, b) => panic!("parsers disagree on {text:?}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn the_two_pass_parse_matches_the_one_pass_parse_on_every_fixture() {
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
