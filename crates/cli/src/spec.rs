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
//! [`SpecHead::parse_on`] reads a spec in one pass over its bytes, on the
//! threads the caller grants. The text is cut into chunks of about 1 MiB
//! that end at line ends, and each thread claims one unread chunk at a
//! time. A chunk is read on its own: `schema` and `dep` lines are parsed as
//! they are met, and each `row` line is tokenized once, straight into that
//! chunk's [`RowBuffer`](depkit_core::RowBuffer) segment for its relation.
//! An ASCII `row` line is scanned byte by byte, without first finding its
//! end: keyword, relation name and values are split on ASCII whitespace
//! and integers are summed as they are read. Any other line goes through
//! `str::trim`, `str::split_whitespace` and `str::parse`, which read ASCII
//! the same way; a `row` line switches to them at its first value with a
//! non-ASCII byte. Each chunk keeps its line count and its own records of a
//! bad directive, of each relation's first row and of the first row whose
//! value count differs. Merged in chunk order, they give the rows, line
//! numbers and first error of a one-chunk read at any thread count.
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
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Bytes of text per chunk: a chunk runs on to the end of the line in
/// which it reaches this size.
const CHUNK_BYTES: usize = 1 << 20;

/// A spec's constraints, parsed, and its rows, read into [`RowBuffer`]
/// segments per relation — all in one pass over the text.
///
/// Each `row` line is tokenized once, straight into its relation's segment
/// for the chunk it is in: ints inline, other values in the buffer's side
/// list. Rows may come before the `schema` lines, so until every chunk is
/// read the segments are keyed by relation name; then every row is checked
/// against the schema (relation and arity) and the segments are put in
/// schema order. A bad row fails the parse before a consumer has seen any
/// row.
///
/// The head does not borrow the text, so a caller can free the text
/// before it builds from the rows. `depkit discover` hands the segments to
/// [`ColumnStore::from_buffers`](depkit_core::ColumnStore::from_buffers)
/// through [`SpecHead::into_parts`]; `depkit serve` seeds its catalog from
/// [`SpecHead::rows`], which replays the rows in file order.
#[derive(Debug)]
pub struct SpecHead {
    /// Schema + dependencies.
    pub constraints: ConstraintSet,
    /// Each relation's rows as segments in file order, one list per
    /// relation in schema order; a relation without rows has one empty
    /// segment.
    segments: Vec<Vec<RowBuffer>>,
    /// The file's rows as runs of `(relation, row count)`, in file order.
    /// A run lies within one segment.
    runs: Vec<(usize, usize)>,
}

impl SpecHead {
    /// [`SpecHead::parse_on`] on one thread.
    pub fn parse(text: &str) -> Result<SpecHead, SpecError> {
        Self::parse_on(text, 1)
    }

    /// Parse the `schema` and `dep` lines of `text` and read its `row`
    /// lines, on up to `threads` threads. Lines may come in any order. The
    /// first error wins in this order: a bad directive line (in file
    /// order), then the schema, then the dependencies, then the first bad
    /// row in the file; each carries the line number and text of its line.
    /// Rows, their order and the error do not depend on `threads`.
    pub fn parse_on(text: &str, threads: usize) -> Result<SpecHead, SpecError> {
        Self::parse_chunks(text, &chunk_ends(text, CHUNK_BYTES), threads)
    }

    /// [`SpecHead::parse_on`] over the chunks of `text` that end at `ends`:
    /// increasing byte offsets, each just past a `\n` or at the end of the
    /// text, the last at its end.
    pub(crate) fn parse_chunks(
        text: &str,
        ends: &[usize],
        threads: usize,
    ) -> Result<SpecHead, SpecError> {
        let mut schemes: Vec<RelationScheme> = Vec::new();
        let mut deps: Vec<(usize, &str, Dependency)> = Vec::new();
        let mut rows = RowReader::default();
        // The lines before the chunk being merged.
        let mut base = 0;
        for chunk in read_chunks(text, ends, threads) {
            if let Some(mut e) = chunk.failed {
                e.line += base;
                return Err(e);
            }
            schemes.extend(chunk.schemes);
            deps.extend(
                chunk
                    .deps
                    .into_iter()
                    .map(|(line_no, line, dep)| (base + line_no, line, dep)),
            );
            rows.absorb(chunk.rows, base);
            base += chunk.lines;
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
    /// values)`, replayed from the segments.
    pub fn rows(&self) -> impl Iterator<Item = (usize, impl Iterator<Item = Value> + '_)> + '_ {
        // Per relation: the segment the next run reads, and its next row.
        let mut next = vec![(0, 0); self.segments.len()];
        self.runs.iter().flat_map(move |&(r, count)| {
            let (seg, start) = next[r];
            let segment = &self.segments[r][seg];
            next[r] = if start + count == segment.row_count() {
                (seg + 1, 0)
            } else {
                (seg, start + count)
            };
            (start..start + count).map(move |row| (r, segment.row(row)))
        })
    }

    /// The constraints, and the rows as segments per relation in schema
    /// order, ready for
    /// [`ColumnStore::from_buffers`](depkit_core::ColumnStore::from_buffers).
    pub fn into_parts(self) -> (ConstraintSet, Vec<Vec<RowBuffer>>) {
        (self.constraints, self.segments)
    }
}

/// The ends of `text`'s chunks: each holds whole lines, at least `size`
/// (≥ 1) bytes of them unless it is the last.
fn chunk_ends(text: &str, size: usize) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut ends = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        at = line_end(bytes, (at + size).min(bytes.len()) - 1) + 1;
        ends.push(at.min(bytes.len()));
    }
    ends
}

/// Read the chunks of `text` that end at `ends`, in chunk order, on up to
/// `threads` threads: the calling thread and its helpers each claim the
/// next unread chunk until none is left. A claim takes one chunk, not the
/// 16 tasks of a `pool::map_indexed_with` claim, which would read any spec
/// of up to 16 chunks on one thread.
fn read_chunks<'a>(text: &'a str, ends: &[usize], threads: usize) -> Vec<ChunkRead<'a>> {
    // The counter publishes no data: each chunk comes back through `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut read = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&end) = ends.get(k) else {
                return read;
            };
            let start = if k == 0 { 0 } else { ends[k - 1] };
            read.push((k, ChunkRead::read(text, start..end)));
        }
    };
    let mut chunks: Vec<(usize, ChunkRead)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(ends.len()))
            .map(|_| scope.spawn(claim))
            .collect();
        let mut read = claim();
        for helper in helpers {
            read.extend(helper.join().expect("spec reader thread panicked"));
        }
        read
    });
    chunks.sort_unstable_by_key(|&(k, _)| k);
    chunks.into_iter().map(|(_, chunk)| chunk).collect()
}

/// One chunk of a spec, read on its own. Line numbers count from the
/// chunk's first line; [`SpecHead::parse_chunks`] shifts them by the lines
/// before the chunk.
#[derive(Default)]
struct ChunkRead<'a> {
    /// The lines read, as `str::lines` counts them.
    lines: usize,
    schemes: Vec<RelationScheme>,
    /// `(line number, line, dependency)`, in file order.
    deps: Vec<(usize, &'a str, Dependency)>,
    rows: RowReader<'a>,
    /// The chunk's first bad directive line; reading stops there.
    failed: Option<SpecError>,
}

impl<'a> ChunkRead<'a> {
    /// Read the lines of `text[chunk]`, which starts a line and ends one.
    fn read(text: &'a str, chunk: Range<usize>) -> Self {
        let mut read = ChunkRead::default();
        let mut at = chunk.start;
        while at < chunk.end {
            read.lines += 1;
            match read.line(text, at) {
                Ok(next) => at = next,
                Err(e) => {
                    read.failed = Some(e);
                    break;
                }
            }
        }
        read
    }

    /// Read the line that starts at byte `at`, and return where the next
    /// one starts (one past the end of the text after its last line). A
    /// `row` line whose keyword and relation name are ASCII is scanned
    /// here; any other line goes to [`ChunkRead::str_line`].
    fn line(&mut self, text: &'a str, at: usize) -> Result<usize, SpecError> {
        let bytes = text.as_bytes();
        let keyword = skip_blanks(bytes, at);
        if bytes[keyword..].starts_with(b"row") && bytes.get(keyword + 3).is_some_and(is_blank) {
            let name = skip_blanks(bytes, keyword + 3);
            let name_end = name
                + bytes[name..]
                    .iter()
                    .position(|b| !b.is_ascii() || is_space(b))
                    .unwrap_or(bytes.len() - name);
            if name_end > name && bytes.get(name_end).is_none_or(u8::is_ascii) {
                return Ok(self.row(text, at, name..name_end));
            }
        }
        let end = line_end(bytes, at);
        self.str_line(&text[at..end])?;
        Ok(end + 1)
    }

    /// Buffer the `row` line that starts at byte `at` and names its
    /// relation at `name`, and return where the next line starts.
    fn row(&mut self, text: &'a str, at: usize, name: Range<usize>) -> usize {
        let bytes = text.as_bytes();
        let line_no = self.lines;
        let values = name.end;
        let first = || {
            let end = line_end(bytes, values);
            (&text[at..end], text[values..end].split_whitespace().count())
        };
        let Some(n) = self.rows.open(line_no, &text[name], first) else {
            return line_end(bytes, values) + 1;
        };
        let end = push_values(text, values, self.rows.segment(n));
        self.rows.close(n, line_no, &text[at..end]);
        end + 1
    }

    /// Read one line through `str`.
    fn str_line(&mut self, raw: &'a str) -> Result<(), SpecError> {
        let line_no = self.lines;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        match keyword {
            "schema" => {
                let scheme = depkit_core::parser::parse_scheme(rest)
                    .map_err(|e| err(line_no, line, e.to_string()))?;
                self.schemes.push(scheme);
            }
            "dep" => {
                let dep: Dependency = rest
                    .parse()
                    .map_err(|e: CoreError| err(line_no, line, e.to_string()))?;
                self.deps.push((line_no, line, dep));
            }
            "row" if rest.is_empty() => {
                return Err(err(line_no, line, "row needs a relation name"))
            }
            "row" => {
                let (name, values) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
                let first = || (line, values.split_whitespace().count());
                if let Some(n) = self.rows.open(line_no, name, first) {
                    push_values(values, 0, self.rows.segment(n));
                    self.rows.close(n, line_no, line);
                }
            }
            other => {
                return Err(err(
                    line_no,
                    line,
                    format!("unknown directive `{other}` (expected schema/dep/row)"),
                ))
            }
        }
        Ok(())
    }
}

/// The `row` lines of a spec, before the schema is known: one entry per
/// relation name, in first-seen order. A chunk's reader fills one segment
/// per relation; [`RowReader::absorb`] appends each later chunk's.
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
    /// The rows, one segment per chunk that has any, in file order.
    segments: Vec<RowBuffer>,
}

impl NamedRows<'_> {
    /// The value count of the relation's first row.
    fn arity(&self) -> usize {
        self.segments[0].arity()
    }
}

impl<'a> RowReader<'a> {
    /// Open a row of relation `name` on line `line_no` and return its
    /// `named` index, or `None` once `mismatch` is set. A relation not seen
    /// before in the chunk takes its line and value count from `first`.
    fn open(
        &mut self,
        line_no: usize,
        name: &'a str,
        first: impl FnOnce() -> (&'a str, usize),
    ) -> Option<usize> {
        if self.mismatch.is_some() {
            return None;
        }
        Some(match self.runs.last_mut() {
            Some((n, count)) if self.named[*n].name == name => {
                *count += 1;
                *n
            }
            _ => {
                let n = *self.index.entry(name).or_insert_with(|| {
                    let (line, arity) = first();
                    self.named.push(NamedRows {
                        name,
                        first: (line_no, line),
                        segments: vec![RowBuffer::new(arity)],
                    });
                    self.named.len() - 1
                });
                self.runs.push((n, 1));
                n
            }
        })
    }

    /// The segment a chunk's reader pushes relation `n`'s values into.
    fn segment(&mut self, n: usize) -> &mut RowBuffer {
        &mut self.named[n].segments[0]
    }

    /// Close the open row of relation `n`. A row whose value count differs
    /// from the relation's first row's is taken back out and recorded as
    /// `mismatch`.
    fn close(&mut self, n: usize, line_no: usize, line: &'a str) {
        if let Err(count) = self.segment(n).end_row() {
            self.mismatch = Some((line_no, line, n, count));
        }
    }

    /// Append the rows of the chunk after those absorbed so far, whose
    /// line numbers start after `base` lines. A chunk's first row of a
    /// relation seen before is bad when its value count differs, so the
    /// first such row and the chunk's own `mismatch` compete for the
    /// file's; once that is set, later chunks' rows are dropped.
    fn absorb(&mut self, chunk: RowReader<'a>, base: usize) {
        if self.mismatch.is_some() {
            return;
        }
        let mut mismatch = chunk
            .mismatch
            .map(|(line_no, line, n, count)| (base + line_no, line, n, count));
        let mut slots = Vec::with_capacity(chunk.named.len());
        for (n, named) in chunk.named.into_iter().enumerate() {
            let (line_no, line) = named.first;
            let line_no = base + line_no;
            let g = match self.index.get(named.name) {
                Some(&g) => {
                    let actual = named.arity();
                    if actual != self.named[g].arity()
                        && mismatch.is_none_or(|(at, ..)| line_no < at)
                    {
                        mismatch = Some((line_no, line, n, actual));
                    }
                    self.named[g].segments.extend(named.segments);
                    g
                }
                None => {
                    self.index.insert(named.name, self.named.len());
                    self.named.push(NamedRows {
                        first: (line_no, line),
                        ..named
                    });
                    self.named.len() - 1
                }
            };
            slots.push(g);
        }
        self.mismatch = mismatch.map(|(line_no, line, n, count)| (line_no, line, slots[n], count));
        self.runs
            .extend(chunk.runs.into_iter().map(|(n, count)| (slots[n], count)));
    }

    /// Check every row against the schema and put the segments in schema
    /// order, with the runs renumbered to match. The first bad row in the
    /// file is the earlier of the first row of the first relation the
    /// schema rejects (first-seen order is file order) and `mismatch`.
    fn finish(self, constraints: ConstraintSet) -> Result<SpecHead, SpecError> {
        let schema = constraints.schema();
        let schemes = schema.schemes();
        let mut slots = Vec::with_capacity(self.named.len());
        let mut rejected = None;
        for named in &self.named {
            let actual = named.arity();
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
            rejected = Some((named.first, e));
            break;
        }
        let mismatch = self.mismatch.map(|(line_no, line, n, actual)| {
            let named = &self.named[n];
            let e = CoreError::TupleArity {
                relation: named.name.into(),
                expected: named.arity(),
                actual,
            };
            ((line_no, line), e)
        });
        let first_bad = [rejected, mismatch]
            .into_iter()
            .flatten()
            .min_by_key(|((line_no, _), _)| *line_no);
        if let Some(((line_no, line), e)) = first_bad {
            return Err(err(line_no, line, e.to_string()));
        }
        let mut segments: Vec<Vec<RowBuffer>> = schemes
            .iter()
            .map(|s| vec![RowBuffer::new(s.arity())])
            .collect();
        for (named, &r) in self.named.into_iter().zip(&slots) {
            segments[r] = named.segments;
        }
        let runs = self
            .runs
            .into_iter()
            .map(|(n, count)| (slots[n], count))
            .collect();
        Ok(SpecHead {
            constraints,
            segments,
            runs,
        })
    }
}

/// Whether `b` separates `row` values: exactly the ASCII bytes
/// `char::is_whitespace` accepts, so ASCII splits as `split_whitespace`
/// would split it (`u8::is_ascii_whitespace` lacks `\x0B`).
fn is_space(b: &u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// [`is_space`] within a line: any but `\n`.
fn is_blank(b: &u8) -> bool {
    *b != b'\n' && is_space(b)
}

/// The first byte at or after `at` that is not [`is_blank`].
fn skip_blanks(bytes: &[u8], mut at: usize) -> usize {
    while bytes.get(at).is_some_and(is_blank) {
        at += 1;
    }
    at
}

/// The `\n` that ends the line holding byte `at`, or the end of `bytes`.
fn line_end(bytes: &[u8], at: usize) -> usize {
    at + bytes[at..]
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len() - at)
}

/// Push the values from byte `at` of `text` to the end of its line into
/// `rows`, and return where the line ends (its `\n`, or the end of the
/// text). While tokens are ASCII they are split on [`is_space`] bytes and
/// each is summed as an integer while it is scanned: a sign and 1 to 18
/// digits cannot overflow, so they are an `i64` as `i64::from_str` reads
/// them, and any other token goes to [`parse_value`]. From the first token
/// with a non-ASCII byte on, the rest of the line goes through
/// `str::split_whitespace`, which splits the ASCII part the same way.
fn push_values(text: &str, mut at: usize, rows: &mut RowBuffer) -> usize {
    let bytes = text.as_bytes();
    loop {
        at = skip_blanks(bytes, at);
        if bytes.get(at).is_none_or(|&b| b == b'\n') {
            return at;
        }
        let start = at;
        let negative = bytes[at] == b'-';
        if negative || bytes[at] == b'+' {
            at += 1;
        }
        let digits = at;
        // Past 18 digits the sum may wrap, but it is not used.
        let mut v: i64 = 0;
        while let Some(d) = bytes
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d <= 9)
        {
            v = v.wrapping_mul(10).wrapping_add(i64::from(d));
            at += 1;
        }
        if (1..=18).contains(&(at - digits)) && bytes.get(at).is_none_or(is_space) {
            rows.push_int(if negative { -v } else { v });
            continue;
        }
        while bytes.get(at).is_some_and(|b| b.is_ascii() && !is_space(b)) {
            at += 1;
        }
        if bytes.get(at).is_some_and(|b| !b.is_ascii()) {
            let end = line_end(bytes, at);
            for token in text[start..end].split_whitespace() {
                rows.push(parse_value(token));
            }
            return end;
        }
        rows.push(parse_value(&text[start..at]));
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
    /// at the same line with the same text; and chunked reads agree with
    /// the one-chunk read. Returns whether they parsed.
    fn assert_parsers_agree(text: &str) -> bool {
        assert_chunked_reads_agree(text);
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

    /// Chunk ends after every `per` lines.
    fn line_chunks(text: &str, per: usize) -> Vec<usize> {
        let mut ends: Vec<usize> = text
            .match_indices('\n')
            .map(|(at, _)| at + 1)
            .skip(per - 1)
            .step_by(per)
            .collect();
        if ends.last().copied().unwrap_or(0) < text.len() {
            ends.push(text.len());
        }
        ends
    }

    /// Each relation's rows, read from its segments in order.
    fn relation_rows(head: &SpecHead) -> Vec<Vec<Vec<Value>>> {
        head.segments
            .iter()
            .map(|segments| {
                segments
                    .iter()
                    .flat_map(|s| (0..s.row_count()).map(|r| s.row(r).collect()))
                    .collect()
            })
            .collect()
    }

    /// The chunked reader, at one and two lines per chunk and on 1, 2 and
    /// 3 threads, reads `text` as a one-chunk read does: the same schema,
    /// Σ, rows per relation and file-order replay, or the same
    /// `(line, message, text)` error.
    fn assert_chunked_reads_agree(text: &str) {
        let whole = SpecHead::parse_chunks(text, &[text.len()], 1);
        for ends in [chunk_ends(text, 1), line_chunks(text, 2)] {
            for threads in 1..=3 {
                match (&whole, SpecHead::parse_chunks(text, &ends, threads)) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.constraints.schema(), b.constraints.schema());
                        assert_eq!(a.constraints.dependencies(), b.constraints.dependencies());
                        assert_eq!(relation_rows(a), relation_rows(&b), "{text:?}");
                        let replay = |h: &SpecHead| -> FileRows {
                            h.rows().map(|(r, v)| (r, v.collect())).collect()
                        };
                        assert_eq!(replay(a), replay(&b), "{text:?}");
                    }
                    (Err(a), Err(b)) => assert_eq!(
                        (a.line, &a.message, &a.text),
                        (b.line, &b.message, &b.text),
                        "{text:?} in chunks ending at {ends:?}"
                    ),
                    (a, b) => panic!("chunked read disagrees on {text:?}: {a:?} vs {b:?}"),
                }
            }
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

    /// Errors whose records fall in different chunks: a bad row before a
    /// bad `dep` or directive line (which win), a relation's first row and
    /// a row whose arity differs from it, and a chunk's first row of a
    /// known relation racing another chunk's mismatch or an unknown
    /// relation. Each reports what the reference reports, in chunks of one
    /// and two lines and of a few bytes, on 1 to 3 threads.
    #[test]
    fn errors_in_different_chunks_match_a_one_chunk_read() {
        for bad in [
            "schema R(A)\nrow R 1 2\ndep R[Z] <= R[A]\n",
            "schema R(A)\nrow R 1 2\nrow R 3\nbogus\n",
            "row S 1\nschema R(A)\nrow R 1\ndep ???\n",
            "schema R(A, B)\nrow R 1 2\nrow R 3\n",
            "row R 1\nschema R(A, B)\nrow R 1 2\n",
            "schema R(A)\nrow R 1\nrow R 1 2\nrow S 3\n",
            "schema R(A)\nrow R 1\nrow S 3\nrow R 1 2\n",
            "schema R(A)\nschema S(B)\nrow R 1\nrow S 2\nrow S 2 3\nrow R 4 5\n",
            "schema R(A)\nschema S(B)\nrow R 1\nrow S 2\nrow R 4 5\nrow S 2 3\n",
            "schema R(A)\nrow R 1\r\nrow R  2 3\r\nrow R \u{A0}4\n",
            "schema R(A)\nrow R 1\nrow R 2 \u{3000}3\nrow T\n",
        ] {
            assert!(!assert_parsers_agree(bad), "{bad:?} parsed");
            for size in [2, 5, 9, 13] {
                let whole = SpecHead::parse(bad).unwrap_err();
                for threads in 1..=3 {
                    let e =
                        SpecHead::parse_chunks(bad, &chunk_ends(bad, size), threads).unwrap_err();
                    assert_eq!(
                        (e.line, &e.message, &e.text),
                        (whole.line, &whole.message, &whole.text)
                    );
                }
            }
        }
    }

    /// Chunks end just past a `\n` (or at the end of the text), hold at
    /// least the asked-for bytes unless last, and cover the text.
    #[test]
    fn chunks_are_whole_lines_of_at_least_their_size() {
        let text = "row R 1\n\nrow R 22\r\n# x\nrow R 3";
        for size in [1, 2, 8, 9, 10, 30, 100] {
            let ends = chunk_ends(text, size);
            assert_eq!(ends.last(), Some(&text.len()));
            let mut start = 0;
            for (k, &end) in ends.iter().enumerate() {
                assert!(end > start);
                assert!(end == text.len() || text.as_bytes()[end - 1] == b'\n');
                assert!(
                    k + 1 == ends.len() || end - start >= size,
                    "{size}: {ends:?}"
                );
                start = end;
            }
        }
        assert_eq!(chunk_ends(text, 1), [8, 9, 19, 23, 30]);
        assert_eq!(line_chunks(text, 2), [9, 23, 30]);
        assert!(chunk_ends("", 1).is_empty());
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
