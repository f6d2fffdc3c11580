//! Columnar (struct-of-arrays) storage: a [`Database`] compiled into one
//! dense `Vec<u32>` of interned value ids **per attribute**.
//!
//! The paper's checking problems are naturally *columnar*: IND satisfaction
//! is set containment of column projections, FD satisfaction is partition
//! refinement by columns. The row-major
//! [`CompiledRows`](crate::index::CompiledRows) representation pays a
//! pointer chase and a heap allocation per row and re-materializes every
//! projection per call; this module stores each relation
//! column-at-a-time, so the hot scans of the discovery engine and the
//! Rule (*) chase materialization walk contiguous `u32` runs at memory
//! bandwidth.
//!
//! * [`ColumnStore`] — the whole database compiled once: a shared
//!   [`ValueInterner`] plus one [`RelationColumns`] per relation, in schema
//!   order. One builder, [`ColumnStore::from_buffers`], interns rows that a
//!   source has buffered per relation in [`RowBuffer`] segments, and keeps
//!   the relations' set semantics. The CLI's spec reader fills one segment
//!   per relation and text chunk straight from `row` text, never building a
//!   [`Database`];
//!   [`ColumnStore::from_rows`] fills them from `(relation, values)` rows.
//!   Interning is row-major (tuple by tuple), so [`ColumnStore::new`]'s
//!   ids coincide exactly with what
//!   [`CompiledRows`](crate::index::CompiledRows) would assign — the two
//!   representations are interchangeable views of the same id space,
//!   which is what the columnar-vs-rows differential tests pin down.
//! * [`RelationColumns`] — one relation's tuples as parallel columns, with
//!   cheap multi-column key gathers ([`ColumnCursor`]) and a per-column
//!   distinct view ([`RelationColumns::sorted_distinct_stream`]) that
//!   turns SPIDER-style unary IND discovery into a sweep over 64-id
//!   presence words.
//! * [`Refiner`] — the radix-style stripped-partition refinement scratch
//!   replacing the per-level `HashMap<u32, Vec<u32>>` of TANE `refine`:
//!   counting over the dense value-id domain with epoch stamping, zero
//!   hashing, zero clearing between classes.
//! * [`KeySet`] — a membership set of fixed-arity projection keys that
//!   packs short keys into machine words (`u64`/`u128`) so validating an
//!   IND candidate allocates nothing per row.

use crate::database::Database;
use crate::hashing::FastSet;
use crate::index::ValueInterner;
use crate::schema::DatabaseSchema;
use crate::spill::{DistinctStream, SpillStats};
use crate::value::Value;
use std::sync::Arc;

/// Rows per sealed chunk of a [`ChunkedColumn`]. Small enough that the
/// copy-on-write clone triggered by mutating a shared sealed chunk stays
/// cheap, large enough that a snapshot of an `n`-row column clones only
/// `n / 1024` [`Arc`]s.
pub const CHUNK_ROWS: usize = 1024;

/// An append-mostly column of `Copy` cells split into `Arc`-shared sealed
/// chunks plus a mutable tail — the copy-on-write storage unit of the
/// snapshot-isolated catalog.
///
/// The write side ([`ChunkedColumn::push`] / [`ChunkedColumn::set`]) is
/// single-owner, exactly like a `Vec`. What changes is the *read* side:
/// [`ChunkedColumn::snapshot`] produces a [`ChunkedColumnSnapshot`] in
/// `O(len / CHUNK_ROWS)` — it clones the `Arc` per sealed chunk and copies
/// the short tail — and that snapshot stays byte-stable forever:
///
/// * later [`push`](ChunkedColumn::push)es land in the tail (or a fresh
///   chunk), which the snapshot copied;
/// * later [`set`](ChunkedColumn::set)s on a sealed chunk go through
///   [`Arc::make_mut`], so a chunk still referenced by any snapshot is
///   cloned before mutation (copy-on-write) and the snapshot keeps the
///   pre-write cells.
///
/// The catalog stores committed rows this way (one column per attribute
/// plus birth/death generation columns): appends are commits, in-place
/// `set`s only ever touch the death-generation column, and readers scan
/// their pinned snapshot without any lock.
#[derive(Debug, Clone, Default)]
pub struct ChunkedColumn<T: Copy> {
    sealed: Vec<Arc<Vec<T>>>,
    tail: Vec<T>,
}

impl<T: Copy> ChunkedColumn<T> {
    /// An empty column.
    pub fn new() -> Self {
        ChunkedColumn {
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_ROWS + self.tail.len()
    }

    /// Whether the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Append a cell; seals the tail into an `Arc` chunk when it fills.
    pub fn push(&mut self, v: T) {
        self.tail.push(v);
        if self.tail.len() == CHUNK_ROWS {
            let chunk = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK_ROWS));
            self.sealed.push(Arc::new(chunk));
        }
    }

    /// The cell at `i` (panics when out of bounds).
    pub fn get(&self, i: usize) -> T {
        let (c, o) = (i / CHUNK_ROWS, i % CHUNK_ROWS);
        if c < self.sealed.len() {
            self.sealed[c][o]
        } else {
            self.tail[i - self.sealed.len() * CHUNK_ROWS]
        }
    }

    /// Overwrite the cell at `i`. A sealed chunk still shared with a
    /// snapshot is cloned first ([`Arc::make_mut`]), so existing snapshots
    /// keep the pre-write value — this is the copy-on-write edge.
    pub fn set(&mut self, i: usize, v: T) {
        let (c, o) = (i / CHUNK_ROWS, i % CHUNK_ROWS);
        if c < self.sealed.len() {
            Arc::make_mut(&mut self.sealed[c])[o] = v;
        } else {
            self.tail[i - self.sealed.len() * CHUNK_ROWS] = v;
        }
    }

    /// Shorten the column to its first `len` cells (no-op when it is not
    /// longer). Sealed chunks past the cut are released; a chunk the cut
    /// falls inside becomes the new tail as a copy, so a snapshot sharing
    /// that chunk keeps it whole.
    pub fn truncate(&mut self, len: usize) {
        let sealed_len = self.sealed.len() * CHUNK_ROWS;
        if len >= sealed_len {
            self.tail.truncate(len - sealed_len);
            return;
        }
        let (c, o) = (len / CHUNK_ROWS, len % CHUNK_ROWS);
        let mut tail = Vec::with_capacity(CHUNK_ROWS);
        tail.extend_from_slice(&self.sealed[c][..o]);
        self.sealed.truncate(c);
        self.tail = tail;
    }

    /// A frozen view of the current cells: `Arc` clones of the sealed
    /// chunks plus a copy of the tail. `O(len / CHUNK_ROWS + tail)`.
    pub fn snapshot(&self) -> ChunkedColumnSnapshot<T> {
        ChunkedColumnSnapshot {
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
        }
    }
}

/// A frozen view of a [`ChunkedColumn`]: immutable, cheaply cloneable, and
/// unaffected by any later write to the column it was taken from.
#[derive(Debug, Clone)]
pub struct ChunkedColumnSnapshot<T: Copy> {
    sealed: Vec<Arc<Vec<T>>>,
    tail: Vec<T>,
}

impl<T: Copy> ChunkedColumnSnapshot<T> {
    /// Number of cells the snapshot captured.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_ROWS + self.tail.len()
    }

    /// Whether the snapshot captured no cells.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The cell at `i` as of snapshot time (panics when out of bounds).
    pub fn get(&self, i: usize) -> T {
        let (c, o) = (i / CHUNK_ROWS, i % CHUNK_ROWS);
        if c < self.sealed.len() {
            self.sealed[c][o]
        } else {
            self.tail[i - self.sealed.len() * CHUNK_ROWS]
        }
    }

    /// Iterate the captured cells in index order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.sealed
            .iter()
            .flat_map(|c| c.iter().copied())
            .chain(self.tail.iter().copied())
    }
}

/// One relation's tuples stored column-at-a-time: `columns[c][r]` is the
/// interned id of row `r`'s entry in attribute position `c`. All columns
/// have the same length ([`RelationColumns::row_count`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationColumns {
    rows: usize,
    columns: Vec<Vec<u32>>,
}

impl RelationColumns {
    /// Empty storage for a relation of the given arity.
    pub fn new(arity: usize) -> Self {
        RelationColumns {
            rows: 0,
            columns: vec![Vec::new(); arity],
        }
    }

    /// Empty storage with per-column capacity for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        RelationColumns {
            rows: 0,
            columns: vec![Vec::with_capacity(rows); arity],
        }
    }

    /// Append one row (panics unless `row.len()` equals the arity).
    pub fn push_row(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Whether the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of attribute positions.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The dense id run of one column.
    pub fn column(&self, c: usize) -> &[u32] {
        &self.columns[c]
    }

    /// All columns, in attribute order.
    pub fn columns(&self) -> &[Vec<u32>] {
        &self.columns
    }

    /// Gather row `r`'s entries at `cols` into `out` (cleared first).
    pub fn gather(&self, cols: &[usize], r: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(cols.iter().map(|&c| self.columns[c][r]));
    }

    /// The presence bitmap of one column: bit `v % 64` of word `v / 64` is
    /// set iff id `v` occurs, with words up to the column's largest id.
    /// Interned ids are dense, so this is one linear pass, no sort.
    fn presence(&self, c: usize) -> Vec<u64> {
        let col = &self.columns[c];
        let Some(&max) = col.iter().max() else {
            return Vec::new();
        };
        let mut words = vec![0u64; max as usize / 64 + 1];
        for &v in col {
            words[v as usize / 64] |= 1 << (v % 64);
        }
        words
    }

    /// The distinct ids of one column, ascending, read off its presence
    /// bitmap. Empty columns yield an empty run.
    pub fn sorted_distinct(&self, c: usize) -> Vec<u32> {
        DistinctStream::resident(self.presence(c)).ids().collect()
    }

    /// Bytes a resident [`DistinctStream`] of a column of `rows` cells
    /// over a dense id domain of size `domain` holds at its peak: the
    /// presence bitmap (8 bytes per 64 ids of the domain), plus, when
    /// [`DistinctStream::resident`] trades it for the sorted id list, that
    /// list while both exist. The list is chosen only when it is smaller
    /// than the bitmap, and it holds at most `min(rows, domain)` ids.
    ///
    /// This estimate is the budget decision's only input, and it is
    /// deliberately a function of the *data alone* — never of thread
    /// count, timing, or actual allocator state — so whether a column
    /// goes over its share is deterministic and `threads=1 == threads=N`
    /// holds byte-for-byte when it does.
    pub fn distinct_bytes_estimate(rows: usize, domain: usize) -> usize {
        let bitmap = 8 * domain.div_ceil(64);
        bitmap + bitmap.min(4 * rows.min(domain))
    }

    /// The distinct ids of one column as a stream: the uniform entry point
    /// behind memory-budgeted discovery. With no `share` (an unbounded
    /// run), or when [`RelationColumns::distinct_bytes_estimate`] fits it,
    /// the stream holds the column's presence bitmap, or its sorted id
    /// list when that is smaller ([`DistinctStream::resident`]). Above the
    /// share the stream borrows the column and reads it in id-range slices
    /// of about `share` bytes ([`DistinctStream::sliced`]), and the
    /// returned counters record one column over its share and the scans
    /// its slices take. Every backing yields the identical block sequence.
    ///
    /// `domain` is the dense id domain size (the store's
    /// [`distinct_values`](ColumnStore::distinct_values)); every id of the
    /// column lies below it.
    pub fn sorted_distinct_stream(
        &self,
        c: usize,
        domain: usize,
        share: Option<usize>,
    ) -> (DistinctStream<'_>, SpillStats) {
        let col = &self.columns[c];
        match share {
            Some(share) if Self::distinct_bytes_estimate(col.len(), domain) > share => {
                let stream = DistinctStream::sliced(col, domain, share);
                let stats = SpillStats {
                    spilled_columns: 1,
                    merge_passes: stream.scans_left(),
                    ..SpillStats::default()
                };
                (stream, stats)
            }
            _ => (
                DistinctStream::resident(self.presence(c)),
                SpillStats::default(),
            ),
        }
    }
}

/// A borrowed multi-column cursor: the selected column slices of one
/// relation, for repeated key gathers without re-indexing the column table
/// per row.
#[derive(Debug, Clone)]
pub struct ColumnCursor<'a> {
    sel: Vec<&'a [u32]>,
}

impl<'a> ColumnCursor<'a> {
    /// Select `cols` of `rel`.
    pub fn new(rel: &'a RelationColumns, cols: &[usize]) -> Self {
        ColumnCursor {
            sel: cols.iter().map(|&c| rel.column(c)).collect(),
        }
    }

    /// Number of selected columns.
    pub fn width(&self) -> usize {
        self.sel.len()
    }

    /// Write row `r`'s key into `out` (cleared first).
    pub fn fill(&self, r: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.sel.iter().map(|col| col[r]));
    }
}

/// A whole database compiled to columnar form: a shared
/// [`ValueInterner`] plus each relation's tuples as parallel id columns, in
/// schema order.
///
/// Like [`CompiledRows`](crate::index::CompiledRows), nothing is ever
/// released, so ids are dense (`0..interner().len()`) and stable for the
/// compilation's lifetime; per-value side tables (occurrence bit sets,
/// refinement scratch) may be addressed by id. Interning order is row-major
/// within each relation, in schema order — identical to `CompiledRows`, so
/// the two views assign the same id to the same value.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    interner: ValueInterner,
    relations: Vec<RelationColumns>,
}

/// The integer cells a [`RowBuffer`] holds: how many, and their range.
#[derive(Debug, Clone, Copy)]
struct IntRange {
    cells: u64,
    lo: i64,
    hi: i64,
}

impl IntRange {
    const EMPTY: IntRange = IntRange {
        cells: 0,
        lo: i64::MAX,
        hi: i64::MIN,
    };

    fn add(&mut self, v: i64) {
        self.cells += 1;
        self.lo = self.lo.min(v);
        self.hi = self.hi.max(v);
    }

    fn union(self, other: IntRange) -> IntRange {
        IntRange {
            cells: self.cells + other.cells,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The range to direct-map: chosen when it has at most four slots per
    /// integer cell, where the `Vec<u32>` window costs no more than the
    /// 16-byte-per-cell hash reservation it replaces.
    fn window(&self) -> Option<(i64, i64)> {
        (self.cells > 0 && self.hi.abs_diff(self.lo) < self.cells.saturating_mul(4))
            .then_some((self.lo, self.hi))
    }
}

/// One relation's rows, buffered for [`ColumnStore::from_buffers`]: cells
/// row-major, integers inline as `i64`, and every other value in a sparse
/// side list keyed by cell index (its inline cell holds 0). The integer
/// range is tracked as rows arrive, so the builder picks its int window
/// without another pass.
///
/// This is the hand-off between a row source and the interner. The CLI's
/// spec reader fills one per relation and text chunk straight from `row`
/// text, so a relation's rows may arrive as several segments;
/// [`ColumnStore::from_rows`] fills one per relation from
/// `(relation, values)` rows. Rows are kept in the order pushed, repeats
/// included.
#[derive(Debug)]
pub struct RowBuffer {
    arity: usize,
    rows: usize,
    ints: Vec<i64>,
    others: Vec<(usize, Value)>,
    range: IntRange,
}

impl RowBuffer {
    /// An empty buffer for rows of `arity` values.
    pub fn new(arity: usize) -> Self {
        RowBuffer {
            arity,
            rows: 0,
            ints: Vec::new(),
            others: Vec::new(),
            range: IntRange::EMPTY,
        }
    }

    /// The number of values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Append one row: its values, then [`RowBuffer::end_row`].
    pub fn push_row(&mut self, values: impl IntoIterator<Item = Value>) -> Result<(), usize> {
        for v in values {
            self.push(v);
        }
        self.end_row()
    }

    /// Append one value to the open row.
    #[inline]
    pub fn push(&mut self, v: Value) {
        match v {
            Value::Int(i) => self.push_int(i),
            other => {
                self.others.push((self.ints.len(), other));
                self.ints.push(0);
            }
        }
    }

    /// Append the integer `i` to the open row, without building a
    /// [`Value`].
    #[inline]
    pub fn push_int(&mut self, i: i64) {
        self.range.add(i);
        self.ints.push(i);
    }

    /// Close the open row. A row with more or fewer values than the arity
    /// is taken back out and its value count returned as the error; the
    /// tracked int range may stay widened by it, which changes no id.
    pub fn end_row(&mut self) -> Result<(), usize> {
        let start = self.rows * self.arity;
        let count = self.ints.len() - start;
        if count != self.arity {
            self.ints.truncate(start);
            let others = self.others.partition_point(|(at, _)| *at < start);
            self.others.truncate(others);
            return Err(count);
        }
        self.rows += 1;
        Ok(())
    }

    /// The values of row `r` (0-based, in push order).
    pub fn row(&self, r: usize) -> impl Iterator<Item = Value> + '_ {
        let cells = r * self.arity..(r + 1) * self.arity;
        let mut other = self.others.partition_point(|(at, _)| *at < cells.start);
        cells.map(move |cell| match self.others.get(other) {
            Some((at, v)) if *at == cell => {
                other += 1;
                v.clone()
            }
            _ => Value::Int(self.ints[cell]),
        })
    }

    /// The number of rows closed so far.
    pub fn row_count(&self) -> usize {
        self.rows
    }
}

/// Intern one relation's segments in order into columns, dropping exact
/// repeats of earlier rows, and free each segment once it is interned.
/// What drops repeats carries across segment boundaries, so the kept rows
/// and ids are those of one buffer holding every segment's rows.
///
/// A row that interns a fresh id cannot repeat an earlier row, so only
/// rows without one are checked. Such a row can repeat either an earlier
/// row without a fresh id — kept in `repeats`, a [`KeySet`] of just those
/// keys — or the one row that introduced its largest id (ids grow in
/// first-seen order, so a row with a fresh id introduced its own largest
/// id), which is compared directly.
fn intern_relation(segments: Vec<RowBuffer>, interner: &mut ValueInterner) -> RelationColumns {
    let arity = segments
        .first()
        .expect("every relation has at least one segment")
        .arity;
    let mut cols = RelationColumns::with_capacity(arity, segments.iter().map(|b| b.rows).sum());
    let base = interner.len();
    // `introduced[id - base]`: the kept row that interned `id` first.
    let mut introduced: Vec<u32> = Vec::new();
    let mut repeats = KeySet::with_arity(arity);
    let mut key = Vec::with_capacity(arity);
    for segment in segments {
        debug_assert_eq!(segment.arity, arity, "segments of one relation");
        let RowBuffer {
            rows, ints, others, ..
        } = segment;
        let mut next_other = 0;
        for r in 0..rows {
            let before = interner.len();
            for (cell, col) in (r * arity..).zip(&mut cols.columns) {
                col.push(match others.get(next_other) {
                    Some((at, v)) if *at == cell => {
                        next_other += 1;
                        interner.intern(v)
                    }
                    _ => interner.intern_int(ints[cell]),
                });
            }
            // The row is pushed; a repeat is popped again.
            let row = cols.rows;
            if interner.len() > before {
                introduced.resize(interner.len() - base, row as u32);
                cols.rows += 1;
                continue;
            }
            key.clear();
            key.extend(cols.columns.iter().map(|col| col[row]));
            let repeats_introducer = key
                .iter()
                .max()
                .and_then(|&max| (max as usize).checked_sub(base))
                .is_some_and(|off| {
                    let at = introduced[off] as usize;
                    cols.columns.iter().all(|col| col[at] == col[row])
                });
            if repeats_introducer || !repeats.insert(&key) {
                for col in &mut cols.columns {
                    col.pop();
                }
            } else {
                cols.rows += 1;
            }
        }
    }
    cols
}

impl ColumnStore {
    /// Compile every tuple of `db`, relation by relation in schema order:
    /// [`ColumnStore::from_rows`] fed each relation's tuples in their
    /// deterministic order, so ids equal
    /// [`CompiledRows::new`](crate::index::CompiledRows::new)'s.
    pub fn new(db: &Database) -> Self {
        let rows = db
            .relations()
            .iter()
            .enumerate()
            .flat_map(|(r, rel)| rel.tuples().map(move |t| (r, t.values().iter().cloned())));
        Self::from_rows(db.schema(), rows)
    }

    /// Compile `(relation index in schema order, values)` rows with the
    /// relations' set semantics, without a [`Database`]: rows may arrive
    /// in any order, interleaved across relations, and repeat. Each row is
    /// pushed into its relation's [`RowBuffer`], then
    /// [`ColumnStore::from_buffers`] interns them.
    ///
    /// Panics if a row names a relation outside `schema` or its arity
    /// differs from the relation's.
    pub fn from_rows<V: IntoIterator<Item = Value>>(
        schema: &DatabaseSchema,
        rows: impl IntoIterator<Item = (usize, V)>,
    ) -> Self {
        let mut buffers: Vec<RowBuffer> = schema
            .schemes()
            .iter()
            .map(|s| RowBuffer::new(s.arity()))
            .collect();
        for (r, values) in rows {
            if let Err(n) = buffers[r].push_row(values) {
                panic!("row arity mismatch: {n} values for relation {r}");
            }
        }
        Self::from_buffers(buffers.into_iter().map(|b| vec![b]).collect())
    }

    /// Compile buffered rows, one list of [`RowBuffer`] segments per
    /// relation in schema order, with the relations' set semantics:
    ///
    /// 1. **Intern.** Relation by relation in schema order, segment by
    ///    segment in list order, row-major, in the order pushed, each value
    ///    gets the next id on first sight. When the segments' integer range
    ///    has at most four slots per integer cell, ints are interned
    ///    through a direct-mapped window
    ///    ([`ValueInterner::reserve_int_range`]) instead of a hash table.
    /// 2. **Deduplicate.** A row equal to an earlier row of its relation,
    ///    in its own segment or an earlier one, is dropped, without hashing
    ///    the rows that intern a fresh id (see `intern_relation`).
    ///
    /// The segments are never concatenated, and each is freed once it is
    /// interned. The ids are a pure function of the rows and their order,
    /// wherever the segment boundaries fall, so processes that buffer the
    /// same rows build the same id space.
    ///
    /// Panics if a relation's list is empty: a relation without rows is
    /// one empty buffer, which carries its arity.
    pub fn from_buffers(relations: Vec<Vec<RowBuffer>>) -> Self {
        let segments = || relations.iter().flatten();
        let range = segments().fold(IntRange::EMPTY, |range, b| range.union(b.range));
        let mut interner = ValueInterner::new();
        if let Some((lo, hi)) = range.window() {
            interner.reserve_int_range(lo, hi);
        }
        // The cell count bounds the distinct values, so the id table never
        // rehashes mid-compilation.
        interner.reserve(segments().map(|b| b.ints.len()).sum());
        let relations = relations
            .into_iter()
            .map(|segments| intern_relation(segments, &mut interner))
            .collect();
        ColumnStore {
            interner,
            relations,
        }
    }

    /// Assemble a store from an interner and pre-built columns, without a
    /// [`Database`] round trip. This is how synthetic at-scale workloads
    /// (the out-of-core discovery benches) build multi-10M-row stores: id
    /// columns are cheap dense `u32`s, while the equivalent `Database`
    /// would materialize every cell as a heap [`Value`].
    ///
    /// Contract (debug-asserted): every id in every column must resolve in
    /// `interner`, i.e. be `< interner.len()`.
    pub fn from_raw_parts(interner: ValueInterner, relations: Vec<RelationColumns>) -> Self {
        debug_assert!(
            relations
                .iter()
                .flat_map(|r| r.columns.iter().flatten())
                .all(|&id| (id as usize) < interner.len()),
            "column id outside the interner's id space"
        );
        ColumnStore {
            interner,
            relations,
        }
    }

    /// The shared value table. Ids are dense: `0..interner().len()`.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// The columns of the relation at schema index `rel`.
    pub fn relation(&self, rel: usize) -> &RelationColumns {
        &self.relations[rel]
    }

    /// All relations' columns, in schema order.
    pub fn relations(&self) -> &[RelationColumns] {
        &self.relations
    }

    /// Number of relations (= number of schema schemes).
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of distinct values across the whole database — the size of
    /// the dense id domain every per-value side table is addressed by.
    pub fn distinct_values(&self) -> usize {
        self.interner.len()
    }

    /// Total number of rows across all relations.
    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(RelationColumns::row_count).sum()
    }

    /// Streaming distinct view of one column (see
    /// [`RelationColumns::sorted_distinct_stream`]), with the dense id
    /// domain filled in from this store.
    pub fn sorted_distinct_stream(
        &self,
        rel: usize,
        c: usize,
        share: Option<usize>,
    ) -> (DistinctStream<'_>, SpillStats) {
        self.relations[rel].sorted_distinct_stream(c, self.distinct_values(), share)
    }
}

/// Radix-style stripped-partition refinement scratch over the dense value
/// id domain — the columnar replacement for TANE `refine`'s per-level
/// `HashMap<u32, Vec<u32>>`.
///
/// A *stripped partition* is the set of equivalence classes of rows under
/// projection to some columns, with singleton classes dropped (a singleton
/// can never witness an FD violation). Refining by one more column is a
/// counting pass per class: `count[v]` and `group[v]` are dense tables
/// indexed by value id, validity tracked by an epoch stamp so nothing is
/// cleared between classes. Zero hashing, zero allocation beyond the
/// output classes themselves.
#[derive(Debug, Clone)]
pub struct Refiner {
    count: Vec<u32>,
    group: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

impl Refiner {
    /// Scratch for value ids in `0..domain`.
    pub fn new(domain: usize) -> Self {
        Refiner {
            count: vec![0; domain],
            group: vec![0; domain],
            stamp: vec![0; domain],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// Grow the scratch to cover ids in `0..domain` (no-op when already
    /// large enough) — lets one scratch serve stores of different sizes.
    pub fn ensure_domain(&mut self, domain: usize) {
        if self.count.len() < domain {
            self.count.resize(domain, 0);
            self.group.resize(domain, 0);
            self.stamp.resize(domain, 0);
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Refine a stripped partition by `column`, appending the refined
    /// classes to `out` in deterministic order: classes of the input in
    /// order, sub-classes by first row occurrence within each class.
    pub fn refine_into(&mut self, classes: &[Vec<u32>], column: &[u32], out: &mut Vec<Vec<u32>>) {
        for class in classes {
            let epoch = self.next_epoch();
            self.touched.clear();
            for &r in class {
                let v = column[r as usize] as usize;
                if self.stamp[v] != epoch {
                    self.stamp[v] = epoch;
                    self.count[v] = 1;
                    self.touched.push(v as u32);
                } else {
                    self.count[v] += 1;
                }
            }
            let base = out.len();
            for &v in &self.touched {
                let v = v as usize;
                if self.count[v] >= 2 {
                    self.group[v] = out.len() as u32;
                    out.push(Vec::with_capacity(self.count[v] as usize));
                }
            }
            if out.len() == base {
                continue; // every sub-class is a singleton
            }
            for &r in class {
                let v = column[r as usize] as usize;
                if self.count[v] >= 2 {
                    out[self.group[v] as usize].push(r);
                }
            }
        }
    }

    /// [`Refiner::refine_into`] returning a fresh partition.
    pub fn refine_stripped(&mut self, classes: &[Vec<u32>], column: &[u32]) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        self.refine_into(classes, column, &mut out);
        out
    }

    /// Whether every class agrees on `column` — i.e. the partition's
    /// defining columns functionally determine `column`.
    pub fn determines(classes: &[Vec<u32>], column: &[u32]) -> bool {
        classes.iter().all(|class| {
            let v = column[class[0] as usize];
            class[1..].iter().all(|&r| column[r as usize] == v)
        })
    }

    /// The g3 error of `X → column` against the stripped partition of `X`,
    /// counted only as far as `limit`: the exact error when it is at most
    /// `limit`, and `limit + 1` otherwise.
    ///
    /// g3 is the minimum number of rows to remove before the FD holds
    /// exactly. Per class that is `|class| −` (the highest multiplicity of
    /// a single `column` value in it) — singleton classes, stripped away,
    /// agree vacuously and contribute zero, so the stripped partition
    /// already carries everything the measure needs. Zero iff
    /// [`Refiner::determines`], whose first-disagreement loop is what
    /// `limit = 0` runs.
    ///
    /// Multiplicities are counted in the dense epoch-stamped tables, and
    /// the count stops early: after `seen` rows of a class whose most
    /// frequent value so far occurs `best` times, at most `|class| − seen`
    /// rows remain to raise `best`, so `seen − best` is a lower bound on
    /// the class's final error. Once the error of the finished classes plus
    /// that bound exceeds `limit`, the answer is `limit + 1`.
    ///
    /// g3 is monotone non-increasing as `X` grows (refining classes can
    /// only raise the per-class agreement), which is what lets the FD
    /// lattice walk keep its minimality and superkey pruning at any error
    /// threshold.
    pub fn g3_error(&mut self, classes: &[Vec<u32>], column: &[u32], limit: u64) -> u64 {
        if limit == 0 {
            return u64::from(!Refiner::determines(classes, column));
        }
        let mut err = 0u64;
        for class in classes {
            let epoch = self.next_epoch();
            // Rows this class may still lose before the bound is crossed.
            let slack = limit - err;
            let mut best = 0u32;
            for (seen, &r) in (1u64..).zip(class) {
                let v = column[r as usize] as usize;
                let n = if self.stamp[v] == epoch {
                    self.count[v] + 1
                } else {
                    self.stamp[v] = epoch;
                    1
                };
                self.count[v] = n;
                best = best.max(n);
                if seen - u64::from(best) > slack {
                    return limit + 1;
                }
            }
            err += class.len() as u64 - u64::from(best);
        }
        err
    }
}

/// A membership set of fixed-arity `u32` projection keys.
///
/// Keys of arity ≤ 2 pack into a `u64` and arity ≤ 4 into a `u128`, so the
/// overwhelmingly common short projections hash a single machine word and
/// allocate nothing per row; wider keys fall back to boxed slices. All
/// variants hash through the deterministic
/// [`FxHasher`](crate::hashing::FxHasher).
#[derive(Debug, Clone)]
pub enum KeySet {
    /// Keys of arity ≤ 2, packed big-endian into one word.
    Packed64(FastSet<u64>),
    /// Keys of arity 3–4, packed big-endian into one double word.
    Packed128(FastSet<u128>),
    /// Wider keys, stored as boxed slices.
    Wide(FastSet<Box<[u32]>>),
}

#[inline]
fn pack64(key: &[u32]) -> u64 {
    key.iter().fold(0u64, |acc, &v| (acc << 32) | v as u64)
}

#[inline]
fn pack128(key: &[u32]) -> u128 {
    key.iter().fold(0u128, |acc, &v| (acc << 32) | v as u128)
}

impl KeySet {
    /// An empty set for keys of exactly `arity` columns.
    pub fn with_arity(arity: usize) -> Self {
        match arity {
            0..=2 => KeySet::Packed64(FastSet::default()),
            3..=4 => KeySet::Packed128(FastSet::default()),
            _ => KeySet::Wide(FastSet::default()),
        }
    }

    /// Insert a key; returns whether it was new.
    pub fn insert(&mut self, key: &[u32]) -> bool {
        match self {
            KeySet::Packed64(s) => s.insert(pack64(key)),
            KeySet::Packed128(s) => s.insert(pack128(key)),
            KeySet::Wide(s) => {
                if s.contains(key) {
                    false
                } else {
                    s.insert(key.into())
                }
            }
        }
    }

    /// Remove a key; returns whether it was present.
    pub fn remove(&mut self, key: &[u32]) -> bool {
        match self {
            KeySet::Packed64(s) => s.remove(&pack64(key)),
            KeySet::Packed128(s) => s.remove(&pack128(key)),
            KeySet::Wide(s) => s.remove(key),
        }
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &[u32]) -> bool {
        match self {
            KeySet::Packed64(s) => s.contains(&pack64(key)),
            KeySet::Packed128(s) => s.contains(&pack128(key)),
            KeySet::Wide(s) => s.contains(key),
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        match self {
            KeySet::Packed64(s) => s.len(),
            KeySet::Packed128(s) => s.len(),
            KeySet::Wide(s) => s.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::FastMap;
    use crate::index::CompiledRows;
    use crate::schema::DatabaseSchema;
    use crate::value::Value;

    fn sample_db() -> Database {
        let schema = DatabaseSchema::parse(&["R(A, B, C)", "S(B)"]).unwrap();
        let mut db = Database::empty(schema);
        db.insert_ints(
            "R",
            &[&[1, 10, 100], &[2, 10, 100], &[3, 20, 100], &[4, 20, 300]],
        )
        .unwrap();
        db.insert_ints("S", &[&[10], &[20]]).unwrap();
        db
    }

    /// Every column read in slices yields what its bitmap does, at every
    /// slice width from one word to the whole domain: the sample store's
    /// columns, a column with ids on both sides of word boundaries and
    /// empty id ranges between its slices, and an empty column.
    #[test]
    fn distinct_stream_spilled_equals_in_memory() {
        let db = sample_db();
        let store = ColumnStore::new(&db);
        let mut columns: Vec<(RelationColumns, usize)> = store
            .relations()
            .iter()
            .map(|rel| (rel.clone(), store.distinct_values()))
            .collect();
        let mut edges = RelationColumns::new(1);
        for v in [640, 0, 63, 64, 127, 128, 1000, 639, 0, 64, 1087] {
            edges.push_row(&[v]);
        }
        columns.push((edges, 1100));
        columns.push((RelationColumns::new(1), 1100));
        for (k, (rel, domain)) in columns.iter().enumerate() {
            for c in 0..rel.arity() {
                let expect = rel.sorted_distinct(c);
                let (mem, stats) = rel.sorted_distinct_stream(c, *domain, None);
                assert!(!mem.is_sliced() && !stats.spilled());
                assert_eq!(mem.ids().collect::<Vec<_>>(), expect);
                let (mem, stats) = rel.sorted_distinct_stream(c, *domain, Some(usize::MAX));
                assert!(!mem.is_sliced() && !stats.spilled());
                assert_eq!(mem.ids().collect::<Vec<_>>(), expect);
                let estimate = RelationColumns::distinct_bytes_estimate(rel.row_count(), *domain);
                for words in 1..=domain.div_ceil(64) {
                    let share = 8 * words;
                    let (stream, stats) = rel.sorted_distinct_stream(c, *domain, Some(share));
                    let over = estimate > share;
                    assert!(over || rel.is_empty(), "column {k}.{c} fits {share} bytes");
                    assert_eq!(stream.is_sliced(), over, "column {k}.{c} at {words} words");
                    assert_eq!(stats.spilled_columns, usize::from(over));
                    let slices: std::collections::BTreeSet<usize> =
                        expect.iter().map(|&v| v as usize / (64 * words)).collect();
                    let scans = if over { slices.len() } else { 0 };
                    assert_eq!(stats.merge_passes, scans, "column {k}.{c} at {words} words");
                    assert_eq!((stats.runs_written, stats.bytes_spilled), (0, 0));
                    let got: Vec<u32> = stream.ids().collect();
                    assert_eq!(got, expect, "column {k}.{c} at {words} words");
                }
            }
        }
    }

    /// The spill decision charges what a resident stream holds, not a
    /// distinct list it may never build: a column of 1,000 distinct ids
    /// over a 1,000-id domain has a 4,000-byte list but a 128-byte bitmap,
    /// so it stays resident at a 256-byte share (the bitmap, plus a list
    /// smaller than it) and is read in slices one byte below.
    #[test]
    fn a_column_whose_bitmap_fits_its_share_stays_resident() {
        let n = 1000u32;
        let mut rel = RelationColumns::new(1);
        for v in (0..n).rev() {
            rel.push_row(&[v]);
        }
        let expect: Vec<u32> = (0..n).collect();
        let share = 256;
        assert!(share < 4 * n as usize, "the list must exceed the share");
        assert_eq!(
            RelationColumns::distinct_bytes_estimate(n as usize, n as usize),
            share
        );
        let (stream, stats) = rel.sorted_distinct_stream(0, n as usize, Some(share));
        assert!(!stream.is_sliced() && !stats.spilled());
        assert_eq!(stream.ids().collect::<Vec<_>>(), expect);
        let (stream, stats) = rel.sorted_distinct_stream(0, n as usize, Some(share - 1));
        assert!(stream.is_sliced() && stats.spilled());
        assert_eq!(stream.ids().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn from_raw_parts_matches_compiled_store() {
        let db = sample_db();
        let built = ColumnStore::new(&db);
        let raw = ColumnStore::from_raw_parts(built.interner().clone(), built.relations().to_vec());
        assert_eq!(raw.distinct_values(), built.distinct_values());
        assert_eq!(raw.total_rows(), built.total_rows());
        for rel in 0..built.relation_count() {
            assert_eq!(raw.relation(rel), built.relation(rel));
        }
    }

    #[test]
    fn columns_agree_with_compiled_rows() {
        let db = sample_db();
        let store = ColumnStore::new(&db);
        let rows = CompiledRows::new(&db);
        assert_eq!(store.distinct_values(), rows.distinct_values());
        assert_eq!(store.total_rows(), rows.total_rows());
        for rel in 0..store.relation_count() {
            let cols = store.relation(rel);
            for (r, row) in rows.rows(rel).iter().enumerate() {
                for (c, &id) in row.iter().enumerate() {
                    // Same id space: row-major interning in both views.
                    assert_eq!(cols.column(c)[r], id);
                }
            }
        }
    }

    #[test]
    fn from_rows_interns_in_feed_order_and_drops_repeats() {
        let schema = DatabaseSchema::parse(&["R(A, B)", "S(B)"]).unwrap();
        let (i, s) = (Value::Int, Value::str);
        let rows = [
            (1, vec![i(20)]), // buffered; S is interned after R
            (0, vec![i(3), s("x")]),
            (0, vec![i(1), i(3)]),
            (0, vec![i(3), s("x")]), // repeats the row that introduced 3 and x
            (0, vec![i(1), s("x")]), // no fresh id, new
            (0, vec![i(1), s("x")]), // repeats a row without a fresh id
            (0, vec![i(3), i(1)]),   // no fresh id, new
            (1, vec![i(20)]),        // repeats the row that introduced 20
            (1, vec![i(3)]),         // a value R introduced
        ];
        for far in [None, Some(1 << 40)] {
            // A far int leaves the range too sparse for the int window.
            let extra = far.map(|v| (1, vec![i(v)]));
            let fed = rows.iter().cloned().chain(extra);
            let store = ColumnStore::from_rows(&schema, fed.map(|(r, v)| (r, v.into_iter())));
            let id = |v: Value| store.interner().lookup(&v).unwrap();
            assert_eq!([id(i(3)), id(s("x")), id(i(1)), id(i(20))], [0, 1, 2, 3]);
            let r = store.relation(0);
            assert_eq!(
                (r.column(0), r.column(1)),
                (&[0, 2, 2, 0][..], &[1, 0, 1, 2][..])
            );
            let s_rows = store.relation(1).column(0);
            assert_eq!(&s_rows[..2], &[3, 0]);
            assert_eq!(s_rows.len(), 2 + usize::from(far.is_some()));
            let windowed = store.interner().table_capacities().0 == 0;
            assert_eq!(windowed, far.is_none());
        }
    }

    #[test]
    fn a_row_buffer_replays_its_rows_and_takes_back_a_wrong_arity() {
        let (i, s) = (Value::Int, Value::str);
        let mut buf = RowBuffer::new(2);
        buf.push_row([i(1), s("x")]).unwrap();
        assert_eq!(buf.push_row([s("y"), i(2), i(3)]), Err(3));
        assert_eq!(buf.push_row([s("z")]), Err(1));
        buf.push_row([s("y"), i(-4)]).unwrap();
        let rows: Vec<Vec<Value>> = (0..2).map(|r| buf.row(r).collect()).collect();
        assert_eq!(rows, [vec![i(1), s("x")], vec![s("y"), i(-4)]]);
        let store = ColumnStore::from_buffers(vec![vec![buf]]);
        assert_eq!(store.relation(0).row_count(), 2);
        assert_eq!(store.distinct_values(), 4);
    }

    /// Interning a relation's rows as several segments gives the ids,
    /// columns and kept rows of one buffer holding them all, wherever the
    /// boundaries fall: a row in a later segment that repeats one in an
    /// earlier segment (the row that introduced its ids, or a row without
    /// a fresh id) is dropped.
    #[test]
    fn segments_intern_as_one_buffer_would() {
        let (i, s) = (Value::Int, Value::str);
        let r_rows = [
            vec![i(3), s("x")],
            vec![i(1), i(3)],
            vec![i(1), s("x")], // no fresh id, new
            vec![i(3), s("x")], // repeats the row that introduced 3 and x
            vec![i(1), s("x")], // repeats a row without a fresh id
            vec![i(7), i(1)],
            vec![i(1), i(3)], // repeats the row that introduced 1
        ];
        let s_rows = [vec![i(20)], vec![i(3)], vec![i(20)]];
        let buffer = |rows: &[Vec<Value>]| {
            let mut buf = RowBuffer::new(rows[0].len());
            for row in rows {
                buf.push_row(row.iter().cloned()).unwrap();
            }
            buf
        };
        let one = ColumnStore::from_buffers(vec![vec![buffer(&r_rows)], vec![buffer(&s_rows)]]);
        assert_eq!(one.relation(0).row_count(), 4);
        assert_eq!(one.relation(1).row_count(), 2);
        let values = |store: &ColumnStore| -> Vec<Value> {
            let interner = store.interner();
            (0..interner.len() as u32)
                .map(|id| interner.resolve(id).clone())
                .collect()
        };
        for split in 1..r_rows.len() {
            for cut in [split, r_rows.len()] {
                let mut r_segments = vec![buffer(&r_rows[..split])];
                if split < cut {
                    r_segments.push(buffer(&r_rows[split..cut]));
                }
                if cut < r_rows.len() {
                    r_segments.push(buffer(&r_rows[cut..]));
                }
                // S in three segments, the middle one empty.
                let s_segments = vec![
                    buffer(&s_rows[..1]),
                    RowBuffer::new(1),
                    buffer(&s_rows[1..]),
                ];
                let segmented = ColumnStore::from_buffers(vec![r_segments, s_segments]);
                assert_eq!(values(&segmented), values(&one), "split at {split}");
                assert_eq!(segmented.relations(), one.relations(), "split at {split}");
            }
        }
        // Split after the third row: segment 2 opens with two repeats of
        // segment 1's rows, and both are dropped.
        let split = ColumnStore::from_buffers(vec![
            vec![buffer(&r_rows[..3]), buffer(&r_rows[3..])],
            vec![buffer(&s_rows)],
        ]);
        let r = split.relation(0);
        assert_eq!(
            (r.column(0), r.column(1)),
            (&[0, 2, 2, 3][..], &[1, 0, 1, 2][..])
        );
    }

    #[test]
    fn gather_and_cursor_read_the_same_keys() {
        let db = sample_db();
        let store = ColumnStore::new(&db);
        let rel = store.relation(0);
        let cursor = ColumnCursor::new(rel, &[2, 0]);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for r in 0..rel.row_count() {
            rel.gather(&[2, 0], r, &mut a);
            cursor.fill(r, &mut b);
            assert_eq!(a, b);
            assert_eq!(a.len(), 2);
        }
    }

    #[test]
    fn sorted_distinct_is_sorted_and_deduped() {
        let db = sample_db();
        let store = ColumnStore::new(&db);
        let ids = store.relation(0).sorted_distinct(1); // B: {10, 20}
        assert_eq!(ids.len(), 2);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let b10 = store.interner().lookup(&Value::Int(10)).unwrap();
        assert!(ids.contains(&b10));
    }

    #[test]
    fn refiner_matches_hashmap_refinement() {
        let db = sample_db();
        let store = ColumnStore::new(&db);
        let rel = store.relation(0);
        let mut refiner = Refiner::new(store.distinct_values());
        // Root: all four rows; refine by B → {0,1}, {2,3}.
        let root = vec![vec![0u32, 1, 2, 3]];
        let by_b = refiner.refine_stripped(&root, rel.column(1));
        assert_eq!(by_b, vec![vec![0, 1], vec![2, 3]]);
        // Refine further by C → {0,1} survives, {2,3} splits to singletons.
        let by_bc = refiner.refine_stripped(&by_b, rel.column(2));
        assert_eq!(by_bc, vec![vec![0, 1]]);
        // B determines C on the {0,1} class only after stripping: full
        // check over the B-partition fails on class {2,3}.
        assert!(!Refiner::determines(&by_b, rel.column(2)));
        assert!(Refiner::determines(&by_bc, rel.column(2)));
        // A (all distinct) refines everything to singletons.
        assert!(refiner.refine_stripped(&root, rel.column(0)).is_empty());
    }

    /// The g3 error counted in full, one hash map of value multiplicities
    /// per class: the oracle the bounded dense [`Refiner::g3_error`] is
    /// checked against.
    fn g3_oracle(classes: &[Vec<u32>], column: &[u32]) -> u64 {
        let mut err = 0u64;
        let mut freq: FastMap<u32, u32> = FastMap::default();
        for class in classes {
            freq.clear();
            let mut best = 0u32;
            for &r in class {
                let n = freq.entry(column[r as usize]).or_insert(0);
                *n += 1;
                best = best.max(*n);
            }
            err += class.len() as u64 - u64::from(best);
        }
        err
    }

    #[test]
    fn g3_error_counts_minimum_row_removals() {
        let mut refiner = Refiner::new(8);
        let mut g3 = |classes: &[Vec<u32>], column: &[u32]| refiner.g3_error(classes, column, 99);
        // One class of five rows: values {5:3, 7:2} → removing the two
        // 7-rows makes the class agree, so g3 = 2.
        let column = vec![5u32, 5, 7, 7, 5];
        let classes = vec![vec![0u32, 1, 2, 3, 4]];
        assert_eq!(g3(&classes, &column), 2);
        // Agreement is per class: {0,1,4} and {2,3} each agree → g3 = 0,
        // and zero coincides exactly with `determines`.
        let split = vec![vec![0u32, 1, 4], vec![2, 3]];
        assert_eq!(g3(&split, &column), 0);
        assert!(Refiner::determines(&split, &column));
        // Monotone: refining a partition never raises the error.
        assert!(g3(&split, &column) <= g3(&classes, &column));
        // Empty (fully stripped) partitions are vacuously exact.
        assert_eq!(g3(&[], &column), 0);
    }

    /// Bounded g3 against the full count on seeded random partitions and
    /// columns: at every limit around the true error it returns the error
    /// itself when that fits the limit and `limit + 1` otherwise. One
    /// scratch serves every call, starting a few epochs short of the
    /// stamp wrap-around.
    #[test]
    fn bounded_g3_matches_the_full_count() {
        let mut rng = crate::generate::Rng::new(0x63E7);
        let mut refiner = Refiner::new(16);
        refiner.epoch = u32::MAX - 3;
        for round in 0..400 {
            let rows = 1 + rng.below(40);
            let domain = 1 + rng.below(16);
            let column: Vec<u32> = (0..rows).map(|_| rng.below(domain) as u32).collect();
            // A stripped partition: a random grouping of the rows, with
            // singletons dropped.
            let groups = 1 + rng.below(5);
            let mut classes: Vec<Vec<u32>> = vec![Vec::new(); groups];
            for r in 0..rows as u32 {
                classes[rng.below(groups)].push(r);
            }
            classes.retain(|c| c.len() >= 2);
            let g3 = g3_oracle(&classes, &column);
            let mut limits = vec![0, g3, g3 + 1, u64::MAX];
            limits.extend(g3.checked_sub(1));
            for limit in limits {
                let want = if g3 <= limit { g3 } else { limit + 1 };
                let got = refiner.g3_error(&classes, &column, limit);
                assert_eq!(got, want, "round {round}: g3 {g3}, limit {limit}");
            }
        }
        // The shared scratch crossed the wrap-around and kept counting.
        assert!(refiner.epoch < u32::MAX - 3);
    }

    #[test]
    fn refiner_epoch_reuse_is_sound() {
        let column = vec![5u32, 5, 7, 7, 5];
        let mut refiner = Refiner::new(8);
        let classes = vec![vec![0u32, 1, 2], vec![3, 4]];
        // Run twice with the same scratch: identical results.
        let a = refiner.refine_stripped(&classes, &column);
        let b = refiner.refine_stripped(&classes, &column);
        assert_eq!(a, b);
        assert_eq!(a, vec![vec![0, 1]]);
        refiner.ensure_domain(100);
        assert_eq!(refiner.refine_stripped(&classes, &column), a);
    }

    #[test]
    fn keyset_packs_all_widths() {
        for arity in 1..=6usize {
            let mut set = KeySet::with_arity(arity);
            let a: Vec<u32> = (0..arity as u32).collect();
            let b: Vec<u32> = (1..=arity as u32).collect();
            assert!(set.insert(&a));
            assert!(!set.insert(&a));
            assert!(set.contains(&a));
            assert!(!set.contains(&b));
            assert!(set.insert(&b));
            assert_eq!(set.len(), 2);
            assert!(!set.is_empty());
            assert!(set.remove(&a));
            assert!(!set.remove(&a));
            assert!(!set.contains(&a) && set.contains(&b));
        }
        // Packing must not conflate (0, 1) with (1) << shifted layouts.
        let mut s2 = KeySet::with_arity(2);
        s2.insert(&[0, 1]);
        assert!(!s2.contains(&[1, 0]));
    }

    #[test]
    fn chunked_column_roundtrips_across_chunk_boundaries() {
        let mut col = ChunkedColumn::new();
        assert!(col.is_empty());
        let n = CHUNK_ROWS * 2 + 17;
        for i in 0..n {
            col.push(i as u32);
        }
        assert_eq!(col.len(), n);
        assert!(!col.is_empty());
        for i in [0, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1] {
            assert_eq!(col.get(i), i as u32);
        }
        col.set(0, 999); // sealed chunk
        col.set(n - 1, 888); // tail
        assert_eq!(col.get(0), 999);
        assert_eq!(col.get(n - 1), 888);
    }

    #[test]
    fn chunked_snapshot_is_immune_to_later_writes() {
        let mut col = ChunkedColumn::new();
        let n = CHUNK_ROWS + 10;
        for i in 0..n {
            col.push(i as u64);
        }
        let snap = col.snapshot();
        assert_eq!(snap.len(), n);
        assert!(!snap.is_empty());
        // Mutate a sealed cell (copy-on-write), a tail cell, and append.
        col.set(5, 12345);
        col.set(n - 1, 54321);
        col.push(777);
        assert_eq!(col.get(5), 12345);
        assert_eq!(col.len(), n + 1);
        // The snapshot still sees the pre-write world.
        assert_eq!(snap.get(5), 5);
        assert_eq!(snap.get(n - 1), (n - 1) as u64);
        assert_eq!(snap.len(), n);
        let collected: Vec<u64> = snap.iter().collect();
        assert_eq!(collected.len(), n);
        assert_eq!(collected[5], 5);
        // A second snapshot sees the new world; the first is unchanged.
        let snap2 = col.snapshot();
        assert_eq!(snap2.get(5), 12345);
        assert_eq!(snap.get(5), 5);
    }

    #[test]
    fn truncate_cuts_anywhere_and_spares_snapshots() {
        let n = CHUNK_ROWS * 3 + 5;
        let full: ChunkedColumn<u32> = {
            let mut col = ChunkedColumn::new();
            (0..n as u32).for_each(|i| col.push(i));
            col
        };
        for cut in [n, n - 2, CHUNK_ROWS * 2, CHUNK_ROWS + 7, 3, 0] {
            let mut col = full.clone();
            let snap = col.snapshot();
            col.truncate(cut);
            assert_eq!(col.len(), cut);
            assert!((0..cut).all(|i| col.get(i) == i as u32));
            // Appends after the cut continue the column seamlessly, across
            // a chunk seal, and never reach the snapshot's chunks.
            for i in 0..CHUNK_ROWS as u32 + 3 {
                col.push(1_000_000 + i);
            }
            assert_eq!(col.get(cut), 1_000_000);
            assert_eq!(col.len(), cut + CHUNK_ROWS + 3);
            assert_eq!(snap.len(), n);
            assert!(snap.iter().eq(0..n as u32));
        }
    }

    #[test]
    fn push_row_builds_soa() {
        let mut rc = RelationColumns::new(3);
        rc.push_row(&[1, 2, 3]);
        rc.push_row(&[4, 5, 6]);
        assert_eq!(rc.row_count(), 2);
        assert_eq!(rc.arity(), 3);
        assert_eq!(rc.column(1), &[2, 5]);
        assert!(!rc.is_empty());
        let mut buf = Vec::new();
        rc.gather(&[2, 1], 1, &mut buf);
        assert_eq!(buf, vec![6, 5]);
    }
}
