//! Index structures over raw `u32` rows.
//!
//! Every engine here compiles tuples into rows of dense `u32` value ids
//! once, at the boundary, and compares integers from then on:
//!
//! * [`ValueInterner`] — an append-only bidirectional [`Value`] ↔ `u32`
//!   table. Ids are dense, assigned in first-seen order, and never
//!   reused. Deletions use the non-allocating [`ValueInterner::lookup`]:
//!   a value the interner has never seen cannot be in any row, so the
//!   delete is a no-op.
//! * [`CompiledRows`] — a [`Database`] compiled once into raw rows, the
//!   row-major reference representation the columnar store is checked
//!   against.
//! * [`GenValue`] and [`VersionedIndex`] — generation-stamped counters
//!   and multisets of projection keys. The snapshot-isolated catalog of
//!   `depkit_solver::incremental` keeps its per-relation row membership,
//!   per-FD witness counts and per-IND projection counts in them, so a
//!   reader pinned at generation `g` probes the counts as of `g` while
//!   writers stamp `g + 1`.

use crate::database::Database;
use crate::hashing::FastMap;
use crate::value::Value;

/// An append-only bidirectional [`Value`] ↔ `u32` table, for compiling
/// tuples into raw rows.
///
/// Ids are dense, assigned in first-seen order, and only meaningful
/// against the interner that produced them (the same contract as
/// [`crate::intern::Catalog`]). Nothing is ever unmapped, so an id below
/// [`ValueInterner::len`] resolves to the same value forever: a reader
/// that recorded `len()` may resolve any id it saw then without
/// coordinating with writers that have since interned more values. The
/// snapshot-isolated catalog relies on this — a snapshot pinned at an old
/// generation may resolve ids whose rows are long deleted at the head —
/// and the bulk builders rely on the ids staying dense.
#[derive(Debug, Clone, Default)]
pub struct ValueInterner {
    /// Fast path for [`Value::Int`] — the dominant case in compiled
    /// workloads. A bare `i64` key hashes one word and packs 16-byte
    /// entries, so bulk interning probes a table half the size of the
    /// general map's.
    int_ids: FastMap<i64, u32>,
    /// Direct-mapped ints ([`ValueInterner::reserve_int_range`]): slot
    /// `v − int_lo` holds `id + 1`, or 0 while `v` is unmapped. Empty
    /// unless a bulk builder installed it; ints outside it use `int_ids`.
    int_window: Vec<u32>,
    int_lo: i64,
    /// All other value kinds.
    ids: FastMap<Value, u32>,
    values: Vec<Value>,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// Number of distinct values interned; ids are exactly `0..len()`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value is interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Pre-size the table for `additional` more distinct values. Bulk
    /// compilers ([`CompiledRows`], the columnar
    /// [`ColumnStore`](crate::column::ColumnStore)) reserve the cell count
    /// up front so interning never pays an incremental rehash. With an
    /// int window installed the ints it covers need no table, so only the
    /// id slots are reserved.
    pub fn reserve(&mut self, additional: usize) {
        if self.int_window.is_empty() {
            self.int_ids.reserve(additional);
        }
        self.values.reserve(additional);
    }

    /// Direct-map the integers `lo..=hi`: from now on each is interned and
    /// looked up by indexing a `Vec<u32>` at `v − lo` instead of probing
    /// the hash table. Other integers and all other values keep using the
    /// maps, and ids are assigned exactly as without the window.
    ///
    /// The window costs 4 bytes per integer in range, present or not, so
    /// it pays only for dense ranges; the bulk builder
    /// [`ColumnStore::from_buffers`](crate::column::ColumnStore::from_buffers)
    /// installs it when the range has at most four slots per integer cell.
    /// Refused — `false`, nothing changed — once the interner has
    /// allocated any id (values interned earlier would be invisible to the
    /// window), when `lo > hi`, or when the range exceeds the address
    /// space.
    pub fn reserve_int_range(&mut self, lo: i64, hi: i64) -> bool {
        let span = usize::try_from(hi.abs_diff(lo))
            .ok()
            .and_then(|d| d.checked_add(1));
        match span {
            Some(span) if self.is_empty() && lo <= hi => {
                self.int_window = vec![0; span];
                self.int_lo = lo;
                true
            }
            _ => false,
        }
    }

    /// The window slot of `v`, if the window covers it. Below `int_lo` the
    /// wrapped offset exceeds any window length, so one unsigned compare
    /// tests both bounds, and with no window it fails at once.
    #[inline]
    fn window_slot(&self, v: i64) -> Option<usize> {
        let off = v.wrapping_sub(self.int_lo) as u64;
        (off < self.int_window.len() as u64).then_some(off as usize)
    }

    /// Pre-size **both** hash tables for `additional` more distinct values
    /// of any kind. [`ValueInterner::reserve`] deliberately sizes only the
    /// `Int` fast path — right for row compilers, whose non-int vocabulary
    /// is a handful of column names' worth — but a bulk intake of
    /// arbitrary values (the synthetic stores `depkit-bench` assembles
    /// value by value) fed through an unsized general table rehashes it
    /// repeatedly mid-stream. With a sized hint, the intake allocates once
    /// and never rehashes (see the capacity-stability unit test).
    pub fn reserve_distinct(&mut self, additional: usize) {
        self.int_ids.reserve(additional);
        self.ids.reserve(additional);
        self.values.reserve(additional);
    }

    /// Current capacities of the `(int, general)` hash tables. This is the
    /// observability hook for the no-rehash contract of sized bulk
    /// intakes: capacities that are unchanged after an intake prove no
    /// rehash happened.
    pub fn table_capacities(&self) -> (usize, usize) {
        (self.int_ids.capacity(), self.ids.capacity())
    }

    /// Append a fresh value, returning its id.
    fn fresh_slot(values: &mut Vec<Value>, v: Value) -> u32 {
        let id = u32::try_from(values.len()).expect("fewer than 2^32 distinct values");
        values.push(v);
        id
    }

    /// Intern a value, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Value::Int(i) = v {
            return self.intern_int(*i);
        }
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let id = Self::fresh_slot(&mut self.values, v.clone());
        self.ids.insert(v.clone(), id);
        id
    }

    /// [`ValueInterner::intern`] of `Value::Int(i)`, which builds the
    /// [`Value`] only when `i` is fresh.
    pub(crate) fn intern_int(&mut self, i: i64) -> u32 {
        let slot = self.window_slot(i);
        let values = &mut self.values;
        if let Some(slot) = slot {
            let cell = &mut self.int_window[slot];
            if *cell == 0 {
                let id = Self::fresh_slot(values, Value::Int(i));
                *cell = id.checked_add(1).expect("window ids stay below u32::MAX");
            }
            return *cell - 1;
        }
        // One probe for hit and miss alike (the key is `Copy`).
        *self
            .int_ids
            .entry(i)
            .or_insert_with(|| Self::fresh_slot(values, Value::Int(i)))
    }

    /// Id of an already-interned value, without allocating.
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Int(i) => match self.window_slot(*i) {
                Some(slot) => self.int_window[slot].checked_sub(1),
                None => self.int_ids.get(i).copied(),
            },
            _ => self.ids.get(v).copied(),
        }
    }

    /// The value behind an id. Panics on ids past [`ValueInterner::len`].
    pub fn resolve(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// Intern every entry of a tuple slice into a raw row.
    pub fn intern_row(&mut self, values: &[Value]) -> Vec<u32> {
        values.iter().map(|v| self.intern(v)).collect()
    }

    /// Look up every entry of a tuple slice; `None` when any entry has
    /// never been interned (so no row compiled by this interner holds it).
    pub fn lookup_row(&self, values: &[Value]) -> Option<Vec<u32>> {
        values.iter().map(|v| self.lookup(v)).collect()
    }

    /// Resolve a raw row back to values.
    pub fn resolve_row(&self, row: &[u32]) -> Vec<Value> {
        row.iter().map(|&id| self.resolve(id).clone()).collect()
    }
}

/// A [`Database`] compiled once into raw rows for whole-database scans: a
/// shared [`ValueInterner`] plus each relation's tuples as `u32` rows, in
/// schema order.
///
/// This is the row-major **reference representation**: the hot scans run
/// over the struct-of-arrays [`ColumnStore`](crate::column::ColumnStore)
/// (same interner, same row-major id assignment), and the differential
/// tests compare the two. The ids are dense (`0..self.interner().len()`)
/// and stable for the lifetime of the compilation; callers may address
/// per-value side tables by id. Rows of the relation at schema index `i`
/// follow the same [`RelId::index`](crate::intern::RelId::index)
/// addressing convention as the chase, and preserve the relation's
/// deterministic tuple order.
#[derive(Debug, Clone)]
pub struct CompiledRows {
    interner: ValueInterner,
    rows: Vec<Vec<Vec<u32>>>,
}

impl CompiledRows {
    /// Compile every tuple of `db`, relation by relation in schema order.
    pub fn new(db: &Database) -> Self {
        let mut interner = ValueInterner::new();
        interner.reserve(
            db.relations()
                .iter()
                .map(|r| r.len() * r.scheme().arity())
                .sum(),
        );
        let rows = db
            .relations()
            .iter()
            .map(|r| {
                r.tuples()
                    .map(|t| interner.intern_row(t.values()))
                    .collect()
            })
            .collect();
        CompiledRows { interner, rows }
    }

    /// The shared value table. Ids are dense: `0..interner().len()`.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// The raw rows of the relation at schema index `rel`.
    pub fn rows(&self, rel: usize) -> &[Vec<u32>] {
        &self.rows[rel]
    }

    /// Number of relations (= number of schema schemes).
    pub fn relation_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct values across the whole database.
    pub fn distinct_values(&self) -> usize {
        self.interner.len()
    }

    /// Total number of compiled rows.
    pub fn total_rows(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// A generation-stamped `u32` value: the full history of `(generation,
/// value)` changes, pruned below a caller-supplied watermark.
///
/// This is the cell type of [`VersionedIndex`] — the multi-version sibling
/// of a plain refcount. Readers ask for the value *as of* a pinned
/// generation ([`GenValue::at`]); writers stamp a new value at the commit
/// generation ([`GenValue::set`]). History below the watermark — the
/// oldest generation any reader still has pinned — is unobservable and is
/// pruned on every touch, so a hot cell's history stays as short as the
/// snapshot horizon, not as long as the commit log.
///
/// Most cells of a large index hold exactly one entry (every vacuum
/// collapses an untouched history to its newest value), so a one-entry
/// history is stored inline: a cell costs 16 bytes and no allocation
/// until a second entry must be kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenValue {
    hist: Hist,
}

/// [`GenValue`]'s storage. Invariant: `Many` holds at least two entries,
/// strictly ascending by generation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Hist {
    /// Never written.
    #[default]
    Empty,
    /// One `(generation, value)` entry.
    One(u64, u32),
    /// Two or more entries. The box is deliberate: a thin pointer keeps
    /// every cell at 16 bytes, and only the rare multi-entry cell pays for
    /// the extra allocation.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<(u64, u32)>>),
}

impl GenValue {
    /// The value as of generation `gen`: the last entry stamped at or
    /// before `gen`, or `0` when the cell had not been written yet (zero
    /// is the universal initial state of every counter here).
    pub fn at(&self, gen: u64) -> u32 {
        match &self.hist {
            Hist::Empty => 0,
            Hist::One(g, v) => {
                if *g <= gen {
                    *v
                } else {
                    0
                }
            }
            Hist::Many(h) => match h.partition_point(|e| e.0 <= gen) {
                0 => 0,
                i => h[i - 1].1,
            },
        }
    }

    /// The most recently stamped value (`0` when never written).
    pub fn latest(&self) -> u32 {
        match &self.hist {
            Hist::Empty => 0,
            Hist::One(_, v) => *v,
            Hist::Many(h) => h.last().map_or(0, |e| e.1),
        }
    }

    /// Stamp `value` at `gen`, then prune history that no reader at or
    /// above `watermark` can observe. Re-stamping the current generation
    /// overwrites in place (several changes within one commit collapse to
    /// the committed outcome); stamping a generation below the newest is a
    /// caller bug.
    pub fn set(&mut self, gen: u64, value: u32, watermark: u64) {
        match &mut self.hist {
            Hist::Empty => self.hist = Hist::One(gen, value),
            Hist::One(g, v) if *g == gen => *v = value,
            Hist::One(g, v) => {
                debug_assert!(*g < gen, "generation stamps must be monotone");
                self.hist = Hist::Many(Box::new(vec![(*g, *v), (gen, value)]));
            }
            Hist::Many(h) => match h.last_mut() {
                Some(last) if last.0 == gen => last.1 = value,
                _ => {
                    debug_assert!(h.last().is_none_or(|l| l.0 < gen), "monotone stamps");
                    h.push((gen, value));
                }
            },
        }
        self.prune(watermark);
    }

    /// Drop entries no reader at or above `watermark` can observe: entry
    /// `0` is dead as soon as entry `1` is already visible at the
    /// watermark. Histories are short (they are pruned on every touch), so
    /// the front-removal is cheap.
    pub fn prune(&mut self, watermark: u64) {
        if let Hist::Many(h) = &mut self.hist {
            let dead = h.iter().skip(1).take_while(|e| e.0 <= watermark).count();
            h.drain(..dead);
            self.collapse();
        }
    }

    /// Drop entries no *live* reader can observe, given the full sorted
    /// set of pinned generations rather than just their minimum.
    ///
    /// [`GenValue::prune`]'s single watermark keeps every entry above the
    /// oldest pin — so one long-lived snapshot pinned below an oscillating
    /// counter makes its history grow with the commit log even though the
    /// generations between the pin and the head are unobservable. Here an
    /// entry `(g_i, v)` survives only if it is the newest (it serves the
    /// head and every future snapshot) or some pin `p` satisfies
    /// `g_i ≤ p < g_{i+1}`: exactly the entries some reader can still
    /// resolve through [`GenValue::at`]. With no pins the history
    /// collapses to its newest entry.
    pub fn prune_sparse(&mut self, pins: &[u64]) {
        debug_assert!(pins.windows(2).all(|w| w[0] <= w[1]), "pins must be sorted");
        let Hist::Many(h) = &mut self.hist else {
            return;
        };
        let last = h.len() - 1;
        let mut kept = 0;
        for i in 0..h.len() {
            let observable = i == last || {
                let lo = h[i].0;
                let hi = h[i + 1].0;
                let p = pins.partition_point(|&p| p < lo);
                p < pins.len() && pins[p] < hi
            };
            if observable {
                h[kept] = h[i];
                kept += 1;
            }
        }
        h.truncate(kept);
        self.collapse();
    }

    /// Restore the `Many` invariant after a prune: a single survivor moves
    /// back inline.
    fn collapse(&mut self) {
        if let Hist::Many(h) = &self.hist {
            if let [(g, v)] = h[..] {
                self.hist = Hist::One(g, v);
            }
        }
    }

    /// Whether the cell is unobservable at every generation at or above
    /// the pruning watermark — a single all-zero entry (or none), i.e. a
    /// candidate for eviction by [`VersionedIndex::vacuum`].
    pub fn is_dead(&self) -> bool {
        match &self.hist {
            Hist::Empty => true,
            Hist::One(_, v) => *v == 0,
            Hist::Many(_) => false,
        }
    }

    /// Number of retained history entries (diagnostics and tests).
    pub fn depth(&self) -> usize {
        match &self.hist {
            Hist::Empty => 0,
            Hist::One(..) => 1,
            Hist::Many(h) => h.len(),
        }
    }
}

/// How many ids a [`RowKey`] stores inline.
const INLINE_IDS: usize = 4;

/// A short row of interned ids used as a hash-map key: up to four ids are
/// stored inline (24 bytes, no allocation), longer rows on the heap.
///
/// The catalog's big tables are keyed by full rows and short projections
/// — two or three ids in practice — and hold one key per live row. As a
/// `Vec<u32>` every key would be a separate heap block; inline, the key
/// lives in the table slot itself. Hashing and equality go through the
/// id slice, and the key borrows as `[u32]`, so lookups take a plain
/// `&[u32]` without building a key.
#[derive(Clone)]
pub struct RowKey(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline(u8, [u32; INLINE_IDS]),
    Heap(Box<[u32]>),
}

impl RowKey {
    /// The key for `ids`.
    pub fn new(ids: &[u32]) -> RowKey {
        if ids.len() <= INLINE_IDS {
            let mut inline = [0; INLINE_IDS];
            inline[..ids.len()].copy_from_slice(ids);
            RowKey(KeyRepr::Inline(ids.len() as u8, inline))
        } else {
            RowKey(KeyRepr::Heap(ids.into()))
        }
    }

    /// The ids.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            KeyRepr::Inline(n, ids) => &ids[..*n as usize],
            KeyRepr::Heap(ids) => ids,
        }
    }
}

impl std::borrow::Borrow<[u32]> for RowKey {
    fn borrow(&self) -> &[u32] {
        self.as_slice()
    }
}

impl PartialEq for RowKey {
    fn eq(&self, other: &RowKey) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RowKey {}

impl std::hash::Hash for RowKey {
    // Must hash exactly like the `[u32]` it borrows as.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for RowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// After a bulk eviction, rebuild `map` at its live size when erase
/// tombstones have used up its growth room.
///
/// A hash table marks most erased slots as tombstones rather than empty,
/// and a tombstone counts as neither live nor free: the table's room for
/// new keys (`capacity() - len()`) does not come back. A table that
/// evicts `evicted` dead keys and will take about as many fresh ones
/// before the next eviction (the steady state of delete/insert churn
/// over fresh keys) therefore drains its room a little every cycle,
/// until one insert finds none and the table doubles — with most of its
/// slots dead. Once the room left is smaller than the churn just
/// evicted, rebuilding at the live size restores it at the same size
/// instead.
pub fn compact_after_evict<K: std::hash::Hash + Eq, V>(map: &mut FastMap<K, V>, evicted: usize) {
    if evicted > 0 && map.capacity() - map.len() < evicted {
        let mut fresh = FastMap::with_capacity_and_hasher(map.len(), Default::default());
        fresh.extend(map.drain());
        *map = fresh;
    }
}

/// A multiset of projection keys whose per-key count is a full
/// [`GenValue`] history.
///
/// This is what lets one catalog serve snapshot reads *during* writes: a
/// writer commits generation `g+1` by stamping new counts at `g+1`
/// ([`VersionedIndex::add`] / [`VersionedIndex::remove`]), while a reader
/// pinned at `g` keeps probing [`VersionedIndex::count_at`]`(key, g)` and
/// observes the exact pre-commit counts. Both mutators return the
/// post-operation count at the head, so callers react to the `0 ↔ 1`
/// transitions that flip a constraint between satisfied and violated.
///
/// Space discipline: histories are pruned against the snapshot watermark
/// on every touch, and [`VersionedIndex::vacuum`] evicts keys whose entire
/// observable history is zero. Between vacuums a dead key costs one map
/// entry — the price of readers being allowed to lag.
#[derive(Debug, Clone, Default)]
pub struct VersionedIndex {
    counts: FastMap<RowKey, GenValue>,
}

impl VersionedIndex {
    /// An empty index.
    pub fn new() -> Self {
        VersionedIndex::default()
    }

    /// The count of `key` as of generation `gen` (zero when absent).
    pub fn count_at(&self, key: &[u32], gen: u64) -> u32 {
        self.counts.get(key).map_or(0, |g| g.at(gen))
    }

    /// The count of `key` at the newest generation (zero when absent).
    pub fn latest(&self, key: &[u32]) -> u32 {
        self.counts.get(key).map_or(0, GenValue::latest)
    }

    /// Add one reference to `key`, stamped at `gen`; returns the count
    /// after the add (so `1` means the key just became present at `gen`).
    pub fn add(&mut self, key: &[u32], gen: u64, watermark: u64) -> u32 {
        match self.counts.get_mut(key) {
            Some(g) => {
                let c = g.latest() + 1;
                g.set(gen, c, watermark);
                c
            }
            None => {
                let mut g = GenValue::default();
                g.set(gen, 1, watermark);
                self.counts.insert(RowKey::new(key), g);
                1
            }
        }
    }

    /// Drop one reference to `key`, stamped at `gen`; returns the count
    /// after the drop (so `0` means the key just disappeared at `gen`).
    /// Removing an absent key is a logic error upstream; it debug-panics
    /// and returns `0` in release.
    pub fn remove(&mut self, key: &[u32], gen: u64, watermark: u64) -> u32 {
        match self.counts.get_mut(key) {
            Some(g) if g.latest() > 0 => {
                let c = g.latest() - 1;
                g.set(gen, c, watermark);
                c
            }
            _ => {
                debug_assert!(false, "removed a key that was never added");
                0
            }
        }
    }

    /// Stamp an explicit count for `key` at `gen` (used for 0/1-valued
    /// membership and violation flags).
    pub fn set(&mut self, key: &[u32], gen: u64, value: u32, watermark: u64) {
        match self.counts.get_mut(key) {
            Some(g) => g.set(gen, value, watermark),
            None => {
                if value == 0 {
                    return; // absent and zero: nothing to record
                }
                let mut g = GenValue::default();
                g.set(gen, value, watermark);
                self.counts.insert(RowKey::new(key), g);
            }
        }
    }

    /// Iterate the keys whose count at generation `gen` is positive
    /// (arbitrary order).
    pub fn keys_at(&self, gen: u64) -> impl Iterator<Item = &[u32]> {
        self.counts
            .iter()
            .filter(move |(_, g)| g.at(gen) > 0)
            .map(|(k, _)| k.as_slice())
    }

    /// Iterate every key with its count as of generation `gen`, zero
    /// counts included (arbitrary order) — the enumeration primitive
    /// violation reporting filters over.
    pub fn iter_at(&self, gen: u64) -> impl Iterator<Item = (&[u32], u32)> {
        self.counts
            .iter()
            .map(move |(k, g)| (k.as_slice(), g.at(gen)))
    }

    /// Prune every history against `watermark` and evict keys left with no
    /// observable nonzero count. `O(keys)` — run occasionally, not per
    /// commit.
    pub fn vacuum(&mut self, watermark: u64) {
        self.evict(|g| {
            g.prune(watermark);
            !g.is_dead()
        });
    }

    /// [`VersionedIndex::vacuum`] against the full pinned-generation set
    /// (see [`GenValue::prune_sparse`]): drops the history entries between
    /// pins that a min-watermark prune would retain forever under a
    /// long-lived snapshot.
    pub fn vacuum_sparse(&mut self, pins: &[u64]) {
        self.evict(|g| {
            g.prune_sparse(pins);
            !g.is_dead()
        });
    }

    /// Keep the keys `keep` accepts, then restore the table's growth room
    /// if the evictions' tombstones used it up ([`compact_after_evict`]).
    fn evict(&mut self, mut keep: impl FnMut(&mut GenValue) -> bool) {
        let before = self.counts.len();
        self.counts.retain(|_, g| keep(g));
        let evicted = before - self.counts.len();
        compact_after_evict(&mut self.counts, evicted);
    }

    /// How many keys the table holds before it must grow (diagnostics and
    /// tests: a steady workload must not ratchet this up).
    pub fn capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// Number of keys currently stored, dead histories included
    /// (diagnostics and tests; see [`VersionedIndex::vacuum`]).
    pub fn key_count(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_distinct_prevents_rehash_during_bulk_intake() {
        let n = 10_000;
        let mut vi = ValueInterner::new();
        vi.reserve_distinct(2 * n);
        let (int_cap, gen_cap) = vi.table_capacities();
        assert!(int_cap >= n && gen_cap >= n);
        // A merged-run-sized intake of mixed kinds: with the sized hint in
        // place, neither table may grow (capacity growth == a rehash).
        for i in 0..n as i64 {
            vi.intern(&Value::Int(i));
            vi.intern(&Value::Str(format!("s{i}").into()));
        }
        assert_eq!(
            vi.table_capacities(),
            (int_cap, gen_cap),
            "bulk intake rehashed a table despite the sized hint"
        );
        // Contrast: the row-compiler `reserve` leaves the general table
        // unsized, so the same intake without `reserve_distinct` *does*
        // grow it — the bug the sized-hint intake exists to fix.
        let mut unsized_vi = ValueInterner::new();
        unsized_vi.reserve(2 * n);
        let (_, gen_before) = unsized_vi.table_capacities();
        for i in 0..n as i64 {
            unsized_vi.intern(&Value::Str(format!("s{i}").into()));
        }
        let (_, gen_after) = unsized_vi.table_capacities();
        assert!(gen_after > gen_before);
    }

    #[test]
    fn interner_roundtrip_and_lookup() {
        let mut vi = ValueInterner::new();
        let a = vi.intern(&Value::Int(7));
        let b = vi.intern(&Value::str("x"));
        assert_eq!(vi.intern(&Value::Int(7)), a);
        assert_ne!(a, b);
        assert_eq!(vi.len(), 2);
        assert_eq!(vi.resolve(a), &Value::Int(7));
        assert_eq!(vi.lookup(&Value::str("x")), Some(b));
        assert_eq!(vi.lookup(&Value::Int(8)), None);

        let row = vi.intern_row(&[Value::Int(7), Value::str("x")]);
        assert_eq!(
            vi.lookup_row(&[Value::Int(7), Value::str("x")]),
            Some(row.clone())
        );
        assert_eq!(vi.lookup_row(&[Value::Int(9)]), None);
        assert_eq!(vi.resolve_row(&row), vec![Value::Int(7), Value::str("x")]);
    }

    #[test]
    fn int_window_maps_its_range_and_leaves_the_rest_to_the_maps() {
        let mut vi = ValueInterner::new();
        assert!(vi.reserve_int_range(-5, 5));
        // Ids follow first sight, in the window or not.
        let hi = vi.intern_int(5);
        let lo = vi.intern(&Value::Int(-5));
        let below = vi.intern_int(-6);
        let above = vi.intern(&Value::Int(6));
        let s = vi.intern(&Value::str("5"));
        assert_eq!((hi, lo, below, above, s), (0, 1, 2, 3, 4));
        assert_eq!(vi.len(), 5);
        for (v, id) in [(5, hi), (-5, lo), (-6, below), (6, above)] {
            assert_eq!(vi.intern_int(v), id);
            assert_eq!(vi.lookup(&Value::Int(v)), Some(id));
            assert_eq!(vi.resolve(id), &Value::Int(v));
        }
        // Absent ints, in the window and just outside it, stay absent.
        for v in [0, 4, -4, -7, 7, i64::MIN, i64::MAX] {
            assert_eq!(vi.lookup(&Value::Int(v)), None, "{v}");
        }
        // Only the ints outside the window went through the hash table.
        assert_eq!(vi.int_ids.len(), 2);
        assert_eq!(vi.len(), 5);
    }

    #[test]
    fn int_windows_at_the_ends_of_i64_do_not_overflow() {
        let mut vi = ValueInterner::new();
        assert!(vi.reserve_int_range(i64::MIN, i64::MIN + 3));
        let ids: Vec<u32> = [i64::MIN, i64::MIN + 3, i64::MIN + 4, i64::MAX, -1, 0]
            .iter()
            .map(|&v| vi.intern_int(v))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(vi.int_ids.len(), 4, "only MIN and MIN + 3 are windowed");
        assert_eq!(vi.lookup(&Value::Int(i64::MIN + 1)), None);

        let mut vi = ValueInterner::new();
        assert!(vi.reserve_int_range(i64::MAX - 3, i64::MAX));
        let ids: Vec<u32> = [i64::MAX, i64::MAX - 3, i64::MAX - 4, i64::MIN, 0]
            .iter()
            .map(|&v| vi.intern_int(v))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(vi.int_ids.len(), 3, "only MAX and MAX - 3 are windowed");
        assert_eq!(vi.lookup(&Value::Int(i64::MAX - 1)), None);
        assert_eq!(vi.lookup(&Value::Int(i64::MIN)), Some(3));

        // A one-slot window; the full i64 range does not fit in memory.
        let mut vi = ValueInterner::new();
        assert!(vi.reserve_int_range(i64::MAX, i64::MAX));
        assert_eq!(vi.intern_int(i64::MAX), 0);
        assert_eq!(vi.lookup(&Value::Int(i64::MAX - 1)), None);
        assert!(!ValueInterner::new().reserve_int_range(i64::MIN, i64::MAX));
        assert!(!ValueInterner::new().reserve_int_range(1, 0));
    }

    #[test]
    fn int_window_is_refused_once_ids_exist() {
        let mut vi = ValueInterner::new();
        let seven = vi.intern_int(7);
        assert!(!vi.reserve_int_range(0, 9), "7 would be invisible to it");
        assert_eq!(vi.lookup(&Value::Int(7)), Some(seven));
        assert_eq!(vi.intern_int(7), seven);
        // With a window, `reserve` leaves the int table alone.
        let mut vi = ValueInterner::new();
        assert!(vi.reserve_int_range(0, 9));
        vi.reserve(1000);
        assert_eq!(vi.table_capacities().0, 0);
    }

    #[test]
    fn compiled_rows_share_one_interner() {
        use crate::database::Database;
        use crate::schema::DatabaseSchema;

        let schema = DatabaseSchema::parse(&["R(A, B)", "S(B)"]).unwrap();
        let mut db = Database::empty(schema);
        db.insert_ints("R", &[&[1, 2], &[3, 2]]).unwrap();
        db.insert_ints("S", &[&[2]]).unwrap();

        let compiled = CompiledRows::new(&db);
        assert_eq!(compiled.relation_count(), 2);
        assert_eq!(compiled.total_rows(), 3);
        // Values 1, 2, 3 — the shared 2 interned once.
        assert_eq!(compiled.distinct_values(), 3);
        let two = compiled.interner().lookup(&Value::Int(2)).unwrap();
        assert!(compiled.rows(0).iter().all(|row| row[1] == two));
        assert_eq!(compiled.rows(1), &[vec![two]]);
    }

    #[test]
    fn append_only_interner_never_recycles() {
        let mut vi = ValueInterner::new();
        assert!(vi.is_empty());
        assert!(vi.reserve_int_range(0, 9));
        let row = vi.intern_row(&[Value::Int(1), Value::Int(20)]);
        assert_eq!(row, vec![0, 1], "ids are dense, in first-seen order");
        // Re-interning hands back the same ids and allocates nothing, in
        // the int window and outside it.
        assert_eq!(vi.intern_row(&[Value::Int(20), Value::Int(1)]), vec![1, 0]);
        assert_eq!(vi.len(), 2);
        // A fresh value always takes the next id: no slot is ever reused,
        // so an id a reader saw resolves to the same value forever.
        let fresh = vi.intern(&Value::str("later"));
        assert_eq!(fresh, 2);
        assert_eq!(vi.resolve_row(&row), vec![Value::Int(1), Value::Int(20)]);
        assert_eq!(vi.lookup(&Value::Int(1)), Some(row[0]));
    }

    #[test]
    fn gen_value_reads_as_of_any_generation() {
        let mut g = GenValue::default();
        assert_eq!(g.at(0), 0);
        assert_eq!(g.latest(), 0);
        g.set(3, 5, 0);
        g.set(7, 2, 0);
        g.set(7, 9, 0); // same-generation overwrite collapses
        assert_eq!(g.at(2), 0);
        assert_eq!(g.at(3), 5);
        assert_eq!(g.at(6), 5);
        assert_eq!(g.at(7), 9);
        assert_eq!(g.at(100), 9);
        assert_eq!(g.latest(), 9);
        assert_eq!(g.depth(), 2);
        // Pruning at watermark 7: the (3, 5) entry is unobservable.
        g.prune(7);
        assert_eq!(g.depth(), 1);
        assert_eq!(g.at(7), 9);
        // Readers at/above the watermark still see the same world; a read
        // below the watermark would be a protocol violation anyway.
        assert!(!g.is_dead());
        g.set(9, 0, 9);
        assert!(g.is_dead());
    }

    #[test]
    fn sparse_prune_keeps_exactly_what_pins_can_observe() {
        // An oscillating counter stamped at generations 1..=8.
        let mut g = GenValue::default();
        for gen in 1..=8u64 {
            g.set(gen, (gen % 2) as u32, 0);
        }
        assert_eq!(g.depth(), 8);
        // A pin at 3 and one at 6: every pinned read and every read at or
        // past the head must survive the prune; everything else may go.
        let before: Vec<u32> = [3u64, 6, 8, 100].iter().map(|&p| g.at(p)).collect();
        g.prune_sparse(&[3, 6]);
        let after: Vec<u32> = [3u64, 6, 8, 100].iter().map(|&p| g.at(p)).collect();
        assert_eq!(before, after);
        assert_eq!(g.depth(), 3, "entries at 3, 6, and the head remain");
        // No pins at all: only the newest entry is observable.
        g.prune_sparse(&[]);
        assert_eq!(g.depth(), 1);
        assert_eq!(g.at(100), 0);
    }

    #[test]
    fn sparse_vacuum_evicts_dead_keys_like_the_watermark_form() {
        let mut idx = VersionedIndex::new();
        assert_eq!(idx.add(&[1], 1, 0), 1);
        assert_eq!(idx.remove(&[1], 2, 0), 0);
        assert_eq!(idx.add(&[2], 2, 0), 1);
        // A pin at generation 1 keeps key [1] observable.
        idx.vacuum_sparse(&[1]);
        assert_eq!(idx.count_at(&[1], 1), 1);
        assert_eq!(idx.key_count(), 2);
        // Pin released: the dead key is evicted, the live one survives.
        idx.vacuum_sparse(&[]);
        assert_eq!(idx.key_count(), 1);
        assert_eq!(idx.latest(&[2]), 1);
    }

    #[test]
    fn versioned_index_serves_old_generations_during_writes() {
        let mut idx = VersionedIndex::new();
        assert_eq!(idx.add(&[1], 1, 0), 1);
        assert_eq!(idx.add(&[1], 2, 0), 2);
        assert_eq!(idx.add(&[2], 2, 0), 1);
        // A reader pinned at generation 1 sees the pre-commit counts.
        assert_eq!(idx.count_at(&[1], 1), 1);
        assert_eq!(idx.count_at(&[2], 1), 0);
        assert_eq!(idx.count_at(&[1], 2), 2);
        assert_eq!(idx.latest(&[2]), 1);
        // Removal stamps a new generation without disturbing old readers.
        assert_eq!(idx.remove(&[1], 3, 0), 1);
        assert_eq!(idx.remove(&[1], 4, 0), 0);
        assert_eq!(idx.count_at(&[1], 2), 2);
        assert_eq!(idx.count_at(&[1], 4), 0);
        let at2: Vec<_> = idx.keys_at(2).collect();
        assert_eq!(at2.len(), 2);
        let at4: Vec<_> = idx.keys_at(4).collect();
        assert_eq!(at4, vec![&[2u32][..]]);
        // Vacuum at watermark 4 evicts the dead key entirely.
        assert_eq!(idx.key_count(), 2);
        idx.vacuum(4);
        assert_eq!(idx.key_count(), 1);
        assert_eq!(idx.count_at(&[2], 4), 1);
    }

    #[test]
    fn row_keys_hash_and_compare_like_their_id_slices() {
        let mut idx = VersionedIndex::new();
        // Inline (≤ 4 ids, the empty key included) and heap-held keys
        // alike answer lookups by a plain slice.
        let keys: [&[u32]; 4] = [&[], &[7], &[1, 2, 3, 4], &[1, 2, 3, 4, 5, 6]];
        for (i, k) in keys.iter().enumerate() {
            idx.set(k, 1, i as u32 + 1, 0);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(idx.latest(k), i as u32 + 1, "key {k:?}");
        }
        assert_eq!(idx.latest(&[1, 2, 3]), 0, "a prefix is another key");
        assert_eq!(idx.latest(&[1, 2, 3, 4, 5]), 0);
        assert_eq!(RowKey::new(&[9, 8]).as_slice(), &[9, 8]);
        assert_eq!(RowKey::new(&[1; 6]), RowKey::new(&[1; 6]));
        assert_ne!(RowKey::new(&[1, 0]), RowKey::new(&[1]));
    }

    #[test]
    fn one_entry_histories_stay_inline_and_collapse_back() {
        let mut g = GenValue::default();
        g.set(1, 3, 0);
        assert_eq!((g.depth(), g.at(0), g.at(1)), (1, 0, 3));
        // A second stamp above the watermark must keep both entries...
        g.set(2, 4, 1);
        assert_eq!((g.depth(), g.at(1), g.at(2)), (2, 3, 4));
        // ...and a prune that makes the older one unobservable moves the
        // survivor back inline, where a stamp at the same generation
        // still overwrites in place.
        g.prune(2);
        assert_eq!(g, {
            let mut one = GenValue::default();
            one.set(2, 4, 0);
            one
        });
        g.set(2, 0, 2);
        assert!(g.is_dead());
    }

    #[test]
    fn eviction_churn_rebuilds_a_table_instead_of_doubling_it() {
        // Deterministic hashing: the same churn drains the same room on
        // every run. Each cycle inserts as many fresh keys as the last
        // eviction removed, as delete/insert churn over fresh keys does.
        let mut map: FastMap<u32, u32> = (0..3_000).map(|k| (k, k)).collect();
        let settled = map.capacity();
        let mut fresh = 1_000_000;
        for _ in 0..12 {
            let cycle: Vec<u32> = (fresh..fresh + 450).collect();
            fresh += 450;
            map.extend(cycle.iter().map(|&k| (k, k)));
            map.retain(|&k, _| k < 3_000);
            compact_after_evict(&mut map, cycle.len());
            assert!(map.capacity() <= settled, "the table grew under churn");
        }
        assert_eq!(map.len(), 3_000);
    }

    #[test]
    fn versioned_index_set_skips_dead_zero_writes() {
        let mut idx = VersionedIndex::new();
        idx.set(&[7], 1, 0, 0); // absent + zero: not recorded
        assert_eq!(idx.key_count(), 0);
        idx.set(&[7], 2, 1, 0);
        idx.set(&[7], 3, 0, 0);
        assert_eq!(idx.count_at(&[7], 2), 1);
        assert_eq!(idx.count_at(&[7], 3), 0);
    }
}
