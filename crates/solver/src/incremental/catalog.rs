//! Snapshot-isolated validation: one shared catalog, many sessions.
//!
//! The incremental engine is multi-version, the shape a serving system
//! needs (`depkit serve` multiplexes thousands of client streams over one
//! catalog); a single writer such as `depkit validate` is its one-session
//! case:
//!
//! * [`CatalogState`] is the shared engine: the compiled `(Schema, Σ)`
//!   plan (immutable after construction) plus a generation-stamped mutable
//!   state — per-relation row membership, FD witness maps and IND
//!   projection counts, all kept as [`VersionedIndex`]es whose per-key
//!   histories answer "what was the count as of generation `g`?".
//! * [`Session`] is the per-client unit of work: it pins a [`Snapshot`] at
//!   the current generation, stages a [`Delta`] without taking any lock,
//!   previews the violation set of *snapshot + staged delta* in time
//!   proportional to the delta, and then either commits or aborts.
//! * [`Snapshot`] is a pinned read view: its generation stays fully
//!   readable — membership probes, violation enumeration, whole-relation
//!   scans over copy-on-write column chunks — while writers advance.
//!
//! ## The commit protocol
//!
//! Commit applies the staged delta to the *latest* state, not to the
//! session's snapshot: deltas are absolute presence operations (insert a
//! row, delete a row — both idempotent), so interleaved sessions compose
//! without write-write conflict detection and the final state equals a
//! serial replay of the committed deltas in commit order. The writer
//! critical section is short: take the write lock, stamp every effective
//! row change at `generation + 1`, publish the new generation, release.
//! Sessions whose delta is empty, or whose every operation is a no-op
//! (duplicate insert, absent delete), do **not** advance the generation —
//! the empty-commit fast path touches no index at all.
//!
//! Abort is cheaper still: staging lives entirely inside the [`Session`],
//! so dropping it cannot leave a trace in any snapshot — the same
//! atomic-on-error discipline [`CatalogState::seed`] keeps for bulk loads,
//! at the transaction boundary.
//!
//! ## Generation-counter invariants
//!
//! 1. The generation increases only inside the write lock, and only when
//!    at least one row actually changed.
//! 2. A snapshot pins its generation in the catalog's pin table while the
//!    read lock is held, so the pruning watermark (the minimum pinned
//!    generation) can never pass a live reader; history a pinned reader
//!    may still ask for is never pruned.
//! 3. Writers stamp new counts at `g + 1`; every reader pinned at or
//!    below `g` observes exactly the pre-commit counts. Uncommitted
//!    staging is invisible at every generation.

use super::ViolationKey;
use depkit_core::column::{ChunkedColumn, ChunkedColumnSnapshot};
use depkit_core::database::Database;
use depkit_core::delta::{Delta, DeltaOutcome};
use depkit_core::dependency::Dependency;
use depkit_core::error::CoreError;
use depkit_core::hashing::{FastMap, FastSet};
use depkit_core::index::{compact_after_evict, GenValue, RowKey, ValueInterner, VersionedIndex};
use depkit_core::intern::Catalog;
use depkit_core::relation::Tuple;
use depkit_core::schema::{DatabaseSchema, RelName};
use depkit_core::value::Value;
use depkit_core::wal::CheckpointDoc;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How many commits between automatic [`VersionedIndex::vacuum`] passes
/// over the whole state (dead keys cost one map entry, and dead log rows
/// one log slot, until then). The cadence amortizes the vacuum's
/// live-key scan: work on *dead* entries is proportional to the churn
/// no matter the cadence, but rescanning live keys is pure overhead, so
/// it runs rarely.
const VACUUM_EVERY: u64 = 8192;

/// A row of the log that is still alive (its `died` stamp).
const NEVER: u64 = u64::MAX;

/// The compiled, immutable part of one FD: where to project.
#[derive(Debug)]
struct FdPlan {
    /// Index into `Σ`.
    dep: usize,
    lhs_cols: Vec<usize>,
    rhs_cols: Vec<usize>,
}

/// The compiled, immutable part of one IND: where to project.
#[derive(Debug)]
struct IndPlan {
    /// Index into `Σ`.
    dep: usize,
    lhs_cols: Vec<usize>,
    rhs_cols: Vec<usize>,
}

/// Per-relation append-only row log in copy-on-write chunked columns: one
/// id column per attribute plus the `[born, died)` generation interval.
/// A row is visible at generation `g` iff `born <= g < died`. The log is
/// what lets a [`Snapshot`] scan a whole relation without holding the
/// catalog lock: sealed chunks are shared `Arc`s, and the one mutation a
/// live log row can suffer — its `died` stamp — is copy-on-write, so a
/// reader's clone is immune to it.
#[derive(Debug, Default)]
struct RelLog {
    attrs: Vec<ChunkedColumn<u32>>,
    born: ChunkedColumn<u64>,
    died: ChunkedColumn<u64>,
}

/// The generation-stamped mutable state behind the catalog's write lock.
#[derive(Debug)]
struct MutState {
    /// Append-only value interner: ids are never recycled, so an id in a
    /// pinned snapshot's history resolves forever.
    values: ValueInterner,
    /// Per-relation row membership (full-row key, 0/1-valued history).
    rows: Vec<VersionedIndex>,
    /// Per-relation live-row count history.
    row_count: Vec<GenValue>,
    /// Per-relation append-only row log (snapshot scans).
    log: Vec<RelLog>,
    /// Writer-only map from live row to its log position (to stamp `died`).
    log_pos: Vec<FastMap<RowKey, u32>>,
    /// Per-FD multiset of `X ++ Y` projection pairs.
    fd_pairs: Vec<VersionedIndex>,
    /// Per-FD map `X` → number of distinct `Y` projections (violating iff ≥ 2).
    fd_distinct: Vec<VersionedIndex>,
    /// Per-IND multiset of left-side projections.
    ind_left: Vec<VersionedIndex>,
    /// Per-IND multiset of right-side projections.
    ind_right: Vec<VersionedIndex>,
    /// History of the total number of violating keys across all of Σ —
    /// maintained on every 0↔1 / 1↔2 index transition so
    /// [`Snapshot::is_consistent`] is `O(log)` and
    /// [`Session::is_consistent`] is `O(delta)`, never a key-space scan.
    viol_count: GenValue,
    /// Per-dependency violating-key history, indexed by position in Σ —
    /// the same transitions that feed `viol_count`, split out so
    /// [`Snapshot::health`] answers per-dependency satisfaction without a
    /// key-space scan.
    dep_viol: Vec<GenValue>,
    /// Per-dependency tracked-key history, indexed by position in Σ: for
    /// an FD the number of live distinct LHS groups, for an IND the
    /// number of live distinct left-side projections. `violating /
    /// tracked` is the unsatisfied fraction at any pinned generation.
    dep_keys: Vec<GenValue>,
    /// Commits since the last automatic vacuum.
    commits: u64,
    /// Per-client idempotency table: the last commit token each client
    /// used and the outcome its commit produced. A retried commit whose
    /// token matches returns the stored outcome instead of re-applying —
    /// the serve layer's lost-ack protection. Checkpointed and replayed
    /// with the rest of the state so dedup survives a crash.
    tokens: FastMap<String, TokenRecord>,
    /// Reusable projection-key buffer for the write path (no per-op
    /// allocation; the index mutators clone only on first insertion).
    scratch: Vec<u32>,
}

/// What [`MutState::tokens`] remembers per client.
#[derive(Debug, Clone)]
struct TokenRecord {
    token: String,
    outcome: CommitOutcome,
}

/// Everything a [`CatalogState`] handle points at.
#[derive(Debug)]
struct Inner {
    schema: DatabaseSchema,
    sigma: Vec<Dependency>,
    names: Catalog,
    fds: Vec<FdPlan>,
    inds: Vec<IndPlan>,
    fd_watch: Vec<Vec<u32>>,
    ind_left_watch: Vec<Vec<u32>>,
    ind_right_watch: Vec<Vec<u32>>,
    state: RwLock<MutState>,
    /// The durability hook: every effective commit is offered to the
    /// sink *inside* the write lock, after the state is stamped and
    /// before the outcome is returned — so by the time a caller sees an
    /// acknowledgement, the commit is recorded. `None` for the plain
    /// in-memory catalog. Lock order: `state` before `sink`, always.
    sink: Mutex<Option<Box<dyn CommitSink>>>,
    /// Set when a sink append fails with the state already mutated: the
    /// in-memory catalog is ahead of the durable log, so every further
    /// tagged commit is refused (degraded read-only) rather than widening
    /// the divergence. Cleared only by restarting from the log.
    sink_poisoned: AtomicBool,
    /// Pinned generation → number of snapshots pinning it.
    pins: Mutex<BTreeMap<u64, usize>>,
    /// The published generation (only advanced inside the write lock).
    generation: AtomicU64,
    /// The pruning watermark: the minimum pinned generation, or the
    /// current generation when nothing is pinned. Monotone per reader:
    /// a stale (lower) load only prunes less.
    watermark: AtomicU64,
}

impl Inner {
    fn read(&self) -> RwLockReadGuard<'_, MutState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, MutState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    fn rel_index(&self, rel: &RelName, t: &Tuple) -> Result<usize, CoreError> {
        let id = self
            .names
            .rel_id(rel)
            .ok_or_else(|| CoreError::UnknownRelation(rel.name().to_owned()))?;
        let arity = self.schema.schemes()[id.index()].arity();
        if t.len() != arity {
            return Err(CoreError::TupleArity {
                relation: rel.name().to_owned(),
                expected: arity,
                actual: t.len(),
            });
        }
        Ok(id.index())
    }

    /// Check that relation `r` (schema order) exists and takes rows of
    /// `arity` values.
    fn check_row(&self, r: usize, arity: usize) -> Result<(), CoreError> {
        let scheme = self
            .schema
            .schemes()
            .get(r)
            .ok_or_else(|| CoreError::UnknownRelation(format!("#{r}")))?;
        if scheme.arity() != arity {
            return Err(CoreError::TupleArity {
                relation: scheme.name().name().to_owned(),
                expected: scheme.arity(),
                actual: arity,
            });
        }
        Ok(())
    }

    /// The sorted set of generations live snapshots currently pin —
    /// exactly what sparse pruning must keep observable.
    fn pinned_gens(&self) -> Vec<u64> {
        let pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        pins.keys().copied().collect()
    }

    /// Register one more snapshot of `gen` and lower the watermark to it.
    /// Caller must hold the read (or write) lock so no commit can advance
    /// the generation — and prune up to it — between choosing `gen` and
    /// recording the pin.
    fn pin(&self, gen: u64) {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        *pins.entry(gen).or_insert(0) += 1;
        let wm = *pins.keys().next().expect("just inserted");
        self.watermark.store(wm, Ordering::Release);
    }

    /// Drop one pin of `gen`, raising the watermark if it was the oldest.
    fn unpin(&self, gen: u64) {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(n) = pins.get_mut(&gen) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&gen);
            }
        }
        let wm = pins
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.generation.load(Ordering::Acquire));
        self.watermark.store(wm, Ordering::Release);
    }

    /// Apply one effective deletion at `gen`, returning whether the row
    /// was present. Stamps every watching constraint.
    fn delete_row(&self, st: &mut MutState, r: usize, vals: &[Value], gen: u64, w: u64) -> bool {
        let Some(row) = st.values.lookup_row(vals) else {
            return false; // never-interned values cannot be in a live row
        };
        if st.rows[r].latest(&row) == 0 {
            return false;
        }
        st.rows[r].remove(&row, gen, w);
        let c = st.row_count[r].latest() - 1;
        st.row_count[r].set(gen, c, w);
        if let Some(pos) = st.log_pos[r].remove(row.as_slice()) {
            st.log[r].died.set(pos as usize, gen);
        }
        let mut dv = 0i64; // net change in violating keys
        let mut key = std::mem::take(&mut st.scratch);
        for &fi in &self.fd_watch[r] {
            let f = &self.fds[fi as usize];
            key.clear();
            key.extend(f.lhs_cols.iter().map(|&c| row[c]));
            let split = key.len();
            key.extend(f.rhs_cols.iter().map(|&c| row[c]));
            if st.fd_pairs[fi as usize].remove(&key, gen, w) == 0 {
                match st.fd_distinct[fi as usize].remove(&key[..split], gen, w) {
                    0 => bump_gen(&mut st.dep_keys[f.dep], -1, gen, w), // group gone
                    1 => {
                        dv -= 1; // the LHS group dropped from 2 distinct RHS to 1
                        bump_gen(&mut st.dep_viol[f.dep], -1, gen, w);
                    }
                    _ => {}
                }
            }
        }
        for &ii in &self.ind_left_watch[r] {
            let i = &self.inds[ii as usize];
            key.clear();
            key.extend(i.lhs_cols.iter().map(|&c| row[c]));
            if st.ind_left[ii as usize].remove(&key, gen, w) == 0 {
                bump_gen(&mut st.dep_keys[i.dep], -1, gen, w); // left key gone
                if st.ind_right[ii as usize].latest(&key) == 0 {
                    dv -= 1; // the last dangling left occurrence is gone
                    bump_gen(&mut st.dep_viol[i.dep], -1, gen, w);
                }
            }
        }
        for &ii in &self.ind_right_watch[r] {
            let i = &self.inds[ii as usize];
            key.clear();
            key.extend(i.rhs_cols.iter().map(|&c| row[c]));
            if st.ind_right[ii as usize].remove(&key, gen, w) == 0
                && st.ind_left[ii as usize].latest(&key) > 0
            {
                dv += 1; // left occurrences just lost their last witness
                bump_gen(&mut st.dep_viol[i.dep], 1, gen, w);
            }
        }
        st.scratch = key;
        bump_viol_count(st, dv, gen, w);
        true
    }

    /// Apply one effective insertion at `gen`, returning whether the row
    /// was new. Stamps every watching constraint.
    fn insert_row(&self, st: &mut MutState, r: usize, vals: &[Value], gen: u64, w: u64) -> bool {
        let row = st.values.intern_row(vals);
        if st.rows[r].latest(&row) != 0 {
            return false;
        }
        st.rows[r].add(&row, gen, w);
        let c = st.row_count[r].latest() + 1;
        st.row_count[r].set(gen, c, w);
        let log = &mut st.log[r];
        let pos = log.born.len() as u32;
        for (col, &id) in log.attrs.iter_mut().zip(&row) {
            col.push(id);
        }
        log.born.push(gen);
        log.died.push(NEVER);
        st.log_pos[r].insert(RowKey::new(&row), pos);
        let mut dv = 0i64; // net change in violating keys
        let mut key = std::mem::take(&mut st.scratch);
        for &fi in &self.fd_watch[r] {
            let f = &self.fds[fi as usize];
            key.clear();
            key.extend(f.lhs_cols.iter().map(|&c| row[c]));
            let split = key.len();
            key.extend(f.rhs_cols.iter().map(|&c| row[c]));
            if st.fd_pairs[fi as usize].add(&key, gen, w) == 1 {
                match st.fd_distinct[fi as usize].add(&key[..split], gen, w) {
                    1 => bump_gen(&mut st.dep_keys[f.dep], 1, gen, w), // fresh group
                    2 => {
                        dv += 1; // the LHS group just reached 2 distinct RHS
                        bump_gen(&mut st.dep_viol[f.dep], 1, gen, w);
                    }
                    _ => {}
                }
            }
        }
        for &ii in &self.ind_left_watch[r] {
            let i = &self.inds[ii as usize];
            key.clear();
            key.extend(i.lhs_cols.iter().map(|&c| row[c]));
            if st.ind_left[ii as usize].add(&key, gen, w) == 1 {
                bump_gen(&mut st.dep_keys[i.dep], 1, gen, w); // fresh left key
                if st.ind_right[ii as usize].latest(&key) == 0 {
                    dv += 1; // a fresh left occurrence with no witness
                    bump_gen(&mut st.dep_viol[i.dep], 1, gen, w);
                }
            }
        }
        for &ii in &self.ind_right_watch[r] {
            let i = &self.inds[ii as usize];
            key.clear();
            key.extend(i.rhs_cols.iter().map(|&c| row[c]));
            if st.ind_right[ii as usize].add(&key, gen, w) == 1
                && st.ind_left[ii as usize].latest(&key) > 0
            {
                dv -= 1; // dangling left occurrences just got a witness
                bump_gen(&mut st.dep_viol[i.dep], -1, gen, w);
            }
        }
        st.scratch = key;
        bump_viol_count(st, dv, gen, w);
        true
    }

    /// Lower `staged` into interned-id space against generation `gen`:
    /// every value resolves to its interner id, or to a fresh
    /// *session-local* id (`>= base`) when the interner has never seen it.
    /// Local ids are deduplicated (equal unknown values share one id), so
    /// staged rows still collide with each other — and by construction a
    /// projection containing a local id has base count 0.
    ///
    /// `changed` holds one `(relation, id row, ±1)` entry per row whose
    /// presence actually flips, in Delta order (deletes first, both
    /// idempotent against the evolving view). Every staged operation must
    /// already be validated against the schema.
    fn staged_changes(&self, st: &MutState, gen: u64, staged: &Delta) -> StagedIds {
        let base = st.values.len() as u32;
        let mut locals: Vec<Value> = Vec::new();
        let mut local_ids: FastMap<Value, u32> = FastMap::default();
        let mut view: FastMap<(usize, Vec<u32>), bool> = FastMap::default();
        let mut changed: Vec<(usize, Vec<u32>, i64)> = Vec::new();
        for (phase, ops) in [(false, &staged.deletes), (true, &staged.inserts)] {
            for (rel, t) in ops {
                let r = self.rel_index(rel, t).expect("staged ops are validated");
                let row: Vec<u32> = t
                    .values()
                    .iter()
                    .map(|v| {
                        st.values.lookup(v).unwrap_or_else(|| {
                            *local_ids.entry(v.clone()).or_insert_with(|| {
                                locals.push(v.clone());
                                base + (locals.len() - 1) as u32
                            })
                        })
                    })
                    .collect();
                let cur = match view.get(&(r, row.clone())) {
                    Some(&p) => p,
                    None => row.iter().all(|&id| id < base) && st.rows[r].count_at(&row, gen) > 0,
                };
                if cur != phase {
                    view.insert((r, row.clone()), phase);
                    changed.push((r, row, if phase { 1 } else { -1 }));
                }
            }
        }
        StagedIds {
            base,
            locals,
            changed,
        }
    }

    /// Per-FD adjustment map of the staged changes: touched LHS group →
    /// RHS projection → net multiset change (all in id space).
    fn fd_adjustments(
        &self,
        ids: &StagedIds,
        fi: usize,
        f: &FdPlan,
    ) -> FastMap<Vec<u32>, FastMap<Vec<u32>, i64>> {
        let mut adj: FastMap<Vec<u32>, FastMap<Vec<u32>, i64>> = FastMap::default();
        for (r, row, sign) in &ids.changed {
            if self.fd_watch[*r].contains(&(fi as u32)) {
                let x = project(row, &f.lhs_cols);
                let y = project(row, &f.rhs_cols);
                *adj.entry(x).or_default().entry(y).or_default() += sign;
            }
        }
        adj
    }

    /// For one touched FD LHS group: the base distinct-RHS count at `gen`
    /// and the net change the adjustments make to it.
    fn fd_group_delta(
        &self,
        st: &MutState,
        ids: &StagedIds,
        fi: usize,
        gen: u64,
        x: &[u32],
        ys: &FastMap<Vec<u32>, i64>,
    ) -> (i64, i64) {
        let base_distinct = if ids.known(x) {
            st.fd_distinct[fi].count_at(x, gen) as i64
        } else {
            0
        };
        let mut delta = 0i64;
        let mut pair = Vec::with_capacity(x.len() + 1);
        for (y, d) in ys {
            pair.clear();
            pair.extend_from_slice(x);
            pair.extend_from_slice(y);
            let base = if ids.known(&pair) {
                st.fd_pairs[fi].count_at(&pair, gen) as i64
            } else {
                0
            };
            delta += i64::from(base + d > 0) - i64::from(base > 0);
        }
        (base_distinct, delta)
    }

    /// Per-IND adjustment maps of the staged changes: touched key → net
    /// multiset change, for the left and right side (in id space).
    #[allow(clippy::type_complexity)]
    fn ind_adjustments(
        &self,
        ids: &StagedIds,
        ii: usize,
        i: &IndPlan,
    ) -> (FastMap<Vec<u32>, i64>, FastMap<Vec<u32>, i64>) {
        let mut adj_l: FastMap<Vec<u32>, i64> = FastMap::default();
        let mut adj_r: FastMap<Vec<u32>, i64> = FastMap::default();
        for (r, row, sign) in &ids.changed {
            if self.ind_left_watch[*r].contains(&(ii as u32)) {
                *adj_l.entry(project(row, &i.lhs_cols)).or_default() += sign;
            }
            if self.ind_right_watch[*r].contains(&(ii as u32)) {
                *adj_r.entry(project(row, &i.rhs_cols)).or_default() += sign;
            }
        }
        (adj_l, adj_r)
    }

    /// Base left/right multiset counts of one IND key at `gen`.
    fn ind_key_counts(
        &self,
        st: &MutState,
        ids: &StagedIds,
        ii: usize,
        gen: u64,
        key: &[u32],
    ) -> (i64, i64) {
        if ids.known(key) {
            (
                st.ind_left[ii].count_at(key, gen) as i64,
                st.ind_right[ii].count_at(key, gen) as i64,
            )
        } else {
            (0, 0)
        }
    }

    /// Whether `(generation gen) + staged` satisfies every dependency, in
    /// time proportional to the staged delta alone: the base contributes
    /// only its maintained violation counter, and only keys the delta
    /// touches are re-evaluated.
    fn consistent_with(&self, gen: u64, staged: &Delta) -> bool {
        let st = self.read();
        let ids = self.staged_changes(&st, gen, staged);
        let mut net = i64::from(st.viol_count.at(gen));
        for (fi, f) in self.fds.iter().enumerate() {
            for (x, ys) in &self.fd_adjustments(&ids, fi, f) {
                let (base_distinct, delta) = self.fd_group_delta(&st, &ids, fi, gen, x, ys);
                net += i64::from(base_distinct + delta >= 2) - i64::from(base_distinct >= 2);
            }
        }
        for (ii, i) in self.inds.iter().enumerate() {
            let (adj_l, adj_r) = self.ind_adjustments(&ids, ii, i);
            let affected: FastSet<&Vec<u32>> = adj_l.keys().chain(adj_r.keys()).collect();
            for key in affected {
                let (left, right) = self.ind_key_counts(&st, &ids, ii, gen, key);
                let dl = adj_l.get(key).copied().unwrap_or(0);
                let dr = adj_r.get(key).copied().unwrap_or(0);
                net +=
                    i64::from(left + dl > 0 && right + dr == 0) - i64::from(left > 0 && right == 0);
            }
        }
        net == 0
    }

    /// The violation set of `(generation gen) + staged`, in time
    /// proportional to the staged delta plus, for each dependency that
    /// violates at `gen`, its base key count. A dependency with no
    /// violating key at `gen` contributes no base violation, so its base
    /// keys are not scanned.
    fn violations_with(&self, gen: u64, staged: &Delta) -> BTreeSet<ViolationKey> {
        let st = self.read();
        let ids = self.staged_changes(&st, gen, staged);
        let mut out = BTreeSet::new();
        // FDs: recompute the distinct-RHS count of every touched LHS
        // group; carry the untouched part of the base violation set.
        for (fi, f) in self.fds.iter().enumerate() {
            let adj = self.fd_adjustments(&ids, fi, f);
            for (x, ys) in &adj {
                let (base_distinct, delta) = self.fd_group_delta(&st, &ids, fi, gen, x, ys);
                if base_distinct + delta >= 2 {
                    out.insert(ViolationKey::Fd {
                        dep: f.dep,
                        lhs: ids.resolve(&st, x),
                    });
                }
            }
            if st.dep_viol[f.dep].at(gen) == 0 {
                continue;
            }
            for (key, c) in st.fd_distinct[fi].iter_at(gen) {
                if c >= 2 && !adj.contains_key(key) {
                    out.insert(ViolationKey::Fd {
                        dep: f.dep,
                        lhs: st.values.resolve_row(key),
                    });
                }
            }
        }
        // INDs: recompute every key a staged row projects to (on either
        // side); carry the untouched part of the base violation set.
        for (ii, i) in self.inds.iter().enumerate() {
            let (adj_l, adj_r) = self.ind_adjustments(&ids, ii, i);
            let affected: FastSet<&[u32]> = adj_l
                .keys()
                .chain(adj_r.keys())
                .map(Vec::as_slice)
                .collect();
            for &key in &affected {
                let (left, right) = self.ind_key_counts(&st, &ids, ii, gen, key);
                let left = left + adj_l.get(key).copied().unwrap_or(0);
                let right = right + adj_r.get(key).copied().unwrap_or(0);
                if left > 0 && right == 0 {
                    out.insert(ViolationKey::Ind {
                        dep: i.dep,
                        missing: ids.resolve(&st, key),
                    });
                }
            }
            if st.dep_viol[i.dep].at(gen) == 0 {
                continue;
            }
            for (key, c) in st.ind_left[ii].iter_at(gen) {
                if c > 0 && st.ind_right[ii].count_at(key, gen) == 0 && !affected.contains(key) {
                    out.insert(ViolationKey::Ind {
                        dep: i.dep,
                        missing: st.values.resolve_row(key),
                    });
                }
            }
        }
        out
    }
}

/// A staged delta lowered into interned-id space (see
/// [`Inner::staged_changes`]): ids `< base` are interner ids, ids
/// `>= base` are session-local stand-ins for values the interner has
/// never seen.
struct StagedIds {
    /// First session-local id (the interner length at lowering time).
    base: u32,
    /// Local id `base + i` resolves to `locals[i]`.
    locals: Vec<Value>,
    /// Effective row flips: `(relation, id row, ±1)`.
    changed: Vec<(usize, Vec<u32>, i64)>,
}

impl StagedIds {
    /// Whether every id of `key` is a real interner id — i.e. the key
    /// *can* have a nonzero count in the base state.
    fn known(&self, key: &[u32]) -> bool {
        key.iter().all(|&id| id < self.base)
    }

    /// Resolve a possibly-mixed id key back to values.
    fn resolve(&self, st: &MutState, key: &[u32]) -> Vec<Value> {
        key.iter()
            .map(|&id| {
                if id < self.base {
                    st.values.resolve(id).clone()
                } else {
                    self.locals[(id - self.base) as usize].clone()
                }
            })
            .collect()
    }
}

fn project(row: &[u32], cols: &[usize]) -> Vec<u32> {
    cols.iter().map(|&c| row[c]).collect()
}

/// Stamp a net change of `dv` onto one generation-stamped counter.
fn bump_gen(g: &mut GenValue, dv: i64, gen: u64, w: u64) {
    if dv != 0 {
        let c = i64::from(g.latest()) + dv;
        debug_assert!(c >= 0, "generation counter went negative");
        g.set(gen, c.max(0) as u32, w);
    }
}

/// Stamp a net change of `dv` violating keys at `gen`.
fn bump_viol_count(st: &mut MutState, dv: i64, gen: u64, w: u64) {
    bump_gen(&mut st.viol_count, dv, gen, w);
}

/// Live satisfaction accounting for one dependency of Σ at a pinned
/// generation — the quantitative form of a [`ViolationKey`] listing.
///
/// `tracked` counts the keys the dependency quantifies over (FD: live
/// distinct LHS groups; IND: live distinct left-side projections) and
/// `violating` how many of them currently break it, so
/// [`ratio`](DepHealth::ratio) is the satisfied fraction. Both are
/// maintained incrementally on the same index transitions that feed the
/// global violation counter: reading health is `O(Σ)` regardless of the
/// database size, and each commit updates it in `O(delta)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DepHealth {
    /// The dependency, cloned from the catalog's Σ.
    pub dep: Dependency,
    /// Keys currently violating the dependency.
    pub violating: u64,
    /// Keys the dependency is evaluated over.
    pub tracked: u64,
}

impl DepHealth {
    /// The satisfied fraction, in `[0, 1]` — vacuously `1.0` when no key
    /// is tracked (an empty relation satisfies every dependency).
    pub fn ratio(&self) -> f64 {
        if self.tracked == 0 {
            1.0
        } else {
            1.0 - self.violating as f64 / self.tracked as f64
        }
    }
}

/// What a [`Session::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The generation the commit published — unchanged when every staged
    /// operation was a no-op (the empty-commit fast path).
    pub generation: u64,
    /// How many operations changed the catalog.
    pub applied: DeltaOutcome,
    /// `true` when [`Session::commit_tagged`] recognized the commit
    /// token as already applied and returned the *original* outcome
    /// instead of re-applying — the idempotent-retry path. The staged
    /// delta of a replayed commit is discarded without a trace.
    pub replayed: bool,
}

/// One effective commit, as offered to a [`CommitSink`] inside the write
/// lock: the generation the commit is publishing, the committing
/// client's idempotency tag (id and token) when it sent one, the staged
/// delta exactly as committed, and what it changed. Replaying `delta`
/// through the normal commit path against the state the previous records
/// produced yields `applied` again — deltas are absolute presence
/// operations, so the record is a complete redo log entry.
#[derive(Debug)]
pub struct CommitRecord<'a> {
    /// The generation this commit publishes.
    pub generation: u64,
    /// `(client id, commit token)` when the committer sent one.
    pub client: Option<(&'a str, &'a str)>,
    /// The staged delta, exactly as committed.
    pub delta: &'a Delta,
    /// What the delta changed (no-ops excluded).
    pub applied: DeltaOutcome,
}

/// A durability hook invoked for every *effective* commit, inside the
/// writer critical section, after the state is stamped and before the
/// committer sees its outcome — acknowledgement therefore implies the
/// sink has recorded the commit (this is where the write-ahead log
/// lives; see `depkit_solver::incremental::durable`).
///
/// An `Err` poisons the catalog: the commit that triggered it still
/// publishes (the in-memory state is already mutated and must stay
/// coherent for readers), but the committer gets
/// [`CoreError::Durability`] instead of an ack, and every subsequent
/// tagged commit is refused until the process restarts and recovers from
/// the log.
pub trait CommitSink: Send + std::fmt::Debug {
    /// Record one effective commit; the error string names the failure.
    fn record(&mut self, rec: &CommitRecord<'_>) -> Result<(), String>;
}

/// The shared, snapshot-isolated FD/IND validation engine.
///
/// Cloning the handle is cheap (it is an [`Arc`]); every clone addresses
/// the same catalog, so one `CatalogState` can be handed to any number of
/// threads, each running its own [`Session`]s.
///
/// # Examples
///
/// Two sessions over one catalog — the reader's pinned snapshot never
/// observes the writer's staging, and commits serialize cleanly:
///
/// ```
/// use depkit_core::prelude::*;
/// use depkit_solver::incremental::CatalogState;
///
/// let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO)"]).unwrap();
/// let sigma: Vec<Dependency> = vec!["EMP[DEPT] <= DEPT[DNO]".parse().unwrap()];
/// let cat = CatalogState::new(&schema, &sigma).unwrap();
///
/// let mut writer = cat.begin();
/// writer.stage_insert("EMP", Tuple::strs(&["hilbert", "math"])).unwrap();
/// // The writer previews the violation its own staging would introduce...
/// assert_eq!(writer.violations().len(), 1);
/// // ...but a concurrent snapshot sees nothing until commit.
/// let reader = cat.snapshot();
/// assert!(reader.violations().is_empty());
///
/// let out = writer.commit();
/// assert_eq!(out.applied.inserted, 1);
/// // The old snapshot still reads its own generation...
/// assert!(reader.violations().is_empty());
/// // ...while a fresh one sees the dangling employee.
/// assert_eq!(cat.snapshot().violations().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CatalogState {
    inner: Arc<Inner>,
}

impl CatalogState {
    /// Compile a catalog for `sigma` over `schema`, starting from the
    /// empty database at generation `0`.
    ///
    /// `sigma` may contain FDs and INDs only; any other dependency kind is
    /// rejected with [`CoreError::UnsupportedDependency`] (the offline
    /// [`depkit_core::satisfy`] checker handles RDs and EMVDs).
    pub fn new(schema: &DatabaseSchema, sigma: &[Dependency]) -> Result<Self, CoreError> {
        let names = Catalog::from_schema(schema);
        let n = schema.schemes().len();
        let mut fds = Vec::new();
        let mut inds = Vec::new();
        let mut fd_watch = vec![Vec::new(); n];
        let mut ind_left_watch = vec![Vec::new(); n];
        let mut ind_right_watch = vec![Vec::new(); n];
        for (dep, d) in sigma.iter().enumerate() {
            d.is_well_formed(schema)?;
            match d {
                Dependency::Fd(fd) => {
                    let scheme = schema.require(&fd.rel)?;
                    let rel = schema.scheme_index(&fd.rel).expect("well-formed");
                    fd_watch[rel].push(fds.len() as u32);
                    fds.push(FdPlan {
                        dep,
                        lhs_cols: scheme.columns(&fd.lhs)?,
                        rhs_cols: scheme.columns(&fd.rhs)?,
                    });
                }
                Dependency::Ind(ind) => {
                    let ls = schema.require(&ind.lhs_rel)?;
                    let rs = schema.require(&ind.rhs_rel)?;
                    let lhs_rel = schema.scheme_index(&ind.lhs_rel).expect("well-formed");
                    let rhs_rel = schema.scheme_index(&ind.rhs_rel).expect("well-formed");
                    ind_left_watch[lhs_rel].push(inds.len() as u32);
                    ind_right_watch[rhs_rel].push(inds.len() as u32);
                    inds.push(IndPlan {
                        dep,
                        lhs_cols: ls.columns(&ind.lhs_attrs)?,
                        rhs_cols: rs.columns(&ind.rhs_attrs)?,
                    });
                }
                other => {
                    return Err(CoreError::UnsupportedDependency(format!(
                        "the session catalog handles FDs and INDs only, got `{other}`"
                    )))
                }
            }
        }
        let state = MutState {
            values: ValueInterner::new(),
            rows: (0..n).map(|_| VersionedIndex::new()).collect(),
            row_count: (0..n).map(|_| GenValue::default()).collect(),
            log: (0..n)
                .map(|r| RelLog {
                    attrs: (0..schema.schemes()[r].arity())
                        .map(|_| ChunkedColumn::new())
                        .collect(),
                    born: ChunkedColumn::new(),
                    died: ChunkedColumn::new(),
                })
                .collect(),
            log_pos: (0..n).map(|_| FastMap::default()).collect(),
            fd_pairs: (0..fds.len()).map(|_| VersionedIndex::new()).collect(),
            fd_distinct: (0..fds.len()).map(|_| VersionedIndex::new()).collect(),
            ind_left: (0..inds.len()).map(|_| VersionedIndex::new()).collect(),
            ind_right: (0..inds.len()).map(|_| VersionedIndex::new()).collect(),
            viol_count: GenValue::default(),
            dep_viol: (0..sigma.len()).map(|_| GenValue::default()).collect(),
            dep_keys: (0..sigma.len()).map(|_| GenValue::default()).collect(),
            commits: 0,
            tokens: FastMap::default(),
            scratch: Vec::new(),
        };
        Ok(CatalogState {
            inner: Arc::new(Inner {
                schema: schema.clone(),
                sigma: sigma.to_vec(),
                names,
                fds,
                inds,
                fd_watch,
                ind_left_watch,
                ind_right_watch,
                state: RwLock::new(state),
                sink: Mutex::new(None),
                sink_poisoned: AtomicBool::new(false),
                pins: Mutex::new(BTreeMap::new()),
                generation: AtomicU64::new(0),
                watermark: AtomicU64::new(0),
            }),
        })
    }

    /// The schema the catalog was compiled for.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.inner.schema
    }

    /// The dependency set the catalog maintains.
    pub fn sigma(&self) -> &[Dependency] {
        &self.inner.sigma
    }

    /// The current published generation.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// The pruning watermark — the oldest generation any live snapshot
    /// still pins (equals [`CatalogState::generation`] when none do).
    pub fn watermark(&self) -> u64 {
        self.inner.watermark.load(Ordering::Acquire)
    }

    /// Number of distinct values ever interned (the interner is
    /// append-only: pinned histories must resolve forever, so ids are not
    /// recycled — [`CatalogState::vacuum`] reclaims index keys instead).
    pub fn live_values(&self) -> usize {
        self.inner.read().values.len()
    }

    /// Total live rows at the current generation.
    pub fn total_rows(&self) -> usize {
        let st = self.inner.read();
        st.row_count.iter().map(|g| g.latest() as usize).sum()
    }

    /// Pin a read view at the current generation.
    pub fn snapshot(&self) -> Snapshot {
        let _st = self.inner.read(); // excludes writers while pinning
        let gen = self.inner.generation.load(Ordering::Acquire);
        self.inner.pin(gen);
        Snapshot {
            inner: Arc::clone(&self.inner),
            gen,
        }
    }

    /// Open a session: pin a snapshot and hand out empty staging.
    pub fn begin(&self) -> Session {
        Session {
            snapshot: self.snapshot(),
            staged: Delta::new(),
        }
    }

    /// Bulk-load `db` as one committed delta through
    /// [`CatalogState::seed_rows`]. Every relation is validated against the
    /// schema *before* any row is applied, so a failed seed leaves the
    /// catalog untouched.
    pub fn seed(&self, db: &Database) -> Result<CommitOutcome, CoreError> {
        let mut rels = Vec::with_capacity(db.relations().len());
        for relation in db.relations() {
            let name = relation.scheme().name();
            let r = self
                .inner
                .names
                .rel_id(name)
                .ok_or_else(|| CoreError::UnknownRelation(name.name().to_owned()))?
                .index();
            let arity = self.inner.schema.schemes()[r].arity();
            if relation.scheme().arity() != arity && !relation.is_empty() {
                return Err(CoreError::TupleArity {
                    relation: name.name().to_owned(),
                    expected: arity,
                    actual: relation.scheme().arity(),
                });
            }
            rels.push(r);
        }
        self.seed_rows(
            db.relations()
                .iter()
                .zip(rels)
                .flat_map(|(relation, r)| relation.tuples().map(move |t| (r, t.values()))),
        )
    }

    /// Bulk-load a stream of `(relation, values)` rows — relations indexed
    /// in schema order — as one committed generation. This is the one
    /// seeding path: [`CatalogState::seed`] streams a [`Database`] through
    /// it, and a caller holding rows in some other form (a spec file's
    /// `row` lines) streams them in without building a `Database` first.
    ///
    /// Each row is checked against the schema (relation index, arity) as
    /// it arrives. The first bad row ends the load with an error; the rows
    /// before it stay applied and are published, because a stream cannot
    /// be rewound. A caller that needs all-or-nothing checks its rows
    /// first, as [`CatalogState::seed`] does.
    pub fn seed_rows<V: AsRef<[Value]>>(
        &self,
        rows: impl IntoIterator<Item = (usize, V)>,
    ) -> Result<CommitOutcome, CoreError> {
        let inner = &*self.inner;
        let mut st = inner.write();
        let gen = inner.generation.load(Ordering::Acquire) + 1;
        let w = inner.watermark.load(Ordering::Acquire).min(gen - 1);
        let mut applied = DeltaOutcome::default();
        let mut bad = None;
        for (r, values) in rows {
            let values = values.as_ref();
            if let Err(e) = inner.check_row(r, values.len()) {
                bad = Some(e);
                break;
            }
            if inner.insert_row(&mut st, r, values, gen, w) {
                applied.inserted += 1;
            }
        }
        let outcome = CommitOutcome {
            generation: finish_commit(inner, &mut st, gen, w, applied),
            applied,
            replayed: false,
        };
        bad.map_or(Ok(outcome), Err)
    }

    /// Prune every history down to what live snapshots can still observe
    /// and evict dead keys — the `O(keys)` pass that runs automatically
    /// every `VACUUM_EVERY` (8192) commits, exposed for tests and
    /// maintenance windows.
    pub fn vacuum(&self) {
        let inner = &*self.inner;
        let mut st = inner.write();
        let gen = inner.generation.load(Ordering::Acquire);
        vacuum_locked(&mut st, gen, &inner.pinned_gens());
    }

    /// Install (or, with `None`, remove) the durability hook every
    /// effective commit is offered to — see [`CommitSink`]. The previous
    /// sink, if any, is dropped.
    pub fn set_commit_sink(&self, sink: Option<Box<dyn CommitSink>>) {
        let mut slot = self.inner.sink.lock().unwrap_or_else(|e| e.into_inner());
        *slot = sink;
    }

    /// Whether an earlier [`CommitSink`] failure left the catalog
    /// degraded read-only (every tagged commit is refused; see
    /// [`CommitSink`] for the contract).
    pub fn durability_poisoned(&self) -> bool {
        self.inner.sink_poisoned.load(Ordering::Acquire)
    }

    /// Run `f` over a [`CheckpointDoc`] of the current state while the
    /// catalog is *quiesced*: the read lock is held across the doc build
    /// and the whole of `f`, so no commit can interleave — the doc, and
    /// anything `f` does (write it to disk, reset a write-ahead log to
    /// its generation), observes one consistent cut of the catalog. This
    /// is the checkpoint primitive of the durability layer.
    pub fn quiesced<R>(&self, f: impl FnOnce(&CheckpointDoc) -> R) -> R {
        let inner = &*self.inner;
        let st = inner.read();
        let generation = inner.generation.load(Ordering::Acquire);
        let values = (0..st.values.len() as u32)
            .map(|id| st.values.resolve(id).clone())
            .collect();
        let mut rows = Vec::with_capacity(st.log.len());
        for log in &st.log {
            let mut rel = Vec::new();
            for i in 0..log.born.len() {
                // A live row has no `died` stamp; a stamped row is dead at
                // the current generation (stamps never exceed it).
                if log.died.get(i) == NEVER {
                    rel.push((
                        log.born.get(i),
                        log.attrs.iter().map(|c| c.get(i)).collect(),
                    ));
                }
            }
            rows.push(rel);
        }
        let mut tokens: Vec<(String, String, u64, u64, u64)> = st
            .tokens
            .iter()
            .map(|(c, r)| {
                (
                    c.clone(),
                    r.token.clone(),
                    r.outcome.generation,
                    r.outcome.applied.inserted as u64,
                    r.outcome.applied.deleted as u64,
                )
            })
            .collect();
        tokens.sort();
        let doc = CheckpointDoc {
            schema: inner
                .schema
                .schemes()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            sigma: inner.sigma.iter().map(|d| d.to_string()).collect(),
            generation,
            values,
            rows,
            tokens,
        };
        f(&doc)
    }

    /// Rebuild a catalog from a verified [`CheckpointDoc`] — the
    /// recovery-on-start path. The doc's spec must match `(schema,
    /// sigma)` exactly (a checkpoint from a different world is refused
    /// with [`CoreError::Durability`]); rows are re-inserted through the
    /// normal stamping path at their original `born` generations, so the
    /// restored catalog's observable state — snapshots, violation
    /// counters, `health` — is identical to the catalog that wrote the
    /// checkpoint, and write-ahead-log replay can continue from
    /// `doc.generation` exactly as the original commits did.
    pub fn restore_from_doc(
        schema: &DatabaseSchema,
        sigma: &[Dependency],
        doc: &CheckpointDoc,
    ) -> Result<Self, CoreError> {
        let cat = CatalogState::new(schema, sigma)?;
        let decls: Vec<String> = schema.schemes().iter().map(|s| s.to_string()).collect();
        if doc.schema != decls {
            return Err(CoreError::Durability(format!(
                "checkpoint schema mismatch: catalog declares {decls:?}, checkpoint holds {:?}",
                doc.schema
            )));
        }
        let sigma_strs: Vec<String> = sigma.iter().map(|d| d.to_string()).collect();
        if doc.sigma != sigma_strs {
            return Err(CoreError::Durability(format!(
                "checkpoint dependency-set mismatch: catalog maintains {sigma_strs:?}, \
                 checkpoint holds {:?}",
                doc.sigma
            )));
        }
        if doc.rows.len() != schema.schemes().len() {
            return Err(CoreError::Durability(format!(
                "checkpoint holds {} relations, schema declares {}",
                doc.rows.len(),
                schema.schemes().len()
            )));
        }
        let inner = &*cat.inner;
        let mut st = inner.write();
        for (i, v) in doc.values.iter().enumerate() {
            let id = st.values.intern(v);
            if id as usize != i {
                return Err(CoreError::Durability(format!(
                    "checkpoint interner out of sequence: value {i} resolved to id {id} \
                     (duplicate value in checkpoint)"
                )));
            }
        }
        // Re-insert every live row at its original `born` generation, in
        // globally non-decreasing `born` order (the generation-stamp
        // monotonicity the histories require). The sort is stable, so
        // rows born in the same commit keep their log order.
        let mut all: Vec<(u64, usize, &Vec<u32>)> = Vec::new();
        for (r, rel) in doc.rows.iter().enumerate() {
            let arity = schema.schemes()[r].arity();
            for (born, row) in rel {
                if row.len() != arity {
                    return Err(CoreError::TupleArity {
                        relation: schema.schemes()[r].name().name().to_owned(),
                        expected: arity,
                        actual: row.len(),
                    });
                }
                if *born == 0 || *born > doc.generation {
                    return Err(CoreError::Durability(format!(
                        "checkpoint row in `{}` born at generation {born}, outside \
                         (0, {}]",
                        schema.schemes()[r].name(),
                        doc.generation
                    )));
                }
                if let Some(&id) = row.iter().find(|&&id| id as usize >= doc.values.len()) {
                    return Err(CoreError::Durability(format!(
                        "checkpoint row in `{}` references value id {id}, but the \
                         checkpoint interns only {} values",
                        schema.schemes()[r].name(),
                        doc.values.len()
                    )));
                }
                all.push((*born, r, row));
            }
        }
        all.sort_by_key(|&(born, _, _)| born);
        for &(born, r, row) in &all {
            let vals = st.values.resolve_row(row);
            if !inner.insert_row(&mut st, r, &vals, born, born - 1) {
                return Err(CoreError::Durability(format!(
                    "checkpoint row duplicated in `{}`",
                    schema.schemes()[r].name()
                )));
            }
        }
        for (client, token, generation, inserted, deleted) in &doc.tokens {
            st.tokens.insert(
                client.clone(),
                TokenRecord {
                    token: token.clone(),
                    outcome: CommitOutcome {
                        generation: *generation,
                        applied: DeltaOutcome {
                            inserted: *inserted as usize,
                            deleted: *deleted as usize,
                        },
                        replayed: false,
                    },
                },
            );
        }
        inner.generation.store(doc.generation, Ordering::Release);
        inner.watermark.store(doc.generation, Ordering::Release);
        drop(st);
        Ok(cat)
    }
}

/// Publish a commit: bump the generation only if something changed, and
/// run the periodic vacuum. Returns the generation now current.
fn finish_commit(
    inner: &Inner,
    st: &mut MutState,
    gen: u64,
    _w: u64,
    applied: DeltaOutcome,
) -> u64 {
    if applied == DeltaOutcome::default() {
        return gen - 1; // nothing was stamped; the generation stays put
    }
    inner.generation.store(gen, Ordering::Release);
    st.commits += 1;
    if st.commits.is_multiple_of(VACUUM_EVERY) {
        vacuum_locked(st, gen, &inner.pinned_gens());
    }
    gen
}

/// Prune every history to the *sparse* pin set rather than the watermark:
/// an entry survives only if it is the newest of its history or some
/// pinned generation still observes it. The distinction matters for
/// long-lived sessions — one old pin holds the watermark down forever,
/// and a counter that oscillates (a violation appearing and healing every
/// batch) would otherwise accrete one history entry per commit between
/// the pin and the head. Sparse pruning keeps `O(pins)` entries per
/// history instead.
fn vacuum_locked(st: &mut MutState, gen: u64, pins: &[u64]) {
    debug_assert!(pins.is_sorted());
    // The append-only row log still compacts by watermark below; the
    // index histories prune by the exact pin set.
    let w = pins.first().copied().unwrap_or(gen).min(gen);
    for idx in st
        .rows
        .iter_mut()
        .chain(st.fd_pairs.iter_mut())
        .chain(st.fd_distinct.iter_mut())
        .chain(st.ind_left.iter_mut())
        .chain(st.ind_right.iter_mut())
    {
        idx.vacuum_sparse(pins);
    }
    for g in st
        .row_count
        .iter_mut()
        .chain(st.dep_viol.iter_mut())
        .chain(st.dep_keys.iter_mut())
    {
        g.prune_sparse(pins);
    }
    st.viol_count.prune_sparse(pins);
    // Compact the append-only row logs in place: a row whose whole
    // visibility interval `[born, died)` lies below the watermark is
    // unobservable at every pinnable generation, so the log can forget it.
    // Survivors slide down over the gaps in log order (a write into a
    // chunk a frozen scan still shares copies that chunk first), live
    // rows' positions follow them, and the columns are cut to the
    // survivors — no second log is built beside the first. This is what
    // bounds a long-running server's memory to the live rows plus the
    // snapshot horizon, not the whole commit history.
    let mut row = Vec::new();
    for (log, pos) in st.log.iter_mut().zip(&mut st.log_pos) {
        let n = log.born.len();
        let mut kept = 0;
        for i in 0..n {
            let died = log.died.get(i);
            if died <= w {
                continue;
            }
            if kept < i {
                for col in &mut log.attrs {
                    let id = col.get(i);
                    col.set(kept, id);
                }
                log.born.set(kept, log.born.get(i));
                log.died.set(kept, died);
                if died == NEVER {
                    row.clear();
                    row.extend(log.attrs.iter().map(|c| c.get(kept)));
                    *pos.get_mut(row.as_slice())
                        .expect("every live log row has a position") = kept as u32;
                }
            }
            kept += 1;
        }
        if kept < n {
            for col in &mut log.attrs {
                col.truncate(kept);
            }
            log.born.truncate(kept);
            log.died.truncate(kept);
            // Every dropped row's position was erased when it died: that
            // many erase tombstones sit in the position table.
            compact_after_evict(pos, n - kept);
        }
    }
}

/// A pinned, consistent read view of a [`CatalogState`] at one
/// generation. While the snapshot lives, its generation stays readable no
/// matter how far writers advance; dropping it releases the pin (and with
/// it the pruning backpressure it exerts).
#[derive(Debug)]
pub struct Snapshot {
    inner: Arc<Inner>,
    gen: u64,
}

impl Snapshot {
    /// The pinned generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Whether `t` is a live row of `rel` at the pinned generation.
    pub fn contains(&self, rel: &RelName, t: &Tuple) -> Result<bool, CoreError> {
        let r = self.inner.rel_index(rel, t)?;
        let st = self.inner.read();
        Ok(st
            .values
            .lookup_row(t.values())
            .is_some_and(|row| st.rows[r].count_at(&row, self.gen) > 0))
    }

    /// Total live rows at the pinned generation.
    pub fn total_rows(&self) -> usize {
        let st = self.inner.read();
        st.row_count.iter().map(|g| g.at(self.gen) as usize).sum()
    }

    /// The violation set at the pinned generation — comparable with
    /// [`full_violations`](super::full_violations) on
    /// [`Snapshot::to_database`].
    pub fn violations(&self) -> BTreeSet<ViolationKey> {
        // An empty `Delta` holds empty `Vec`s — no allocation happens.
        self.inner.violations_with(self.gen, &Delta::new())
    }

    /// Whether every dependency holds at the pinned generation —
    /// `O(log)` off the maintained violation counter, no key-space scan.
    pub fn is_consistent(&self) -> bool {
        self.inner.read().viol_count.at(self.gen) == 0
    }

    /// Human-readable description of a violation, naming the dependency
    /// of Σ it breaks.
    ///
    /// # Examples
    ///
    /// The delta-validate round trip of `depkit validate`: seed, break
    /// referential integrity, read the damage back, repair.
    ///
    /// ```
    /// use depkit_core::prelude::*;
    /// use depkit_solver::incremental::CatalogState;
    ///
    /// let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO)"]).unwrap();
    /// let sigma: Vec<Dependency> = vec!["EMP[DEPT] <= DEPT[DNO]".parse().unwrap()];
    /// let cat = CatalogState::new(&schema, &sigma).unwrap();
    /// let mut db = Database::empty(schema);
    /// db.insert_str("DEPT", &[&["math"]]).unwrap();
    /// db.insert_str("EMP", &[&["hilbert", "math"]]).unwrap();
    /// cat.seed(&db).unwrap();
    /// assert!(cat.snapshot().is_consistent());
    ///
    /// // A write that dangles: hausdorff joins a department that doesn't exist.
    /// let mut s = cat.begin();
    /// s.stage_insert("EMP", Tuple::strs(&["hausdorff", "topology"])).unwrap();
    /// s.commit();
    /// let snap = cat.snapshot();
    /// let listed: Vec<String> = snap.violations().iter().map(|v| snap.explain(v)).collect();
    /// assert_eq!(
    ///     listed,
    ///     ["IND EMP[DEPT] <= DEPT[DNO] violated: projection (topology) missing on the right"]
    /// );
    ///
    /// // Repair by creating the department; the violation clears.
    /// let mut s = cat.begin();
    /// s.stage_insert("DEPT", Tuple::strs(&["topology"])).unwrap();
    /// s.commit();
    /// assert!(cat.snapshot().is_consistent());
    /// ```
    pub fn explain(&self, v: &ViolationKey) -> String {
        let sigma = &self.inner.sigma;
        let list = |vs: &[Value]| {
            let vals: Vec<String> = vs.iter().map(Value::to_string).collect();
            vals.join(", ")
        };
        match v {
            ViolationKey::Fd { dep, lhs } => format!(
                "FD {} violated: rows with ({}) on the LHS disagree on the RHS",
                sigma[*dep],
                list(lhs)
            ),
            ViolationKey::Ind { dep, missing } => format!(
                "IND {} violated: projection ({}) missing on the right",
                sigma[*dep],
                list(missing)
            ),
        }
    }

    /// Per-dependency satisfaction at the pinned generation, in Σ order —
    /// `O(Σ)` off the maintained per-dependency counters, no key-space
    /// scan (see [`DepHealth`]).
    pub fn health(&self) -> Vec<DepHealth> {
        let st = self.inner.read();
        self.inner
            .sigma
            .iter()
            .enumerate()
            .map(|(i, dep)| DepHealth {
                dep: dep.clone(),
                violating: u64::from(st.dep_viol[i].at(self.gen)),
                tracked: u64::from(st.dep_keys[i].at(self.gen)),
            })
            .collect()
    }

    /// Materialize the pinned generation as a plain [`Database`] (tests
    /// and the differential oracle; `O(log)`).
    pub fn to_database(&self) -> Database {
        let st = self.inner.read();
        let mut db = Database::empty(self.inner.schema.clone());
        let mut row = Vec::new();
        for (r, scheme) in self.inner.schema.schemes().iter().enumerate() {
            let log = &st.log[r];
            for i in 0..log.born.len() {
                if log.born.get(i) <= self.gen && self.gen < log.died.get(i) {
                    row.clear();
                    row.extend(log.attrs.iter().map(|col| col.get(i)));
                    db.insert(scheme.name(), Tuple::new(st.values.resolve_row(&row)))
                        .expect("log rows match the schema");
                }
            }
        }
        db
    }

    /// Freeze one relation's row log into copy-on-write column snapshots:
    /// the returned [`FrozenRelation`] scans without taking the catalog
    /// lock and is immune to every later write (sealed chunks are shared;
    /// the mutable tail and any later `died` stamp are copied out).
    pub fn freeze(&self, rel: &RelName) -> Result<FrozenRelation, CoreError> {
        let r = self
            .inner
            .names
            .rel_id(rel)
            .ok_or_else(|| CoreError::UnknownRelation(rel.name().to_owned()))?
            .index();
        let st = self.inner.read();
        let log = &st.log[r];
        Ok(FrozenRelation {
            attrs: log.attrs.iter().map(ChunkedColumn::snapshot).collect(),
            born: log.born.snapshot(),
            died: log.died.snapshot(),
            gen: self.gen,
        })
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.inner.unpin(self.gen);
    }
}

/// A lock-free scan over one relation's rows as of a pinned generation:
/// chunked column snapshots of the append-only row log, filtered by the
/// `[born, died)` visibility interval.
#[derive(Debug)]
pub struct FrozenRelation {
    attrs: Vec<ChunkedColumnSnapshot<u32>>,
    born: ChunkedColumnSnapshot<u64>,
    died: ChunkedColumnSnapshot<u64>,
    gen: u64,
}

impl FrozenRelation {
    /// The interned-id rows visible at the frozen generation.
    pub fn id_rows(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for i in 0..self.born.len() {
            if self.born.get(i) <= self.gen && self.gen < self.died.get(i) {
                out.push(self.attrs.iter().map(|c| c.get(i)).collect());
            }
        }
        out
    }

    /// Number of visible rows at the frozen generation.
    pub fn len(&self) -> usize {
        (0..self.born.len())
            .filter(|&i| self.born.get(i) <= self.gen && self.gen < self.died.get(i))
            .count()
    }

    /// Whether no row is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One unit of client work against a [`CatalogState`]: a pinned
/// [`Snapshot`] plus staged, uncommitted mutations.
///
/// Staging takes no lock and is invisible to every other session;
/// [`Session::violations`] previews the effect of the staged delta
/// against the pinned snapshot in time proportional to the delta.
/// [`Session::commit`] applies the staging to the latest state under the
/// short writer critical section; [`Session::abort`] (or just dropping
/// the session) discards it without a trace.
#[derive(Debug)]
pub struct Session {
    snapshot: Snapshot,
    staged: Delta,
}

impl Session {
    /// The generation this session pinned at [`CatalogState::begin`].
    pub fn generation(&self) -> u64 {
        self.snapshot.gen
    }

    /// The session's pinned read view.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The staged, uncommitted delta.
    pub fn staged(&self) -> &Delta {
        &self.staged
    }

    /// Per-dependency satisfaction at the session's pinned generation
    /// (staging is not reflected — health reports committed state).
    pub fn health(&self) -> Vec<DepHealth> {
        self.snapshot.health()
    }

    /// Stage an insertion (validated against the schema now, so commit
    /// cannot fail mid-batch).
    pub fn stage_insert(&mut self, rel: impl Into<RelName>, t: Tuple) -> Result<(), CoreError> {
        let rel = rel.into();
        self.snapshot.inner.rel_index(&rel, &t)?;
        self.staged.insert(rel, t);
        Ok(())
    }

    /// Stage a deletion (validated against the schema now).
    pub fn stage_delete(&mut self, rel: impl Into<RelName>, t: Tuple) -> Result<(), CoreError> {
        let rel = rel.into();
        self.snapshot.inner.rel_index(&rel, &t)?;
        self.staged.delete(rel, t);
        Ok(())
    }

    /// Stage a whole [`Delta`]. Every operation is validated before any
    /// is staged, so an error leaves the staging untouched.
    pub fn stage(&mut self, delta: &Delta) -> Result<(), CoreError> {
        for (rel, t) in delta.deletes.iter().chain(&delta.inserts) {
            self.snapshot.inner.rel_index(rel, t)?;
        }
        self.staged.deletes.extend_from_slice(&delta.deletes);
        self.staged.inserts.extend_from_slice(&delta.inserts);
        Ok(())
    }

    /// The violation set of *pinned snapshot + staged delta* — what the
    /// catalog would report if this session committed against its own
    /// snapshot. `O(delta + base violations)`.
    pub fn violations(&self) -> BTreeSet<ViolationKey> {
        self.snapshot
            .inner
            .violations_with(self.snapshot.gen, &self.staged)
    }

    /// Whether *pinned snapshot + staged delta* satisfies every
    /// dependency — `O(delta)`, independent of the database size: the
    /// base contributes only its maintained violation counter, and only
    /// keys the staged delta touches are re-evaluated. This is the
    /// latency-critical check of the serve loop; [`Session::violations`]
    /// is the full listing.
    pub fn is_consistent(&self) -> bool {
        self.snapshot
            .inner
            .consistent_with(self.snapshot.gen, &self.staged)
    }

    /// Commit the staged delta against the *latest* catalog state
    /// (deletes first, then inserts, both idempotent — see the
    /// [module docs](self) for the commit-order semantics). Consumes the
    /// session and releases its pin.
    ///
    /// Equivalent to [`Session::commit_tagged`] with no idempotency tag;
    /// panics if an installed [`CommitSink`] fails — durability-aware
    /// callers use `commit_tagged` and handle the error.
    pub fn commit(self) -> CommitOutcome {
        self.commit_tagged(None)
            .expect("commit sink failed; use commit_tagged to handle durability errors")
    }

    /// Commit the staged delta, optionally tagged `(client id, token)`
    /// for idempotent retry: if the catalog already applied a commit from
    /// `client` with the same `token`, the staged delta is discarded and
    /// the *original* outcome returned with
    /// [`replayed`](CommitOutcome::replayed) set — so a client that lost
    /// an acknowledgement can safely resend and never double-applies. The
    /// catalog remembers the most recent token per client; the table is
    /// checkpointed and write-ahead-logged with the rest of the state, so
    /// dedup survives a crash.
    ///
    /// When a [`CommitSink`] is installed, every effective commit is
    /// recorded inside the write lock before this method returns; see
    /// [`CommitSink`] for the failure contract behind the
    /// [`CoreError::Durability`] this can return.
    pub fn commit_tagged(self, client: Option<(&str, &str)>) -> Result<CommitOutcome, CoreError> {
        let inner = &*self.snapshot.inner;
        if self.staged.is_empty() && client.is_none() {
            // Empty-commit fast path: no lock, no index work, no bump.
            return Ok(CommitOutcome {
                generation: inner.generation.load(Ordering::Acquire),
                applied: DeltaOutcome::default(),
                replayed: false,
            });
        }
        if inner.sink_poisoned.load(Ordering::Acquire) {
            return Err(CoreError::Durability(
                "catalog is read-only: an earlier write-ahead-log failure \
                 poisoned the commit path (restart to recover)"
                    .into(),
            ));
        }
        let mut st = inner.write();
        // Idempotency check comes first, before anything is applied: a
        // retried commit must return the original ack, not re-apply.
        if let Some((c, t)) = client {
            if let Some(rec) = st.tokens.get(c) {
                if rec.token == t {
                    return Ok(CommitOutcome {
                        replayed: true,
                        ..rec.outcome
                    });
                }
            }
        }
        let gen = inner.generation.load(Ordering::Acquire) + 1;
        let w = inner.watermark.load(Ordering::Acquire).min(gen - 1);
        let mut applied = DeltaOutcome::default();
        for (rel, t) in &self.staged.deletes {
            let r = inner.rel_index(rel, t).expect("staged ops are validated");
            if inner.delete_row(&mut st, r, t.values(), gen, w) {
                applied.deleted += 1;
            }
        }
        for (rel, t) in &self.staged.inserts {
            let r = inner.rel_index(rel, t).expect("staged ops are validated");
            if inner.insert_row(&mut st, r, t.values(), gen, w) {
                applied.inserted += 1;
            }
        }
        // Ack-implies-durable: offer the effective commit to the sink
        // before the outcome (the ack) escapes the critical section.
        if applied != DeltaOutcome::default() {
            let mut sink = inner.sink.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = sink.as_mut() {
                let record = CommitRecord {
                    generation: gen,
                    client,
                    delta: &self.staged,
                    applied,
                };
                if let Err(why) = s.record(&record) {
                    // The state is already stamped at `gen`; publish it so
                    // in-memory readers stay coherent, but poison the
                    // catalog — the durable log is now behind the memory
                    // image, and only a restart-and-recover closes the gap.
                    inner.sink_poisoned.store(true, Ordering::Release);
                    drop(sink);
                    finish_commit(inner, &mut st, gen, w, applied);
                    return Err(CoreError::Durability(format!(
                        "write-ahead log append failed ({why}); \
                         catalog is now read-only until restart"
                    )));
                }
            }
        }
        let outcome = CommitOutcome {
            generation: finish_commit(inner, &mut st, gen, w, applied),
            applied,
            replayed: false,
        };
        if let Some((c, t)) = client {
            st.tokens.insert(
                c.to_owned(),
                TokenRecord {
                    token: t.to_owned(),
                    outcome,
                },
            );
        }
        Ok(outcome)
        // `self.snapshot` drops here, releasing the pin.
    }

    /// Discard the staged delta and release the pin. Equivalent to
    /// dropping the session; spelled out so call sites read as the
    /// transaction protocol they implement.
    pub fn abort(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::full_violations;

    fn setup() -> (DatabaseSchema, Vec<Dependency>, CatalogState) {
        let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO, MGR)"]).unwrap();
        let sigma: Vec<Dependency> = vec![
            "EMP[DEPT] <= DEPT[DNO]".parse().unwrap(),
            "EMP: NAME -> DEPT".parse().unwrap(),
            "DEPT: DNO -> MGR".parse().unwrap(),
        ];
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        (schema, sigma, cat)
    }

    /// The number of keys `dep` quantifies over in `db` (FD: distinct
    /// LHS groups; IND: distinct left projections), recomputed from
    /// scratch as the oracle for the maintained `tracked` counter.
    fn tracked_oracle(db: &Database, dep: &Dependency) -> u64 {
        let (rel, attrs) = match dep {
            Dependency::Fd(fd) => (&fd.rel, &fd.lhs),
            Dependency::Ind(ind) => (&ind.lhs_rel, &ind.lhs_attrs),
            other => panic!("catalog sigma holds FDs and INDs only, got {other}"),
        };
        let rel = db.relation(rel).unwrap();
        let cols = rel.scheme().columns(attrs).unwrap();
        rel.tuples()
            .map(|t| {
                cols.iter()
                    .map(|&c| t.values()[c].clone())
                    .collect::<Vec<_>>()
            })
            .collect::<BTreeSet<_>>()
            .len() as u64
    }

    /// A snapshot must agree with the full recheck of its own
    /// materialization, and a session preview with the full recheck of
    /// materialization + staged delta.
    fn check_snapshot(snap: &Snapshot, sigma: &[Dependency]) {
        let db = snap.to_database();
        let viols = full_violations(&db, sigma).unwrap();
        assert_eq!(
            snap.violations(),
            viols,
            "snapshot disagrees with full recheck at gen {}",
            snap.generation()
        );
        assert_eq!(
            snap.is_consistent(),
            snap.violations().is_empty(),
            "violation counter disagrees with the violation set at gen {}",
            snap.generation()
        );
        let health = snap.health();
        assert_eq!(health.len(), sigma.len());
        for (i, h) in health.iter().enumerate() {
            assert_eq!(h.dep, sigma[i], "health is reported in Σ order");
            let expect = viols
                .iter()
                .filter(|v| match v {
                    ViolationKey::Fd { dep, .. } | ViolationKey::Ind { dep, .. } => *dep == i,
                })
                .count() as u64;
            assert_eq!(
                h.violating,
                expect,
                "dep {i} violating count at gen {}",
                snap.generation()
            );
            assert_eq!(
                h.tracked,
                tracked_oracle(&db, &sigma[i]),
                "dep {i} tracked count at gen {}",
                snap.generation()
            );
            assert!((0.0..=1.0).contains(&h.ratio()));
        }
    }

    fn check_session(s: &Session, sigma: &[Dependency]) {
        let mut db = s.snapshot().to_database();
        db.apply_delta(s.staged()).unwrap();
        assert_eq!(
            s.violations(),
            full_violations(&db, sigma).unwrap(),
            "session preview disagrees with full recheck"
        );
        assert_eq!(
            s.is_consistent(),
            s.violations().is_empty(),
            "O(delta) consistency check disagrees with the preview set"
        );
    }

    #[test]
    fn staging_is_invisible_and_abort_leaves_no_trace() {
        let (_, sigma, cat) = setup();
        let mut s = cat.begin();
        s.stage_insert("EMP", Tuple::strs(&["h", "math"])).unwrap();
        s.stage_insert("DEPT", Tuple::strs(&["math", "gauss"]))
            .unwrap();
        check_session(&s, &sigma);
        assert!(s.violations().is_empty()); // covered insert pair

        let outside = cat.snapshot();
        assert_eq!(outside.total_rows(), 0);
        assert!(!outside
            .contains(&RelName::new("EMP"), &Tuple::strs(&["h", "math"]))
            .unwrap());

        s.abort();
        assert_eq!(cat.generation(), 0);
        assert_eq!(cat.snapshot().total_rows(), 0);
        check_snapshot(&cat.snapshot(), &sigma);
    }

    #[test]
    fn commit_publishes_and_old_snapshots_keep_their_view() {
        let (_, sigma, cat) = setup();
        let before = cat.snapshot();

        let mut s = cat.begin();
        s.stage_insert("EMP", Tuple::strs(&["h", "math"])).unwrap();
        assert_eq!(s.violations().len(), 1); // dangling dept, previewed
        check_session(&s, &sigma);
        let out = s.commit();
        assert_eq!(out.generation, 1);
        assert_eq!(out.applied.inserted, 1);

        // The pre-commit snapshot still reads generation 0.
        assert_eq!(before.total_rows(), 0);
        assert!(before.violations().is_empty());
        check_snapshot(&before, &sigma);

        // A fresh snapshot sees the committed row and its violation.
        let after = cat.snapshot();
        assert_eq!(after.total_rows(), 1);
        assert_eq!(after.violations().len(), 1);
        check_snapshot(&after, &sigma);
    }

    #[test]
    fn empty_commit_is_a_fast_path_and_noop_commit_keeps_generation() {
        let (_, _, cat) = setup();
        let out = cat.begin().commit();
        assert_eq!(out.generation, 0);
        assert_eq!(out.applied, DeltaOutcome::default());

        let mut s = cat.begin();
        s.stage_insert("EMP", Tuple::strs(&["h", "math"])).unwrap();
        assert_eq!(s.commit().generation, 1);

        // Duplicate insert + absent delete: all no-ops, no bump.
        let mut s2 = cat.begin();
        s2.stage_insert("EMP", Tuple::strs(&["h", "math"])).unwrap();
        s2.stage_delete("DEPT", Tuple::strs(&["ghost", "x"]))
            .unwrap();
        let out2 = s2.commit();
        assert_eq!(out2.applied, DeltaOutcome::default());
        assert_eq!(out2.generation, 1);
        assert_eq!(cat.generation(), 1);
    }

    #[test]
    fn commits_apply_in_commit_order_not_snapshot_order() {
        let (_, sigma, cat) = setup();
        // Two sessions pin the same generation; the second to commit sees
        // the first's rows (absolute presence ops — last writer wins).
        let mut a = cat.begin();
        let mut b = cat.begin();
        a.stage_insert("DEPT", Tuple::strs(&["math", "gauss"]))
            .unwrap();
        b.stage_delete("DEPT", Tuple::strs(&["math", "gauss"]))
            .unwrap();
        assert_eq!(a.commit().generation, 1);
        let out = b.commit(); // deletes the row a just inserted
        assert_eq!(out.applied.deleted, 1);
        assert_eq!(out.generation, 2);
        assert_eq!(cat.total_rows(), 0);
        check_snapshot(&cat.snapshot(), &sigma);
    }

    #[test]
    fn staging_validates_upfront_and_rejects_bad_ops() {
        let (_, _, cat) = setup();
        let mut s = cat.begin();
        assert!(s.stage_insert("GHOST", Tuple::ints(&[1])).is_err());
        assert!(s.stage_insert("EMP", Tuple::ints(&[1])).is_err()); // arity
        let mut bad = Delta::new();
        bad.insert_ints("EMP", &[1, 2]).insert_ints("NOPE", &[3]);
        assert!(s.stage(&bad).is_err());
        assert!(s.staged().is_empty(), "failed staging must stage nothing");
    }

    #[test]
    fn seed_is_atomic_on_error() {
        let (_, sigma, cat) = setup();
        let bad_schema =
            DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO, MGR)", "X(C)"]).unwrap();
        let mut bad = Database::empty(bad_schema);
        bad.insert_str("EMP", &[&["h", "math"], &["h", "cs"]])
            .unwrap();
        bad.insert_str("X", &[&["boom"]]).unwrap();
        assert!(matches!(cat.seed(&bad), Err(CoreError::UnknownRelation(_))));
        assert_eq!(cat.generation(), 0);
        assert_eq!(cat.total_rows(), 0);

        let mut good = Database::empty(cat.schema().clone());
        good.insert_str("DEPT", &[&["math", "gauss"]]).unwrap();
        good.insert_str("EMP", &[&["h", "math"], &["x", "bio"]])
            .unwrap();
        let out = cat.seed(&good).unwrap();
        assert_eq!(out.applied.inserted, 3);
        assert_eq!(out.generation, 1);
        let snap = cat.snapshot();
        assert_eq!(snap.violations().len(), 1); // ("bio") dangling
        check_snapshot(&snap, &sigma);
        assert_eq!(snap.to_database(), good);
    }

    #[test]
    fn frozen_scans_are_immune_to_later_commits() {
        let (_, _, cat) = setup();
        let mut s = cat.begin();
        for i in 0..2000i64 {
            s.stage_insert("DEPT", Tuple::ints(&[i, i])).unwrap();
        }
        s.commit();
        let snap = cat.snapshot();
        let frozen = snap.freeze(&RelName::new("DEPT")).unwrap();
        assert_eq!(frozen.len(), 2000);
        let before = frozen.id_rows();

        // Churn: delete half the rows, add new ones — the frozen view and
        // the pinned snapshot must not move.
        let mut churn = cat.begin();
        for i in 0..1000i64 {
            churn.stage_delete("DEPT", Tuple::ints(&[i, i])).unwrap();
            churn
                .stage_insert("DEPT", Tuple::ints(&[i + 10_000, i]))
                .unwrap();
        }
        churn.commit();
        assert_eq!(frozen.id_rows(), before);
        assert!(!frozen.is_empty());
        assert_eq!(snap.total_rows(), 2000);
        assert_eq!(cat.total_rows(), 2000);
        let now = snap.freeze(&RelName::new("DEPT")).unwrap();
        assert_eq!(now.id_rows(), before, "re-freezing a pinned gen is stable");
    }

    #[test]
    fn watermark_tracks_pins_and_vacuum_reclaims_history() {
        let (_, _, cat) = setup();
        let pinned = cat.snapshot(); // pins generation 0
        assert_eq!(cat.watermark(), 0);
        for i in 0..50i64 {
            let mut s = cat.begin();
            s.stage_insert("DEPT", Tuple::ints(&[i, i])).unwrap();
            if i > 0 {
                s.stage_delete("DEPT", Tuple::ints(&[i - 1, i - 1]))
                    .unwrap();
            }
            s.commit();
        }
        assert_eq!(cat.watermark(), 0, "oldest pin holds the watermark down");
        assert_eq!(pinned.total_rows(), 0);
        drop(pinned);
        assert_eq!(cat.watermark(), cat.generation());
        cat.vacuum();
        // After vacuuming at the head watermark only the one live row's
        // history survives in DEPT's membership index — and the row log
        // compacts down to it (49 dead rows forgotten).
        let snap = cat.snapshot();
        assert_eq!(snap.total_rows(), 1);
        assert!(snap
            .contains(&RelName::new("DEPT"), &Tuple::ints(&[49, 49]))
            .unwrap());
        {
            let st = cat.inner.read();
            let dept = cat
                .inner
                .names
                .rel_id(&RelName::new("DEPT"))
                .unwrap()
                .index();
            assert_eq!(
                st.log[dept].born.len(),
                1,
                "dead log rows were not compacted"
            );
            assert_eq!(st.log_pos[dept].len(), 1);
        }
        // The compacted log still materializes and freezes correctly.
        assert_eq!(snap.to_database().total_tuples(), 1);
        assert_eq!(snap.freeze(&RelName::new("DEPT")).unwrap().len(), 1);
    }

    /// `capacity()` of every key table: the versioned indexes, then the
    /// log-position maps.
    fn table_capacities(cat: &CatalogState) -> Vec<usize> {
        let st = cat.inner.read();
        st.rows
            .iter()
            .chain(&st.fd_pairs)
            .chain(&st.fd_distinct)
            .chain(&st.ind_left)
            .chain(&st.ind_right)
            .map(VersionedIndex::capacity)
            .chain(st.log_pos.iter().map(|m| m.capacity()))
            .collect()
    }

    /// Seed 3,000 employees over 8 departments, then run `cycles` vacuum
    /// cycles of delete/insert churn: each pair replaces one employee with
    /// a hire under a never-seen EID, then puts the employee back — the
    /// serve benchmark's traffic, whose fresh keys all die before the next
    /// vacuum. Returns the table capacities after each cycle's vacuum.
    fn churn_cycles(
        cat: &CatalogState,
        cycles: u64,
        mut between: impl FnMut(u64),
    ) -> Vec<Vec<usize>> {
        const EMPS: i64 = 3_000;
        const PAIRS: i64 = 450;
        let mut seed = Database::empty(cat.schema().clone());
        for d in 0..8 {
            seed.insert_ints("DEPT", &[&[d, 100 + d]]).unwrap();
        }
        for e in 0..EMPS {
            seed.insert_ints("EMP", &[&[e, e % 8]]).unwrap();
        }
        cat.seed(&seed).unwrap();
        let mut fresh = 1_000_000;
        let mut caps = Vec::new();
        for cycle in 0..cycles {
            for k in 0..PAIRS {
                let e = (cycle as i64 * PAIRS + k) % EMPS;
                let (old, hire) = ([e, e % 8], [fresh, (e + 1) % 8]);
                fresh += 1;
                for (gone, new) in [(old, hire), (hire, old)] {
                    let mut s = cat.begin();
                    s.stage_delete("EMP", Tuple::ints(&gone)).unwrap();
                    s.stage_insert("EMP", Tuple::ints(&new)).unwrap();
                    assert_eq!(s.commit().applied.inserted, 1);
                }
            }
            between(cycle);
            cat.vacuum();
            caps.push(table_capacities(cat));
        }
        assert_eq!(
            cat.snapshot().to_database(),
            seed,
            "churn returns to the seed"
        );
        caps
    }

    #[test]
    fn fresh_key_churn_never_doubles_a_table() {
        let (_, sigma, cat) = setup();
        let caps = churn_cycles(&cat, 10, |_| {});
        assert!(
            caps.iter()
                .all(|c| c.iter().zip(&caps[0]).all(|(a, b)| a <= b)),
            "a table grew past its first-vacuum capacity: {caps:?}"
        );
        // The row log shrank back to the live rows, and its positions
        // still point at them.
        let st = cat.inner.read();
        for (r, log) in st.log.iter().enumerate() {
            let live = st.row_count[r].latest() as usize;
            assert_eq!((log.born.len(), st.log_pos[r].len()), (live, live));
            assert!((0..live).all(|i| log.died.get(i) == NEVER));
            for (row, &pos) in &st.log_pos[r] {
                let at: Vec<u32> = log.attrs.iter().map(|c| c.get(pos as usize)).collect();
                assert_eq!(at.as_slice(), row.as_slice());
            }
        }
        drop(st);
        check_snapshot(&cat.snapshot(), &sigma);
    }

    #[test]
    fn compaction_in_place_spares_a_snapshot_held_across_vacuums() {
        let (_, sigma, cat) = setup();
        let mut held = None;
        churn_cycles(&cat, 8, |cycle| {
            if cycle == 2 {
                // Pin mid-churn, with dead rows in the log on both sides
                // of the pin, and freeze a lock-free scan of it too.
                let snap = cat.snapshot();
                let frozen = snap.freeze(&RelName::new("EMP")).unwrap();
                let (db, rows) = (snap.to_database(), frozen.id_rows());
                held = Some((snap, frozen, db, rows));
            }
        });
        let (snap, frozen, db, rows) = held.expect("pinned in cycle 2");
        assert_eq!(snap.to_database(), db, "vacuum moved rows under a pin");
        assert_eq!(
            frozen.id_rows(),
            rows,
            "vacuum wrote through a shared chunk"
        );
        check_snapshot(&snap, &sigma);
        drop((snap, frozen));
        cat.vacuum();
        let st = cat.inner.read();
        let emp = cat
            .inner
            .names
            .rel_id(&RelName::new("EMP"))
            .unwrap()
            .index();
        assert_eq!(
            st.log[emp].born.len(),
            3_000,
            "log shrinks once the pin is gone"
        );
    }

    #[test]
    fn health_tracks_satisfaction_ratios_across_commits() {
        let (_, sigma, cat) = setup();
        // Vacuous start: nothing tracked, everything 100% satisfied.
        for h in cat.snapshot().health() {
            assert_eq!((h.violating, h.tracked), (0, 0));
            assert_eq!(h.ratio(), 1.0);
        }
        // 10 employees in distinct departments, only 8 departments real:
        // the IND tracks 10 left keys and violates 2 of them.
        let mut s = cat.begin();
        for i in 0..10i64 {
            s.stage_insert("EMP", Tuple::strs(&[&format!("e{i}"), &format!("d{i}")]))
                .unwrap();
            if i < 8 {
                s.stage_insert("DEPT", Tuple::strs(&[&format!("d{i}"), "mgr"]))
                    .unwrap();
            }
        }
        s.commit();
        let before = cat.snapshot();
        let ind = &before.health()[0];
        assert_eq!((ind.violating, ind.tracked), (2, 10));
        assert!((ind.ratio() - 0.8).abs() < 1e-9);
        // One employee switches into a conflicting NAME → DEPT pair: the
        // FD over EMP degrades while the IND heals by one key.
        let mut s = cat.begin();
        s.stage_insert("EMP", Tuple::strs(&["e9", "d0"])).unwrap();
        s.stage_delete("EMP", Tuple::strs(&["e8", "d8"])).unwrap();
        s.commit();
        let after = cat.snapshot();
        let [ind, fd, _] = &after.health()[..] else {
            panic!("three deps in sigma")
        };
        assert_eq!((ind.violating, ind.tracked), (1, 9), "d8 gone, d9 dangling");
        assert_eq!((fd.violating, fd.tracked), (1, 9), "e9 maps to d9 and d0");
        assert!((fd.ratio() - 8.0 / 9.0).abs() < 1e-9);
        // The pre-commit snapshot still reports its own generation's
        // ratios: health is per-pinned-generation like every other read.
        assert_eq!(before.health()[0].violating, 2);
        check_snapshot(&before, &sigma);
        check_snapshot(&after, &sigma);
    }

    /// A listing skips the base keys of every dependency with no
    /// violation at the *pinned* generation; a dependency healed only at
    /// the head must still be scanned, and listed, at older pins.
    #[test]
    fn a_violation_healed_at_the_head_stays_listed_at_older_pins() {
        let (_, sigma, cat) = setup();
        let mut s = cat.begin();
        s.stage_insert("EMP", Tuple::strs(&["h", "math"])).unwrap();
        s.stage_insert("EMP", Tuple::strs(&["h", "cs"])).unwrap();
        s.commit(); // dangling math and cs, and h in two departments
        let broken = cat.snapshot();
        let session = cat.begin();
        let mut fix = cat.begin();
        fix.stage_delete("EMP", Tuple::strs(&["h", "cs"])).unwrap();
        fix.stage_insert("DEPT", Tuple::strs(&["math", "gauss"]))
            .unwrap();
        fix.commit();
        assert!(cat.snapshot().violations().is_empty());
        assert_eq!(broken.violations().len(), 3);
        check_snapshot(&broken, &sigma);
        assert_eq!(session.violations(), broken.violations());
        check_session(&session, &sigma);
    }

    /// Satellite regression: a counter that oscillates 0 ↔ 1 for 10k
    /// commits under one long-lived pin must vacuum down to the few
    /// entries the pin can still observe, not retain one entry per
    /// commit (the watermark-based prune kept them all).
    #[test]
    fn oscillating_violation_history_is_pruned_under_a_live_pin() {
        let (_, _, cat) = setup();
        let pinned = cat.snapshot(); // holds the watermark at 0 throughout
        for i in 0..10_000i64 {
            let mut s = cat.begin();
            s.stage_insert("EMP", Tuple::strs(&["h", "ghost"])).unwrap();
            s.commit(); // dangling: viol_count 0 -> 1
            let mut s = cat.begin();
            s.stage_delete("EMP", Tuple::strs(&["h", "ghost"])).unwrap();
            s.commit(); // healed: viol_count 1 -> 0
            if i == 0 {
                // Depth grows while commits outpace the vacuum cadence.
                assert!(cat.inner.read().viol_count.depth() >= 2);
            }
        }
        cat.vacuum();
        {
            let st = cat.inner.read();
            assert!(
                st.viol_count.depth() <= 2,
                "oscillating viol_count history must prune to O(pins), got {}",
                st.viol_count.depth()
            );
            let ind_viol = &st.dep_viol[0];
            assert!(
                ind_viol.depth() <= 2,
                "per-dependency history must prune to O(pins), got {}",
                ind_viol.depth()
            );
        }
        // The pinned generation still reads its exact pre-churn state.
        assert!(pinned.is_consistent());
        assert_eq!(pinned.total_rows(), 0);
        assert_eq!(pinned.health()[0].tracked, 0);
        drop(pinned);
        assert!(cat.snapshot().is_consistent());
    }

    #[test]
    fn randomized_sessions_match_the_validator_and_full_recheck() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let (schema, sigma, cat) = setup();
        let mut rng = StdRng::seed_from_u64(0xCA7A_1065);
        let mut oracle = Database::empty(schema);
        for round in 0..40 {
            let mut s = cat.begin();
            let ops = rng.random_range(0..6u32);
            for _ in 0..ops {
                let name = format!("e{}", rng.random_range(0..8u32));
                let dept = format!("d{}", rng.random_range(0..4u32));
                let (rel, t) = if rng.random_range(0..2u32) == 0 {
                    ("EMP", Tuple::strs(&[&name, &dept]))
                } else {
                    ("DEPT", Tuple::strs(&[&dept, &name]))
                };
                if rng.random_range(0..3u32) == 0 {
                    s.stage_delete(rel, t).unwrap();
                } else {
                    s.stage_insert(rel, t).unwrap();
                }
            }
            check_session(&s, &sigma);
            if rng.random_range(0..4u32) == 0 {
                s.abort();
            } else {
                let staged = s.staged().clone();
                s.commit();
                oracle.apply_delta(&staged).unwrap();
            }
            let snap = cat.snapshot();
            assert_eq!(snap.to_database(), oracle, "round {round}");
            check_snapshot(&snap, &sigma);
        }
    }
}
