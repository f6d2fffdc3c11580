//! Dependency discovery: profile a [`Database`] into the set of FDs and
//! INDs it satisfies, then prune the result to a minimal cover through the
//! compiled implication engines.
//!
//! The paper treats `Σ` as given; a deployment usually starts from the
//! opposite end — a live database whose dependencies must be *mined*
//! before anything can be validated or chased. This module closes that
//! loop in three stages. All three are naturally **columnar** — IND
//! checking is set containment of column projections, FD checking is
//! partition refinement by columns — so the hot path runs over the
//! struct-of-arrays [`ColumnStore`] (one dense `Vec<u32>` of interned ids
//! per attribute) and fans its embarrassingly parallel stages out on the
//! scoped-thread pool of [`depkit_core::pool`], governed by
//! [`DiscoveryConfig::threads`]:
//!
//! 1. **Unary INDs, SPIDER proper.** Each column becomes a distinct
//!    **stream** of 64-id presence words
//!    ([`sorted_distinct_stream`](depkit_core::column::RelationColumns::sorted_distinct_stream),
//!    opened in parallel) — a presence bitmap or, when smaller, a sorted
//!    id list under budget, id-range slices of the bitmap rescanned from
//!    the resident column over it — and one sweep over
//!    the blocks where some column has an id decides *all*
//!    `R[A] ⊆ S[B]` simultaneously: `R[A]` has ids outside `S[B]` in a
//!    block iff its word AND-NOT the other's is nonzero. On exact runs no
//!    per-value table is built; the work is per 64 *distinct* ids,
//!    independent of row repetition.
//! 2. **n-ary INDs by pairwise composition.** Valid `k`-ary INDs are
//!    extended with valid unary INDs over the same relation pair
//!    (candidates are canonical: left columns in ascending order, which
//!    quotients away the IND2 permutations). Since IND satisfaction is
//!    closed under projection, every satisfied canonical IND up to the
//!    arity cap is generated. Per level, a pre-pass first refutes what is
//!    already decided: a candidate with a `(k − 1)`-projection the level
//!    below did not admit (IND2), and one whose first few left rows are
//!    missing on the right, found by one filtered scan of the right
//!    relation per right side. Only the survivors' distinct right-side
//!    projection sets are then materialized as word-packed [`KeySet`]s,
//!    and every survivor is validated in parallel by a zero-allocation
//!    column-gather scan.
//! 3. **FDs by partition refinement, TANE-style.** Per relation, a
//!    level-wise walk of the attribute-set lattice carries *stripped
//!    partitions* (equivalence classes of row ids, singletons dropped):
//!    `X → A` holds iff every class of `π_X` agrees on `A`. Refinement
//!    runs through the radix-style dense-counting [`Refiner`] (no
//!    hashing), lattice nodes of one level are checked in parallel, and
//!    superkey nodes and attributes determined by subsets prune the
//!    lattice, so only *minimal* FDs are emitted.
//!
//! The raw mined set is then fed through the engines the rest of the
//! crate compiles — [`FdEngine`] closures, the [`IndSolver`] walk search,
//! and (optionally) the Section 4 [`Saturator`] — to drop every
//! dependency implied by the others: [`minimize_cover`]. The result is
//! the first end-to-end consumer of the paper's implication machinery on
//! real data: discovery proposes, implication disposes.
//!
//! [`discover_reference`] is the pre-columnar row-at-a-time engine over
//! [`CompiledRows`], kept — like `solver::reference` for the implication
//! engines — as the executable specification: `tests/columnar_vs_rows.rs`
//! property-checks that the columnar engine (at any thread count)
//! produces byte-identical results.
//!
//! **Budgeted operation.** A positive
//! [`DiscoveryConfig::memory_budget`] bounds the pipeline's working set
//! beyond the resident columns and interner: a column whose distinct
//! stream would exceed its budget share is read in id-range slices of the
//! presence bitmap, each one rescanned from the column
//! ([`depkit_core::spill`]); oversized right-side projection sets validate
//! in hash-of-key passes; oversized FD lattice levels recompute partitions
//! from the root in hash-of-lhs waves. Nothing is written to disk. Every
//! budget decision is a deterministic function of the data shape, so a
//! budgeted run is byte-identical to the unbounded one — discovery on data
//! 10× the budget is slower, never different. [`Discovery::spill`] reports
//! the columns read in slices and the column scans their slices took.
//!
//! **Tolerance.** Under a positive [`DiscoveryConfig::max_error`] every
//! stage admits a dependency whose error fits `L = ⌊max_error × support⌋`
//! and scores it in [`Discovery::scored`]. The IND stages count misses
//! with the one bounded counter exact mining uses — it stops at `L + 1`,
//! and exact mining is `L = 0` — and the FD lattice counts g3 with the
//! same bound, so the tolerance selects no code path.
//!
//! Exactness contract: within the configured caps
//! ([`DiscoveryConfig::max_ind_arity`], [`DiscoveryConfig::max_fd_lhs`])
//! the raw set contains **every** satisfied nontrivial IND (one canonical
//! representative per IND2-permutation class) and every minimal satisfied
//! FD; `tests/discovery_vs_satisfy.rs` checks both directions against
//! [`depkit_core::satisfy`]. The result is also independent of
//! [`DiscoveryConfig::threads`] **and** of the memory budget: every
//! parallel stage merges worker output in deterministic input order, and
//! every external stage shards by deterministic hashes of the data.

use crate::fd::{FdClosure, FdEngine};
use crate::ind::{IndGraph, IndSolver};
use crate::interact::{
    intern_dep, name_ordered_catalog, IdDep, IdSaturation, IdSets, SaturationLimits,
    SaturationOptions, Saturator,
};
use depkit_core::column::{ColumnCursor, ColumnStore, KeySet, Refiner, RelationColumns};
use depkit_core::database::Database;
use depkit_core::dependency::{Dependency, Fd, Ind};
use depkit_core::hashing::{FastMap, FastSet};
use depkit_core::index::CompiledRows;
use depkit_core::intern::{Catalog, IdSeq};
use depkit_core::pool;
use depkit_core::schema::DatabaseSchema;
use depkit_core::spill::{block_ids, DistinctStream, SpillStats, MAX_PASSES};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

/// Resource caps and rule toggles for [`discover_with_config`].
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Highest IND arity mined. Candidates are composed level by level, so
    /// each extra level multiplies validation work; satisfied INDs of
    /// higher arity are still *implied* by their projections being found,
    /// just not materialized. Default `3`.
    pub max_ind_arity: usize,
    /// Largest FD left-hand side searched in the partition lattice.
    /// Minimal FDs with wider left sides are not found. Default `3`.
    pub max_fd_lhs: usize,
    /// Whether cover minimization may use the Section 4 FD/IND interaction
    /// rules (the [`Saturator`]) on top of the per-class engines. The
    /// per-class engines alone are complete for FD-only and IND-only
    /// implication; the saturator adds sound cross-class pruning.
    /// Default `true`.
    pub interaction_pruning: bool,
    /// Worker threads for the parallel mining stages (per-column SPIDER
    /// refinement, per-candidate IND validation, per-node FD lattice
    /// checks). `0` means "use the machine's available parallelism"
    /// ([`pool::default_threads`]); `1` runs every stage inline. The mined
    /// result is identical for every setting. Default `0`.
    pub threads: usize,
    /// In-memory byte budget for the discovery working set. `0` (the
    /// default) is unbounded: every stage runs fully in RAM, exactly as
    /// before the external pipeline existed. A positive budget splits
    /// into fixed, data-independent shares (see `BudgetPlan` in the
    /// source): columns whose distinct stream would exceed their share
    /// are read in id-range slices of their presence bitmap, one column
    /// scan per slice; oversized right-side projection sets are validated
    /// in hash-of-key passes; oversized FD lattice levels recompute
    /// partitions from the root and run in hash-of-left-side waves. The
    /// mined result is byte-identical to the unbounded run — the budget
    /// changes how intermediate state is computed, never what is found
    /// ([`Discovery::spill`] reports the columns read in slices). The id
    /// columns and the value interner stay resident outside the budget.
    pub memory_budget: usize,
    /// Ignored: discovery writes no files. Kept so that configurations
    /// which still set it build and run unchanged.
    pub spill_dir: Option<PathBuf>,
    /// Error tolerance for approximate discovery, as a fraction of rows in
    /// `[0, 1)`. A dependency is kept when its error is at most
    /// `L = ⌊max_error × support⌋`, where support is the row count of the
    /// (left) relation: FDs use the g3 measure ([`Refiner::g3_error`] — the
    /// minimum rows to delete, from stripped-partition group sizes), INDs
    /// count left rows whose projection is absent on the right. Every IND
    /// stage runs one bounded counter that stops at `L + 1`, the first
    /// count that rejects, and the FD lattice counts g3 with the same
    /// bound, stopping once the error must exceed `L`; `0.0` (the default)
    /// is exact mining, the case `L = 0`, where checking stops at the first
    /// miss or disagreement. The tolerance selects no code
    /// path: a positive value only makes the run fill [`Discovery::scored`],
    /// where every kept dependency carries its exact `misses` and
    /// `support`, identical across threads, budgets, and sharding.
    pub max_error: f64,
    /// Rank cutoff carried for front ends: how many entries of the scored
    /// set [`Discovery::ranked`] should present, `0` meaning all of them.
    /// Mining itself never truncates — `scored` always holds the full set.
    pub top_k: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            max_ind_arity: 3,
            max_fd_lhs: 3,
            interaction_pruning: true,
            threads: 0,
            memory_budget: 0,
            spill_dir: None,
            max_error: 0.0,
            top_k: 0,
        }
    }
}

impl DiscoveryConfig {
    /// The effective worker count: `threads`, with `0` resolved to the
    /// machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            pool::default_threads()
        } else {
            self.threads
        }
    }
}

/// Instrumentation for one discovery run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Tuples profiled across all relations.
    pub rows: usize,
    /// Columns profiled (sum of scheme arities).
    pub columns: usize,
    /// Distinct values across the database (the interner's table size).
    pub distinct_values: usize,
    /// Composed n-ary IND candidates validated against the data
    /// (levels ≥ 2; level 1 is decided wholesale by the SPIDER pass).
    pub ind_candidates: usize,
    /// `(X, A)` pairs checked against stripped partitions.
    pub fd_candidates: usize,
    /// Nontrivial FDs mined.
    pub raw_fds: usize,
    /// Nontrivial INDs mined (canonical representatives).
    pub raw_inds: usize,
    /// Raw dependencies pruned from the cover as implied by the rest.
    pub pruned: usize,
}

/// One mined dependency with its error accounting. Produced only by
/// approximate runs ([`DiscoveryConfig::max_error`] > 0); exact runs
/// leave [`Discovery::scored`] empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredDependency {
    /// The mined dependency.
    pub dep: Dependency,
    /// Rows that would have to be removed for the dependency to hold
    /// exactly: the g3 measure for FDs, missing left projections for
    /// INDs. `0` means the dependency holds outright.
    pub misses: u64,
    /// Rows the measure is taken over — the (left) relation's row count.
    pub support: u64,
}

impl ScoredDependency {
    /// Fraction of supporting rows consistent with the dependency:
    /// `1 − misses / support` (`1.0` on empty support, matching vacuous
    /// satisfaction).
    pub fn confidence(&self) -> f64 {
        if self.support == 0 {
            1.0
        } else {
            1.0 - self.misses as f64 / self.support as f64
        }
    }

    /// Integer ranking weight: `confidence × support`, which simplifies
    /// to `support − misses`. Kept in integers so every execution mode
    /// ranks identically, with no float-rounding tie hazards.
    pub fn score(&self) -> u64 {
        self.support - self.misses
    }
}

/// The result of mining a database: the raw satisfied set and its minimal
/// cover.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Every nontrivial dependency mined within the caps, sorted and
    /// deduplicated. Under a positive [`DiscoveryConfig::max_error`] this
    /// includes the approximately satisfied dependencies; consult
    /// [`Discovery::scored`] for which hold outright.
    pub raw: Vec<Dependency>,
    /// The minimal cover: a subset of the *exactly* satisfied part of
    /// `raw` that still implies all of it, and from which removing any
    /// member leaves a set that no longer does (see [`minimize_cover`]).
    /// Approximately satisfied dependencies neither enter the cover nor
    /// prune it — implication over dirty premises is unsound.
    pub cover: Vec<Dependency>,
    /// Error accounting, one entry per member of `raw` sorted by
    /// dependency, when [`DiscoveryConfig::max_error`] is positive; empty
    /// on exact runs.
    pub scored: Vec<ScoredDependency>,
    /// Instrumentation.
    pub stats: DiscoveryStats,
    /// Budget counters: all zero when no column went over its share.
    /// Deliberately kept out of [`DiscoveryStats`] — `stats` is part of
    /// the determinism contract (`spilled == in-memory` byte-for-byte),
    /// while `spill` describes *how* the run executed, which legitimately
    /// differs between a budgeted and an unbounded run.
    pub spill: SpillStats,
}

impl Discovery {
    /// The scored set ranked most-trustworthy-mass first: descending
    /// [`ScoredDependency::score`] (confidence × support, in integers),
    /// ties broken by dependency order, truncated to `top_k` entries when
    /// `top_k > 0`. Empty on exact runs.
    pub fn ranked(&self, top_k: usize) -> Vec<ScoredDependency> {
        let mut out = self.scored.clone();
        out.sort_by(|a, b| b.score().cmp(&a.score()).then_with(|| a.dep.cmp(&b.dep)));
        if top_k > 0 {
            out.truncate(top_k);
        }
        out
    }
}

/// Mine `db` with the default [`DiscoveryConfig`].
///
/// # Examples
///
/// The paper's Section 1 running example, rediscovered from data alone:
///
/// ```
/// use depkit_core::{Database, DatabaseSchema, Dependency};
/// use depkit_solver::discover::{discover, implied_by};
///
/// let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "MGR(NAME, DEPT)"]).unwrap();
/// let mut db = Database::empty(schema);
/// db.insert_str("EMP", &[&["hilbert", "math"], &["noether", "math"]]).unwrap();
/// db.insert_str("MGR", &[&["hilbert", "math"]]).unwrap();
///
/// let found = discover(&db);
/// // Managers are employees: mined as a binary IND.
/// let ind: Dependency = "MGR[NAME, DEPT] <= EMP[NAME, DEPT]".parse().unwrap();
/// assert!(found.raw.contains(&ind));
/// // Every employee works in one department: implied by the cover.
/// let fd: Dependency = "EMP: NAME -> DEPT".parse().unwrap();
/// assert!(implied_by(&found.cover, &fd));
/// ```
pub fn discover(db: &Database) -> Discovery {
    discover_with_config(db, &DiscoveryConfig::default())
}

/// Mine `db` under explicit caps: compile it to columnar form, discover
/// INDs and FDs over the column runs (in parallel per
/// [`DiscoveryConfig::threads`], externally per
/// [`DiscoveryConfig::memory_budget`]), and minimize the result through
/// the implication engines.
///
/// Discovery does no I/O, at any budget.
pub fn discover_with_config(db: &Database, config: &DiscoveryConfig) -> Discovery {
    let store = ColumnStore::new(db);
    discover_store(db.schema(), &store, config).expect("only a ShardExecutor fails")
}

/// Mine a pre-built [`ColumnStore`] directly. This is the entry point for
/// workloads that never materialize a [`Database`] — the out-of-core
/// scaling benches build multi-10M-row stores synthetically via
/// [`ColumnStore::from_raw_parts`], where the row form would blow the
/// heap the budget is there to protect. `schema` must be the schema the
/// store was compiled from (same relation order and arities).
///
/// It never returns `Err`: errors come only from the [`ShardExecutor`] of
/// [`discover_store_sharded`], which shares this signature.
pub fn discover_store(
    schema: &DatabaseSchema,
    store: &ColumnStore,
    config: &DiscoveryConfig,
) -> io::Result<Discovery> {
    mine_store(schema, store, config, None)
}

/// The body of [`discover_store`] and [`discover_store_sharded`], which
/// differ only in where the n-ary miss counts come from (`exec`): open
/// every column's distinct stream (sliced over its budget share), sweep them
/// for the unary INDs, compose and count the n-ary ones, mine FDs from the
/// store, canonicalize the raw set, minimize the cover, and assemble the
/// [`Discovery`]. The cover is minimized over the **exactly** satisfied
/// subset only — implication from premises that merely approximately hold
/// is unsound (errors compound through derivation), so dirty dependencies
/// stay in `raw` and `scored` but never enter the cover nor prune anything
/// from it. Exact runs score nothing, so there the exact subset is all of
/// `raw`.
fn mine_store(
    schema: &DatabaseSchema,
    store: &ColumnStore,
    config: &DiscoveryConfig,
    exec: Option<&mut dyn ShardExecutor>,
) -> io::Result<Discovery> {
    let columns = column_table(schema);
    let mut spill = SpillStats::default();
    let plan =
        (config.memory_budget > 0).then(|| BudgetPlan::new(config.memory_budget, columns.len()));
    let threads = config.effective_threads();
    let streams = open_distinct_streams(store, &columns, threads, plan.as_ref(), &mut spill);
    let backend = match exec {
        Some(exec) => NaryBackend::Executor(exec),
        None => NaryBackend::Local(plan.as_ref()),
    };
    let mut stats = DiscoveryStats {
        rows: store.total_rows(),
        columns: columns.len(),
        distinct_values: store.distinct_values(),
        ..DiscoveryStats::default()
    };
    let mut scored: Vec<ScoredDependency> = Vec::new();
    let unary = spider_sweep(streams, store, &columns, config.max_error);
    let inds = mine_inds(
        schema,
        store,
        &columns,
        &unary,
        config,
        threads,
        backend,
        &mut stats,
        &mut scored,
    )?;
    let mut raw: Vec<Dependency> = inds.into_iter().map(Dependency::from).collect();
    stats.raw_inds = raw.len();
    let fds = mine_fds(
        schema,
        store,
        config,
        threads,
        plan.as_ref(),
        &mut stats,
        &mut scored,
    );
    raw.extend(fds.into_iter().map(Dependency::from));
    stats.raw_fds = raw.len() - stats.raw_inds;
    raw.sort();
    raw.dedup();
    scored.sort_by(|a, b| a.dep.cmp(&b.dep));
    // Sorted because `scored` is, so membership is a binary search.
    let dirty: Vec<&Dependency> = scored
        .iter()
        .filter(|s| s.misses > 0)
        .map(|s| &s.dep)
        .collect();
    let clean: Vec<Dependency> = raw
        .iter()
        .filter(|d| dirty.binary_search(d).is_err())
        .cloned()
        .collect();
    let cover = minimize_cover(&clean, config);
    stats.pruned = clean.len() - cover.len();
    Ok(Discovery {
        raw,
        cover,
        scored,
        stats,
        spill,
    })
}

/// The admission rule every miner shares: a dependency over `support` rows
/// is kept iff its error — IND misses or FD g3 — is at most
/// `L = ⌊max_error × support⌋`. Counters stop at `L + 1`, the first count
/// that rejects; exact mining is `L = 0`, where that is the first miss.
fn miss_limit(max_error: f64, support: usize) -> u64 {
    (max_error * support as f64).floor() as u64
}

/// How a positive [`DiscoveryConfig::memory_budget`] is split across the
/// discovery stages. The shares are **fixed fractions of the budget and
/// functions of the data shape alone** — never of thread count or runtime
/// measurements — so every budget decision (sliced or not, how many
/// passes, how many waves) is deterministic and the mined result is
/// byte-identical to the unbounded run. The stages run sequentially, so
/// their shares may overlap rather than sum to the budget.
struct BudgetPlan {
    /// Per-column share of the distinct streams: `budget / (2·ncols)`
    /// (every column's stream is resident during the sweep, and each may
    /// be opened at once).
    distinct_share: usize,
    /// Share for one right-side projection [`KeySet`]: `budget / 4`.
    keyset_share: usize,
    /// Share for one FD lattice level's carried partitions: `budget / 4`.
    fd_share: usize,
}

impl BudgetPlan {
    fn new(budget: usize, ncols: usize) -> Self {
        BudgetPlan {
            distinct_share: (budget / (2 * ncols.max(1))).max(1),
            keyset_share: (budget / 4).max(1),
            fd_share: (budget / 4).max(1),
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-process sharded execution
// ---------------------------------------------------------------------------

/// The work a sharded coordinator distributes on behalf of
/// [`discover_store_sharded`]: the n-ary refutation passes.
/// Implementations (the worker-pool coordinator in `depkit-serve`) must
/// return miss counts that admit exactly what the local validator admits,
/// because the pipeline above asserts nothing and recomputes nothing:
/// sharded determinism is the executor's contract, not the solver's
/// fallback.
///
/// Workers need no coordinator state beyond the candidates themselves:
/// global column ids resolve through [`column_table`] on any process that
/// parses the same schema, and [`ColumnStore::from_buffers`] (which
/// [`ColumnStore::new`] also runs) assigns ids as a pure function of the
/// rows buffered and their order, so every process fed the same rows — the
/// CLI's coordinator and workers all read one spec file — builds the
/// identical value-id space and counts the same projections.
pub trait ShardExecutor {
    /// Bounded miss counts for a batch of nontrivial candidates, in batch
    /// order: left rows whose projection is absent on the right, counted
    /// up to `limits[i] + 1`. Candidate `i` is refuted iff its count
    /// exceeds `limits[i]`, so with every limit `0` this is plain
    /// refutation. A count within the limit must be the exact total, which
    /// key-range passes (`key_shard`) deliver by capping each pass at
    /// `limits[i] + 1` and summing: every projection key lands in exactly
    /// one pass, so an admitted candidate never reaches a cap and its sum
    /// equals the unsharded scan.
    ///
    /// Only the level's survivors ship: candidates the coordinator's
    /// pre-pass already refuted (an unadmitted projection, or a failed
    /// probe of the first left rows) never reach a batch, and a level with
    /// no survivor makes no call.
    fn count_misses(&mut self, cands: &[IndCand], limits: &[u64]) -> io::Result<Vec<u64>>;
}

/// [`discover_store`] with level ≥ 2 IND validation delegated to a
/// [`ShardExecutor`]. Everything else runs on the coordinator's own store
/// exactly as [`discover_store`] runs it — the distinct streams (sliced
/// under the same budget), the SPIDER sweep, the composition loop, FD mining and cover
/// minimization — so the result, [`Discovery::spill`] included, equals
/// the local run's; the executor's miss counts feed the same composition
/// loop the local validator's do.
pub fn discover_store_sharded(
    schema: &DatabaseSchema,
    store: &ColumnStore,
    config: &DiscoveryConfig,
    exec: &mut dyn ShardExecutor,
) -> io::Result<Discovery> {
    mine_store(schema, store, config, Some(exec))
}

/// Worker-side n-ary refutation: each candidate's misses among its left
/// rows on key-shard `pass` of `passes` (`key_shard`-partitioned, the same
/// partitioning the budgeted local validator uses), counted up to
/// `limits[i] + 1`. Every projection key is examined by exactly one pass,
/// so a coordinator sums the passes: a candidate is refuted iff its sum
/// exceeds its limit, and an admitted candidate's sum is its unsharded
/// miss count. Returns one count per candidate, in candidate order;
/// trivial candidates count zero.
pub fn refute_candidates_pass(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    cands: &[IndCand],
    limits: &[u64],
    pass: usize,
    passes: usize,
) -> Vec<u64> {
    let mut misses = vec![0u64; cands.len()];
    let mut buf = Vec::new();
    for (rhs, members) in group_by_rhs(cands) {
        let shard = build_rhs_keys(store, columns, &rhs, pass, passes);
        for i in members {
            misses[i] = ind_misses(
                store, columns, &cands[i], &shard, pass, passes, limits[i], &mut buf,
            );
        }
    }
    misses
}

/// Saturation caps for the pruning oracle. Cover minimization calls the
/// oracle quadratically often, and mined sets from low-cardinality data can
/// hold large accidental IND cliques whose full saturation materializes
/// thousands of compositions — so the interaction stage runs under tight,
/// *fixed* caps. Truncation keeps the saturator sound (it only derives
/// less), and fixing the caps keeps the oracle deterministic, which is what
/// makes "minimal cover" a well-defined property the tests can assert.
///
/// Under these caps most saturations of a real mined set stop early, so
/// *which* derivations fill the 64 slots decides the printed cover: the
/// saturator's derivation order is part of the determinism contract
/// (see [`Saturator::saturate`]). Its per-round join index keeps that
/// order while visiting only the premises that can fire, which is what
/// makes these saturations cheap enough to run once per cover member.
pub(crate) const PRUNING_LIMITS: SaturationLimits = SaturationLimits {
    max_rounds: 4,
    max_inds: 64,
    max_fds: 64,
};

/// Whether `sigma ⊨ target`, decided by the engines discovery prunes with:
/// the [`FdEngine`] closure for FD targets, the [`IndSolver`] walk search
/// for IND targets, then — when the per-class engines cannot settle it and
/// `sigma` genuinely mixes FDs with INDs — the Section 4 [`Saturator`]
/// under fixed resource caps. Complete within each single class, sound
/// (but, per Theorem 7.1, necessarily incomplete) across them. To ask
/// about many targets against one `sigma`, use a [`PruningOracle`].
pub fn implied_by(sigma: &[Dependency], target: &Dependency) -> bool {
    PruningOracle::new(sigma).implies(target)
}

/// [`implied_by`] with `sigma` fixed, for asking about many targets: the
/// capped saturation of `sigma` runs at most once, on the first target the
/// per-class engines cannot settle, and answers every later target.
///
/// The answers are [`implied_by`]'s. The saturation always materializes
/// `sigma`'s own FDs and INDs, so its engines already decide everything
/// the per-class engines do. These are the answers [`minimize_cover`]
/// prunes by; it compiles its input once and asks them on id records
/// instead of building an oracle per remainder. `depkit discover` checks
/// the declared dependencies against the printed cover with one oracle.
#[derive(Debug)]
pub struct PruningOracle<'a> {
    sigma: &'a [Dependency],
    /// Whether `sigma` holds both FDs and INDs; the Section 4 rules all
    /// need both classes on the premise side, so for a single-class
    /// `sigma` the per-class engines are complete and nothing saturates.
    mixed: bool,
    saturated: OnceCell<Saturator>,
}

impl<'a> PruningOracle<'a> {
    /// An oracle over `sigma`; nothing is computed until the first query.
    pub fn new(sigma: &'a [Dependency]) -> Self {
        PruningOracle {
            sigma,
            mixed: is_mixed(sigma),
            saturated: OnceCell::new(),
        }
    }

    /// Whether `sigma ⊨ target`, as [`implied_by`] decides it.
    pub fn implies(&self, target: &Dependency) -> bool {
        if let Some(sat) = self.saturated.get() {
            return sat.implies(target);
        }
        if class_implied(self.sigma, target) {
            return true;
        }
        self.mixed
            && self
                .saturated
                .get_or_init(|| {
                    let mut sat = Saturator::with_limits(self.sigma, PRUNING_LIMITS);
                    sat.saturate();
                    sat
                })
                .implies(target)
    }
}

/// Whether `sigma` holds both an FD and an IND: only then can a Section 4
/// rule fire.
pub(crate) fn is_mixed(sigma: &[Dependency]) -> bool {
    sigma.iter().any(|d| d.as_fd().is_some()) && sigma.iter().any(|d| d.as_ind().is_some())
}

/// Whether `sigma ⊨ target` by the per-class engines alone: the
/// [`FdEngine`] closure for FD targets, the [`IndSolver`] walk search for
/// IND targets (trivial targets always, anything else never).
pub(crate) fn class_implied(sigma: &[Dependency], target: &Dependency) -> bool {
    if target.is_trivial() {
        return true;
    }
    match target {
        Dependency::Fd(fd) => {
            let fds: Vec<Fd> = sigma
                .iter()
                .filter_map(Dependency::as_fd)
                .cloned()
                .collect();
            FdEngine::new(fd.rel.clone(), &fds).implies(fd)
        }
        Dependency::Ind(ind) => {
            let inds: Vec<Ind> = sigma
                .iter()
                .filter_map(Dependency::as_ind)
                .cloned()
                .collect();
            IndSolver::new(&inds).implies(ind)
        }
        _ => false,
    }
}

/// Prune `raw` to a minimal cover: a subset that still implies every raw
/// dependency, from which no member can be removed without losing some of
/// the raw set.
///
/// Two greedy stages, both strictly shrinking (so termination is by
/// construction, with no re-add loop that could oscillate):
///
/// 1. **Per-class elimination.** A member implied by the rest under the
///    class-complete engines alone ([`FdEngine`] for FDs, [`IndSolver`]
///    for INDs) is dropped. These oracles are monotone and transitive —
///    Armstrong / IND1–3 complete closure operators — so a removal can
///    never resurrect another member's redundancy and the surviving set
///    still derives everything removed.
/// 2. **Interaction elimination** (when
///    [`DiscoveryConfig::interaction_pruning`] is on). The capped
///    saturator is *not* a closure operator — truncation breaks
///    monotonicity — so here a removal is accepted only after verifying
///    the invariant directly: the remainder must still imply (per
///    [`implied_by`]) every dependency of `raw`. Anything else reverts.
///
/// The invariant "cover implies all of `raw`" therefore holds after every
/// accepted removal, and at the fixpoint removing any member breaks it —
/// exactly the minimality the acceptance tests assert.
///
/// The input is compiled once: every name is interned in sorted order
/// and every member becomes an id record. Stage 1 builds one FD closure
/// per relation and one IND graph over the whole cover, and asks each
/// `rest ⊨ cᵢ` under a mask that skips `cᵢ` and every member already
/// removed. Stage 2 runs the capped saturation of each mixed remainder
/// straight from the records and answers on engines compiled from its
/// result. It skips [`PruningOracle`]'s per-class pre-check: stage 1
/// stopped at its fixpoint and per-class implication is monotone, so
/// that check fails for every member stage 2 asks about. The cover is
/// [`crate::reference::minimize_cover`]'s, order included, which
/// answers every query with fresh engines and the unindexed saturation
/// loop; `tests/compiled_vs_reference.rs` checks the two agree.
pub fn minimize_cover(raw: &[Dependency], config: &DiscoveryConfig) -> Vec<Dependency> {
    let mut cover: Vec<Dependency> = raw.iter().filter(|d| !d.is_trivial()).cloned().collect();
    cover.sort();
    cover.dedup();
    let catalog = name_ordered_catalog(&cover);
    let ids: Vec<IdDep> = cover
        .iter()
        .map(|d| intern_dep(&catalog, d).expect("the catalog holds every name of the cover"))
        .collect();
    let mut removed = vec![false; ids.len()];
    drop_class_implied(&catalog, &ids, &mut removed);
    if config.interaction_pruning {
        drop_interaction_implied(&catalog, &ids, &mut removed);
    }
    cover
        .into_iter()
        .zip(removed)
        .filter_map(|(d, gone)| (!gone).then_some(d))
        .collect()
}

/// Stage 1 of [`minimize_cover`]: in passes until one removes nothing,
/// mark each member the rest implies by the per-class engines alone.
fn drop_class_implied(catalog: &Catalog, ids: &[IdDep], removed: &mut [bool]) {
    let (n_rels, n_attrs) = (catalog.rel_count(), catalog.attr_count());
    // The engines number their members locally; these map them back.
    let mut fd_members: Vec<Vec<usize>> = vec![Vec::new(); n_rels];
    let mut fd_sides: Vec<Vec<(IdSeq, IdSeq)>> = vec![Vec::new(); n_rels];
    let (mut ind_members, mut ind_sides) = (Vec::new(), Vec::new());
    for (k, dep) in ids.iter().enumerate() {
        match dep {
            IdDep::Fd(f) => {
                fd_members[f.rel.index()].push(k);
                fd_sides[f.rel.index()].push((f.lhs.clone(), f.rhs.clone()));
            }
            IdDep::Ind(i) => {
                let local = ind_members.len();
                ind_members.push(k);
                ind_sides.push((local, i.lhs_rel, i.lhs.clone(), i.rhs_rel, i.rhs.clone()));
            }
            IdDep::Rd(_) | IdDep::Emvd => {}
        }
    }
    let fd_engines: Vec<FdClosure> = fd_sides
        .into_iter()
        .map(|sides| FdClosure::new(n_attrs, sides))
        .collect();
    let ind_graph = IndGraph::new(n_rels, n_attrs, ind_sides);
    loop {
        let mut any = false;
        for k in 0..ids.len() {
            if removed[k] {
                continue;
            }
            // The rest: every member but `k` and those already removed.
            let out = |g: usize| g == k || removed[g];
            let implied = match &ids[k] {
                IdDep::Fd(f) => {
                    let members = &fd_members[f.rel.index()];
                    fd_engines[f.rel.index()].implies_masked(&f.lhs, &f.rhs, |l| out(members[l]))
                }
                IdDep::Ind(i) => {
                    ind_graph.implies_masked((i.lhs_rel, &i.lhs), (i.rhs_rel, &i.rhs), |l| {
                        out(ind_members[l])
                    })
                }
                IdDep::Rd(_) | IdDep::Emvd => false,
            };
            if implied {
                removed[k] = true;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
}

/// Stage 2 of [`minimize_cover`]: in passes until one removes nothing,
/// mark each member whose mixed remainder's capped saturation implies
/// it and every member of the input.
fn drop_interaction_implied(catalog: &Catalog, ids: &[IdDep], removed: &mut [bool]) {
    loop {
        let mut any = false;
        for k in 0..ids.len() {
            if removed[k] {
                continue;
            }
            let rest = || {
                (0..ids.len())
                    .filter(|&g| g != k && !removed[g])
                    .map(|g| &ids[g])
            };
            let has_fd = rest().any(|d| matches!(d, IdDep::Fd(_)));
            if !(has_fd && rest().any(|d| matches!(d, IdDep::Ind(_)))) {
                continue;
            }
            let mut sets = IdSets::default();
            for dep in rest() {
                sets.insert(dep);
            }
            let mut sat =
                IdSaturation::new(sets, catalog, PRUNING_LIMITS, SaturationOptions::default());
            sat.run();
            if sat.implies(&ids[k]) && ids.iter().all(|dep| sat.implies(dep)) {
                removed[k] = true;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Column profiling
// ---------------------------------------------------------------------------

/// Global column table: `(scheme index, column index)` per column id, in
/// schema order — the id space both IND miners share, and the id space a
/// shard plan is written in. Public so a shard worker, given only the
/// schema, reconstructs the exact table the coordinator planned against.
pub fn column_table(schema: &DatabaseSchema) -> Vec<(usize, usize)> {
    schema
        .schemes()
        .iter()
        .enumerate()
        .flat_map(|(r, s)| (0..s.arity()).map(move |c| (r, c)))
        .collect()
}

// ---------------------------------------------------------------------------
// Unary IND discovery (SPIDER over 64-id presence words)
// ---------------------------------------------------------------------------

/// The stream-opening half of the unary SPIDER stage: every column as a
/// distinct stream — its presence bitmap or sorted id list under budget,
/// id-range slices rescanned from the column above it
/// ([`ColumnStore::sorted_distinct_stream`]) — opened in parallel for
/// [`spider_sweep`].
fn open_distinct_streams<'s>(
    store: &'s ColumnStore,
    columns: &[(usize, usize)],
    threads: usize,
    plan: Option<&BudgetPlan>,
    spill: &mut SpillStats,
) -> Vec<DistinctStream<'s>> {
    let share = plan.map(|p| p.distinct_share);
    pool::map_indexed(threads, columns.len(), |c| {
        let (rel, col) = columns[c];
        store.sorted_distinct_stream(rel, col, share)
    })
    .into_iter()
    .map(|(stream, stats)| {
        spill.absorb(&stats);
        stream
    })
    .collect()
}

/// SPIDER proper, one sweep over 64-id blocks of any set of distinct
/// streams: for each column `c`, every column `d` that covers it within
/// tolerance — `result[c]` lists the pairs `(d, misses)` where `misses`,
/// the rows of `c` whose value is absent from `d`, fits `c`'s
/// [`miss_limit`]. Each stream yields its column's non-empty blocks in
/// ascending order as `u64` presence words, so the sweep visits exactly
/// the blocks where some column has an id, in order, and reads every
/// column's word there (`0` when it has none). Within a block, the ids of
/// `c` missing from `d` are the bits of `w_c & !w_d`, so one AND-NOT
/// decides a live candidate for 64 ids at once. Beyond the streams
/// themselves, the sweep holds the `ncols²`-bit matrix of live candidates
/// plus one word and one stream head per column, regardless of data size.
///
/// A column with limit `0` (every column of an exact run) drops a
/// candidate `d` on any set bit, and no frequency table or counter exists
/// for it. Only a column with a positive limit weighs each missed id by
/// its row frequency (one dense `distinct × counted-columns` table, built
/// by one scan per such column) into a per-pair counter that stops at
/// `limit + 1`, where the candidate dies; the capped sum does not depend
/// on the order the ids arrive in. Empty columns yield no block, so they
/// keep every candidate at zero misses — matching the
/// vacuous-satisfaction semantics of [`depkit_core::satisfy::check_ind`].
///
/// Resident and sliced streams yield identical blocks, so the candidate
/// sets do not depend on the budget; a sharded run opens the same streams
/// on its coordinator, so they do not depend on sharding either.
fn spider_sweep(
    mut streams: Vec<DistinctStream<'_>>,
    store: &ColumnStore,
    columns: &[(usize, usize)],
    max_error: f64,
) -> Vec<Vec<(usize, u64)>> {
    let ncols = streams.len();
    let blocks = ncols.div_ceil(64);
    let limits: Vec<u64> = columns
        .iter()
        .map(|&(rel, _)| miss_limit(max_error, store.relation(rel).row_count()))
        .collect();
    // Columns with a positive limit get a slot in the row-frequency table
    // and a row of per-pair miss counters. The table is laid out by slot
    // (`freq[s * nvals + v]`), so each column's fill touches only the pages
    // of the ids it holds.
    let counted: Vec<usize> = (0..ncols).filter(|&c| limits[c] > 0).collect();
    let nvals = store.distinct_values();
    let mut slot: Vec<Option<usize>> = vec![None; ncols];
    let mut freq = vec![0u32; nvals * counted.len()];
    for (s, &c) in counted.iter().enumerate() {
        slot[c] = Some(s);
        let (rel, col) = columns[c];
        let slot_freq = &mut freq[s * nvals..(s + 1) * nvals];
        for &v in store.relation(rel).column(col) {
            slot_freq[v as usize] += 1;
        }
    }
    let mut misses = vec![0u64; counted.len() * ncols];
    // live[c * blocks..][..blocks]: the columns still covering column c
    // within its limit. Padding bits past `ncols` start clear, so no
    // candidate is ever read from them.
    let full_row: Vec<u64> = (0..blocks)
        .map(|b| match ncols - 64 * b {
            n if n < 64 => (1 << n) - 1,
            _ => !0,
        })
        .collect();
    let mut live = full_row.repeat(ncols);
    // heads[c]: column c's next non-empty block and its word.
    let mut heads: Vec<Option<(usize, u64)>> = streams.iter_mut().map(Iterator::next).collect();
    let mut words = vec![0u64; ncols];
    let mut present: Vec<usize> = Vec::with_capacity(ncols);
    while let Some(block) = heads.iter().flatten().map(|&(b, _)| b).min() {
        present.clear();
        for (c, head) in heads.iter_mut().enumerate() {
            words[c] = match *head {
                Some((b, word)) if b == block => {
                    *head = streams[c].next();
                    present.push(c);
                    word
                }
                _ => 0,
            };
        }
        for &c in &present {
            let wc = words[c];
            let row = &mut live[c * blocks..(c + 1) * blocks];
            for (b, bits) in row.iter_mut().enumerate() {
                let mut rest = *bits;
                while rest != 0 {
                    let d = b * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let missed = wc & !words[d];
                    if missed == 0 {
                        continue;
                    }
                    let dead = match slot[c] {
                        None => true,
                        Some(s) => {
                            let f: u64 = block_ids(block, missed)
                                .map(|v| u64::from(freq[s * nvals + v as usize]))
                                .sum();
                            let counter = &mut misses[s * ncols + d];
                            *counter = (*counter + f).min(limits[c] + 1);
                            *counter > limits[c]
                        }
                    };
                    if dead {
                        *bits &= !(1 << (d % 64));
                    }
                }
            }
        }
    }
    (0..ncols)
        .map(|c| {
            let bits = &live[c * blocks..(c + 1) * blocks];
            (0..ncols)
                .filter(|d| bits[d / 64] & (1 << (d % 64)) != 0)
                .map(|d| (d, slot[c].map_or(0, |s| misses[s * ncols + d])))
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// n-ary IND discovery (composition + packed-key columnar validation)
// ---------------------------------------------------------------------------

/// A canonical IND candidate over global column ids: left columns strictly
/// ascending (quotienting the IND2 permutation class), both sides over one
/// relation pair. Trivial candidates (`lhs == rhs` on one relation) are
/// kept as composition bases but never emitted.
///
/// Public (with public fields) because this is the unit of work a shard
/// plan ships to worker processes: both sides of the process boundary
/// resolve the global column ids through the same [`column_table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndCand {
    /// Scheme index of the left relation.
    pub lrel: usize,
    /// Scheme index of the right relation.
    pub rrel: usize,
    /// Global column ids of the left side, strictly ascending.
    pub lhs: Vec<usize>,
    /// Global column ids of the right side, pairwise distinct.
    pub rhs: Vec<usize>,
}

impl IndCand {
    /// Whether the candidate holds by reflexivity (IND1) alone.
    pub fn is_trivial(&self) -> bool {
        self.lrel == self.rrel && self.lhs == self.rhs
    }

    /// `lhs ++ rhs`: identifies the candidate among those of its arity
    /// (the global column ids determine both relations).
    fn key(&self) -> Vec<usize> {
        self.lhs.iter().chain(&self.rhs).copied().collect()
    }
}

/// Where the full miss counts of a level's surviving candidates come from:
/// the local validator (one pass over full right-side key sets, or
/// budget-sharded passes under a plan) or a [`ShardExecutor`] distributing
/// the refutation passes across worker processes. Every backend sees the
/// same batch — the nontrivial candidates [`prerefute`] left standing, in
/// candidate order — and admits exactly the same ones with the same
/// counts, so the composition loop above them is shared verbatim.
enum NaryBackend<'a> {
    Local(Option<&'a BudgetPlan>),
    Executor(&'a mut dyn ShardExecutor),
}

/// Mine every canonical IND within tolerance up to `config.max_ind_arity`:
/// admitted unary INDs seed the levels, and valid `k`-ary INDs extend with
/// admitted unary INDs over the same relation pair. Each candidate's misses
/// are counted up to its [`miss_limit`] plus one, so a candidate is
/// admitted iff its count fits the limit, and an admitted count is exact —
/// recorded in `scored` on tolerant runs.
///
/// Composition over approximate bases is sound a-priori-style: a
/// projection of an IND can only miss on rows where the full tuple also
/// misses, so `misses(projection) ≤ misses(full)` and every candidate
/// within tolerance arises from bases within tolerance. Trivial candidates
/// are zero-miss composition bases, never emitted.
///
/// Levels are processed one at a time by [`count_level`]: the
/// [`prerefute`] pre-pass first refutes what IND2 and a short probe
/// already decide, then only the survivors are counted in full by the
/// backend. Locally, each distinct right-side projection set is
/// materialized as a word-packed [`KeySet`] and its survivors are counted
/// in parallel against it ([`count_misses_in_passes`]); under a memory
/// budget, a right side whose key set would exceed its share is built and
/// counted in [`key_shard`]-partitioned passes instead. The executor
/// backend is how [`discover_store_sharded`] routes the same passes to
/// worker processes while keeping this loop (and therefore the candidate
/// order, the stats, and the emitted set) identical.
#[allow(clippy::too_many_arguments)]
fn mine_inds(
    schema: &DatabaseSchema,
    store: &ColumnStore,
    columns: &[(usize, usize)],
    unary: &[Vec<(usize, u64)>],
    config: &DiscoveryConfig,
    threads: usize,
    mut backend: NaryBackend,
    stats: &mut DiscoveryStats,
    scored: &mut Vec<ScoredDependency>,
) -> io::Result<Vec<Ind>> {
    let mut out = Vec::new();
    let mut emit = |cand: &IndCand, misses: u64| {
        if cand.is_trivial() {
            return;
        }
        let ind = to_ind(schema, columns, cand);
        if config.max_error > 0.0 {
            scored.push(ScoredDependency {
                dep: ind.clone().into(),
                misses,
                support: store.relation(cand.lrel).row_count() as u64,
            });
        }
        out.push(ind);
    };
    // Level 1, plus the per-relation-pair extension table.
    let mut level: Vec<IndCand> = Vec::new();
    let mut by_pair: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for (c, supersets) in unary.iter().enumerate() {
        for &(d, misses) in supersets {
            let cand = IndCand {
                lrel: columns[c].0,
                rrel: columns[d].0,
                lhs: vec![c],
                rhs: vec![d],
            };
            emit(&cand, misses);
            by_pair
                .entry((cand.lrel, cand.rrel))
                .or_default()
                .push((c, d));
            level.push(cand);
        }
    }
    // Higher levels: extend with a unary IND over the same relation pair.
    for arity in 2..=config.max_ind_arity {
        let cands = extend_level(&level, &by_pair);
        if cands.is_empty() {
            break;
        }
        let limits: Vec<u64> = cands
            .iter()
            .map(|cand| miss_limit(config.max_error, store.relation(cand.lrel).row_count()))
            .collect();
        // Level 2's projections are admitted unary INDs by construction.
        let misses = count_level(
            store,
            columns,
            &cands,
            &limits,
            (arity > 2).then_some(level.as_slice()),
            &mut backend,
            threads,
        )?;
        let mut next = Vec::new();
        for ((cand, misses), limit) in cands.into_iter().zip(misses).zip(limits) {
            if !cand.is_trivial() {
                stats.ind_candidates += 1;
            }
            if misses <= limit {
                emit(&cand, misses);
                next.push(cand);
            }
        }
        if next.is_empty() {
            break;
        }
        level = next;
    }
    Ok(out)
}

/// The next level's candidates: each admitted IND of `level` extended by
/// an admitted unary IND `(a, b)` over the same relation pair (`by_pair`),
/// in base order. Canonical order keeps the left side ascending (and
/// thereby distinct); the right side must stay distinct too.
fn extend_level(
    level: &[IndCand],
    by_pair: &HashMap<(usize, usize), Vec<(usize, usize)>>,
) -> Vec<IndCand> {
    let mut cands = Vec::new();
    for base in level {
        let Some(extensions) = by_pair.get(&(base.lrel, base.rrel)) else {
            continue;
        };
        for &(a, b) in extensions {
            if a <= *base.lhs.last().expect("bases are nonempty") || base.rhs.contains(&b) {
                continue;
            }
            cands.push(IndCand {
                lrel: base.lrel,
                rrel: base.rrel,
                lhs: base.lhs.iter().copied().chain([a]).collect(),
                rhs: base.rhs.iter().copied().chain([b]).collect(),
            });
        }
    }
    cands
}

/// One level's miss counts, in candidate order: `0` for trivial
/// candidates (they hold by IND1), `L + 1` for those [`prerefute`]
/// refutes, and the backend's bounded count for the rest. Only those
/// survivors reach the backend: the local validator builds key sets for
/// their right sides alone, budgeted passes and executor batches carry
/// only them, and with none left the backend is not called.
#[allow(clippy::too_many_arguments)]
fn count_level(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    cands: &[IndCand],
    limits: &[u64],
    prev: Option<&[IndCand]>,
    backend: &mut NaryBackend,
    threads: usize,
) -> io::Result<Vec<u64>> {
    let refuted = prerefute(store, columns, cands, limits, prev, threads);
    let mut misses: Vec<u64> = limits
        .iter()
        .zip(&refuted)
        .map(|(&limit, &refuted)| if refuted { limit + 1 } else { 0 })
        .collect();
    let survivors: Vec<usize> = (0..cands.len())
        .filter(|&i| !cands[i].is_trivial() && !refuted[i])
        .collect();
    if survivors.is_empty() {
        return Ok(misses);
    }
    let batch: Vec<IndCand> = survivors.iter().map(|&i| cands[i].clone()).collect();
    let batch_limits: Vec<u64> = survivors.iter().map(|&i| limits[i]).collect();
    let counts = match backend {
        NaryBackend::Local(plan) => {
            count_misses_in_passes(store, columns, &batch, &batch_limits, *plan, threads)
        }
        NaryBackend::Executor(exec) => {
            let counts = exec.count_misses(&batch, &batch_limits)?;
            if counts.len() != batch.len() {
                return Err(io::Error::other(format!(
                    "shard executor returned {} miss counts for {} candidates",
                    counts.len(),
                    batch.len()
                )));
            }
            counts
        }
    };
    for (&i, m) in survivors.iter().zip(counts) {
        misses[i] = m;
    }
    Ok(misses)
}

/// Left rows a probe reads per candidate ([`prerefute`]). A candidate whose
/// limit tolerates this many misses cannot be refuted by its probe and is
/// not probed.
const PROBES: usize = 8;

/// The refuted mask of one level, decided ahead of any backend and without
/// a right-side key set. Trivial candidates are never refuted.
///
/// 1. **IND2 pre-refutation** (given `prev`, level `k − 1`'s admitted
///    candidates, trivial bases included): a candidate with a
///    `(k − 1)`-projection outside `prev` is refuted without a scan. A
///    projection has the candidate's left relation, hence its limit `L`,
///    and misses only where the candidate misses, so
///    `misses(projection) ≤ misses(candidate)`; and a projection within
///    `L` is generated and admitted one level down. This holds at any
///    tolerance.
/// 2. **Probe, then build** (the rest, when `L + 1 ≤ PROBES`): per right
///    side, the first [`PROBES`] left rows of every member go into one
///    small [`KeySet`], and their lead-column value ids into a bit filter.
///    One scan of the right relation removes the keys it holds, skipping
///    rows whose lead value is unmarked and stopping once no key is left.
///    A member with more than `L` probe rows still unmatched misses more
///    than `L` rows in full.
///
/// A refuted candidate counts `L + 1` however it is refuted, and admitted
/// counts still come from the full scan, so the mask changes what is
/// scanned and built, never what is mined.
fn prerefute(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    cands: &[IndCand],
    limits: &[u64],
    prev: Option<&[IndCand]>,
    threads: usize,
) -> Vec<bool> {
    let mut refuted = vec![false; cands.len()];
    if let Some(prev) = prev {
        let admitted: FastSet<Vec<usize>> = prev.iter().map(IndCand::key).collect();
        let mut key = Vec::new();
        for (i, cand) in cands.iter().enumerate() {
            let k = cand.lhs.len();
            refuted[i] = !cand.is_trivial()
                && (0..k).any(|j| {
                    key.clear();
                    key.extend(
                        cand.lhs
                            .iter()
                            .chain(&cand.rhs)
                            .enumerate()
                            .filter_map(|(p, &c)| (p % k != j).then_some(c)),
                    );
                    !admitted.contains(key.as_slice())
                });
        }
    }
    let groups: Vec<(Vec<usize>, Vec<usize>)> = group_by_rhs(cands)
        .into_iter()
        .filter_map(|(rhs, mut members)| {
            members.retain(|&i| !refuted[i] && limits[i] < PROBES as u64);
            (!members.is_empty()).then_some((rhs, members))
        })
        .collect();
    let words = store.distinct_values().div_ceil(64);
    let probed = pool::map_indexed_with(
        threads,
        groups.len(),
        || vec![0u64; words],
        |lead, g| probe_misses(store, columns, cands, &groups[g].0, &groups[g].1, lead),
    );
    for ((_, members), misses) in groups.iter().zip(probed) {
        for (&i, m) in members.iter().zip(misses) {
            refuted[i] = m > limits[i];
        }
    }
    refuted
}

/// Probe misses of the members of one right side: of each member's first
/// [`PROBES`] left rows, how many have a projection no right row holds.
/// `lead` is the bit filter over value ids, zero on entry and on return.
fn probe_misses(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    cands: &[IndCand],
    rhs: &[usize],
    members: &[usize],
    lead: &mut [u64],
) -> Vec<u64> {
    let mut pending = KeySet::with_arity(rhs.len());
    for &i in members {
        for_probe_keys(store, columns, &cands[i], |key| {
            pending.insert(key);
            lead[key[0] as usize / 64] |= 1 << (key[0] % 64);
        });
    }
    let (rel, cursor) = side_cursor(store, columns, rhs);
    let first = rel.column(columns[rhs[0]].1);
    let mut buf = Vec::with_capacity(rhs.len());
    for (r, &v) in first.iter().enumerate() {
        if pending.is_empty() {
            break;
        }
        if lead[v as usize / 64] & (1 << (v % 64)) != 0 {
            cursor.fill(r, &mut buf);
            pending.remove(&buf);
        }
    }
    members
        .iter()
        .map(|&i| {
            let mut misses = 0;
            for_probe_keys(store, columns, &cands[i], |key| {
                lead[key[0] as usize / 64] = 0;
                misses += u64::from(pending.contains(key));
            });
            misses
        })
        .collect()
}

/// Call `f` with the left projection of each of the candidate's first
/// [`PROBES`] rows.
fn for_probe_keys(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    cand: &IndCand,
    mut f: impl FnMut(&[u32]),
) {
    let (rel, cursor) = side_cursor(store, columns, &cand.lhs);
    let mut buf = Vec::with_capacity(cand.lhs.len());
    for r in 0..rel.row_count().min(PROBES) {
        cursor.fill(r, &mut buf);
        f(&buf);
    }
}

/// The relation one side of a candidate (global column ids, all in one
/// relation) lives in, and a cursor over those columns.
fn side_cursor<'a>(
    store: &'a ColumnStore,
    columns: &[(usize, usize)],
    side: &[usize],
) -> (&'a RelationColumns, ColumnCursor<'a>) {
    let rel = store.relation(columns[side[0]].0);
    let cols: Vec<usize> = side.iter().map(|&c| columns[c].1).collect();
    (rel, ColumnCursor::new(rel, &cols))
}

/// The right-side projections of one global-column set whose
/// [`key_shard`] is `pass` of `passes`, as a word-packed [`KeySet`]: all
/// of them when `passes == 1`.
fn build_rhs_keys(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    rhs: &[usize],
    pass: usize,
    passes: usize,
) -> KeySet {
    let (rel, cursor) = side_cursor(store, columns, rhs);
    let mut set = KeySet::with_arity(rhs.len());
    let mut buf = Vec::with_capacity(rhs.len());
    for r in 0..rel.row_count() {
        cursor.fill(r, &mut buf);
        if passes == 1 || key_shard(&buf, passes) == pass {
            set.insert(&buf);
        }
    }
    set
}

/// Count a candidate's misses on key shard `pass` of `passes` — left rows
/// whose projection falls in the shard and is absent from its key set —
/// stopping at `limit + 1`, the first count that refutes it; at
/// `limit = 0` that is the first miss. With `passes == 1` every row is in
/// the shard; summed over all passes the counts are that unsharded count,
/// because [`key_shard`] assigns every key to exactly one pass. A pure
/// column-gather scan: the reused `buf` is the only storage touched per
/// row.
#[allow(clippy::too_many_arguments)]
fn ind_misses(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    cand: &IndCand,
    keys: &KeySet,
    pass: usize,
    passes: usize,
    limit: u64,
    buf: &mut Vec<u32>,
) -> u64 {
    let (rel, cursor) = side_cursor(store, columns, &cand.lhs);
    let mut misses = 0u64;
    for r in 0..rel.row_count() {
        cursor.fill(r, buf);
        if (passes == 1 || key_shard(buf, passes) == pass) && !keys.contains(buf) {
            misses += 1;
            if misses > limit {
                break;
            }
        }
    }
    misses
}

/// Bytes a [`KeySet`] of `rows` keys at the given arity occupies, by the
/// set's own packing rules (`u64` entries up to arity 2, `u128` for 3–4,
/// boxed slices beyond) plus a fixed per-entry table overhead.
/// Deliberately a function of the data shape alone, so the sharded pass
/// count is deterministic.
fn keyset_bytes_estimate(rows: usize, arity: usize) -> usize {
    let per_key = match arity {
        0..=2 => 16,
        3..=4 => 24,
        a => 24 + 4 * a,
    };
    rows * per_key
}

/// Deterministic shard of a projection key: FNV-1a over the id words.
/// The right-side build and the left-side probe must agree on this, and
/// it must depend on nothing but the key itself — then pass `p` validates
/// exactly the keys the unsharded validator would have looked up in shard
/// `p`, and the sharded verdict equals the unsharded one.
fn key_shard(key: &[u32], passes: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in key {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % passes as u64) as usize
}

/// Nontrivial candidate indices grouped by right side, in first-seen
/// order, so each right-side key set (or key shard) is built once.
fn group_by_rhs(cands: &[IndCand]) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    let mut by_rhs: FastMap<Vec<usize>, usize> = FastMap::default();
    for (i, cand) in cands.iter().enumerate() {
        if cand.is_trivial() {
            continue;
        }
        match by_rhs.get(cand.rhs.as_slice()) {
            Some(&g) => groups[g].1.push(i),
            None => {
                by_rhs.insert(cand.rhs.clone(), groups.len());
                groups.push((cand.rhs.clone(), vec![i]));
            }
        }
    }
    groups
}

/// Local miss counting: group candidates by right side, and count each
/// group in `passes` hash-partitioned passes — build the shard-`p` subset
/// of the right keys, then count every still-admitted member's misses
/// among its left rows on shard `p` (parallel over candidates, merged in
/// candidate order), each scan stopping once the candidate's running total
/// exceeds its limit. Unbounded (`plan` is `None`) there is one pass over
/// the full [`KeySet`]; under a plan, a right side whose key set would
/// exceed its budget share runs `passes = est / share` of them. A refuted
/// candidate skips the remaining passes; every projection key lands in
/// exactly one pass, so an admitted candidate's total is its unsharded
/// count, and the pass count changes only peak memory.
fn count_misses_in_passes(
    store: &ColumnStore,
    columns: &[(usize, usize)],
    cands: &[IndCand],
    limits: &[u64],
    plan: Option<&BudgetPlan>,
    threads: usize,
) -> Vec<u64> {
    // Trivial candidates hold by IND1 and count zero, unscanned.
    let mut misses = vec![0u64; cands.len()];
    for (rhs, members) in group_by_rhs(cands) {
        let passes = plan.map_or(1, |plan| {
            let rows = store.relation(columns[rhs[0]].0).row_count();
            keyset_bytes_estimate(rows, rhs.len())
                .div_ceil(plan.keyset_share)
                .clamp(1, MAX_PASSES)
        });
        for pass in 0..passes {
            let alive: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| misses[i] <= limits[i])
                .collect();
            if alive.is_empty() {
                break;
            }
            let shard = build_rhs_keys(store, columns, &rhs, pass, passes);
            let counts = pool::map_subset_with(threads, &alive, Vec::new, |buf, i| {
                let left = limits[i] - misses[i];
                ind_misses(store, columns, &cands[i], &shard, pass, passes, left, buf)
            });
            for (&i, m) in alive.iter().zip(counts) {
                misses[i] += m;
            }
        }
    }
    misses
}

/// Resolve a candidate's global column ids back to a string-typed [`Ind`].
fn to_ind(schema: &DatabaseSchema, columns: &[(usize, usize)], cand: &IndCand) -> Ind {
    let lhs_scheme = &schema.schemes()[cand.lrel];
    let rhs_scheme = &schema.schemes()[cand.rrel];
    let lcols: Vec<usize> = cand.lhs.iter().map(|&c| columns[c].1).collect();
    let rcols: Vec<usize> = cand.rhs.iter().map(|&c| columns[c].1).collect();
    Ind::new(
        lhs_scheme.name().clone(),
        lhs_scheme.attrs().select(&lcols).expect("distinct columns"),
        rhs_scheme.name().clone(),
        rhs_scheme.attrs().select(&rcols).expect("distinct columns"),
    )
    .expect("equal arities by construction")
}

// ---------------------------------------------------------------------------
// FD discovery (level-wise partition refinement over columns)
// ---------------------------------------------------------------------------

/// A stripped partition: the equivalence classes of `π_X` over row indices,
/// with singleton classes dropped (they can never witness a violation).
type Partition = Vec<Vec<u32>>;

/// What one lattice node contributes: how many `(X, A)` pairs it checked,
/// which right-hand columns `X` determines within the limit — each with its
/// g3 error, always `0` in exact mode — and its refined children.
#[derive(Default)]
struct NodeResult {
    checked: usize,
    determined_cols: Vec<(usize, u64)>,
    children: Vec<(Vec<usize>, Partition)>,
}

/// Check one lattice node against the `found` set frozen at the level
/// boundary: which right-hand columns `X` determines, and which child
/// left sides extend it. With `carry` set, children materialize their
/// refined partitions (the in-memory mode); without it, children carry
/// the left side only and the next level recomputes partitions via
/// [`recompute_partition`] (the memory-budgeted mode).
///
/// A column counts as determined when its [`Refiner::g3_error`] fits
/// `g3_limit`, the relation's [`miss_limit`]. The count runs in the
/// refiner's dense tables and stops once the error must exceed the limit,
/// so a rejected column costs only the rows that decide it; at limit `0`
/// it is [`Refiner::determines`]' first-disagreement exit. The error of a
/// determined column is exact, and a rejected column's error is never
/// used. g3 is monotone non-increasing as `X` grows, so both minimality
/// pruning (a subset within the limit makes every superset within it,
/// hence non-minimal) and the superkey prune (an empty stripped partition
/// has g3 = 0 everywhere) remain valid at any limit.
#[allow(clippy::too_many_arguments)]
fn check_fd_node(
    rel: &RelationColumns,
    arity: usize,
    found: &[(Vec<usize>, usize)],
    lhs: &[usize],
    partition: &Partition,
    refiner: &mut Refiner,
    last_level: bool,
    carry: bool,
    g3_limit: u64,
) -> NodeResult {
    let determined = |c: usize| {
        found
            .iter()
            .any(|(y, a)| *a == c && y.iter().all(|x| lhs.contains(x)))
    };
    // Right-hand candidates: columns outside `X` not already determined
    // by a found subset (those FDs would not be minimal).
    let rhs: Vec<usize> = (0..arity)
        .filter(|&c| !lhs.contains(&c) && !determined(c))
        .collect();
    if rhs.is_empty() {
        // Everything outside X is determined by subsets of X: no superset
        // of X can carry a minimal FD.
        return NodeResult::default();
    }
    let mut node = NodeResult {
        checked: rhs.len(),
        ..NodeResult::default()
    };
    for &c in &rhs {
        let err = refiner.g3_error(partition, rel.column(c), g3_limit);
        if err <= g3_limit {
            node.determined_cols.push((c, err));
        }
    }
    // Superkey prune: with no class of size ≥ 2 left, X determines
    // everything, so no superset FD is minimal.
    if partition.is_empty() || last_level {
        return node;
    }
    let start = lhs.last().map_or(0, |&l| l + 1);
    for c in start..arity {
        // A column determined by a subset of X (or by X itself, just
        // established) can never sit in a minimal left side extending X.
        if node.determined_cols.iter().any(|&(d, _)| d == c) || determined(c) {
            continue;
        }
        let mut extended = lhs.to_vec();
        extended.push(c);
        let child = if carry {
            refiner.refine_stripped(partition, rel.column(c))
        } else {
            Vec::new()
        };
        node.children.push((extended, child));
    }
    node
}

/// Recompute `π_X` from the root by refining one column at a time in
/// ascending order — exactly the order the carried-partition mode refines
/// in (children always extend with a larger column index), so the result
/// is identical to the partition that would have been carried.
fn recompute_partition(
    refiner: &mut Refiner,
    rel: &RelationColumns,
    root: &Partition,
    lhs: &[usize],
) -> Partition {
    let mut part: Option<Partition> = None;
    for &c in lhs {
        part = Some(refiner.refine_stripped(part.as_ref().unwrap_or(root), rel.column(c)));
    }
    part.unwrap_or_else(|| root.clone())
}

/// Deterministic wave of one lattice node under the memory budget:
/// FNV-1a over its left-side column indices.
fn lhs_shard(lhs: &[usize], waves: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in lhs {
        h ^= c as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % waves as u64) as usize
}

/// Mine the minimal satisfied FDs of every relation.
///
/// Lattice nodes of one level are processed in parallel against the
/// `found` set *frozen at the level boundary*. That is exactly equivalent
/// to the sequential sweep: a minimal-FD left side found at this level has
/// the same size as every other node's `X`, so it can only be a subset of
/// `X` by being `X` itself — other nodes' same-level finds can never
/// influence a node's pruning, and each node sees its own finds locally.
///
/// Under a memory budget, a relation whose carried partitions would
/// exceed the FD share switches to **external mode**: level entries carry
/// left sides only, each node recomputes its partition from the root
/// ([`recompute_partition`] — trading refinement passes for memory), and
/// the level is processed in [`lhs_shard`]-assigned waves so at most one
/// wave's worth of transient partitions is in flight. Results are
/// scattered back by node index and merged in the same order as the
/// in-memory sweep — the frozen-`found` argument above covers waves just
/// as it covers threads, so the output is byte-identical.
fn mine_fds(
    schema: &DatabaseSchema,
    store: &ColumnStore,
    config: &DiscoveryConfig,
    threads: usize,
    plan: Option<&BudgetPlan>,
    stats: &mut DiscoveryStats,
    scored: &mut Vec<ScoredDependency>,
) -> Vec<Fd> {
    let mut out = Vec::new();
    let nvals = store.distinct_values();
    for (ri, scheme) in schema.schemes().iter().enumerate() {
        let rel = store.relation(ri);
        let arity = scheme.arity();
        let rows = rel.row_count();
        // A column is determined when its g3 error fits the relation's
        // limit; on tolerant runs each find is scored below.
        let g3_limit = miss_limit(config.max_error, rows);
        // External when even one partition per attribute would overrun
        // the share — a deterministic function of the data shape.
        let external = plan.is_some_and(|p| 4 * rows * arity > p.fd_share);
        // Minimal FDs found so far, as (lhs columns sorted, rhs column).
        let mut found: Vec<(Vec<usize>, usize)> = Vec::new();
        // Level 0: the empty left side; its partition is one class of all
        // rows (stripped, so empty when the relation has ≤ 1 row — every
        // column is then vacuously constant).
        let root: Partition = if rows >= 2 {
            vec![(0..rows as u32).collect()]
        } else {
            Vec::new()
        };
        let mut level: Vec<(Vec<usize>, Partition)> = vec![(Vec::new(), root.clone())];
        for size in 0..=config.max_fd_lhs {
            let node = |refiner: &mut Refiner, i: usize| {
                let (lhs, carried) = &level[i];
                let recomputed;
                let partition = if external && size > 0 {
                    recomputed = recompute_partition(refiner, rel, &root, lhs);
                    &recomputed
                } else {
                    carried
                };
                check_fd_node(
                    rel,
                    arity,
                    &found,
                    lhs,
                    partition,
                    refiner,
                    size == config.max_fd_lhs,
                    !external,
                    g3_limit,
                )
            };
            let results: Vec<NodeResult> = if !external {
                pool::map_indexed_with(threads, level.len(), || Refiner::new(nvals), node)
            } else {
                let fd_share = plan.expect("external implies a plan").fd_share;
                let waves = (level.len().saturating_mul(4 * rows))
                    .div_ceil(fd_share)
                    .clamp(1, level.len().max(1));
                let mut slots: Vec<Option<NodeResult>> = (0..level.len()).map(|_| None).collect();
                for w in 0..waves {
                    let members: Vec<usize> = (0..level.len())
                        .filter(|&i| lhs_shard(&level[i].0, waves) == w)
                        .collect();
                    let wave =
                        pool::map_subset_with(threads, &members, || Refiner::new(nvals), node);
                    for (&i, res) in members.iter().zip(wave) {
                        slots[i] = Some(res);
                    }
                }
                slots
                    .into_iter()
                    .map(|s| s.expect("every node lands in exactly one wave"))
                    .collect()
            };
            // Merge in node order: output and `found` growth are identical
            // to the sequential sweep, independent of the thread count.
            let mut next: Vec<(Vec<usize>, Partition)> = Vec::new();
            for (i, node) in results.into_iter().enumerate() {
                let lhs = &level[i].0;
                stats.fd_candidates += node.checked;
                for (c, err) in node.determined_cols {
                    found.push((lhs.clone(), c));
                    let fd = Fd::new(
                        scheme.name().clone(),
                        scheme.attrs().select(lhs).expect("distinct columns"),
                        scheme.attrs().select(&[c]).expect("single column"),
                    );
                    if config.max_error > 0.0 {
                        scored.push(ScoredDependency {
                            dep: fd.clone().into(),
                            misses: err,
                            support: rows as u64,
                        });
                    }
                    out.push(fd);
                }
                next.extend(node.children);
            }
            if next.is_empty() {
                break;
            }
            level = next;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Row-at-a-time reference engine (the executable specification)
// ---------------------------------------------------------------------------

/// Mine `db` with the pre-columnar row-at-a-time engine over
/// [`CompiledRows`]: HashMap-based partition refinement, per-row
/// projection allocation, no parallelism.
///
/// Kept as the executable specification of the discovery semantics — the
/// columnar [`discover_with_config`] must produce an identical
/// [`Discovery`] (raw set, cover, and stats) for every database and
/// thread count; `tests/columnar_vs_rows.rs` property-checks exactly
/// that. Use the columnar entry points for anything performance-minded.
pub fn discover_reference(db: &Database, config: &DiscoveryConfig) -> Discovery {
    let schema = db.schema();
    let data = CompiledRows::new(db);
    let columns = column_table(schema);
    let mut stats = DiscoveryStats {
        rows: data.total_rows(),
        columns: columns.len(),
        distinct_values: data.distinct_values(),
        ..DiscoveryStats::default()
    };

    let mut raw: Vec<Dependency> = Vec::new();
    let unary = spider_unary_rows(&data, &columns);
    for ind in mine_inds_rows(schema, &data, &columns, &unary, config, &mut stats) {
        raw.push(ind.into());
    }
    stats.raw_inds = raw.len();
    for fd in mine_fds_rows(schema, &data, config, &mut stats) {
        raw.push(fd.into());
    }
    stats.raw_fds = raw.len() - stats.raw_inds;
    raw.sort();
    raw.dedup();

    let cover = minimize_cover(&raw, config);
    stats.pruned = raw.len() - cover.len();
    // The reference engine is exact-only: it specifies the zero-tolerance
    // semantics, and `columnar_vs_rows` compares it against exact runs.
    Discovery {
        raw,
        cover,
        scored: Vec::new(),
        stats,
        spill: SpillStats::default(),
    }
}

/// Row-based SPIDER: `occurs[v]` built by scanning every row of every
/// column (not the distinct runs), then the same refinement.
fn spider_unary_rows(data: &CompiledRows, columns: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let ncols = columns.len();
    let blocks = ncols.div_ceil(64);
    let nvals = data.distinct_values();
    let mut occurs = vec![0u64; nvals * blocks];
    for (c, &(rel, col)) in columns.iter().enumerate() {
        for row in data.rows(rel) {
            occurs[row[col] as usize * blocks + c / 64] |= 1 << (c % 64);
        }
    }
    let mut cand: Vec<Vec<u64>> = vec![vec![!0u64; blocks]; ncols];
    for v in 0..nvals {
        let set = &occurs[v * blocks..(v + 1) * blocks];
        for (b, &word) in set.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let c = b * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                for (dst, &src) in cand[c].iter_mut().zip(set) {
                    *dst &= src;
                }
            }
        }
    }
    cand.iter()
        .map(|bits| {
            (0..ncols)
                .filter(|d| bits[d / 64] & (1 << (d % 64)) != 0)
                .collect()
        })
        .collect()
}

/// Row-based n-ary IND mining: sequential composition with validation
/// against hashed sets of right-side projections.
fn mine_inds_rows(
    schema: &DatabaseSchema,
    data: &CompiledRows,
    columns: &[(usize, usize)],
    unary: &[Vec<usize>],
    config: &DiscoveryConfig,
    stats: &mut DiscoveryStats,
) -> Vec<Ind> {
    let mut out = Vec::new();
    let mut level: Vec<IndCand> = Vec::new();
    let mut by_pair: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for (c, supersets) in unary.iter().enumerate() {
        for &d in supersets {
            let cand = IndCand {
                lrel: columns[c].0,
                rrel: columns[d].0,
                lhs: vec![c],
                rhs: vec![d],
            };
            if !cand.is_trivial() {
                out.push(to_ind(schema, columns, &cand));
            }
            by_pair
                .entry((cand.lrel, cand.rrel))
                .or_default()
                .push((c, d));
            level.push(cand);
        }
    }
    let mut rhs_cache: HashMap<Vec<usize>, FastSet<Vec<u32>>> = HashMap::new();
    for _arity in 2..=config.max_ind_arity {
        let mut next = Vec::new();
        for base in &level {
            let Some(extensions) = by_pair.get(&(base.lrel, base.rrel)) else {
                continue;
            };
            for &(a, b) in extensions {
                if a <= *base.lhs.last().expect("bases are nonempty") || base.rhs.contains(&b) {
                    continue;
                }
                let cand = IndCand {
                    lrel: base.lrel,
                    rrel: base.rrel,
                    lhs: base.lhs.iter().copied().chain([a]).collect(),
                    rhs: base.rhs.iter().copied().chain([b]).collect(),
                };
                let ok = if cand.is_trivial() {
                    true
                } else {
                    stats.ind_candidates += 1;
                    ind_holds_rows(data, columns, &cand, &mut rhs_cache)
                };
                if ok {
                    if !cand.is_trivial() {
                        out.push(to_ind(schema, columns, &cand));
                    }
                    next.push(cand);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        level = next;
    }
    out
}

/// Row-based candidate validation against the set of right projections,
/// cached per right column set. The cache is keyed by the candidate's
/// global right-side column ids and probed borrow-keyed (a two-step
/// get-or-insert), so a cache hit clones nothing.
fn ind_holds_rows(
    data: &CompiledRows,
    columns: &[(usize, usize)],
    cand: &IndCand,
    rhs_cache: &mut HashMap<Vec<usize>, FastSet<Vec<u32>>>,
) -> bool {
    if !rhs_cache.contains_key(cand.rhs.as_slice()) {
        let rrel = columns[cand.rhs[0]].0;
        let rcols: Vec<usize> = cand.rhs.iter().map(|&c| columns[c].1).collect();
        let covered = data
            .rows(rrel)
            .iter()
            .map(|row| rcols.iter().map(|&c| row[c]).collect())
            .collect();
        rhs_cache.insert(cand.rhs.clone(), covered);
    }
    let covered = &rhs_cache[cand.rhs.as_slice()];
    let lcols: Vec<usize> = cand.lhs.iter().map(|&c| columns[c].1).collect();
    data.rows(cand.lrel).iter().all(|row| {
        let key: Vec<u32> = lcols.iter().map(|&c| row[c]).collect();
        covered.contains(&key)
    })
}

/// Row-based stripped-partition refinement by one column's values.
fn refine_rows(partition: &Partition, rows: &[Vec<u32>], col: usize) -> Partition {
    let mut out = Vec::new();
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    for class in partition {
        for &r in class {
            groups.entry(rows[r as usize][col]).or_default().push(r);
        }
        for (_, group) in groups.drain() {
            if group.len() >= 2 {
                out.push(group);
            }
        }
    }
    out
}

/// Whether every class of `π_X` agrees on `col` — i.e. `X → col` holds.
fn determines_rows(partition: &Partition, rows: &[Vec<u32>], col: usize) -> bool {
    partition.iter().all(|class| {
        let v = rows[class[0] as usize][col];
        class.iter().all(|&r| rows[r as usize][col] == v)
    })
}

/// Row-based level-wise FD mining (sequential TANE sweep).
fn mine_fds_rows(
    schema: &DatabaseSchema,
    data: &CompiledRows,
    config: &DiscoveryConfig,
    stats: &mut DiscoveryStats,
) -> Vec<Fd> {
    let mut out = Vec::new();
    for (ri, scheme) in schema.schemes().iter().enumerate() {
        let rows = data.rows(ri);
        let arity = scheme.arity();
        let mut found: Vec<(Vec<usize>, usize)> = Vec::new();
        let determined = |found: &[(Vec<usize>, usize)], lhs: &[usize], c: usize| {
            found
                .iter()
                .any(|(y, a)| *a == c && y.iter().all(|x| lhs.contains(x)))
        };
        let root: Partition = if rows.len() >= 2 {
            vec![(0..rows.len() as u32).collect()]
        } else {
            Vec::new()
        };
        let mut level: Vec<(Vec<usize>, Partition)> = vec![(Vec::new(), root)];
        for size in 0..=config.max_fd_lhs {
            let mut next: Vec<(Vec<usize>, Partition)> = Vec::new();
            for (lhs, partition) in &level {
                let rhs: Vec<usize> = (0..arity)
                    .filter(|c| !lhs.contains(c) && !determined(&found, lhs, *c))
                    .collect();
                if rhs.is_empty() {
                    continue;
                }
                for &c in &rhs {
                    stats.fd_candidates += 1;
                    if determines_rows(partition, rows, c) {
                        found.push((lhs.clone(), c));
                        out.push(Fd::new(
                            scheme.name().clone(),
                            scheme.attrs().select(lhs).expect("distinct columns"),
                            scheme.attrs().select(&[c]).expect("single column"),
                        ));
                    }
                }
                if partition.is_empty() || size == config.max_fd_lhs {
                    continue;
                }
                let start = lhs.last().map_or(0, |&l| l + 1);
                for c in start..arity {
                    if determined(&found, lhs, c) {
                        continue;
                    }
                    let mut extended = lhs.clone();
                    extended.push(c);
                    next.push((extended, refine_rows(partition, rows, c)));
                }
            }
            if next.is_empty() {
                break;
            }
            level = next;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::generate::{random_database, random_schema, Rng, SchemaConfig};

    fn dep(src: &str) -> Dependency {
        src.parse().expect("test dependency parses")
    }

    fn db(schemes: &[&str], rows: &[(&str, &[i64])]) -> Database {
        let schema = DatabaseSchema::parse(schemes).unwrap();
        let mut db = Database::empty(schema);
        for (rel, row) in rows {
            db.insert_ints(rel, &[row]).unwrap();
        }
        db
    }

    #[test]
    fn spider_finds_all_unary_inds() {
        // R.A = {1,2} ⊆ S.B = {1,2,3}; nothing else is included.
        let db = db(
            &["R(A)", "S(B)"],
            &[
                ("R", &[1]),
                ("R", &[2]),
                ("S", &[1]),
                ("S", &[2]),
                ("S", &[3]),
            ],
        );
        let found = discover(&db);
        assert!(found.raw.contains(&dep("R[A] <= S[B]")));
        assert!(!found.raw.contains(&dep("S[B] <= R[A]")));
    }

    #[test]
    fn empty_columns_are_included_everywhere() {
        // R is empty, so R[A] ⊆ S[B] holds vacuously (matching
        // `core::satisfy`), but S[B] ⊆ R[A] does not.
        let db = db(&["R(A)", "S(B)"], &[("S", &[7])]);
        let found = discover(&db);
        assert!(found.raw.contains(&dep("R[A] <= S[B]")));
        assert!(!found.raw.contains(&dep("S[B] <= R[A]")));
    }

    #[test]
    fn nary_inds_compose_from_unary_ones() {
        // The pairs of R are a subset of the pairs of S, including a base
        // whose first position is a *trivial* unary IND within R = S case.
        let db = db(
            &["R(A, B)", "S(A, B)"],
            &[("R", &[1, 10]), ("S", &[1, 10]), ("S", &[2, 20])],
        );
        let found = discover(&db);
        assert!(found.raw.contains(&dep("R[A, B] <= S[A, B]")));
        // The binary IND subsumes its unary projections in the cover.
        assert!(implied_by(&found.cover, &dep("R[A] <= S[A]")));
        assert!(!found.raw.contains(&dep("S[A, B] <= R[A, B]")));
    }

    #[test]
    fn trivial_bases_compose_within_one_relation() {
        // R[A] ⊆ R[A] is trivial, but extending it yields the nontrivial
        // R[A, B] ⊆ R[A, C] — the composition must keep trivial bases.
        let db = db(
            &["R(A, B, C)"],
            &[("R", &[1, 5, 5]), ("R", &[2, 6, 6]), ("R", &[3, 7, 7])],
        );
        let found = discover(&db);
        assert!(found.raw.contains(&dep("R[A, B] <= R[A, C]")));
    }

    #[test]
    fn fd_mining_finds_minimal_fds_only() {
        // A is a key; B → C also holds; C → B does not.
        let db = db(
            &["R(A, B, C)"],
            &[
                ("R", &[1, 10, 100]),
                ("R", &[2, 10, 100]),
                ("R", &[3, 20, 100]),
                ("R", &[4, 30, 300]),
            ],
        );
        let found = discover(&db);
        assert!(found.raw.contains(&dep("R: A -> B")));
        assert!(found.raw.contains(&dep("R: B -> C")));
        assert!(!found.raw.contains(&dep("R: C -> B")));
        // A → C holds but is pruned from the cover (A → B, B → C imply it).
        assert!(found.raw.contains(&dep("R: A -> C")));
        assert!(!found.cover.contains(&dep("R: A -> C")));
        // Non-minimal left sides are never materialized.
        assert!(!found.raw.contains(&dep("R: A, B -> C")));
    }

    #[test]
    fn constant_columns_yield_empty_lhs_fds() {
        let db = db(&["R(A, B)"], &[("R", &[1, 9]), ("R", &[2, 9])]);
        let found = discover(&db);
        assert!(found.raw.contains(&dep("R: -> B")));
        // B constant means A → B is not minimal.
        assert!(!found.raw.contains(&dep("R: A -> B")));
    }

    #[test]
    fn cover_is_minimal_and_complete_on_random_databases() {
        let mut rng = Rng::new(0x5EED);
        for _ in 0..10 {
            let schema = random_schema(
                &mut rng,
                &SchemaConfig {
                    relations: 2,
                    min_arity: 2,
                    max_arity: 3,
                },
            );
            let db = random_database(&mut rng, &schema, 6, 3);
            let found = discover(&db);
            for d in &found.cover {
                assert!(found.raw.contains(d), "cover must be a subset of raw");
            }
            for d in &found.raw {
                assert!(implied_by(&found.cover, d), "cover must imply raw: {d}");
            }
            for i in 0..found.cover.len() {
                let mut rest = found.cover.clone();
                rest.remove(i);
                let still_complete = found.raw.iter().all(|d| implied_by(&rest, d));
                assert!(
                    !still_complete,
                    "cover member {} is redundant",
                    found.cover[i]
                );
            }
        }
    }

    #[test]
    fn columnar_engine_matches_the_reference_engine() {
        let mut rng = Rng::new(0xC01);
        for round in 0..8 {
            let schema = random_schema(
                &mut rng,
                &SchemaConfig {
                    relations: 2,
                    min_arity: 1,
                    max_arity: 3,
                },
            );
            let db = random_database(&mut rng, &schema, 8, 3);
            let config = DiscoveryConfig::default();
            let columnar = discover_with_config(&db, &config);
            let reference = discover_reference(&db, &config);
            assert_eq!(columnar.raw, reference.raw, "raw mismatch in round {round}");
            assert_eq!(
                columnar.cover, reference.cover,
                "cover mismatch in round {round}"
            );
            assert_eq!(
                columnar.stats, reference.stats,
                "stats mismatch in round {round}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let mut rng = Rng::new(0xD1);
        let schema = random_schema(
            &mut rng,
            &SchemaConfig {
                relations: 2,
                min_arity: 2,
                max_arity: 3,
            },
        );
        let db = random_database(&mut rng, &schema, 12, 3);
        let single = discover_with_config(
            &db,
            &DiscoveryConfig {
                threads: 1,
                ..DiscoveryConfig::default()
            },
        );
        for threads in [2, 4, 7] {
            let multi = discover_with_config(
                &db,
                &DiscoveryConfig {
                    threads,
                    ..DiscoveryConfig::default()
                },
            );
            assert_eq!(single.raw, multi.raw);
            assert_eq!(single.cover, multi.cover);
            assert_eq!(single.stats, multi.stats);
        }
    }

    #[test]
    fn memory_budget_does_not_change_the_result() {
        let mut rng = Rng::new(0xB0D6);
        for round in 0..4 {
            let schema = random_schema(
                &mut rng,
                &SchemaConfig {
                    relations: 2,
                    min_arity: 1,
                    max_arity: 3,
                },
            );
            let db = random_database(&mut rng, &schema, 10, 3);
            let unbounded = discover_with_config(&db, &DiscoveryConfig::default());
            assert!(!unbounded.spill.spilled());
            for budget in [1usize, 64, 4096] {
                for threads in [1usize, 3] {
                    let budgeted = discover_with_config(
                        &db,
                        &DiscoveryConfig {
                            memory_budget: budget,
                            threads,
                            ..DiscoveryConfig::default()
                        },
                    );
                    assert_eq!(
                        unbounded.raw, budgeted.raw,
                        "raw mismatch: round {round}, budget {budget}, threads {threads}"
                    );
                    assert_eq!(unbounded.cover, budgeted.cover);
                    assert_eq!(unbounded.stats, budgeted.stats);
                    // A 1-byte budget must actually slice the streams
                    // whenever there is any data to profile.
                    if budget == 1 && budgeted.stats.rows > 0 {
                        assert!(budgeted.spill.spilled(), "1-byte budget never spilled");
                    }
                }
            }
        }
    }

    /// The simplest possible [`ShardExecutor`]: runs every pass itself,
    /// through the worker-side helper the process workers use — the
    /// in-crate proof that refutation-pass delegation, with each pass
    /// capped at `limit + 1` and the passes summed, preserves what is
    /// admitted and every admitted count, independent of any transport.
    struct InlineExec<'a> {
        schema: &'a DatabaseSchema,
        store: &'a ColumnStore,
        passes: usize,
    }

    impl ShardExecutor for InlineExec<'_> {
        fn count_misses(&mut self, cands: &[IndCand], limits: &[u64]) -> io::Result<Vec<u64>> {
            let columns = column_table(self.schema);
            let mut misses = vec![0u64; cands.len()];
            for pass in 0..self.passes {
                let counts =
                    refute_candidates_pass(self.store, &columns, cands, limits, pass, self.passes);
                for ((sum, m), &limit) in misses.iter_mut().zip(counts).zip(limits) {
                    *sum = (*sum + m).min(limit + 1);
                }
            }
            Ok(misses)
        }
    }

    #[test]
    fn sharded_execution_equals_local() {
        let mut rng = Rng::new(0x5A4D);
        for round in 0..4 {
            let schema = random_schema(
                &mut rng,
                &SchemaConfig {
                    relations: 2,
                    min_arity: 1,
                    max_arity: 3,
                },
            );
            let db = random_database(&mut rng, &schema, 12, 3);
            let store = ColumnStore::new(&db);
            for max_error in [0.0, 0.3] {
                let config = DiscoveryConfig {
                    max_error,
                    ..DiscoveryConfig::default()
                };
                let local = discover_with_config(&db, &config);
                for passes in [1usize, 3, 8] {
                    let mut exec = InlineExec {
                        schema: db.schema(),
                        store: &store,
                        passes,
                    };
                    let sharded =
                        discover_store_sharded(db.schema(), &store, &config, &mut exec).unwrap();
                    assert_eq!(
                        local.raw, sharded.raw,
                        "raw mismatch: round {round}, passes {passes}"
                    );
                    assert_eq!(local.cover, sharded.cover);
                    assert_eq!(local.stats, sharded.stats);
                    assert_eq!(
                        local.scored, sharded.scored,
                        "scored mismatch: round {round}, max_error {max_error}, passes {passes}"
                    );
                }
            }
        }
    }

    #[test]
    fn discover_store_matches_the_database_entry_point() {
        let db = db(
            &["R(A, B)", "S(B)"],
            &[("R", &[1, 10]), ("R", &[2, 10]), ("S", &[10])],
        );
        let config = DiscoveryConfig::default();
        let via_db = discover_with_config(&db, &config);
        let store = ColumnStore::new(&db);
        let via_store = discover_store(db.schema(), &store, &config).unwrap();
        assert_eq!(via_db.raw, via_store.raw);
        assert_eq!(via_db.cover, via_store.cover);
        assert_eq!(via_db.stats, via_store.stats);
    }

    #[test]
    fn stats_reflect_the_profile() {
        let db = db(&["R(A, B)", "S(C)"], &[("R", &[1, 2]), ("S", &[1])]);
        let found = discover(&db);
        assert_eq!(found.stats.rows, 2);
        assert_eq!(found.stats.columns, 3);
        assert_eq!(found.stats.distinct_values, 2);
        assert_eq!(found.stats.raw_fds + found.stats.raw_inds, found.raw.len());
        assert_eq!(found.stats.pruned, found.raw.len() - found.cover.len());
    }

    /// A small dirty database: one of R's ten A-values is junk (absent
    /// from S.B), and one of R's four C-rows breaks A → C.
    fn dirty_db() -> Database {
        let schema = DatabaseSchema::parse(&["R(A, C)", "S(B)"]).unwrap();
        let mut db = Database::empty(schema);
        // A: 1..=9 plus the junk 99; C: constant 7 except row 9.
        for a in 1..=9i64 {
            db.insert_ints("R", &[&[a, 7]]).unwrap();
        }
        db.insert_ints("R", &[&[99, 8]]).unwrap();
        for b in 1..=9i64 {
            db.insert_ints("S", &[&[b]]).unwrap();
        }
        db
    }

    #[test]
    fn zero_tolerance_is_byte_identical_to_exact_discovery() {
        let db = dirty_db();
        let exact = discover(&db);
        let store = ColumnStore::new(&db);
        for threads in [1usize, 3] {
            for budget in [0usize, 1] {
                let run = discover_with_config(
                    &db,
                    &DiscoveryConfig {
                        max_error: 0.0,
                        threads,
                        memory_budget: budget,
                        ..DiscoveryConfig::default()
                    },
                );
                assert_eq!(exact.raw, run.raw, "threads {threads}, budget {budget}");
                assert_eq!(exact.cover, run.cover);
                assert_eq!(exact.stats, run.stats);
                assert!(run.scored.is_empty(), "exact runs score nothing");
            }
        }
        let mut exec = InlineExec {
            schema: db.schema(),
            store: &store,
            passes: 3,
        };
        let config = DiscoveryConfig {
            max_error: 0.0,
            ..DiscoveryConfig::default()
        };
        let sharded = discover_store_sharded(db.schema(), &store, &config, &mut exec).unwrap();
        assert_eq!(exact.raw, sharded.raw);
        assert_eq!(exact.cover, sharded.cover);
        assert_eq!(exact.stats, sharded.stats);
        assert!(sharded.scored.is_empty());
    }

    #[test]
    fn approximate_discovery_scores_planted_dirt() {
        let db = dirty_db();
        let config = DiscoveryConfig {
            max_error: 0.15,
            ..DiscoveryConfig::default()
        };
        let found = discover_with_config(&db, &config);
        // R[A] ⊆ S[B] misses exactly the junk row: confidence 9/10.
        let ind = found
            .scored
            .iter()
            .find(|s| s.dep == dep("R[A] <= S[B]"))
            .expect("dirty IND is mined at 15% tolerance");
        assert_eq!((ind.misses, ind.support), (1, 10));
        assert!((ind.confidence() - 0.9).abs() < 1e-12);
        // The constant-ish C column: `-> C` has g3 error 1 (nine 7s, one 8).
        let fd = found
            .scored
            .iter()
            .find(|s| s.dep == dep("R: -> C"))
            .expect("nearly-constant column is mined at 15% tolerance");
        assert_eq!((fd.misses, fd.support), (1, 10));
        // Dirty dependencies are in `raw` but never in the exact cover.
        assert!(found.raw.contains(&dep("R[A] <= S[B]")));
        assert!(!found.cover.contains(&dep("R[A] <= S[B]")));
        assert!(!found.cover.contains(&dep("R: -> C")));
        // `scored` is parallel to `raw`: same members, sorted by dependency.
        let scored_deps: Vec<&Dependency> = found.scored.iter().map(|s| &s.dep).collect();
        let raw_refs: Vec<&Dependency> = found.raw.iter().collect();
        assert_eq!(scored_deps, raw_refs);
        // Below the dirt level the junk candidates disappear again.
        let strict = discover_with_config(
            &db,
            &DiscoveryConfig {
                max_error: 0.05,
                ..DiscoveryConfig::default()
            },
        );
        assert!(!strict.raw.contains(&dep("R[A] <= S[B]")));
        assert!(strict.scored.iter().all(|s| s.misses == 0));
    }

    #[test]
    fn approximate_nary_inds_compose_over_dirty_bases() {
        // R's pairs miss S's on one of three rows; both unary projections
        // are within tolerance, so the binary candidate composes and its
        // miss count is exact.
        let db = db(
            &["R(A, B)", "S(A, B)"],
            &[
                ("R", &[1, 10]),
                ("R", &[2, 20]),
                ("R", &[3, 31]),
                ("S", &[1, 10]),
                ("S", &[2, 20]),
                ("S", &[3, 30]),
                ("S", &[4, 40]),
            ],
        );
        let config = DiscoveryConfig {
            max_error: 0.34,
            ..DiscoveryConfig::default()
        };
        let found = discover_with_config(&db, &config);
        let binary = found
            .scored
            .iter()
            .find(|s| s.dep == dep("R[A, B] <= S[A, B]"))
            .expect("dirty binary IND composes");
        assert_eq!((binary.misses, binary.support), (1, 3));
    }

    #[test]
    fn approximate_confidences_are_identical_across_modes() {
        let mut rng = Rng::new(0xA11D);
        for round in 0..4 {
            let schema = random_schema(
                &mut rng,
                &SchemaConfig {
                    relations: 2,
                    min_arity: 1,
                    max_arity: 3,
                },
            );
            let db = random_database(&mut rng, &schema, 10, 3);
            let config = DiscoveryConfig {
                max_error: 0.25,
                threads: 1,
                ..DiscoveryConfig::default()
            };
            let baseline = discover_with_config(&db, &config);
            for (threads, budget) in [(3usize, 0usize), (1, 1), (3, 64)] {
                let run = discover_with_config(
                    &db,
                    &DiscoveryConfig {
                        threads,
                        memory_budget: budget,
                        ..config.clone()
                    },
                );
                assert_eq!(
                    baseline.scored, run.scored,
                    "scored mismatch: round {round}, threads {threads}, budget {budget}"
                );
                assert_eq!(baseline.raw, run.raw);
                assert_eq!(baseline.cover, run.cover);
                assert_eq!(baseline.stats, run.stats);
            }
            let store = ColumnStore::new(&db);
            for passes in [1usize, 3, 8] {
                let mut exec = InlineExec {
                    schema: db.schema(),
                    store: &store,
                    passes,
                };
                let sharded =
                    discover_store_sharded(db.schema(), &store, &config, &mut exec).unwrap();
                assert_eq!(
                    baseline.scored, sharded.scored,
                    "scored mismatch: round {round}, sharded passes {passes}"
                );
                assert_eq!(baseline.raw, sharded.raw);
                assert_eq!(baseline.cover, sharded.cover);
                assert_eq!(baseline.stats, sharded.stats);
            }
        }
    }

    /// Three small-domain relations for the pre-pass: `R` is random over
    /// eight values, `S`'s rows copy `R`-rows' `(A, B, C)` and `T`'s rows
    /// copy `S`-rows' `(P, Q)`, so a few binary and ternary INDs hold among
    /// many accidental unary ones.
    fn prepass_store() -> (DatabaseSchema, ColumnStore, Vec<(usize, usize)>) {
        let schema = DatabaseSchema::parse(&["R(A, B, C, D)", "S(P, Q, U)", "T(X, Y, Z)"]).unwrap();
        let mut db = Database::empty(schema.clone());
        let mut rng = Rng::new(0x9E0B);
        let mut r_rows = Vec::new();
        for _ in 0..40 {
            let row: Vec<i64> = (0..4).map(|_| rng.below(8) as i64).collect();
            db.insert_ints("R", &[&row]).unwrap();
            r_rows.push(row);
        }
        let mut s_rows = Vec::new();
        for _ in 0..16 {
            let row = r_rows[rng.below(r_rows.len())][..3].to_vec();
            db.insert_ints("S", &[&row]).unwrap();
            s_rows.push(row);
        }
        for _ in 0..12 {
            let s = &s_rows[rng.below(s_rows.len())];
            db.insert_ints("T", &[&[s[0], s[1], rng.below(8) as i64]])
                .unwrap();
        }
        let store = ColumnStore::new(&db);
        let columns = column_table(&schema);
        (schema, store, columns)
    }

    /// Left rows of `cand` whose projection no right row holds, counted
    /// in full through a hash set of the right projections.
    fn brute_misses(store: &ColumnStore, columns: &[(usize, usize)], cand: &IndCand) -> u64 {
        let mut buf = Vec::new();
        let (rrel, rcur) = side_cursor(store, columns, &cand.rhs);
        let right: FastSet<Vec<u32>> = (0..rrel.row_count())
            .map(|r| {
                rcur.fill(r, &mut buf);
                buf.clone()
            })
            .collect();
        let (lrel, lcur) = side_cursor(store, columns, &cand.lhs);
        (0..lrel.row_count())
            .filter(|&r| {
                lcur.fill(r, &mut buf);
                !right.contains(&buf)
            })
            .count() as u64
    }

    /// Levels 1 and 2 of the composition at one miss limit, admitted by
    /// brute-force counts: the unary extension table, level 2's
    /// candidates, and the admitted level-2 candidates (trivial ones
    /// included).
    #[allow(clippy::type_complexity)]
    fn prepass_levels(
        store: &ColumnStore,
        columns: &[(usize, usize)],
        limit: u64,
    ) -> (
        HashMap<(usize, usize), Vec<(usize, usize)>>,
        Vec<IndCand>,
        Vec<IndCand>,
    ) {
        let mut by_pair: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        let mut unary = Vec::new();
        for c in 0..columns.len() {
            for d in 0..columns.len() {
                let cand = IndCand {
                    lrel: columns[c].0,
                    rrel: columns[d].0,
                    lhs: vec![c],
                    rhs: vec![d],
                };
                if brute_misses(store, columns, &cand) <= limit {
                    by_pair
                        .entry((cand.lrel, cand.rrel))
                        .or_default()
                        .push((c, d));
                    unary.push(cand);
                }
            }
        }
        let level2 = extend_level(&unary, &by_pair);
        let admitted2 = level2
            .iter()
            .filter(|c| brute_misses(store, columns, c) <= limit)
            .cloned()
            .collect();
        (by_pair, level2, admitted2)
    }

    #[test]
    fn ind2_prerefutes_candidates_with_an_unadmitted_projection() {
        let (_schema, store, columns) = prepass_store();
        // A limit of PROBES switches the probe off, so every refutation
        // here is IND2's, made without a scan.
        let limit = PROBES as u64;
        let (by_pair, _, admitted2) = prepass_levels(&store, &columns, limit);
        let admitted: FastSet<Vec<usize>> = admitted2.iter().map(IndCand::key).collect();
        let level3 = extend_level(&admitted2, &by_pair);
        let limits = vec![limit; level3.len()];
        for threads in [1, 2] {
            let refuted = prerefute(
                &store,
                &columns,
                &level3,
                &limits,
                Some(&admitted2),
                threads,
            );
            let (mut kept, mut dropped) = (0, 0);
            for (cand, &refuted) in level3.iter().zip(&refuted) {
                if cand.is_trivial() {
                    assert!(!refuted, "trivial {cand:?} refuted");
                    continue;
                }
                let k = cand.lhs.len();
                let unadmitted = (0..k).any(|j| {
                    let proj: Vec<usize> = cand
                        .key()
                        .into_iter()
                        .enumerate()
                        .filter_map(|(p, c)| (p % k != j).then_some(c))
                        .collect();
                    !admitted.contains(&proj)
                });
                assert_eq!(refuted, unadmitted, "{cand:?}");
                if refuted {
                    assert!(brute_misses(&store, &columns, cand) > limit, "{cand:?}");
                    dropped += 1;
                } else {
                    kept += 1;
                }
            }
            assert!(dropped > 0 && kept > 0, "{dropped} refuted, {kept} kept");
        }
    }

    #[test]
    fn probe_refutes_most_binary_candidates_and_no_valid_one() {
        let (_schema, store, columns) = prepass_store();
        let (_, level2, _) = prepass_levels(&store, &columns, 0);
        let limits = vec![0; level2.len()];
        for threads in [1, 2] {
            let refuted = prerefute(&store, &columns, &level2, &limits, None, threads);
            let (mut nontrivial, mut probed_out) = (0, 0);
            for (cand, &refuted) in level2.iter().zip(&refuted) {
                if cand.is_trivial() {
                    assert!(!refuted, "trivial {cand:?} refuted");
                    continue;
                }
                nontrivial += 1;
                if refuted {
                    probed_out += 1;
                    assert!(brute_misses(&store, &columns, cand) > 0, "{cand:?}");
                }
            }
            assert!(nontrivial >= 100, "only {nontrivial} binary candidates");
            assert!(
                10 * probed_out >= 9 * nontrivial,
                "the probe refuted {probed_out} of {nontrivial} binary candidates"
            );
        }
    }

    /// A [`ShardExecutor`] that records every batch it is asked to count
    /// and answers with brute-force counts capped at `limit + 1`.
    struct RecordingExec<'a> {
        store: &'a ColumnStore,
        columns: &'a [(usize, usize)],
        batches: Vec<Vec<IndCand>>,
    }

    impl ShardExecutor for RecordingExec<'_> {
        fn count_misses(&mut self, cands: &[IndCand], limits: &[u64]) -> io::Result<Vec<u64>> {
            self.batches.push(cands.to_vec());
            Ok(cands
                .iter()
                .zip(limits)
                .map(|(c, &l)| brute_misses(self.store, self.columns, c).min(l + 1))
                .collect())
        }
    }

    /// Key sets are built, and shards shipped, for the pre-pass survivors
    /// alone: the backend's batch is exactly the nontrivial candidates the
    /// mask leaves, in order, and a level with none left is not sent.
    #[test]
    fn only_survivors_reach_the_backend() {
        let (_schema, store, columns) = prepass_store();
        let (_, level2, _) = prepass_levels(&store, &columns, 0);
        let limits = vec![0; level2.len()];
        let refuted = prerefute(&store, &columns, &level2, &limits, None, 1);
        let survivors: Vec<IndCand> = level2
            .iter()
            .zip(&refuted)
            .filter(|(c, &r)| !c.is_trivial() && !r)
            .map(|(c, _)| c.clone())
            .collect();
        let rhs_of = |cands: &[IndCand]| -> FastSet<Vec<usize>> {
            cands
                .iter()
                .filter(|c| !c.is_trivial())
                .map(|c| c.rhs.clone())
                .collect()
        };
        assert!(!survivors.is_empty());
        assert!(rhs_of(&survivors).len() < rhs_of(&level2).len());
        let mut exec = RecordingExec {
            store: &store,
            columns: &columns,
            batches: Vec::new(),
        };
        let mut backend = NaryBackend::Executor(&mut exec);
        let misses =
            count_level(&store, &columns, &level2, &limits, None, &mut backend, 2).unwrap();
        for (cand, m) in level2.iter().zip(&misses) {
            assert_eq!(*m > 0, brute_misses(&store, &columns, cand) > 0, "{cand:?}");
        }
        // The refuted candidates alone: nothing survives, nothing is sent.
        let doomed: Vec<IndCand> = level2
            .iter()
            .zip(&refuted)
            .filter(|(_, &r)| r)
            .map(|(c, _)| c.clone())
            .collect();
        let limits = &limits[..doomed.len()];
        let misses = count_level(&store, &columns, &doomed, limits, None, &mut backend, 2).unwrap();
        assert!(misses.iter().all(|&m| m == 1));
        assert_eq!(exec.batches, vec![survivors]);
    }

    #[test]
    fn ranked_orders_by_score_then_dependency_and_truncates() {
        let db = dirty_db();
        let config = DiscoveryConfig {
            max_error: 0.15,
            ..DiscoveryConfig::default()
        };
        let found = discover_with_config(&db, &config);
        let ranked = found.ranked(0);
        assert_eq!(ranked.len(), found.scored.len());
        for pair in ranked.windows(2) {
            assert!(
                pair[0].score() > pair[1].score()
                    || (pair[0].score() == pair[1].score() && pair[0].dep < pair[1].dep),
                "ranked order violated: {} before {}",
                pair[0].dep,
                pair[1].dep
            );
        }
        let top = found.ranked(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top, ranked[..3].to_vec());
    }
}
