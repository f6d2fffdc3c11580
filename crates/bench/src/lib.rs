//! Shared workload builders for the benchmark suite and the
//! `paper-tables` harness.

use depkit_core::attr::{attrs, Attr, AttrSeq};
use depkit_core::column::{ColumnStore, RelationColumns};
use depkit_core::database::Database;
use depkit_core::delta::Delta;
use depkit_core::dependency::{Dependency, Fd, Ind};
use depkit_core::index::ValueInterner;
use depkit_core::schema::{DatabaseSchema, RelationScheme};
use depkit_core::value::Value;
use depkit_solver::incremental::CatalogState;

/// A chain of typed INDs `R_0[A..] ⊆ R_1[A..] ⊆ ... ⊆ R_len[A..]` over
/// `width`-attribute schemes, plus the end-to-end target. Exercises both
/// the general solver and the typed fast path.
pub fn typed_chain(len: usize, width: usize) -> (DatabaseSchema, Vec<Ind>, Ind) {
    let names: Vec<String> = (0..width).map(|i| format!("A{i}")).collect();
    let attr_seq =
        AttrSeq::new(names.iter().map(Attr::new).collect()).expect("distinct generated names");
    let schemes = (0..=len)
        .map(|i| RelationScheme::new(format!("R{i}").as_str(), attr_seq.clone()))
        .collect();
    let schema = DatabaseSchema::new(schemes).expect("distinct names");
    let sigma: Vec<Ind> = (0..len)
        .map(|i| {
            Ind::new(
                format!("R{i}").as_str(),
                attr_seq.clone(),
                format!("R{}", i + 1).as_str(),
                attr_seq.clone(),
            )
            .expect("equal arity")
        })
        .collect();
    let target = Ind::new("R0", attr_seq.clone(), format!("R{len}").as_str(), attr_seq)
        .expect("equal arity");
    (schema, sigma, target)
}

/// An FD chain `A_0 → A_1 → ... → A_len` over one wide relation, with the
/// end-to-end closure query. The Beeri–Bernstein algorithm should scale
/// linearly in `len`.
pub fn fd_chain(len: usize) -> (RelationScheme, Vec<Fd>, Fd) {
    let names: Vec<String> = (0..=len).map(|i| format!("A{i}")).collect();
    let scheme = RelationScheme::new(
        "R",
        AttrSeq::new(names.iter().map(Attr::new).collect()).expect("distinct"),
    );
    let fds: Vec<Fd> = (0..len)
        .map(|i| {
            Fd::new(
                "R",
                attrs(&[&format!("A{i}")]),
                attrs(&[&format!("A{}", i + 1)]),
            )
        })
        .collect();
    let target = Fd::new("R", attrs(&["A0"]), attrs(&[&format!("A{len}")]));
    (scheme, fds, target)
}

/// The referential-integrity serving workload of the `incremental_validation`
/// bench: `EMP(EID, DNO)` and `DEPT(DNO, MGR)` with the paper's Section 1
/// constraints — IND `EMP[DNO] ⊆ DEPT[DNO]` (every employee's department
/// exists), FD `EMP: EID → DNO` (employee ids are keys), and FD
/// `DEPT: DNO → MGR` (one manager per department).
///
/// The returned database holds `emps` employee rows spread round-robin over
/// `depts` departments and satisfies all three dependencies.
pub fn referential_workload(
    emps: usize,
    depts: usize,
) -> (DatabaseSchema, Vec<Dependency>, Database) {
    let schema =
        DatabaseSchema::parse(&["EMP(EID, DNO)", "DEPT(DNO, MGR)"]).expect("static schema parses");
    let sigma: Vec<Dependency> = vec![
        "EMP[DNO] <= DEPT[DNO]".parse().expect("static dep parses"),
        "EMP: EID -> DNO".parse().expect("static dep parses"),
        "DEPT: DNO -> MGR".parse().expect("static dep parses"),
    ];
    let mut db = Database::empty(schema.clone());
    for d in 0..depts {
        db.insert_ints("DEPT", &[&[d as i64, 1_000_000 + d as i64]])
            .expect("rows fit the schema");
    }
    for e in 0..emps {
        db.insert_ints("EMP", &[&[e as i64, (e % depts) as i64]])
            .expect("rows fit the schema");
    }
    (schema, sigma, db)
}

/// The [`referential_workload`] shape compiled straight to columnar form,
/// for scales where materializing a row [`Database`] first would dominate
/// the build (every cell a heap [`Value`]): the interner and dense `u32`
/// id columns are assembled directly and handed to
/// [`ColumnStore::from_raw_parts`], so multi-10M-row stores for the
/// out-of-core discovery benches cost one `Vec<u32>` per column.
///
/// Same dependencies hold as in [`referential_workload`] — IND
/// `EMP[DNO] ⊆ DEPT[DNO]`, FDs `EMP: EID → DNO` and `DEPT: DNO → MGR` —
/// with one deliberate difference: manager values live in a disjoint
/// (negative) integer space, so `MGR` never reads as included in
/// `EID`/`DNO` at any scale and the mined raw set has the same shape for
/// every `emps`.
pub fn referential_columns(emps: usize, depts: usize) -> (DatabaseSchema, ColumnStore) {
    assert!(depts > 0 && depts <= emps, "need 0 < depts <= emps");
    let schema =
        DatabaseSchema::parse(&["EMP(EID, DNO)", "DEPT(DNO, MGR)"]).expect("static schema parses");
    let mut interner = ValueInterner::new();
    interner.reserve_distinct(emps + depts);
    let eid: Vec<u32> = (0..emps)
        .map(|e| interner.intern(&Value::Int(e as i64)))
        .collect();
    let mgr: Vec<u32> = (0..depts)
        .map(|d| interner.intern(&Value::Int(-1 - d as i64)))
        .collect();
    let mut emp = RelationColumns::with_capacity(2, emps);
    for e in 0..emps {
        emp.push_row(&[eid[e], eid[e % depts]]);
    }
    let mut dept = RelationColumns::with_capacity(2, depts);
    for d in 0..depts {
        dept.push_row(&[eid[d], mgr[d]]);
    }
    let store = ColumnStore::from_raw_parts(interner, vec![emp, dept]);
    (schema, store)
}

/// [`referential_columns`] with `dirty` corrupt employee rows appended:
/// employee `i < dirty` gains a second row pointing at a dangling
/// department id (`emps + i`, disjoint from every EID, DNO, and MGR
/// value in the clean workload), so the key FD misses on exactly `dirty`
/// rows (one extra department per corrupted EID, g3 error 1 each) and
/// the foreign key misses on exactly the same `dirty` dangling rows.
/// The workload of the `approximate_discovery` bench: exact discovery
/// must drop both planted dependencies, tolerant discovery re-mines them
/// with predictable confidence `1 − dirty / (emps + dirty)`.
pub fn dirty_referential_columns(
    emps: usize,
    depts: usize,
    dirty: usize,
) -> (DatabaseSchema, ColumnStore) {
    assert!(dirty <= emps, "need dirty <= emps");
    let schema =
        DatabaseSchema::parse(&["EMP(EID, DNO)", "DEPT(DNO, MGR)"]).expect("static schema parses");
    let mut interner = ValueInterner::new();
    interner.reserve_distinct(emps + depts + dirty);
    let eid: Vec<u32> = (0..emps)
        .map(|e| interner.intern(&Value::Int(e as i64)))
        .collect();
    let mgr: Vec<u32> = (0..depts)
        .map(|d| interner.intern(&Value::Int(-1 - d as i64)))
        .collect();
    let mut emp = RelationColumns::with_capacity(2, emps + dirty);
    for e in 0..emps {
        emp.push_row(&[eid[e], eid[e % depts]]);
    }
    for (i, &e) in eid.iter().enumerate().take(dirty) {
        let dangling = interner.intern(&Value::Int((emps + i) as i64));
        emp.push_row(&[e, dangling]);
    }
    let mut dept = RelationColumns::with_capacity(2, depts);
    for d in 0..depts {
        dept.push_row(&[eid[d], mgr[d]]);
    }
    let store = ColumnStore::from_raw_parts(interner, vec![emp, dept]);
    (schema, store)
}

/// The clean `EMP(EID, DNO, SAL)` rows of `perfbench`'s `discover-tall`
/// input as a `(relation index, values)` row stream, the form
/// [`ColumnStore::from_rows`] takes: employee `e` (in order), a seeded
/// department in `0..64` and a seeded salary in `2_000_000..2_050_000`.
/// The same `rows` always yield the same stream.
pub fn employee_salary_rows(rows: usize) -> impl Iterator<Item = (usize, [Value; 3])> {
    let mut rng = depkit_core::generate::Rng::new(7);
    (0..rows as i64).map(move |e| {
        let dno = rng.below(64) as i64;
        let sal = 2_000_000 + rng.below(50_000) as i64;
        (0, [Value::Int(e), Value::Int(dno), Value::Int(sal)])
    })
}

/// The shape of `perfbench`'s `discover-wide` input as a column store:
/// `R(A..H)` with 20k rows, `S(P, Q, U, V)` with 10k and `T(X, Y, Z)` with
/// 5k, every column over a small integer domain. Planted are the FDs
/// `R: B → C`, `R: D, E → F` and `R: G → H` and the INDs `S[Q] ⊆ R[B]`,
/// `S[U, V] ⊆ R[D, E]` and `T[X, Y] ⊆ S[P, Q]`. The overlapping domains
/// make many accidental unary inclusions, so hundreds of binary and
/// ternary IND candidates are composed and nearly all of them refuted,
/// and the FD lattice runs deep. No row repeats, so the store holds all
/// 35k rows. One fixed seeded draw.
pub fn wide_workload() -> (DatabaseSchema, ColumnStore) {
    let schema =
        DatabaseSchema::parse(&["R(A, B, C, D, E, F, G, H)", "S(P, Q, U, V)", "T(X, Y, Z)"])
            .expect("static schema parses");
    let mut rng = depkit_core::generate::Rng::new(0x5EED_0FD1);
    let mut below = |n: usize| rng.below(n) as i64;
    let r: Vec<Vec<i64>> = (0..20_000)
        .map(|a| {
            let (b, d, e, g) = (below(500), below(50), below(40), below(2_000));
            let (c, f, h) = ((b * 7 + 3) % 311, (d * 13 + e * 5) % 97, (g * 31) % 1_009);
            vec![a, b, c, d, e, f, g, h]
        })
        .collect();
    let s: Vec<Vec<i64>> = (0..10_000)
        .map(|p| {
            let q = r[below(r.len()) as usize][1];
            let src = &r[below(r.len()) as usize];
            vec![p * 2, q, src[3], src[4]]
        })
        .collect();
    // Every other S row, so T's rows are distinct too.
    let t: Vec<Vec<i64>> = s
        .iter()
        .step_by(2)
        .map(|src| vec![src[0], src[1], below(300)])
        .collect();
    let rows = [r, s, t]
        .into_iter()
        .enumerate()
        .flat_map(|(rel, rows)| rows.into_iter().map(move |row| (rel, row)));
    let store = ColumnStore::from_rows(
        &schema,
        rows.map(|(rel, row)| (rel, row.into_iter().map(Value::Int))),
    );
    (schema, store)
}

/// A steady-state churn batch against [`referential_workload`]: replace the
/// first `batch` employees (`EID = 0..batch`) with fresh hires
/// (`EID = emps..emps+batch`), keeping every constraint satisfied and the
/// database size constant. Applying [`Delta::inverse`] afterwards restores
/// the original database, so benches can iterate the pair indefinitely.
pub fn employee_churn_delta(emps: usize, depts: usize, batch: usize) -> Delta {
    scoped_churn_delta(emps, depts, batch, 0)
}

/// A churn batch scoped to the EID range starting at `range_start`:
/// replace employees `range_start..range_start+batch` with fresh hires
/// `emps+range_start..`, keeping every constraint satisfied. Distinct
/// `range_start` values at least `batch` apart touch disjoint row sets,
/// so N concurrent sessions (one range each) never conflict — the
/// workload of the `concurrent_validation` bench.
pub fn scoped_churn_delta(emps: usize, depts: usize, batch: usize, range_start: usize) -> Delta {
    assert!(
        range_start + batch <= emps,
        "cannot churn more employees than exist"
    );
    let mut d = Delta::new();
    for i in 0..batch {
        let old = range_start + i;
        d.delete_ints("EMP", &[old as i64, (old % depts) as i64]);
        let hire = emps + old;
        d.insert_ints("EMP", &[hire as i64, (hire % depts) as i64]);
    }
    d
}

/// Wall-clock a closure, returning (result, seconds).
/// One single-session round trip through `cat`: begin, stage `delta`,
/// commit, then the `O(1)` consistency check of a fresh snapshot — what
/// `depkit validate` does per batch. Returns that check's answer.
pub fn commit_round(cat: &CatalogState, delta: &Delta) -> bool {
    let mut s = cat.begin();
    s.stage(std::hint::black_box(delta))
        .expect("churn rows fit the schema");
    s.commit();
    cat.snapshot().is_consistent()
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A counting wrapper around the system allocator, for allocation
/// regression tests: how many allocations a region makes, how many bytes
/// it asks for, and the high-water mark of the bytes it holds live (e.g.
/// pinning that a budgeted discovery stage stays within its budget).
/// Install it in a test binary with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: depkit_bench::alloc_counter::CountingAlloc =
///     depkit_bench::alloc_counter::CountingAlloc;
/// ```
///
/// and wrap the region under measurement in
/// [`alloc_counter::measure`]. Counting is off outside `measure`, so the
/// wrapper adds one relaxed atomic load per allocation and free to
/// everything else in the process.
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The pass-through allocator; see the module docs for installation.
    pub struct CountingAlloc;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static THRESHOLD: AtomicUsize = AtomicUsize::new(0);
    static TOTAL: AtomicU64 = AtomicU64::new(0);
    static LARGE: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    /// Bytes allocated minus bytes freed since the region began (negative
    /// when it frees more than it allocated), and its high-water mark.
    static LIVE: AtomicI64 = AtomicI64::new(0);
    static PEAK: AtomicI64 = AtomicI64::new(0);
    /// Serializes [`measure`] calls: the counters are process-global, so
    /// concurrent measured regions would bleed into each other.
    static MEASURING: Mutex<()> = Mutex::new(());

    /// Count one allocation of `size` bytes that changes the live bytes
    /// by `grow` (a reallocation grows them by the size difference).
    fn record(size: usize, grow: i64) {
        if ENABLED.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
            if size >= THRESHOLD.load(Ordering::Relaxed) {
                LARGE.fetch_add(1, Ordering::Relaxed);
            }
            track(grow);
        }
    }

    fn track(grow: i64) {
        let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size(), layout.size() as i64);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            if ENABLED.load(Ordering::Relaxed) {
                track(-(layout.size() as i64));
            }
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A growing realloc is a fresh reservation of `new_size`.
            record(new_size, new_size as i64 - layout.size() as i64);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size(), layout.size() as i64);
            System.alloc_zeroed(layout)
        }
    }

    /// Allocation counts observed during one [`measure`] region.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocStats {
        /// Every allocation (and growing reallocation).
        pub total: u64,
        /// Allocations of at least the `large_threshold` passed to
        /// [`measure`] — the interesting ones when small bookkeeping
        /// allocations would otherwise drown the signal.
        pub large: u64,
        /// Bytes requested across all counted allocations.
        pub bytes: u64,
        /// High-water mark of the bytes the region held live: allocated
        /// and not yet freed, counted from the region's start.
        pub peak: u64,
    }

    /// Run `f` with counting enabled and return its result plus the
    /// allocation stats for the region. Only allocations made by this
    /// thread's work *and anything else running concurrently* are
    /// counted — callers serialize through an internal lock, so keep
    /// measured regions single-threaded for exact counts.
    pub fn measure<T>(large_threshold: usize, f: impl FnOnce() -> T) -> (T, AllocStats) {
        let _guard = MEASURING.lock().unwrap();
        THRESHOLD.store(large_threshold, Ordering::Relaxed);
        TOTAL.store(0, Ordering::Relaxed);
        LARGE.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Release);
        let out = f();
        ENABLED.store(false, Ordering::Release);
        (
            out,
            AllocStats {
                total: TOTAL.load(Ordering::Relaxed),
                large: LARGE.load(Ordering::Relaxed),
                bytes: BYTES.load(Ordering::Relaxed),
                peak: PEAK.load(Ordering::Relaxed).max(0) as u64,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_solver::ind::IndSolver;

    #[test]
    fn typed_chain_is_implied() {
        let (_schema, sigma, target) = typed_chain(6, 2);
        let solver = IndSolver::new(&sigma);
        assert!(solver.implies(&target));
        assert_eq!(solver.implies_typed(&target), Some(true));
    }

    #[test]
    fn fd_chain_closure_reaches_end() {
        let (_scheme, fds, target) = fd_chain(10);
        assert!(depkit_solver::fd::implies_fd(&fds, &target));
    }

    #[test]
    fn referential_columns_mines_the_same_dependencies_as_the_row_workload() {
        use depkit_solver::discover::{discover_store, discover_with_config, DiscoveryConfig};
        let (emps, depts) = (200, 7);
        let config = DiscoveryConfig::default();
        let (schema, store) = referential_columns(emps, depts);
        let columnar = discover_store(&schema, &store, &config).unwrap();
        let (_schema, _sigma, db) = referential_workload(emps, depts);
        let rowwise = discover_with_config(&db, &config);
        // Manager values differ (disjoint negative space vs 1_000_000+d)
        // but both are disjoint from EID/DNO at this scale, so the mined
        // sets coincide exactly.
        assert_eq!(columnar.raw, rowwise.raw);
        assert_eq!(columnar.cover, rowwise.cover);

        // A tiny budget must not change what is mined, only where the
        // intermediate state lives.
        let budgeted = discover_store(
            &schema,
            &store,
            &DiscoveryConfig {
                memory_budget: 1,
                ..DiscoveryConfig::default()
            },
        )
        .unwrap();
        assert!(budgeted.spill.spilled());
        assert_eq!(budgeted.raw, columnar.raw);
        assert_eq!(budgeted.cover, columnar.cover);
    }

    #[test]
    fn referential_workload_is_consistent_and_churns_cleanly() {
        use depkit_solver::incremental::full_violations;
        let (schema, sigma, mut db) = referential_workload(100, 7);
        assert!(full_violations(&db, &sigma).unwrap().is_empty());

        let delta = employee_churn_delta(100, 7, 16);
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        cat.seed(&db).unwrap();
        let before = db.clone();
        // Churn forward and back: consistent at every checkpoint, and the
        // inverse restores the exact database.
        for d in [&delta, &delta.inverse()] {
            assert!(commit_round(&cat, d));
            db.apply_delta(d).unwrap();
            assert_eq!(
                cat.snapshot().violations(),
                full_violations(&db, &sigma).unwrap()
            );
        }
        assert_eq!(db, before);
    }
}
