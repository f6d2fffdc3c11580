//! Heap bound for the FD lattice. A stripped partition is one row-id array
//! plus class end offsets, and a worker's refinement scratch is one `u32`
//! per value id, so the lattice holds about 4 bytes per row per partition
//! it keeps and 4 bytes per id of the domain. Two exact runs pin the
//! high-water mark of `discover_store`, which the lattice sets in both:
//!
//! * `wide_workload()` unbounded, which carries every partition of a level
//!   into the next;
//! * a store of `discover-tall`'s shape under an 8 MiB budget, whose
//!   `EMP` lattice runs in external waves that recompute each partition
//!   from the root.
//!
//! A counting global allocator records the peak; the store is built
//! before the measured region, so only what mining holds counts. The
//! counters are process-global, so the tests run one at a time: one
//! test's store building would otherwise count in the other's region.

use depkit_bench::alloc_counter::{measure, CountingAlloc};
use depkit_bench::{employee_salary_rows, wide_workload};
use depkit_core::column::ColumnStore;
use depkit_core::schema::DatabaseSchema;
use depkit_core::value::Value;
use depkit_solver::discover::{discover_store, DiscoveryConfig};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// The heap high-water mark of one exact single-threaded run.
fn mining_peak(schema: &DatabaseSchema, store: &ColumnStore, memory_budget: usize) -> u64 {
    let config = DiscoveryConfig {
        threads: 1,
        memory_budget,
        ..DiscoveryConfig::default()
    };
    let (found, allocs) = measure(usize::MAX, || {
        discover_store(schema, store, &config).unwrap()
    });
    assert!(found.stats.raw_fds > 0, "{:?}", found.stats);
    allocs.peak
}

#[test]
fn carried_partitions_stay_under_their_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (schema, store) = wide_workload();
    let peak = mining_peak(&schema, &store, 0);
    let bound = 2_500_000;
    assert!(
        peak <= bound,
        "mining the wide workload peaked at {peak} bytes, over {bound}"
    );
}

#[test]
fn external_waves_stay_under_their_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // `discover-tall`'s shape: 400k `EMP(EID, DNO, SAL)` rows and 64
    // departments. 4 bytes × 400k rows × 3 columns is over the 2 MiB FD
    // share of an 8 MiB budget, so the `EMP` lattice runs external.
    let schema = DatabaseSchema::parse(&["EMP(EID, DNO, SAL)", "DEPT(DNO, MGR)"]).unwrap();
    let depts = (0..64).map(|d| (1, [Value::Int(d), Value::Int(-1 - d)]));
    let rows = employee_salary_rows(400_000).map(|(r, v)| (r, v.to_vec()));
    let rows = rows.chain(depts.map(|(r, v)| (r, v.to_vec())));
    let store = ColumnStore::from_rows(&schema, rows);
    let peak = mining_peak(&schema, &store, 8 << 20);
    let bound = 8_000_000;
    assert!(
        peak <= bound,
        "mining the tall store peaked at {peak} bytes, over {bound}"
    );
}
