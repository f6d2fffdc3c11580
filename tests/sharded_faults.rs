//! Fault-injection tests for the sharded discovery harness: each
//! scenario plants a deterministic [`FaultPlan`] in every worker (only
//! the worker that draws the targeted refute pass at attempt 0 fires it,
//! so exactly one fault occurs regardless of scheduling), then requires
//! the run to converge to the byte-identical local cover *through the
//! recovery path*, asserted via the coordinator's [`ShardStats`].
//!
//! * **kill** — the worker dies mid-shard without reporting; the dropped
//!   connection (or heartbeat timeout) requeues the shard.
//! * **stall** — the worker goes silent past the heartbeat timeout; the
//!   shard is reassigned, and the latecomer's eventual completion is
//!   rejected as stale rather than summed twice.

use depkit_core::column::ColumnStore;
use depkit_core::{Database, DatabaseSchema};
use depkit_serve::shard::{Coordinator, FaultPlan, ShardConfig, ShardStats};
use depkit_solver::discover::{discover_with_config, Discovery, DiscoveryConfig};
use std::time::Duration;

/// The running example: two relations with real FDs, INDs, and two
/// nontrivial *binary* INDs (`EMP[DEPT, MGR] ⊆ DEPT[DNO, HEAD]` and its
/// converse) that no pre-pass can refute, so every scenario plans one
/// refute pass per worker.
fn worked_example() -> Database {
    let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT, MGR)", "DEPT(DNO, HEAD)"]).unwrap();
    let mut db = Database::empty(schema);
    db.insert_str(
        "EMP",
        &[
            &["hilbert", "math", "klein"],
            &["noether", "math", "klein"],
            &["curie", "phys", "curie"],
        ],
    )
    .unwrap();
    db.insert_str("DEPT", &[&["math", "klein"], &["phys", "curie"]])
        .unwrap();
    db
}

/// Timeouts tightened so stall recovery happens in test time.
fn fast_cfg() -> ShardConfig {
    ShardConfig {
        heartbeat_interval: Duration::from_millis(40),
        heartbeat_timeout: Duration::from_millis(250),
        progress_timeout: Duration::from_secs(20),
        ..ShardConfig::default()
    }
}

/// Run sharded discovery under `config` with `workers` thread-backed
/// workers, every one of them carrying `fault`. Returns the discovery,
/// the stats snapshot at completion, and the final stats after all
/// workers drained (a stalled worker reports — and is counted stale —
/// *after* the run finishes without it).
fn run_with_fault(
    db: &Database,
    workers: usize,
    cfg: ShardConfig,
    config: &DiscoveryConfig,
    fault: &str,
) -> (Discovery, ShardStats, ShardStats) {
    let fault = FaultPlan::parse(fault).unwrap();
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            let db = db.clone();
            let fault = fault.clone();
            std::thread::spawn(move || {
                let schema = db.schema().clone();
                let store = ColumnStore::new(&db);
                depkit_serve::run_worker(&addr, &schema, &store, &fault)
            })
        })
        .collect();
    let schema = db.schema().clone();
    let store = ColumnStore::new(db);
    let (found, at_completion) = coordinator.run(&schema, &store, config, workers).unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    let drained = coordinator.stats();
    coordinator.shutdown().unwrap();
    (found, at_completion, drained)
}

fn assert_identical(local: &Discovery, sharded: &Discovery, scenario: &str) {
    assert_eq!(local.raw, sharded.raw, "{scenario}: raw deps diverged");
    assert_eq!(local.cover, sharded.cover, "{scenario}: cover diverged");
    assert_eq!(local.stats, sharded.stats, "{scenario}: stats diverged");
}

#[test]
fn killed_worker_mid_refute_shard_retries_and_completes_identically() {
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    let (sharded, stats, _) = run_with_fault(
        &db,
        2,
        fast_cfg(),
        &DiscoveryConfig::default(),
        "kill:refute:0",
    );
    assert_identical(&local, &sharded, "kill:refute");
    assert_eq!(stats.completed, stats.shards);
    assert!(
        stats.retried + stats.reassigned >= 1,
        "the refute-phase kill must exercise the retry path: {stats:?}"
    );
}

#[test]
fn killed_worker_after_a_spilling_coordinator_profile_retries_and_completes_identically() {
    // The coordinator profiles every column itself; under a 1-byte budget
    // it reads each one in slices there, as a local run does. A worker
    // then dies mid refute pass: the retry must not disturb what the
    // profile counted, nor the cover it leads to.
    let db = worked_example();
    let config = DiscoveryConfig {
        memory_budget: 1,
        ..DiscoveryConfig::default()
    };
    let local = discover_with_config(&db, &config);
    let (sharded, stats, _) = run_with_fault(&db, 2, fast_cfg(), &config, "kill:refute:0");
    assert_identical(&local, &sharded, "kill:refute at a 1-byte budget");
    assert!(local.spill.spilled_columns > 0, "{:?}", local.spill);
    assert_eq!(
        local.spill, sharded.spill,
        "the profile must spill as locally"
    );
    assert_eq!(stats.completed, stats.shards);
    assert!(
        stats.retried + stats.reassigned >= 1,
        "the kill must exercise the retry path: {stats:?}"
    );
}

#[test]
fn stalled_worker_is_reassigned_and_its_late_result_is_rejected_not_merged() {
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    // Stall well past the 250ms heartbeat timeout; the staller then
    // finishes its shard and reports into a world that moved on.
    let (sharded, stats, drained) = run_with_fault(
        &db,
        2,
        fast_cfg(),
        &DiscoveryConfig::default(),
        "stall:refute:1:1200",
    );
    assert_identical(&local, &sharded, "stall:refute");
    assert_eq!(
        stats.completed, stats.shards,
        "each shard completed exactly once"
    );
    assert!(
        stats.reassigned >= 1,
        "the stall must trip the heartbeat timeout: {stats:?}"
    );
    assert!(
        drained.stale_results >= 1,
        "the staller's late completion must be rejected as stale, not merged: {drained:?}"
    );
    // Stale rejection is the no-duplicate guarantee: accepted completions
    // still number exactly one per shard.
    assert_eq!(drained.completed, drained.shards);
}

#[test]
fn every_fault_scenario_converges_on_a_multi_fault_plan() {
    // Both faults in one run, on distinct passes of the three: the
    // harness recovers from each independently and still lands on the
    // local cover byte for byte.
    let db = worked_example();
    let local = discover_with_config(&db, &DiscoveryConfig::default());
    let (sharded, stats, drained) = run_with_fault(
        &db,
        3,
        fast_cfg(),
        &DiscoveryConfig::default(),
        "kill:refute:0;stall:refute:2:1200",
    );
    assert_identical(&local, &sharded, "multi-fault");
    assert_eq!(stats.shards, 3, "{stats:?}");
    assert_eq!(stats.completed, stats.shards);
    assert!(stats.reassigned >= 1, "{stats:?}");
    assert!(stats.retried + stats.reassigned >= 2, "{stats:?}");
    assert!(drained.stale_results >= 1, "{drained:?}");
    assert_eq!(drained.completed, drained.shards);
}
