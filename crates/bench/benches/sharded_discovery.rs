//! Criterion bench: cross-process sharded discovery vs the in-process
//! pipeline on the columnar referential workload (`EMP(EID, DNO)` /
//! `DEPT(DNO, MGR)` at 1M and 10M employee rows).
//!
//! The sharded points measure the whole deployment round-trip — bind a
//! coordinator, spin up 3 workers speaking the real TCP shard protocol,
//! mine on the coordinator's store (which opens the same distinct streams
//! as `local`), ship each n-ary level's surviving candidates as key-range
//! refute passes, shut down — so the table reads as the coordination tax
//! over `local`: binding, worker start-up and shutdown, and the lockstep
//! task framing of the passes, all of which the single-process points
//! skip. This workload composes no n-ary candidate that survives the
//! pre-pass, so it plans no shard and the tax is the fixed cost alone.
//!
//! Workers here are threads sharing the interned store behind an `Arc`
//! (a `depkit shard-worker` process would re-intern its own copy; the
//! deterministic-interning contract makes the two indistinguishable on
//! the wire), which keeps setup from cloning ~80 MiB of columns per
//! worker at the 10M point.
//!
//! Setup asserts the acceptance contract before timing anything: at the
//! 1M-row workload the sharded cover is byte-identical to the
//! single-process one, with every shard completing exactly once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use depkit_bench::referential_columns;
use depkit_core::column::ColumnStore;
use depkit_core::DatabaseSchema;
use depkit_serve::shard::{Coordinator, FaultPlan, ShardConfig};
use depkit_solver::discover::{discover_store, Discovery, DiscoveryConfig};
use std::hint::black_box;
use std::sync::Arc;

const DEPTS: usize = 64;
const WORKERS: usize = 3;

/// One full sharded deployment: coordinator + `WORKERS` thread-backed
/// workers over the real TCP protocol, torn down before returning.
fn discover_sharded(schema: &Arc<DatabaseSchema>, store: &Arc<ColumnStore>) -> Discovery {
    let coordinator = Coordinator::bind("127.0.0.1:0", ShardConfig::default()).expect("bind");
    let addr = coordinator.local_addr().to_string();
    let handles: Vec<_> = (0..WORKERS)
        .map(|_| {
            let addr = addr.clone();
            let schema = Arc::clone(schema);
            let store = Arc::clone(store);
            std::thread::spawn(move || {
                depkit_serve::run_worker(&addr, &schema, &store, &FaultPlan::none())
            })
        })
        .collect();
    let (found, stats) = coordinator
        .run(schema, store, &DiscoveryConfig::default(), WORKERS)
        .expect("sharded discovery");
    for h in handles {
        h.join().unwrap().expect("worker");
    }
    coordinator.shutdown().expect("shutdown");
    assert_eq!(stats.completed, stats.shards);
    found
}

fn bench_sharded_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_discovery");
    for &n in &[1_000_000usize, 10_000_000] {
        let (schema, store) = referential_columns(n, DEPTS);
        let schema = Arc::new(schema);
        let store = Arc::new(store);

        // Acceptance gate, not a measurement: the 1M-row bench workload
        // must shard to the byte-identical cover before anything is timed.
        if n == 1_000_000 {
            let local =
                discover_store(&schema, &store, &DiscoveryConfig::default()).expect("local");
            let sharded = discover_sharded(&schema, &store);
            assert_eq!(local.raw, sharded.raw);
            assert_eq!(local.cover, sharded.cover);
            assert_eq!(local.stats, sharded.stats);
        }

        group.throughput(Throughput::Elements((n + DEPTS) as u64));
        group.bench_with_input(BenchmarkId::new("local", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    discover_store(
                        black_box(&schema),
                        black_box(&store),
                        &DiscoveryConfig::default(),
                    )
                    .expect("local discovery"),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("sharded", n), &n, |b, _| {
            b.iter(|| black_box(discover_sharded(&schema, &store)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_discovery);
criterion_main!(benches);
