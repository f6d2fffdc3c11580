//! Criterion bench: memory-budgeted dependency discovery under a fixed
//! budget on the columnar referential workload (`EMP(EID, DNO)` /
//! `DEPT(DNO, MGR)` at 1M–10M employee rows).
//!
//! Every point runs `discover_store` with the same 8 MiB budget while the
//! data grows past it — the 10M-row point carries ≥ 10× the budget in raw
//! column bytes — so the scaling table reads as how the budgeted streams
//! degrade. The 1M and 4M points keep every column's bitmap resident; at
//! 10M every column is over its 1 MiB share and is read in id-range
//! slices, one rescan of the resident column per non-empty slice, so the
//! per-row cost grows with the slice count, not with any disk traffic.
//!
//! Setup asserts the acceptance contract before timing anything: the
//! budgeted result is byte-identical to the unbounded in-memory run at
//! every scale, and the ≥ 10×-budget point actually went over budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use depkit_bench::referential_columns;
use depkit_solver::discover::{discover_store, DiscoveryConfig};
use std::hint::black_box;

const DEPTS: usize = 64;
/// Fixed budget all scale points run under: 8 MiB. The 10M-row point holds
/// ~80 MiB of EMP column data alone, ≥ 10× this.
const BUDGET_BYTES: usize = 8 << 20;

fn config(memory_budget: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        memory_budget,
        ..DiscoveryConfig::default()
    }
}

fn bench_external_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_discovery");
    for &n in &[1_000_000usize, 4_000_000, 10_000_000] {
        let (schema, store) = referential_columns(n, DEPTS);

        // Acceptance gate, not a measurement: budgeted == unbounded,
        // byte for byte, and the largest point really went over budget.
        let budgeted = discover_store(&schema, &store, &config(BUDGET_BYTES)).expect("budgeted");
        let unbounded = discover_store(&schema, &store, &config(0)).expect("unbounded");
        assert_eq!(budgeted.raw, unbounded.raw);
        assert_eq!(budgeted.cover, unbounded.cover);
        assert_eq!(budgeted.stats, unbounded.stats);
        assert!(!unbounded.spill.spilled());
        if n >= 10_000_000 {
            assert!(budgeted.spill.spilled(), "10x-budget point must spill");
        }

        group.throughput(Throughput::Elements((n + DEPTS) as u64));
        group.bench_with_input(BenchmarkId::new("discover", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    discover_store(black_box(&schema), black_box(&store), &config(BUDGET_BYTES))
                        .expect("budgeted"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_external_discovery);
criterion_main!(benches);
