//! Criterion bench: approximate discovery against the exact path on a
//! dirtied 1M-row referential workload (`EMP(EID, DNO)` / `DEPT(DNO, MGR)`
//! with 0.5% of employee rows pointing at dangling departments).
//!
//! Both points mine the *same* dirty store through the same bounded miss
//! counter, which stops at `⌊max_error × support⌋ + 1`; the only
//! difference is the tolerance. The exact run (limit 0) drops the planted
//! key FD and foreign key the moment it sees the first counterexample,
//! while the tolerant run (`max_error = 0.01`) stops early only on the
//! candidates it rejects and counts the admitted ones to the end of their
//! columns to produce exact miss totals — the table reads as the price of
//! confidence scoring over refutation.
//!
//! Setup asserts the acceptance contract before timing anything: the
//! dirt breaks exactly the two planted dependencies, the tolerant run
//! re-mines both with the predicted miss count and support, and the
//! exact run neither mines nor scores them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use depkit_bench::dirty_referential_columns;
use depkit_core::dependency::Dependency;
use depkit_solver::discover::{discover_store, DiscoveryConfig};
use std::hint::black_box;

const DEPTS: usize = 64;
const EMPS: usize = 1_000_000;
/// 0.5% of the clean rows are dirtied — inside the 1% tolerance, so both
/// planted dependencies survive the tolerant run.
const DIRTY: usize = 5_000;

fn config(max_error: f64) -> DiscoveryConfig {
    DiscoveryConfig {
        max_error,
        ..DiscoveryConfig::default()
    }
}

fn bench_approximate_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("approximate_discovery");
    let (schema, store) = dirty_referential_columns(EMPS, DEPTS, DIRTY);

    // Acceptance gate, not a measurement.
    let exact = discover_store(&schema, &store, &config(0.0)).expect("in-memory, no I/O");
    let tolerant = discover_store(&schema, &store, &config(0.01)).expect("in-memory, no I/O");
    assert!(exact.scored.is_empty(), "exact discovery never scores");
    for dep_src in ["EMP[DNO] <= DEPT[DNO]", "EMP: EID -> DNO"] {
        let dep: Dependency = dep_src.parse().expect("static dep parses");
        assert!(
            !exact.raw.contains(&dep),
            "the dirt must refute `{dep}` exactly"
        );
        let scored = tolerant
            .scored
            .iter()
            .find(|s| s.dep == dep)
            .unwrap_or_else(|| panic!("tolerant run must re-mine `{dep}`"));
        assert_eq!(
            (scored.misses, scored.support),
            (DIRTY as u64, (EMPS + DIRTY) as u64),
            "`{dep}` must miss on exactly the dirty rows"
        );
    }

    group.throughput(Throughput::Elements((EMPS + DIRTY + DEPTS) as u64));
    for (label, max_error) in [("exact", 0.0), ("tolerant", 0.01)] {
        group.bench_with_input(BenchmarkId::new(label, EMPS), &EMPS, |b, _| {
            b.iter(|| {
                black_box(
                    discover_store(black_box(&schema), black_box(&store), &config(max_error))
                        .expect("in-memory, no I/O"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_approximate_discovery);
criterion_main!(benches);
