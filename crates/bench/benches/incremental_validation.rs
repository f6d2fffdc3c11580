//! Criterion bench: delta-batch validation vs full recheck on a mutating
//! database (the serving workload of `depkit_solver::incremental`).
//!
//! The workload is the paper's Section 1 referential-integrity scenario
//! scaled up: `EMP(EID, DNO)` / `DEPT(DNO, MGR)` with the IND
//! `EMP[DNO] ⊆ DEPT[DNO]` and the two key FDs, a database of `n` employee
//! rows, and a steady-state churn batch of 64 delete+insert pairs per
//! iteration.
//!
//! `delta_incremental` times the single-session catalog round trip
//! `depkit validate` runs per batch ([`commit_round`]: begin, stage,
//! commit, `O(1)` consistency check of a fresh snapshot); at 64k rows it
//! is the same round trip on the same batch as
//! `concurrent_validation/single_session`. `full_recheck` applies the
//! batch to a plain `Database` and rescans it with `full_violations`.
//!
//! Expected asymptotics — the acceptance criterion of the incremental
//! engine: `delta_incremental` stays flat as `n` grows (cost proportional
//! to the 128-op batch, independent of the database), while
//! `full_recheck` grows linearly with `n` (every iteration rescans all
//! rows). The crossover is immediate at every size measured here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use depkit_bench::{commit_round, employee_churn_delta, referential_workload};
use depkit_solver::incremental::{full_violations, CatalogState};
use std::hint::black_box;

const DEPTS: usize = 64;
const BATCH: usize = 64;

fn bench_incremental_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_validation");
    for &n in &[1_000usize, 4_000, 16_000, 64_000] {
        let (schema, sigma, db) = referential_workload(n, DEPTS);
        let delta = employee_churn_delta(n, DEPTS, BATCH);
        let inverse = delta.inverse();
        // Each iteration applies the churn batch and its inverse, so both
        // paths validate twice per iteration from an identical steady state.
        group.throughput(Throughput::Elements(2 * delta.len() as u64));
        group.bench_with_input(BenchmarkId::new("delta_incremental", n), &n, |b, _| {
            let cat = CatalogState::new(&schema, &sigma).expect("FD/IND sigma compiles");
            cat.seed(&db).expect("workload rows fit the schema");
            b.iter(|| {
                black_box(commit_round(&cat, &delta));
                black_box(commit_round(&cat, &inverse))
            })
        });
        group.bench_with_input(BenchmarkId::new("full_recheck", n), &n, |b, _| {
            let mut db = db.clone();
            b.iter(|| {
                db.apply_delta(black_box(&delta)).expect("delta applies");
                black_box(
                    full_violations(&db, &sigma)
                        .expect("sigma checks")
                        .is_empty(),
                );
                db.apply_delta(black_box(&inverse))
                    .expect("inverse applies");
                black_box(
                    full_violations(&db, &sigma)
                        .expect("sigma checks")
                        .is_empty(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_validation);
criterion_main!(benches);
