//! Criterion bench: concurrent delta validation through the
//! snapshot-isolated catalog (`depkit_solver::incremental::CatalogState`)
//! — the engine behind `depkit serve`.
//!
//! The fixture is the 64k-row referential workload of
//! `incremental_validation`. Two shapes:
//!
//! * `single_session` — one session per churn batch: begin, stage the
//!   64-pair batch, commit, then the O(1) post-commit consistency check
//!   (and the same for the inverse, restoring steady state). This is the
//!   round trip `depkit validate` runs per batch, and the same code on the
//!   same batch as `incremental_validation/delta_incremental/64000`.
//! * `single_session_preview` — the same round trip plus the O(delta)
//!   *pre*-commit [`Session::is_consistent`] preview against the pinned
//!   snapshot.
//! * `sessions/N` — N threads, each committing its own churn batch on a
//!   *disjoint* EID range ([`scoped_churn_delta`]), so commits contend
//!   only on the writer lock, never on rows. Throughput is total staged
//!   ops across all threads; the acceptance bar is ≥ 100k delta-rows/sec
//!   at N = 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use depkit_bench::{commit_round, referential_workload, scoped_churn_delta};
use depkit_core::delta::Delta;
use depkit_solver::incremental::CatalogState;
use std::hint::black_box;

const EMPS: usize = 64_000;
const DEPTS: usize = 64;
const BATCH: usize = 64;

/// The same round trip plus the O(delta) pre-commit preview against the
/// session's pinned snapshot.
fn preview_commit_round(cat: &CatalogState, delta: &Delta) {
    let mut s = cat.begin();
    s.stage(black_box(delta))
        .expect("churn rows fit the schema");
    black_box(s.is_consistent());
    s.commit();
}

fn bench_concurrent_validation(c: &mut Criterion) {
    let (schema, sigma, db) = referential_workload(EMPS, DEPTS);
    let mut group = c.benchmark_group("concurrent_validation");

    {
        let delta = scoped_churn_delta(EMPS, DEPTS, BATCH, 0);
        let inverse = delta.inverse();
        group.throughput(Throughput::Elements(2 * delta.len() as u64));
        group.bench_with_input(BenchmarkId::new("single_session", EMPS), &EMPS, |b, _| {
            let cat = CatalogState::new(&schema, &sigma).expect("FD/IND sigma compiles");
            cat.seed(&db).expect("workload rows fit the schema");
            b.iter(|| {
                black_box(commit_round(&cat, &delta));
                black_box(commit_round(&cat, &inverse));
            })
        });
    }

    {
        let delta = scoped_churn_delta(EMPS, DEPTS, BATCH, 0);
        let inverse = delta.inverse();
        group.throughput(Throughput::Elements(2 * delta.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("single_session_preview", EMPS),
            &EMPS,
            |b, _| {
                let cat = CatalogState::new(&schema, &sigma).expect("FD/IND sigma compiles");
                cat.seed(&db).expect("workload rows fit the schema");
                b.iter(|| {
                    preview_commit_round(&cat, &delta);
                    preview_commit_round(&cat, &inverse);
                })
            },
        );
    }

    for &threads in &[2usize, 8] {
        // One forward/inverse churn pair per thread, each on its own
        // disjoint EID range, so every iteration restores steady state.
        let pairs: Vec<(Delta, Delta)> = (0..threads)
            .map(|t| {
                let d = scoped_churn_delta(EMPS, DEPTS, BATCH, t * BATCH);
                let inv = d.inverse();
                (d, inv)
            })
            .collect();
        let staged_ops = (threads * 2 * 2 * BATCH) as u64;
        group.throughput(Throughput::Elements(staged_ops));
        group.bench_with_input(BenchmarkId::new("sessions", threads), &threads, |b, _| {
            let cat = CatalogState::new(&schema, &sigma).expect("FD/IND sigma compiles");
            cat.seed(&db).expect("workload rows fit the schema");
            b.iter(|| {
                std::thread::scope(|scope| {
                    for (delta, inverse) in &pairs {
                        let cat = cat.clone();
                        scope.spawn(move || {
                            black_box(commit_round(&cat, delta));
                            black_box(commit_round(&cat, inverse));
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_concurrent_validation);
criterion_main!(benches);
