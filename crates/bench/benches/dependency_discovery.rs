//! Criterion bench: end-to-end dependency discovery on the referential
//! workload (`EMP(EID, DNO)` / `DEPT(DNO, MGR)` at 1k–64k employee rows).
//!
//! `discover` runs the full pipeline — value interning, the SPIDER unary
//! IND pass, composed n-ary IND validation, partition-refinement FD
//! mining, and cover minimization through the implication engines.
//! Expected shape: mining cost grows linearly with the row count (the
//! interning and partition passes dominate), while `minimize_cover` —
//! measured separately on the 64k-row raw set — depends only on the
//! handful of mined dependencies and is therefore size-independent.
//! That set never reaches the Section 4 rule loop, so `minimize_cover/104`
//! also times the 104 dependencies `perfbench`'s `discover-wide` input
//! mines (pinned in `tests/data/discover_wide.raw`), where most of
//! minimization's saturations stop at the pruning caps.
//!
//! The 64k point doubles as the acceptance check of the discovery
//! subsystem: a generated 64k-row database must complete the whole
//! pipeline inside the harness budget.
//!
//! `column_store/400000` times [`ColumnStore::from_rows`] over a 400k-row
//! `EMP(EID, DNO, SAL)` row stream: it fills one row buffer per relation,
//! then interns through the int window and deduplicates, the step
//! `depkit discover` runs once its spec reader has filled the buffers.
//!
//! `mine_wide/35000` mines the 35k rows of [`wide_workload`], the shape of
//! `perfbench`'s `discover-wide` input, from a prebuilt store with the
//! Section 4 interaction pruning off: composed n-ary IND refutation and
//! the FD lattice do the work, and cover minimization stays per-class.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use depkit_bench::{employee_salary_rows, referential_workload, wide_workload};
use depkit_core::column::ColumnStore;
use depkit_core::dependency::Dependency;
use depkit_core::schema::DatabaseSchema;
use depkit_solver::discover::{
    discover_reference, discover_store, discover_with_config, minimize_cover, DiscoveryConfig,
};
use std::hint::black_box;

const DEPTS: usize = 64;

fn bench_dependency_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency_discovery");
    for &n in &[1_000usize, 4_000, 16_000, 64_000] {
        let (_schema, _sigma, db) = referential_workload(n, DEPTS);
        // Throughput in rows/sec: results read as how fast the profiler
        // chews through tuples.
        group.throughput(Throughput::Elements(db.total_tuples() as u64));
        group.bench_with_input(BenchmarkId::new("discover", n), &n, |b, _| {
            b.iter(|| {
                black_box(discover_with_config(
                    black_box(&db),
                    &DiscoveryConfig::default(),
                ))
            })
        });
    }

    // The row-at-a-time reference engine on the acceptance point: the
    // columnar-vs-rows speedup the perf trajectory tracks.
    let (_schema, _sigma, db) = referential_workload(64_000, DEPTS);
    group.throughput(Throughput::Elements(db.total_tuples() as u64));
    group.bench_with_input(
        BenchmarkId::new("discover_reference", 64_000),
        &(),
        |b, _| {
            b.iter(|| {
                black_box(discover_reference(
                    black_box(&db),
                    &DiscoveryConfig::default(),
                ))
            })
        },
    );

    // Columnar ingest alone, from a row stream.
    let schema = DatabaseSchema::parse(&["EMP(EID, DNO, SAL)"]).expect("static schema parses");
    let n = 400_000;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("column_store", n), &n, |b, &n| {
        b.iter(|| black_box(ColumnStore::from_rows(&schema, employee_salary_rows(n))))
    });

    // Mining over many small-domain columns, from a prebuilt store.
    let (schema, store) = wide_workload();
    let config = DiscoveryConfig {
        interaction_pruning: false,
        ..DiscoveryConfig::default()
    };
    group.throughput(Throughput::Elements(store.total_rows() as u64));
    group.bench_with_input(
        BenchmarkId::new("mine_wide", store.total_rows()),
        &store,
        |b, store| {
            b.iter(|| black_box(discover_store(&schema, black_box(store), &config).unwrap()))
        },
    );

    // Cover minimization alone: its cost tracks |Σ|, not the row count.
    let found = discover_with_config(&db, &DiscoveryConfig::default());
    group.throughput(Throughput::Elements(found.raw.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("minimize_cover", found.raw.len()),
        &found.raw,
        |b, raw| b.iter(|| black_box(minimize_cover(black_box(raw), &DiscoveryConfig::default()))),
    );

    // Cover minimization where the capped saturator does the work.
    let wide: Vec<Dependency> = include_str!("../../../tests/data/discover_wide.raw")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("pinned dependency parses"))
        .collect();
    group.throughput(Throughput::Elements(wide.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("minimize_cover", wide.len()),
        &wide,
        |b, raw| b.iter(|| black_box(minimize_cover(black_box(raw), &DiscoveryConfig::default()))),
    );
    group.finish();
}

criterion_group!(benches, bench_dependency_discovery);
criterion_main!(benches);
