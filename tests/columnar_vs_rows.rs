//! Differential suite for the columnar storage engine: the
//! `ColumnStore`-backed discovery path must be indistinguishable from the
//! row-based reference path, and from itself at any thread count.
//!
//! Four contracts, all property-checked on the planted-Σ generators of
//! `core::generate` (random databases repaired until a random mixed Σ
//! holds — the same instances the discovery round-trip tests mine):
//!
//! 1. **Representation equivalence.** `ColumnStore` and `CompiledRows`
//!    compile a database onto the *same* dense id space (row-major
//!    interning, schema order), cell for cell.
//! 2. **Engine equivalence.** `discover_with_config` (columnar, parallel)
//!    and `discover_reference` (row-at-a-time, sequential) produce
//!    identical raw sets, covers, and instrumentation.
//! 3. **Thread determinism.** `threads = 1` and `threads = N` produce
//!    identical covers in identical (stable) order — the parallel stages
//!    merge worker output in deterministic input order, so the thread
//!    knob can never change a mined result.
//! 4. **Budget determinism.** A memory budget small enough to force every
//!    budgeted mechanism — sliced distinct streams, hash-of-key validation
//!    passes, FD lattice waves — reproduces the unbounded in-memory result
//!    (and hence the reference result) byte for byte; the budget changes
//!    how intermediate state is computed, never what is mined.

use depkit_core::column::ColumnStore;
use depkit_core::generate::{
    random_database, random_mixed_set, random_satisfying_database, random_schema, Rng, SchemaConfig,
};
use depkit_core::index::CompiledRows;
use depkit_core::{Database, DatabaseSchema};
use depkit_solver::discover::{discover_reference, discover_with_config, DiscoveryConfig};
use proptest::prelude::*;

/// A planted-Σ instance: random schema, random mixed Σ, database repaired
/// to satisfy it.
fn planted_instance(seed: u64) -> depkit_core::Database {
    let mut rng = Rng::new(seed);
    // Arity 2 keeps accidental IND cliques small, so cover minimization
    // (run once per engine per case) stays cheap; the representation
    // contract below exercises wider schemas separately.
    let schema = random_schema(
        &mut rng,
        &SchemaConfig {
            relations: 2,
            min_arity: 2,
            max_arity: 2,
        },
    );
    let planted = random_mixed_set(&mut rng, &schema, 2, 2);
    random_satisfying_database(&mut rng, &schema, &planted, 6, 3)
}

proptest! {
    /// Contract 1: the columnar and row-major compilations assign the same
    /// id to the same cell — interchangeable views of one id space.
    #[test]
    fn column_store_matches_compiled_rows(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 3, min_arity: 1, max_arity: 4,
        });
        let db = random_database(&mut rng, &schema, 10, 4);
        let store = ColumnStore::new(&db);
        let rows = CompiledRows::new(&db);
        prop_assert_eq!(store.relation_count(), rows.relation_count());
        prop_assert_eq!(store.distinct_values(), rows.distinct_values());
        prop_assert_eq!(store.total_rows(), rows.total_rows());
        for rel in 0..store.relation_count() {
            let cols = store.relation(rel);
            prop_assert_eq!(cols.row_count(), rows.rows(rel).len());
            for (r, row) in rows.rows(rel).iter().enumerate() {
                for (c, &id) in row.iter().enumerate() {
                    prop_assert_eq!(cols.column(c)[r], id, "cell ({rel}, {r}, {c})");
                }
            }
            // Both views resolve ids back to the same values.
            for c in 0..cols.arity() {
                for &id in cols.sorted_distinct(c).iter() {
                    prop_assert_eq!(
                        store.interner().resolve(id),
                        rows.interner().resolve(id)
                    );
                }
            }
        }
    }

    /// Contract 2: columnar discovery == row-based reference discovery on
    /// planted-Σ databases — raw set, cover, and stats.
    #[test]
    fn columnar_discovery_equals_row_discovery(seed in any::<u64>()) {
        let db = planted_instance(seed);
        let config = DiscoveryConfig::default();
        let columnar = discover_with_config(&db, &config);
        let reference = discover_reference(&db, &config);
        prop_assert_eq!(&columnar.raw, &reference.raw);
        prop_assert_eq!(&columnar.cover, &reference.cover);
        prop_assert_eq!(columnar.stats, reference.stats);
    }

    /// Contract 3: the thread knob never changes the mined result — covers
    /// (and raw sets, and stats) are identical and identically ordered.
    #[test]
    fn thread_count_is_observationally_irrelevant(seed in any::<u64>()) {
        let db = planted_instance(seed);
        let single = discover_with_config(&db, &DiscoveryConfig {
            threads: 1,
            ..DiscoveryConfig::default()
        });
        for threads in [2, 5] {
            let multi = discover_with_config(&db, &DiscoveryConfig {
                threads,
                ..DiscoveryConfig::default()
            });
            prop_assert_eq!(&single.raw, &multi.raw, "raw at threads={}", threads);
            prop_assert_eq!(&single.cover, &multi.cover, "cover at threads={}", threads);
            prop_assert_eq!(single.stats, multi.stats, "stats at threads={}", threads);
        }
    }

    /// Contract 4: forced-spill discovery == in-memory discovery == the
    /// row-based reference, on planted-Σ databases. A 1-byte budget puts
    /// every column over its stream share and every validation stage into
    /// its sharded mode, so this drives the whole budgeted pipeline.
    #[test]
    fn forced_spill_discovery_equals_in_memory_and_reference(seed in any::<u64>()) {
        let db = planted_instance(seed);
        let in_memory = discover_with_config(&db, &DiscoveryConfig::default());
        let reference = discover_reference(&db, &DiscoveryConfig::default());
        let spilled = discover_with_config(&db, &DiscoveryConfig {
            memory_budget: 1,
            ..DiscoveryConfig::default()
        });
        if db.total_tuples() > 0 {
            prop_assert!(spilled.spill.spilled(), "1-byte budget must slice its streams");
        }
        prop_assert_eq!(&spilled.raw, &in_memory.raw);
        prop_assert_eq!(&spilled.cover, &in_memory.cover);
        prop_assert_eq!(spilled.stats, in_memory.stats);
        prop_assert_eq!(&spilled.raw, &reference.raw);
        prop_assert_eq!(&spilled.cover, &reference.cover);
        prop_assert_eq!(spilled.stats, reference.stats);
    }
}

/// Acceptance: a dataset at least 10× the configured memory budget must
/// complete discovery and produce output byte-identical to the in-memory
/// path. 4096 employee rows hold 32 KiB of EMP column data against a
/// 3 KiB budget (~10.7×).
#[test]
fn dataset_ten_times_the_budget_discovers_identically() {
    let schema = depkit_core::DatabaseSchema::parse(&["EMP(EID, DNO)", "DEPT(DNO, MGR)"]).unwrap();
    let mut db = depkit_core::Database::empty(schema);
    for d in 0..32i64 {
        db.insert_ints("DEPT", &[&[d, 100 + d]]).unwrap();
    }
    for e in 0..4096i64 {
        db.insert_ints("EMP", &[&[e, e % 32]]).unwrap();
    }
    let budget = 3 << 10;
    let unbounded = discover_with_config(&db, &DiscoveryConfig::default());
    let budgeted = discover_with_config(
        &db,
        &DiscoveryConfig {
            memory_budget: budget,
            ..DiscoveryConfig::default()
        },
    );
    assert!(budgeted.spill.spilled());
    assert_eq!(budgeted.raw, unbounded.raw);
    assert_eq!(budgeted.cover, unbounded.cover);
    assert_eq!(budgeted.stats, unbounded.stats);
}

/// The acceptance workload shape (keys + referential IND), deterministic:
/// the columnar engine must mine exactly what the reference engine mines,
/// and `threads = 4` must reproduce `threads = 1` byte for byte.
#[test]
fn referential_workload_is_identical_across_engines_and_threads() {
    let schema = depkit_core::DatabaseSchema::parse(&["EMP(EID, DNO)", "DEPT(DNO, MGR)"]).unwrap();
    let mut db = depkit_core::Database::empty(schema);
    for d in 0..16i64 {
        db.insert_ints("DEPT", &[&[d, 100 + d]]).unwrap();
    }
    for e in 0..512i64 {
        db.insert_ints("EMP", &[&[e, e % 16]]).unwrap();
    }
    let config = DiscoveryConfig::default();
    let columnar = discover_with_config(&db, &config);
    let reference = discover_reference(&db, &config);
    assert_eq!(columnar.raw, reference.raw);
    assert_eq!(columnar.cover, reference.cover);
    assert_eq!(columnar.stats, reference.stats);
    // The three planted dependencies are all mined.
    for dep in [
        "EMP[DNO] <= DEPT[DNO]",
        "EMP: EID -> DNO",
        "DEPT: DNO -> MGR",
    ] {
        let dep: depkit_core::Dependency = dep.parse().unwrap();
        assert!(
            depkit_solver::discover::implied_by(&columnar.cover, &dep),
            "cover must imply {dep}"
        );
    }
    let multi = discover_with_config(
        &db,
        &DiscoveryConfig {
            threads: 4,
            ..DiscoveryConfig::default()
        },
    );
    assert_eq!(columnar.raw, multi.raw);
    assert_eq!(columnar.cover, multi.cover);
    assert_eq!(columnar.stats, multi.stats);
}

/// The unary SPIDER sweep decides 64 ids per word, so its differential
/// needs columns that span several words with misses in more than one of
/// them; the property tests' random databases draw from a handful of
/// values, which fit in one word. Here 505 distinct values fill 8 words.
/// At tolerance 0 every pipeline must equal `discover_reference`; at 0.05
/// and 0.3 every unary IND admitted, and its miss count, must equal a
/// per-row count. Each runs in memory, under a budget that spills some
/// columns and keeps the rest resident, and under a 1-byte budget that
/// spills all.
#[test]
fn spider_sweep_matches_per_row_oracles_across_word_boundaries() {
    const COLUMNS: [&str; 7] = ["R[A]", "R[B]", "R[C]", "S[D]", "S[E]", "T[X]", "U[Y]"];
    let schema = DatabaseSchema::parse(&["R(A, B, C)", "S(D, E)", "T(X)", "U(Y)"]).unwrap();
    let mut db = Database::empty(schema);
    for i in 0..300i64 {
        db.insert_ints("R", &[&[i, 1000 + i % 97, i % 250]])
            .unwrap();
    }
    // S[D] lacks 5, 66, 127, 188 and 249: R[C] misses 6 rows on them (5
    // twice), so a tolerant count must weigh each missed value by its rows.
    for i in (0..260i64).filter(|i| i % 61 != 5) {
        db.insert_ints("S", &[&[i, 2 * i]]).unwrap();
    }
    for x in [63, 64, 127, 128] {
        db.insert_ints("T", &[&[x]]).unwrap();
    }
    // U[Y] lacks 1003 and 1090, which R[B] holds on 4 and 3 rows.
    for j in (0..97i64).filter(|j| ![3, 90].contains(j)) {
        db.insert_ints("U", &[&[1000 + j]]).unwrap();
    }

    // Per-row oracle: rows of column c whose value column d lacks, with
    // the columns numbered in schema order as in `COLUMNS`.
    let store = ColumnStore::new(&db);
    let columns: Vec<(usize, usize)> = db
        .schema()
        .schemes()
        .iter()
        .enumerate()
        .flat_map(|(r, s)| (0..s.arity()).map(move |c| (r, c)))
        .collect();
    let column = |c: usize| store.relation(columns[c].0).column(columns[c].1);
    let missing = |c: usize, d: usize| -> Vec<u32> {
        let held: std::collections::HashSet<u32> = column(d).iter().copied().collect();
        column(c)
            .iter()
            .copied()
            .filter(|v| !held.contains(v))
            .collect()
    };
    assert_eq!(store.distinct_values(), 505, "columns must span >= 4 words");
    let words: std::collections::BTreeSet<u32> = missing(0, 3).iter().map(|v| v / 64).collect();
    assert!(
        words.len() >= 2,
        "R[A]'s misses must straddle words: {words:?}"
    );

    let exact = discover_reference(&db, &DiscoveryConfig::default());
    // 7 columns: shares of 100 bytes spill the columns of 95 rows and more
    // (a 64-byte bitmap plus 64 for a list) and keep T[X] (64 + 16)
    // resident.
    for max_error in [0.0, 0.05, 0.3] {
        let config = DiscoveryConfig {
            max_error,
            ..DiscoveryConfig::default()
        };
        let local = discover_with_config(&db, &config);
        if max_error == 0.0 {
            assert_eq!(local.raw, exact.raw, "tolerance 0: raw");
            assert_eq!(local.cover, exact.cover, "tolerance 0: cover");
            assert_eq!(local.stats, exact.stats, "tolerance 0: stats");
        }
        let unary: Vec<(String, u64)> = local
            .raw
            .iter()
            .filter(|d| d.as_ind().is_some_and(|i| i.arity() == 1))
            .map(|d| {
                let misses = local
                    .scored
                    .iter()
                    .find(|s| s.dep == *d)
                    .map_or(0, |s| s.misses);
                (d.to_string(), misses)
            })
            .collect();
        let mut expect = Vec::new();
        for c in 0..COLUMNS.len() {
            let rows = store.relation(columns[c].0).row_count();
            let limit = (max_error * rows as f64).floor() as usize;
            for d in (0..COLUMNS.len()).filter(|&d| d != c) {
                let misses = missing(c, d).len();
                if misses <= limit {
                    expect.push((format!("{} <= {}", COLUMNS[c], COLUMNS[d]), misses as u64));
                }
            }
        }
        expect.sort();
        if max_error == 0.05 {
            for planted in [("R[B] <= U[Y]", 7), ("R[C] <= S[D]", 6)] {
                assert!(
                    expect.contains(&(planted.0.to_string(), planted.1)),
                    "{planted:?} must be admitted: {expect:?}"
                );
            }
        }
        let mut got = unary.clone();
        got.sort();
        assert_eq!(got, expect, "max_error {max_error}: unary INDs");

        for budget in [1400usize, 1] {
            let spilled = discover_with_config(
                &db,
                &DiscoveryConfig {
                    memory_budget: budget,
                    ..config.clone()
                },
            );
            let ctx = format!("max_error {max_error}, budget {budget}");
            let spilled_columns = spilled.spill.spilled_columns;
            let want = if budget == 1 { 7 } else { 6 };
            assert_eq!(spilled_columns, want, "{ctx}: columns spilled");
            assert_eq!(local.raw, spilled.raw, "{ctx}: raw");
            assert_eq!(local.cover, spilled.cover, "{ctx}: cover");
            assert_eq!(local.stats, spilled.stats, "{ctx}: stats");
            assert_eq!(local.scored, spilled.scored, "{ctx}: scored");
        }
    }
}
