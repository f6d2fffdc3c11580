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
