//! Differential suite for cross-process sharded discovery: on every
//! fixture under `tests/data/` (and on randomly planted Σ), the sharded
//! pipeline at workers ∈ {2, 4, 8} must produce the same `raw`, `cover`,
//! and `DiscoveryStats` — byte for byte — as the in-process pipeline,
//! both unbounded (in-memory) and memory-budgeted (spilled). The
//! coordinator opens its distinct streams as a local run does, so its
//! spill counters must match the local run's too.
//!
//! Workers here are threads speaking the real TCP protocol, each
//! re-parsing the fixture text and interning its **own**
//! [`ColumnStore`] — exactly what a `depkit shard-worker` process does
//! (the process-spawning deployment itself is covered by the
//! `depkit-cli` integration tests and the CI shard-smoke job).

use depkit_core::column::ColumnStore;
use depkit_core::generate::{
    random_mixed_set, random_satisfying_database, random_schema, Rng, SchemaConfig,
};
use depkit_core::parser::parse_scheme;
use depkit_core::{Database, DatabaseSchema, RelName, Tuple, Value};
use depkit_serve::shard::{Coordinator, FaultPlan, ShardConfig};
use depkit_solver::discover::{discover_with_config, Discovery, DiscoveryConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// Parse the `schema`/`row` fixture subset of the CLI spec format.
fn load_database(text: &str) -> Database {
    let mut schemes = Vec::new();
    let mut rows: Vec<(String, Vec<Value>)> = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (keyword, rest) = line
            .split_once(char::is_whitespace)
            .map(|(k, r)| (k, r.trim()))
            .unwrap_or((line, ""));
        match keyword {
            "schema" => schemes.push(parse_scheme(rest).unwrap()),
            "row" => {
                let mut parts = rest.split_whitespace();
                let rel = parts.next().expect("row needs a relation").to_string();
                let values = parts
                    .map(|p| {
                        p.parse::<i64>()
                            .map(Value::Int)
                            .unwrap_or_else(|_| Value::str(p))
                    })
                    .collect();
                rows.push((rel, values));
            }
            // `dep` lines carry the declared constraints; discovery
            // differentials only need the data.
            "dep" => {}
            other => panic!("fixture directive `{other}` not supported"),
        }
    }
    let mut db = Database::empty(DatabaseSchema::new(schemes).unwrap());
    for (rel, values) in rows {
        db.insert(&RelName::new(&rel), Tuple::new(values)).unwrap();
    }
    db
}

/// Run sharded discovery over `workers` thread-backed workers, each
/// building its own store from an independent copy of `db` — the
/// deterministic-interning contract the process deployment relies on.
fn discover_sharded(db: &Database, workers: usize, config: &DiscoveryConfig) -> Discovery {
    let coordinator = Coordinator::bind("127.0.0.1:0", ShardConfig::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            let db = db.clone();
            std::thread::spawn(move || {
                let schema = db.schema().clone();
                let store = ColumnStore::new(&db);
                depkit_serve::run_worker(&addr, &schema, &store, &FaultPlan::none())
            })
        })
        .collect();
    let schema = db.schema().clone();
    let store = ColumnStore::new(db);
    let (found, stats) = coordinator.run(&schema, &store, config, workers).unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    coordinator.shutdown().unwrap();
    assert_eq!(
        stats.completed, stats.shards,
        "clean run completes every shard once"
    );
    assert_eq!(stats.retried, 0, "clean run never retries");
    found
}

/// The four-way differential: in-memory == spilled == sharded at each
/// worker count, on raw deps, cover, and stats alike, and sharded ==
/// local on the spill counters, unbounded and at a 1-byte budget.
fn assert_all_pipelines_agree(db: &Database, context: &str) {
    let config = DiscoveryConfig::default();
    let local = discover_with_config(db, &config);
    let spilled_config = DiscoveryConfig {
        memory_budget: 1, // force every column over its stream share
        ..DiscoveryConfig::default()
    };
    let spilled = discover_with_config(db, &spilled_config);
    assert_eq!(local.raw, spilled.raw, "{context}: spilled raw diverged");
    assert_eq!(
        local.cover, spilled.cover,
        "{context}: spilled cover diverged"
    );
    assert_eq!(
        local.stats, spilled.stats,
        "{context}: spilled stats diverged"
    );
    for workers in [2, 4, 8] {
        let sharded = discover_sharded(db, workers, &config);
        assert_eq!(
            local.raw, sharded.raw,
            "{context}: sharded raw diverged at workers={workers}"
        );
        assert_eq!(
            local.cover, sharded.cover,
            "{context}: sharded cover diverged at workers={workers}"
        );
        assert_eq!(
            local.stats, sharded.stats,
            "{context}: sharded stats diverged at workers={workers}"
        );
        assert_eq!(
            local.spill, sharded.spill,
            "{context}: sharded spill diverged at workers={workers}"
        );
    }
    let sharded = discover_sharded(db, 2, &spilled_config);
    assert_eq!(spilled.raw, sharded.raw, "{context}: spilled sharded raw");
    assert_eq!(
        spilled.cover, sharded.cover,
        "{context}: spilled sharded cover"
    );
    assert_eq!(
        spilled.stats, sharded.stats,
        "{context}: spilled sharded stats"
    );
    assert_eq!(
        spilled.spill, sharded.spill,
        "{context}: a 1-byte budget must spill the same on the coordinator"
    );
}

/// The tolerance-zero matrix of the approximate-discovery tentpole:
/// `max_error = 0.0` must be byte-identical to the pre-tolerance exact
/// pipeline at every point of threads ∈ {1, N} × {in-memory,
/// forced-spill} × workers ∈ {0, 3} — same raw, cover, and stats, and no
/// scored entries anywhere (scoring is an approximate-mode artifact).
#[test]
fn zero_tolerance_matrix_is_byte_identical_to_exact() {
    let text = std::fs::read_to_string(data_dir().join("employees.dep")).unwrap();
    let db = load_database(&text);
    let exact = discover_with_config(&db, &DiscoveryConfig::default());
    assert!(exact.scored.is_empty(), "exact discovery never scores");
    for threads in [1, 0] {
        for budget in [0usize, 1] {
            let config = DiscoveryConfig {
                threads,
                memory_budget: budget,
                max_error: 0.0,
                ..DiscoveryConfig::default()
            };
            let ctx = format!("threads={threads} budget={budget}");
            let local = discover_with_config(&db, &config);
            assert_eq!(exact.raw, local.raw, "{ctx} workers=0: raw diverged");
            assert_eq!(exact.cover, local.cover, "{ctx} workers=0: cover diverged");
            assert_eq!(exact.stats, local.stats, "{ctx} workers=0: stats diverged");
            assert!(local.scored.is_empty(), "{ctx} workers=0: scored nonempty");
            let sharded = discover_sharded(&db, 3, &config);
            assert_eq!(exact.raw, sharded.raw, "{ctx} workers=3: raw diverged");
            assert_eq!(
                exact.cover, sharded.cover,
                "{ctx} workers=3: cover diverged"
            );
            assert_eq!(
                exact.stats, sharded.stats,
                "{ctx} workers=3: stats diverged"
            );
            assert!(
                sharded.scored.is_empty(),
                "{ctx} workers=3: scored nonempty"
            );
            assert_eq!(local.spill, sharded.spill, "{ctx} workers=3: spill");
        }
    }
}

/// Approximate discovery must report the *same confidences* everywhere:
/// per-candidate miss counts summed over key-range shards across real
/// socket workers equal the single-store counts, spilled or not.
#[test]
fn approximate_confidences_agree_across_the_matrix() {
    let text = std::fs::read_to_string(data_dir().join("employees.dep")).unwrap();
    let mut db = load_database(&text);
    // Dirty the reference data: one employee in an unknown department
    // and a second manager for dept 10, so both an IND and an FD are
    // only approximately satisfied.
    db.insert(&RelName::new("EMP"), Tuple::ints(&[4, 30]))
        .unwrap();
    db.insert(&RelName::new("DEPT"), Tuple::ints(&[10, 101]))
        .unwrap();
    let config = DiscoveryConfig {
        max_error: 0.4,
        ..DiscoveryConfig::default()
    };
    let local = discover_with_config(&db, &config);
    assert!(
        local.scored.iter().any(|s| s.misses > 0),
        "the planted dirt must surface as scored misses: {:?}",
        local.scored
    );
    for (threads, budget) in [(1, 0usize), (0, 1)] {
        let c = DiscoveryConfig {
            threads,
            memory_budget: budget,
            ..config.clone()
        };
        let other = discover_with_config(&db, &c);
        assert_eq!(
            local.scored, other.scored,
            "threads={threads} budget={budget}"
        );
        assert_eq!(local.raw, other.raw);
        assert_eq!(local.cover, other.cover);
    }
    for workers in [2, 3] {
        let sharded = discover_sharded(&db, workers, &config);
        assert_eq!(local.scored, sharded.scored, "workers={workers}");
        assert_eq!(local.raw, sharded.raw, "workers={workers}");
        assert_eq!(local.cover, sharded.cover, "workers={workers}");
        assert_eq!(local.stats, sharded.stats, "workers={workers}");
    }
}

#[test]
fn sharded_matches_local_on_every_fixture() {
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(data_dir())
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "dep")).then_some(path)
        })
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 5,
        "fixture corpus went missing: {fixtures:?}"
    );
    for fixture in fixtures {
        let text = std::fs::read_to_string(&fixture).unwrap();
        let db = load_database(&text);
        assert_all_pipelines_agree(&db, &fixture.display().to_string());
    }
}

proptest! {
    /// Planted-Σ differential: repair a random database until a random
    /// set of FDs and INDs holds by construction, then require the
    /// sharded pipeline to agree with the local one on it exactly.
    #[test]
    fn sharded_matches_local_on_planted_sigma(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        // Arity 2, like the planted-cover proptest: wider schemas grow
        // accidental IND cliques that only slow minimization down, on
        // both sides of the differential alike.
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 2, min_arity: 2, max_arity: 2,
        });
        let planted = random_mixed_set(&mut rng, &schema, 2, 2);
        let db = random_satisfying_database(&mut rng, &schema, &planted, 8, 4);
        let config = DiscoveryConfig::default();
        let local = discover_with_config(&db, &config);
        for d in &planted {
            prop_assert!(
                depkit_solver::discover::implied_by(&local.cover, d),
                "planted {} not implied by the local cover", d
            );
        }
        let sharded = discover_sharded(&db, 2, &config);
        prop_assert_eq!(&local.raw, &sharded.raw);
        prop_assert_eq!(&local.cover, &sharded.cover);
        prop_assert_eq!(&local.stats, &sharded.stats);
    }
}

/// The unary SPIDER sweep decides 64 ids per word, so its differential
/// needs columns that span several words with misses in more than one of
/// them; the property tests' random databases draw from a handful of
/// values, which fit in one word. Here 505 distinct values fill 8 words.
/// At tolerance 0 every pipeline must equal `discover_reference`; at 0.05
/// and 0.3 every unary IND admitted, and its miss count, must equal a
/// per-row count. Each runs in memory, under a budget that spills some
/// columns and keeps the rest resident, under a 1-byte budget that spills
/// all, and across 3 shard workers.
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

    // Per-row oracle: rows of column c whose value column d lacks.
    let store = ColumnStore::new(&db);
    let columns = depkit_solver::discover::column_table(db.schema());
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

    let exact = depkit_solver::discover::discover_reference(&db, &DiscoveryConfig::default());
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
        let sharded = discover_sharded(&db, 3, &config);
        let ctx = format!("max_error {max_error}, 3 workers");
        assert_eq!(local.raw, sharded.raw, "{ctx}: raw");
        assert_eq!(local.cover, sharded.cover, "{ctx}: cover");
        assert_eq!(local.stats, sharded.stats, "{ctx}: stats");
        assert_eq!(local.scored, sharded.scored, "{ctx}: scored");
    }
}
