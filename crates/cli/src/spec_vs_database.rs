//! Differential test of the two ways a spec becomes a [`ColumnStore`]:
//! the spec route `depkit discover` takes (the row buffers
//! `SpecHead::parse` fills, handed to [`ColumnStore::from_buffers`], rows
//! in file order) against the `Database` route ([`parse_spec`], then
//! [`ColumnStore::new`], rows in sorted order and deduplicated by the
//! `Relation` set). The spec route must also equal, id for id, the store
//! [`ColumnStore::from_rows`] builds from `SpecHead::rows`' file-order
//! replay.
//!
//! The two stores number their values differently, so the test compares
//! what the numbering must not change: row and value counts, each
//! relation's rows as values, which values the interner knows, and every
//! discovery result.

use crate::spec::{parse_spec, SpecHead};
use depkit_core::generate::Rng;
use depkit_core::{ColumnStore, Value};
use depkit_solver::discover::{discover_store, Discovery, DiscoveryConfig};

/// Ints of a small domain, the spellings `7`, `007` and `+7` of one
/// value (and `-0` of 0), and strings.
const TOKENS: [&str; 12] = [
    "0", "7", "007", "+7", "x", "-1", "1", "y", "2", "-2", "07x", "-0",
];
/// Added to some specs' palettes: the ends of `i64`, and a far int that
/// leaves a small spec too sparse for the int window.
const WIDE_TOKENS: [&str; 3] = ["-9223372036854775808", "9223372036854775807", "100000"];

/// A random spec: 1–3 relations of arity 1–4 with 1–10 rows each (an
/// empty wide relation satisfies so much that minimizing takes seconds).
/// Values come from a small palette; about a quarter of the rows are exact
/// copies of an earlier row, schema lines land among the rows, and a
/// third of the specs list their rows in reverse.
fn random_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut palette: Vec<&str> = TOKENS[..rng.range(3, TOKENS.len())].to_vec();
    if rng.chance(1, 3) {
        palette.extend(&WIDE_TOKENS[rng.below(WIDE_TOKENS.len())..]);
    }
    let arities: Vec<usize> = (0..rng.range(1, 3)).map(|_| rng.range(1, 4)).collect();
    let mut rows: Vec<String> = Vec::new();
    for (r, &arity) in arities.iter().enumerate() {
        for _ in 0..rng.range(1, 10) {
            let row = if !rows.is_empty() && rng.chance(1, 4) {
                rows[rng.below(rows.len())].clone()
            } else {
                let values: Vec<&str> = (0..arity).map(|_| *rng.choose(&palette)).collect();
                format!("row R{r} {}", values.join(" "))
            };
            rows.push(row);
        }
    }
    if rng.chance(1, 3) {
        rows.reverse();
    }
    let mut lines = rows;
    for (r, &arity) in arities.iter().enumerate() {
        let attrs: Vec<String> = (0..arity).map(|c| format!("A{c}")).collect();
        let at = rng.range(0, lines.len());
        lines.insert(at, format!("schema R{r}({})", attrs.join(", ")));
    }
    lines.join("\n") + "\n"
}

fn assert_same_store(text: &str, spec_store: &ColumnStore, db_store: &ColumnStore) {
    assert_eq!(spec_store.total_rows(), db_store.total_rows(), "{text}");
    assert_eq!(
        spec_store.distinct_values(),
        db_store.distinct_values(),
        "{text}"
    );
    for rel in 0..db_store.relation_count() {
        let rows = |store: &ColumnStore| {
            let cols = store.relation(rel);
            let mut rows: Vec<Vec<Value>> = (0..cols.row_count())
                .map(|r| {
                    cols.columns()
                        .iter()
                        .map(|col| store.interner().resolve(col[r]).clone())
                        .collect()
                })
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(rows(spec_store), rows(db_store), "relation {rel} of {text}");
    }
    let (spec_ids, db_ids) = (spec_store.interner(), db_store.interner());
    for id in 0..spec_store.distinct_values() as u32 {
        let v = spec_ids.resolve(id);
        assert_eq!(spec_ids.lookup(v), Some(id), "{v} in {text}");
        assert!(db_ids.lookup(v).is_some(), "{v} in {text}");
    }
    // Absent values stay absent, in and around the int window.
    let probes = (-12..=12)
        .chain([100_000, 99_999, 100_001, i64::MIN, i64::MAX])
        .chain([i64::MIN + 1, i64::MAX - 1])
        .map(Value::Int)
        .chain(["x", "y", "z", "7"].map(Value::str));
    for v in probes {
        assert_eq!(
            spec_ids.lookup(&v).is_some(),
            db_ids.lookup(&v).is_some(),
            "lookup({v}) in {text}"
        );
    }
}

fn assert_same_discovery(text: &str, got: &Discovery, want: &Discovery, config: &str) {
    assert_eq!(got.raw, want.raw, "raw at {config} of {text}");
    assert_eq!(got.cover, want.cover, "cover at {config} of {text}");
    assert_eq!(got.scored, want.scored, "scored at {config} of {text}");
    assert_eq!(got.stats, want.stats, "stats at {config} of {text}");
}

/// Both routes over one spec text: equal stores, and the spec route's
/// discovery at every thread count and budget equals the `Database`
/// route's (whose own invariance the byte-identity matrix pins).
fn check_routes(text: &str) {
    let head = SpecHead::parse(text).unwrap();
    let replayed = ColumnStore::from_rows(head.constraints.schema(), head.rows());
    let (constraints, buffers) = head.into_parts();
    let schema = constraints.schema();
    let spec_store = ColumnStore::from_buffers(buffers);
    assert_eq!(spec_store.relations(), replayed.relations(), "{text}");
    for id in 0..spec_store.distinct_values() as u32 {
        let resolve = |store: &ColumnStore| store.interner().resolve(id).clone();
        assert_eq!(resolve(&spec_store), resolve(&replayed), "{text}");
    }
    let db_store = ColumnStore::new(&parse_spec(text).unwrap().database);
    assert_same_store(text, &spec_store, &db_store);
    for max_error in [0.0, 0.1] {
        // Tiny domains make many accidental INDs, over which the Section 4
        // saturator's minimization takes seconds. Binary INDs and the
        // per-class engines alone keep each run to milliseconds.
        let config = |threads, memory_budget| DiscoveryConfig {
            max_error,
            threads,
            memory_budget,
            max_ind_arity: 2,
            interaction_pruning: false,
            ..DiscoveryConfig::default()
        };
        let want = discover_store(schema, &db_store, &config(1, 0)).unwrap();
        for (threads, memory_budget) in [(1, 0), (2, 0), (1, 1), (2, 1)] {
            let got = discover_store(schema, &spec_store, &config(threads, memory_budget));
            let label = format!("e={max_error} t={threads} b={memory_budget}");
            assert_same_discovery(text, &got.unwrap(), &want, &label);
        }
    }
}

/// Check the specs of `seeds`, and that the generator reached the cases
/// the test is for: repeated rows, rows before any schema line, and both
/// ways of interning ints.
fn check_random_specs(seeds: std::ops::Range<u64>) {
    let quarter = seeds.clone().count() / 4;
    let (mut repeats, mut windowed, mut hashed, mut rows_first) = (0, 0, 0, 0);
    for seed in seeds {
        let text = random_spec(seed);
        check_routes(&text);
        let head = SpecHead::parse(&text).unwrap();
        let fed = head.rows().count();
        let store = ColumnStore::from_buffers(head.into_parts().1);
        repeats += usize::from(store.total_rows() < fed);
        // With the int window in place the int hash table stays unsized.
        match store.interner().table_capacities().0 {
            0 => windowed += usize::from(store.distinct_values() > 0),
            _ => hashed += 1,
        }
        rows_first += usize::from(text.starts_with("row"));
    }
    assert!(repeats >= quarter, "{repeats} specs with repeated rows");
    assert!(
        windowed >= quarter,
        "{windowed} specs interned through the int window"
    );
    assert!(
        hashed >= quarter / 2,
        "{hashed} specs interned through the int table"
    );
    assert!(
        rows_first >= quarter,
        "{rows_first} specs opening with a row"
    );
}

// 200 specs in two tests, which the harness runs in parallel.
#[test]
fn spec_route_matches_the_database_route_on_random_specs() {
    check_random_specs(0..100);
}

#[test]
fn spec_route_matches_the_database_route_on_more_random_specs() {
    check_random_specs(100..200);
}

#[test]
fn spec_route_matches_the_database_route_on_every_fixture() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "dep") {
            check_routes(&std::fs::read_to_string(&path).unwrap());
            seen += 1;
        }
    }
    assert!(seen >= 6, "found only {seen} fixtures in {dir}");
}
