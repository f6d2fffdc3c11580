//! Regression fixtures for the discovery engine: tiny databases under
//! `tests/data/` with hand-verified expected covers, pinning discovery
//! output against accidental drift. Each fixture is a `schema`/`row` spec
//! (`<name>.dep`) paired with the expected minimal cover, one dependency
//! per line (`<name>.cover`); comparison is order-insensitive. The one
//! exception, `discover_wide`, pins cover minimization alone: a raw set
//! (`.raw`) and the cover it minimizes to, in order.

use depkit_core::{Database, DatabaseSchema, Dependency, RelName, Tuple, Value};
use depkit_solver::discover::{discover, implied_by, minimize_cover, DiscoveryConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// Parse the `schema`/`row` subset of the CLI spec format (`dep` lines are
/// deliberately rejected: fixtures must carry data only, so the expected
/// cover cannot leak into the input).
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
            "schema" => schemes.push(depkit_core::parser::parse_scheme(rest).unwrap()),
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
            other => panic!("fixture directive `{other}` not supported"),
        }
    }
    let mut db = Database::empty(DatabaseSchema::new(schemes).unwrap());
    for (rel, values) in rows {
        db.insert(&RelName::new(&rel), Tuple::new(values)).unwrap();
    }
    db
}

/// One dependency per line, in file order.
fn load_dependencies(text: &str) -> Vec<Dependency> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("dependency line parses"))
        .collect()
}

fn load_cover(text: &str) -> BTreeSet<Dependency> {
    load_dependencies(text).into_iter().collect()
}

fn check_fixture(name: &str) {
    let spec = std::fs::read_to_string(data_dir().join(format!("{name}.dep"))).unwrap();
    let expected = std::fs::read_to_string(data_dir().join(format!("{name}.cover"))).unwrap();
    let db = load_database(&spec);
    let expected = load_cover(&expected);

    let found = discover(&db);
    let got: BTreeSet<Dependency> = found.cover.iter().cloned().collect();
    assert_eq!(
        got, expected,
        "fixture `{name}`: discovered cover drifted from the pinned expectation"
    );
    // The pinned cover is itself checked: satisfied by the data, and it
    // implies everything mined.
    for d in &found.raw {
        assert!(db.satisfies(d).unwrap(), "fixture `{name}`: {d} violated");
        assert!(
            implied_by(&found.cover, d),
            "fixture `{name}`: {d} not implied by the cover"
        );
    }
}

#[test]
fn chain_fixture() {
    check_fixture("chain");
}

#[test]
fn employees_fixture() {
    check_fixture("employees");
}

#[test]
fn diamond_fixture() {
    check_fixture("diamond");
}

#[test]
fn orders_fixture() {
    check_fixture("orders");
}

/// Rows before the schema and out of order, exact repeats, ints mixed
/// with strings in one column, and `7` spelled three ways: the spec names
/// 13 rows, the relations hold 8, over 15 distinct values.
#[test]
fn messy_fixture() {
    check_fixture("messy");
    let spec = std::fs::read_to_string(data_dir().join("messy.dep")).unwrap();
    assert_eq!(spec.lines().filter(|l| l.starts_with("row ")).count(), 13);
    let db = load_database(&spec);
    let stats = discover(&db).stats;
    assert_eq!((stats.rows, stats.distinct_values), (8, 15));
    let cust = db.relation(&RelName::new("CUST")).unwrap();
    assert!(cust.contains(&Tuple::new(vec![Value::Int(7), Value::str("ada")])));
    assert!(cust.contains(&Tuple::new(vec![Value::str("k4"), Value::str("dee")])));
}

/// A minimization that truncates: the 104 dependencies `perfbench`'s
/// `discover-wide` input mines. Most stage-2 saturations over them stop
/// at the pruning caps, where the saturator's derivation order decides
/// what is derived, so the cover is pinned exactly, order included.
#[test]
fn truncating_minimization_fixture() {
    let read = |file: &str| std::fs::read_to_string(data_dir().join(file)).unwrap();
    let raw = load_dependencies(&read("discover_wide.raw"));
    let expected = load_dependencies(&read("discover_wide.cover"));
    assert_eq!(raw.len(), 104);
    assert_eq!(expected.len(), 28);
    assert_eq!(minimize_cover(&raw, &DiscoveryConfig::default()), expected);
}
