//! Differential property test for the serving layer: the incremental
//! [`CatalogState`], driven one session per batch, must report exactly the
//! violation set a full recheck of the mutated database computes, after
//! every delta of every random insert/delete sequence.
//!
//! This is the differential-testing contract of
//! `depkit_solver::incremental` (incremental == full revalidation), the
//! serving-workload analogue of `tests/compiled_vs_reference.rs`.

use depkit_core::generate::{random_fd, random_ind, random_schema, Rng, SchemaConfig};
use depkit_core::prelude::*;
use depkit_solver::incremental::{full_violations, CatalogState, Snapshot};
use proptest::prelude::*;

/// Build a random FD/IND constraint set over `schema`. Small arities and a
/// small value pool below make violations, repairs, and re-violations all
/// likely within a few batches.
fn random_sigma(rng: &mut Rng, schema: &DatabaseSchema) -> Vec<Dependency> {
    let mut sigma: Vec<Dependency> = Vec::new();
    for _ in 0..3 {
        let arity = rng.range(1, 2);
        if let Some(i) = random_ind(rng, schema, arity) {
            sigma.push(i.into());
        }
    }
    for _ in 0..3 {
        if let Some(f) = random_fd(rng, schema, 1, 1) {
            sigma.push(f.into());
        }
    }
    sigma
}

/// One random mutation batch: 1–6 inserts/deletes of rows drawn from a
/// 4-value pool (collisions with live rows are the interesting cases).
fn random_delta(rng: &mut Rng, schema: &DatabaseSchema) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..rng.range(1, 6) {
        let scheme = rng.choose(schema.schemes());
        let row: Vec<i64> = (0..scheme.arity()).map(|_| rng.below(4) as i64).collect();
        let t = Tuple::ints(&row);
        if rng.chance(1, 3) {
            delta.delete(scheme.name().clone(), t);
        } else {
            delta.insert(scheme.name().clone(), t);
        }
    }
    delta
}

/// Everything a fresh snapshot reports must match the full recheck of
/// `db`: the row count, the violation set, the consistency verdict, and
/// the per-dependency violating counts `health` sums to.
fn check_against_full(snap: &Snapshot, db: &Database, sigma: &[Dependency]) {
    let full = full_violations(db, sigma).expect("sigma is FD/IND only");
    assert_eq!(snap.total_rows(), db.total_tuples());
    assert_eq!(snap.violations(), full);
    assert_eq!(
        snap.is_consistent(),
        db.satisfies_all(sigma).expect("sigma is well formed")
    );
    let violating: u64 = snap.health().iter().map(|h| h.violating).sum();
    assert_eq!(violating, full.len() as u64);
}

proptest! {
    /// Drive random insert/delete sequences through the catalog — one
    /// `begin → stage → commit` session per batch — and the full-recheck
    /// reference path in lockstep; their outcomes, row counts, violation
    /// sets and verdicts must agree at every checkpoint.
    #[test]
    fn incremental_matches_full_recheck(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 3, min_arity: 2, max_arity: 3,
        });
        let sigma = random_sigma(&mut rng, &schema);
        let cat = CatalogState::new(&schema, &sigma).expect("FDs and INDs compile");
        let mut db = Database::empty(schema.clone());

        for _batch in 0..8 {
            let delta = random_delta(&mut rng, &schema);
            let mut session = cat.begin();
            session.stage(&delta).expect("delta is well formed");
            let inc_out = session.commit().applied;
            let full_out = db.apply_delta(&delta).expect("delta is well formed");
            prop_assert_eq!(inc_out, full_out);
            check_against_full(&cat.snapshot(), &db, &sigma);
        }
    }

    /// Seeding from a populated database — as a `Database` or as a row
    /// stream in schema order — must match the full recheck of that
    /// database.
    #[test]
    fn seeding_matches_full_recheck(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 2, min_arity: 2, max_arity: 3,
        });
        let sigma = random_sigma(&mut rng, &schema);
        let db = depkit_core::generate::random_database(&mut rng, &schema, 12, 4);
        let seeded = CatalogState::new(&schema, &sigma).expect("FDs and INDs compile");
        let out = seeded.seed(&db).expect("database matches schema");
        prop_assert_eq!(out.applied.inserted, db.total_tuples());
        check_against_full(&seeded.snapshot(), &db, &sigma);

        let streamed = CatalogState::new(&schema, &sigma).expect("FDs and INDs compile");
        let rows = db
            .relations()
            .iter()
            .enumerate()
            .flat_map(|(r, relation)| relation.tuples().map(move |t| (r, t.values())));
        let out = streamed.seed_rows(rows).expect("rows match schema");
        prop_assert_eq!(out.applied.inserted, db.total_tuples());
        check_against_full(&streamed.snapshot(), &db, &sigma);
    }
}
