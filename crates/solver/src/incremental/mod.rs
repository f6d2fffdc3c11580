//! Incremental FD/IND validation for mutating databases.
//!
//! The paper frames INDs as *the* referential-integrity constraints a live
//! database must maintain (Section 1: "each manager's department is an
//! existing department"), and the checking workload — not implication — is
//! what a serving system executes on every write. Re-running the
//! [`depkit_core::satisfy`] scans after each mutation costs time
//! proportional to the whole database; this module maintains constraint
//! state *incrementally*, so a [`Delta`](depkit_core::delta::Delta) of `k`
//! row changes is validated in `O(k · Σ proj)` hash work, independent of
//! the total row count.
//!
//! The engine is the [`catalog`] submodule. A [`CatalogState`] compiles a
//! `(Schema, Σ_FD, Σ_IND)` pair once and counts projection keys over
//! interned value ids:
//!
//! * each IND `R[X] ⊆ S[Y]` counts the `X`-projections of `r` and the
//!   `Y`-projections of `s`; a key is *violating* iff its left count is
//!   positive and its right count is zero, and only the `0 ↔ 1`
//!   transitions of those counts can flip that;
//! * each FD `R: X → Y` counts its `X ++ Y` projection pairs and, per `X`,
//!   the distinct `Y`-projections; a key is violating iff its group holds
//!   ≥ 2 of them.
//!
//! Every count is generation-stamped, so any number of [`Session`]s stage,
//! preview and commit deltas against one catalog while pinned
//! [`Snapshot`]s keep reading their own generation — the shape `depkit
//! serve` runs. A single writer is the one-session case: `depkit validate`
//! commits each batch through `begin → stage → commit` and reads the
//! result back through a fresh [`Snapshot`].
//!
//! [`full_violations`] is the from-scratch reference path: it recomputes the
//! same normalized [`ViolationKey`] set by scanning the whole database.
//! The differential-testing contract — *incremental == full recheck after
//! every delta* — is enforced by `tests/incremental_vs_full.rs` and is the
//! pattern every future serving feature should follow.

pub mod catalog;
pub mod durable;

pub use catalog::{
    CatalogState, CommitOutcome, CommitRecord, CommitSink, DepHealth, FrozenRelation, Session,
    Snapshot,
};
pub use durable::{Durability, DurabilityConfig, RecoveryReport};

use depkit_core::database::Database;
use depkit_core::dependency::Dependency;
use depkit_core::error::CoreError;
use depkit_core::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// A normalized, order-independent identification of one constraint
/// violation, shared by the incremental and full-recheck paths.
///
/// `dep` is the index of the violated dependency in the `Σ` slice the
/// engine was built from; the payload pins down *where* it fails, so two
/// violation sets are comparable as plain [`BTreeSet`]s.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKey {
    /// FD `Σ[dep]` fails on the group of rows whose LHS projection is
    /// `lhs` (that group holds at least two distinct RHS projections).
    Fd {
        /// Index into `Σ`.
        dep: usize,
        /// The LHS projection shared by the conflicting rows.
        lhs: Vec<Value>,
    },
    /// IND `Σ[dep]` fails on `missing`: some left-side row projects to it
    /// but no right-side row does.
    Ind {
        /// Index into `Σ`.
        dep: usize,
        /// The uncovered projection.
        missing: Vec<Value>,
    },
}

fn write_values(f: &mut fmt::Formatter<'_>, vs: &[Value]) -> fmt::Result {
    f.write_str("(")?;
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{v}")?;
    }
    f.write_str(")")
}

impl fmt::Display for ViolationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKey::Fd { dep, lhs } => {
                write!(f, "FD #{dep} violated: key group ")?;
                write_values(f, lhs)?;
                write!(f, " maps to multiple RHS values")
            }
            ViolationKey::Ind { dep, missing } => {
                write!(f, "IND #{dep} violated: projection ")?;
                write_values(f, missing)?;
                write!(f, " has no covering right-side row")
            }
        }
    }
}

/// The full-revalidation reference path: recompute the violation set of
/// `sigma` against `db` from scratch, in time proportional to the whole
/// database.
///
/// Produces exactly the normalized [`ViolationKey`] set a [`Snapshot`]
/// holding the same rows reports — the differential-testing oracle for the
/// incremental engine, and the baseline the `incremental_validation` bench
/// measures against.
pub fn full_violations(
    db: &Database,
    sigma: &[Dependency],
) -> Result<BTreeSet<ViolationKey>, CoreError> {
    let mut out = BTreeSet::new();
    for (dep, d) in sigma.iter().enumerate() {
        match d {
            Dependency::Fd(fd) => {
                let r = db.relation(&fd.rel)?;
                let lhs_cols = r.scheme().columns(&fd.lhs)?;
                let rhs_cols = r.scheme().columns(&fd.rhs)?;
                let mut groups: HashMap<Vec<Value>, HashSet<Vec<Value>>> = HashMap::new();
                for t in r.tuples() {
                    groups
                        .entry(t.project(&lhs_cols))
                        .or_default()
                        .insert(t.project(&rhs_cols));
                }
                for (lhs, rhs_set) in groups {
                    if rhs_set.len() >= 2 {
                        out.insert(ViolationKey::Fd { dep, lhs });
                    }
                }
            }
            Dependency::Ind(ind) => {
                let left = db.relation(&ind.lhs_rel)?;
                let right = db.relation(&ind.rhs_rel)?;
                let lcols = left.scheme().columns(&ind.lhs_attrs)?;
                let rcols = right.scheme().columns(&ind.rhs_attrs)?;
                let covered: HashSet<Vec<Value>> =
                    right.tuples().map(|t| t.project(&rcols)).collect();
                // Borrow-keyed membership probe; the owned projection is
                // materialized only for actual violations.
                let mut buf: Vec<Value> = Vec::with_capacity(lcols.len());
                for t in left.tuples() {
                    buf.clear();
                    buf.extend(t.project_ref(&lcols).cloned());
                    if !covered.contains(buf.as_slice()) {
                        out.insert(ViolationKey::Ind {
                            dep,
                            missing: buf.clone(),
                        });
                    }
                }
            }
            other => {
                return Err(CoreError::UnsupportedDependency(format!(
                    "full revalidation handles FDs and INDs only, got `{other}`"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::delta::{Delta, DeltaOutcome};
    use depkit_core::relation::Tuple;
    use depkit_core::schema::DatabaseSchema;

    fn setup() -> (DatabaseSchema, Vec<Dependency>) {
        let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO, MGR)"]).unwrap();
        let sigma: Vec<Dependency> = vec![
            "EMP[DEPT] <= DEPT[DNO]".parse().unwrap(),
            "EMP: NAME -> DEPT".parse().unwrap(),
            "DEPT: DNO -> MGR".parse().unwrap(),
        ];
        (schema, sigma)
    }

    /// Commit `d` through one session of `cat`, mirror it onto `db`, and
    /// check the fresh snapshot against the full recheck of `db`.
    fn commit(cat: &CatalogState, db: &mut Database, d: &Delta) -> (DeltaOutcome, Snapshot) {
        let mut s = cat.begin();
        s.stage(d).unwrap();
        let out = s.commit().applied;
        assert_eq!(out, db.apply_delta(d).unwrap());
        let snap = cat.snapshot();
        assert_eq!(
            snap.violations(),
            full_violations(db, cat.sigma()).unwrap(),
            "incremental and full recheck disagree"
        );
        (out, snap)
    }

    #[test]
    fn ind_violation_appears_and_clears() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut db = Database::empty(schema);
        assert!(cat.snapshot().is_consistent());
        let mut dangling = Delta::new();
        dangling.insert("EMP", Tuple::strs(&["h", "math"]));
        let mut cover = Delta::new();
        cover.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        // A dangling EMP row; a covering DEPT row clears it; deleting the
        // covering row re-violates; deleting the dangling row restores
        // consistency.
        let steps = [
            (dangling.clone(), 1),
            (cover.clone(), 0),
            (cover.inverse(), 1),
            (dangling.inverse(), 0),
        ];
        for (d, violations) in &steps {
            let (_, snap) = commit(&cat, &mut db, d);
            assert_eq!(snap.violations().len(), *violations);
            assert_eq!(snap.is_consistent(), *violations == 0);
        }
        assert_eq!(cat.total_rows(), 0);
    }

    #[test]
    fn fd_violation_tracks_distinct_rhs_groups() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut db = Database::empty(schema);
        let mut d = Delta::new();
        d.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        d.insert("DEPT", Tuple::strs(&["math", "euler"])); // FD DNO -> MGR broken
        d.insert("DEPT", Tuple::strs(&["cs", "knuth"]));
        assert_eq!(commit(&cat, &mut db, &d).1.violations().len(), 1);
        // Removing one of the two conflicting rows repairs the group.
        let mut d2 = Delta::new();
        d2.delete("DEPT", Tuple::strs(&["math", "euler"]));
        assert!(commit(&cat, &mut db, &d2).1.is_consistent());
    }

    #[test]
    fn duplicate_inserts_and_absent_deletes_are_noops() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut db = Database::empty(schema);
        let mut d = Delta::new();
        d.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        d.insert("DEPT", Tuple::strs(&["math", "gauss"]));
        d.delete("EMP", Tuple::strs(&["ghost", "cs"]));
        let (out, snap) = commit(&cat, &mut db, &d);
        assert_eq!((out.inserted, out.deleted), (1, 0));
        assert_eq!(snap.total_rows(), 1);
        assert!(snap.is_consistent());
        // Replayed, every operation is a no-op, and a commit that changes
        // nothing publishes no generation.
        let generation = cat.generation();
        assert_eq!(commit(&cat, &mut db, &d).0, DeltaOutcome::default());
        assert_eq!(cat.generation(), generation);
    }

    #[test]
    fn self_ind_updates_both_sides() {
        let schema = DatabaseSchema::parse(&["R(A, B)"]).unwrap();
        let sigma: Vec<Dependency> = vec!["R[A] <= R[B]".parse().unwrap()];
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut db = Database::empty(schema);
        // (1, 1) covers itself; (2, 3) leaves A-value 2 uncovered.
        let mut d = Delta::new();
        d.insert_ints("R", &[1, 1]).insert_ints("R", &[2, 3]);
        assert_eq!(commit(&cat, &mut db, &d).1.violations().len(), 1);
        // One row covers 2 on the right and brings 3 in on the left,
        // where (2, 3) already covers it.
        let mut d2 = Delta::new();
        d2.insert_ints("R", &[3, 2]);
        assert!(commit(&cat, &mut db, &d2).1.is_consistent());
    }

    #[test]
    fn seed_matches_bulk_delta() {
        let (schema, sigma) = setup();
        let mut db = Database::empty(schema.clone());
        db.insert_str("DEPT", &[&["math", "gauss"], &["cs", "knuth"]])
            .unwrap();
        db.insert_str("EMP", &[&["h", "math"], &["k", "cs"], &["x", "bio"]])
            .unwrap();
        let seeded = CatalogState::new(&schema, &sigma).unwrap();
        let out = seeded.seed(&db).unwrap();
        assert_eq!(out.applied.inserted, 5);
        // The same rows as one insert-only delta.
        let mut bulk = Delta::new();
        for relation in db.relations() {
            for t in relation.tuples() {
                bulk.insert(relation.scheme().name().clone(), t.clone());
            }
        }
        let replayed = CatalogState::new(&schema, &sigma).unwrap();
        let (applied, snap) = commit(&replayed, &mut Database::empty(schema), &bulk);
        assert_eq!(applied, out.applied);
        let seeded = seeded.snapshot();
        assert_eq!(seeded.total_rows(), db.total_tuples());
        assert_eq!(seeded.violations(), snap.violations());
        assert_eq!(seeded.health(), snap.health());
        assert_eq!(snap.violations().len(), 1); // ("bio") dangling
    }

    #[test]
    fn failed_seed_mutates_nothing() {
        // A database whose *last* relation is unknown to the catalog: the
        // error must surface before any earlier relation's rows are
        // applied.
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let bad_schema =
            DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO, MGR)", "X(C)"]).unwrap();
        let mut bad = Database::empty(bad_schema);
        // Two EMP rows that would violate the FD NAME -> DEPT.
        bad.insert_str("EMP", &[&["h", "math"], &["h", "cs"]])
            .unwrap();
        bad.insert_str("X", &[&["boom"]]).unwrap();
        assert!(matches!(cat.seed(&bad), Err(CoreError::UnknownRelation(_))));
        // Arity mismatch under a known name is likewise rejected up front.
        let widened = DatabaseSchema::parse(&["EMP(NAME, DEPT, EXTRA)"]).unwrap();
        let mut wide = Database::empty(widened);
        wide.insert_str("EMP", &[&["h", "math", "x"]]).unwrap();
        assert!(matches!(cat.seed(&wide), Err(CoreError::TupleArity { .. })));
        let snap = cat.snapshot();
        assert_eq!((cat.generation(), snap.total_rows()), (0, 0));
        assert!(snap.is_consistent());
        assert!(snap.violations().is_empty());
    }

    #[test]
    fn rejects_unsupported_dependencies_and_bad_tuples() {
        let schema = DatabaseSchema::parse(&["R(A, B)"]).unwrap();
        let rd: Dependency = "R[A = B]".parse().unwrap();
        assert!(matches!(
            CatalogState::new(&schema, std::slice::from_ref(&rd)),
            Err(CoreError::UnsupportedDependency(_))
        ));
        assert!(matches!(
            full_violations(&Database::empty(schema.clone()), &[rd]),
            Err(CoreError::UnsupportedDependency(_))
        ));

        let cat = CatalogState::new(&schema, &[]).unwrap();
        let mut s = cat.begin();
        let mut bad_rel = Delta::new();
        bad_rel.insert_ints("S", &[1, 2]);
        assert!(s.stage(&bad_rel).is_err());
        let mut bad_arity = Delta::new();
        bad_arity.insert_ints("R", &[1]);
        assert!(s.stage(&bad_arity).is_err());
        assert!(s.staged().is_empty());
    }

    #[test]
    fn explain_names_the_dependency() {
        let (schema, sigma) = setup();
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let mut d = Delta::new();
        d.insert("EMP", Tuple::strs(&["h", "math"]));
        d.insert("EMP", Tuple::strs(&["h", "cs"]));
        let (_, snap) = commit(&cat, &mut Database::empty(schema), &d);
        let vs = snap.violations();
        let text: Vec<String> = vs.iter().map(|v| snap.explain(v)).collect();
        assert_eq!(
            text,
            [
                "FD EMP: NAME -> DEPT violated: rows with (h) on the LHS disagree on the RHS",
                "IND EMP[DEPT] <= DEPT[DNO] violated: projection (cs) missing on the right",
                "IND EMP[DEPT] <= DEPT[DNO] violated: projection (math) missing on the right",
            ]
        );
        assert!(vs.iter().next().unwrap().to_string().contains("FD #1"));
    }
}
