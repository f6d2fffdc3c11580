//! Mutation batches against a [`Database`].
//!
//! A [`Delta`] is the unit of change a serving system applies between
//! validation checkpoints: a set of deletions `Δ⁻` followed by a set of
//! insertions `Δ⁺` (the view-maintenance convention — deletes apply first,
//! so a delta that deletes and re-inserts the same tuple leaves it
//! present). Relations are sets, so a duplicate insert or an absent delete
//! is a no-op; [`Database::apply_delta`] reports how many operations
//! actually changed the database, which is what the incremental catalog
//! keys its index maintenance on.

use crate::database::Database;
use crate::error::CoreError;
use crate::relation::Tuple;
use crate::schema::RelName;
use std::fmt;

/// One mutation batch: deletions applied first, then insertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Tuples to delete (applied first; absent tuples are no-ops).
    pub deletes: Vec<(RelName, Tuple)>,
    /// Tuples to insert (applied second; present tuples are no-ops).
    pub inserts: Vec<(RelName, Tuple)>,
}

impl Delta {
    /// The empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Queue an insertion.
    pub fn insert(&mut self, rel: impl Into<RelName>, t: Tuple) -> &mut Self {
        self.inserts.push((rel.into(), t));
        self
    }

    /// Queue a deletion.
    pub fn delete(&mut self, rel: impl Into<RelName>, t: Tuple) -> &mut Self {
        self.deletes.push((rel.into(), t));
        self
    }

    /// Queue an integer-tuple insertion (test/bench convenience).
    pub fn insert_ints(&mut self, rel: &str, row: &[i64]) -> &mut Self {
        self.insert(rel, Tuple::ints(row))
    }

    /// Queue an integer-tuple deletion (test/bench convenience).
    pub fn delete_ints(&mut self, rel: &str, row: &[i64]) -> &mut Self {
        self.delete(rel, Tuple::ints(row))
    }

    /// Total number of queued operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the delta queues no operations. Consumers use this as the
    /// empty-commit fast path: applying an empty delta must touch no index
    /// and advance no generation (the session catalog tests this
    /// contract).
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Drop every queued operation, keeping the allocations — the
    /// staging-reuse path of session `abort` (and of commit loops that
    /// recycle one staging delta across batches).
    pub fn clear(&mut self) {
        self.inserts.clear();
        self.deletes.clear();
    }

    /// The delta that undoes this one against the database it was applied
    /// to, assuming every operation took effect (no no-ops): inserts become
    /// deletes and vice versa.
    pub fn inverse(&self) -> Delta {
        Delta {
            deletes: self.inserts.clone(),
            inserts: self.deletes.clone(),
        }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "-{} +{}", self.deletes.len(), self.inserts.len())
    }
}

/// What [`Database::apply_delta`] actually changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Insertions that added a new tuple (duplicates excluded).
    pub inserted: usize,
    /// Deletions that removed a present tuple (absent excluded).
    pub deleted: usize,
}

impl Database {
    /// Apply a [`Delta`]: all deletions first, then all insertions.
    ///
    /// Errors (unknown relation, arity mismatch) abort mid-batch with the
    /// earlier operations already applied — validate deltas upfront when
    /// atomicity matters. Returns how many operations changed the database.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaOutcome, CoreError> {
        let mut outcome = DeltaOutcome::default();
        for (rel, t) in &delta.deletes {
            if self.remove(rel, t)? {
                outcome.deleted += 1;
            }
        }
        for (rel, t) in &delta.inserts {
            if self.insert(rel, t.clone())? {
                outcome.inserted += 1;
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatabaseSchema;

    #[test]
    fn apply_delta_deletes_then_inserts() {
        let schema = DatabaseSchema::parse(&["R(A, B)"]).unwrap();
        let mut db = Database::empty(schema);
        db.insert_ints("R", &[&[1, 2], &[3, 4]]).unwrap();

        let mut d = Delta::new();
        d.delete_ints("R", &[1, 2])
            .delete_ints("R", &[9, 9]) // absent: no-op
            .insert_ints("R", &[5, 6])
            .insert_ints("R", &[3, 4]); // duplicate: no-op
        let out = db.apply_delta(&d).unwrap();
        assert_eq!(
            out,
            DeltaOutcome {
                inserted: 1,
                deleted: 1
            }
        );
        assert_eq!(db.total_tuples(), 2);

        // Delete-then-insert of the same tuple keeps it present.
        let mut redo = Delta::new();
        redo.delete_ints("R", &[5, 6]).insert_ints("R", &[5, 6]);
        db.apply_delta(&redo).unwrap();
        assert!(db
            .relation(&RelName::new("R"))
            .unwrap()
            .contains(&Tuple::ints(&[5, 6])));

        // The inverse of an effective delta restores the database.
        let before = db.clone();
        let mut eff = Delta::new();
        eff.delete_ints("R", &[3, 4]).insert_ints("R", &[7, 8]);
        db.apply_delta(&eff).unwrap();
        db.apply_delta(&eff.inverse()).unwrap();
        assert_eq!(db, before);
    }

    #[test]
    fn clear_keeps_the_delta_reusable() {
        let mut d = Delta::new();
        d.insert_ints("R", &[1]).delete_ints("R", &[2]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        d.insert_ints("R", &[3]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn empty_delta_is_a_noop_fast_path() {
        let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
        let mut db = Database::empty(schema);
        db.insert_ints("R", &[&[1]]).unwrap();
        let before = db.clone();
        let out = db.apply_delta(&Delta::new()).unwrap();
        assert_eq!(out, DeltaOutcome::default());
        assert_eq!(db, before);
    }

    #[test]
    fn apply_delta_rejects_bad_ops() {
        let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
        let mut db = Database::empty(schema);
        let mut d = Delta::new();
        d.insert_ints("S", &[1]);
        assert!(db.apply_delta(&d).is_err());
        let mut d2 = Delta::new();
        d2.insert_ints("R", &[1, 2]);
        assert!(db.apply_delta(&d2).is_err());
    }
}
