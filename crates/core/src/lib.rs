//! # depkit-core — dependency terms and the relational model layer
//!
//! This crate implements the definitions of Section 2 of Casanova, Fagin &
//! Papadimitriou, *Inclusion Dependencies and Their Interaction with
//! Functional Dependencies* (PODS 1982 / JCSS 28(1), 1984), together with
//! exact satisfaction checking and supporting machinery used by the rest of
//! the `depkit` workspace.
//!
//! ## The model
//!
//! Following the paper, a *relation scheme* is a named finite **sequence** of
//! attributes (not a set — sequences are essential so that functional and
//! inclusion dependencies can be interrelated positionally), a *tuple* over a
//! scheme is a sequence of values of the same length, and a *relation* is a
//! set of tuples. A *database schema* is a finite set of relation schemes and
//! a *database* assigns a relation to each scheme.
//!
//! ## Dependencies
//!
//! * [`Fd`] — functional dependency `R: X -> Y` with `X`, `Y` sequences of
//!   distinct attributes of `R`.
//! * [`Ind`] — inclusion dependency `R[X] ⊆ S[Y]` with `|X| = |Y|`.
//! * [`Rd`] — repeating dependency `R[X = Y]` (Section 4 of the paper).
//! * [`Emvd`] — embedded multivalued dependency `R: X ->> Y | Z`
//!   (used by Theorem 5.3, the Sagiv–Walecka family).
//!
//! ## The interned symbol catalog
//!
//! The [`intern`] module provides the compiled-representation layer the
//! implication engines run on: a [`Catalog`] mapping attribute and relation
//! names to dense `u32` ids, bit-set attribute sets ([`AttrBitSet`]), and
//! compact id sequences ([`IdSeq`]). String-typed APIs intern at their call
//! boundary and compute over ids; see the module docs for the contract.
//!
//! ## Mutation: deltas and serving indexes
//!
//! The [`delta`] module defines the mutation unit of the online-validation
//! workload — a [`Delta`] of deletions-then-insertions applied by
//! [`Database::apply_delta`] — and the [`index`] module provides the
//! structures over raw `u32` rows ([`ValueInterner`], and the
//! generation-stamped [`GenValue`] / [`VersionedIndex`]) that
//! `depkit_solver::incremental` composes into its snapshot-isolated
//! constraint catalog.
//!
//! ## Columnar storage and parallel scans
//!
//! The [`mod@column`] module compiles a whole database into struct-of-arrays
//! form — one dense `u32` id column per attribute ([`ColumnStore`]), with
//! distinct column views and the radix-style stripped-partition
//! [`Refiner`] — so the hot whole-database scans
//! (dependency discovery above all) run over contiguous id runs instead of
//! per-row heap vectors. The [`pool`] module provides the scoped-thread
//! indexed parallel map those scans fan out on, and [`hashing`] the
//! deterministic fast hasher the id-keyed tables use.
//!
//! ## Distinct streams under a memory budget
//!
//! The [`spill`] module holds the uniform [`DistinctStream`] beneath
//! memory-budgeted discovery: it yields an attribute's distinct ids as
//! 64-id presence words, whether they are held as a bitmap or as a sorted
//! list, or, for a column over its budget share, filled one id-range slice
//! at a time by rescanning the resident column. Nothing is written to
//! disk.
//!
//! ## Durability: write-ahead log and checkpoints
//!
//! The [`wal`] module is the on-disk durability layer under the serve
//! catalog: length-prefixed FNV-1a64-checksummed commit frames
//! ([`scan_wal`], [`WalWriter`]), checksummed whole-state checkpoints
//! ([`CheckpointDoc`]) published via an atomic tmp→rename protocol,
//! torn-tail vs mid-log-corruption discrimination, and the [`CrashPlan`]
//! process-abort injection hook the crash-recovery harness drives.
//!
//! ## Infinite relations
//!
//! Theorem 4.4 of the paper separates finite from unrestricted implication by
//! exhibiting *infinite* relations (Figures 4.1 and 4.2). The [`symbolic`]
//! module provides affine-pattern relations — a decidable class of infinite
//! relations closed under the reasoning the paper needs — so those witnesses
//! can be represented and checked exactly.
//!
//! ## Quick example
//!
//! ```
//! use depkit_core::prelude::*;
//!
//! let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "MGR(NAME, DEPT)"]).unwrap();
//! let ind: Dependency = "MGR[NAME, DEPT] <= EMP[NAME, DEPT]".parse().unwrap();
//! assert!(ind.is_well_formed(&schema).is_ok());
//!
//! let mut db = Database::empty(schema);
//! db.insert_str("EMP", &[&["hilbert", "math"], &["noether", "math"]]).unwrap();
//! db.insert_str("MGR", &[&["hilbert", "math"]]).unwrap();
//! assert!(db.satisfies(&ind).unwrap());
//! ```

pub mod attr;
pub mod column;
pub mod constraint;
pub mod database;
pub mod delta;
pub mod dependency;
pub mod error;
pub mod generate;
pub mod hashing;
pub mod index;
pub mod intern;
pub mod parser;
pub mod pool;
pub mod relation;
pub mod satisfy;
pub mod schema;
pub mod spill;
pub mod symbolic;
pub mod value;
pub mod wal;

pub use attr::{Attr, AttrSeq};
pub use column::{
    ChunkedColumn, ChunkedColumnSnapshot, ColumnCursor, ColumnStore, KeySet, Refiner,
    RelationColumns, RowBuffer,
};
pub use constraint::ConstraintSet;
pub use database::Database;
pub use delta::{Delta, DeltaOutcome};
pub use dependency::{Dependency, Emvd, Fd, Ind, Rd};
pub use error::CoreError;
pub use index::{GenValue, ValueInterner, VersionedIndex};
pub use intern::{AttrBitSet, AttrId, Catalog, IdSeq, RelId};
pub use relation::{Relation, Tuple};
pub use schema::{DatabaseSchema, RelName, RelationScheme};
pub use spill::{DistinctStream, SpillStats};
pub use value::Value;
pub use wal::{
    read_checkpoint, scan_wal, CheckpointDoc, CommitFrame, CrashPlan, CrashPoint, FsyncPolicy,
    WalHeader, WalScan, WalTail, WalWriter,
};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::attr::{Attr, AttrSeq};
    pub use crate::constraint::ConstraintSet;
    pub use crate::database::Database;
    pub use crate::delta::{Delta, DeltaOutcome};
    pub use crate::dependency::{Dependency, Emvd, Fd, Ind, Rd};
    pub use crate::error::CoreError;
    pub use crate::relation::{Relation, Tuple};
    pub use crate::satisfy::Violation;
    pub use crate::schema::{DatabaseSchema, RelName, RelationScheme};
    pub use crate::value::Value;
}
