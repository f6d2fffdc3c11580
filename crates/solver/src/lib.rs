//! # depkit-solver — implication engines for FDs, INDs, and their interaction
//!
//! Four engines, mapped to the paper (Casanova–Fagin–Papadimitriou 1982/84):
//!
//! * [`fd`] — functional-dependency machinery: the linear-time attribute
//!   closure of Beeri & Bernstein (cited as the FD analogue of the paper's
//!   IND decision procedure in Section 3), key enumeration, minimal covers.
//! * [`ind`] — the IND decision procedure of Section 3: the worklist search
//!   over expressions `S[X]` justified by Corollary 3.2, with the
//!   polynomial-time special cases the paper notes (bounded arity, typed
//!   INDs) and instrumentation used by the Landau lower-bound experiment.
//! * [`interact`] — the FD/IND interaction rules of Section 4
//!   (Propositions 4.1, 4.2, 4.3) plus repeating-dependency rules, and a
//!   sound saturation engine. By Theorem 7.1 **no** such finitary engine can
//!   be complete; the saturator is documented as a sound semi-decision
//!   procedure.
//! * [`finite`] — finite-implication reasoning: the cardinality-cycle
//!   ("counting") rule that powers Theorem 4.4 and the soundness half of
//!   Theorem 6.1, layered on the saturator.
//!
//! The FD and IND engines are *compiled*: they intern every symbol of their
//! input into a `depkit_core::intern::Catalog` at construction and run their
//! fixpoints over dense ids (bit sets for the FD closure, `(RelId, IdSeq)`
//! keys for the IND search). The pre-refactor string-based implementations
//! live on in [`reference`][mod@reference] as the executable specification used by the
//! differential property tests and the two-representation benches.
//!
//! Beyond implication, the crate hosts the *serving* workload the
//! ROADMAP's north star calls for:
//!
//! * [`incremental`] — the delta-driven satisfaction engine: a
//!   [`CatalogState`] compiles `(Schema, Σ_FD, Σ_IND)` into
//!   generation-stamped projection counts over interned ids, then
//!   validates [`Delta`](depkit_core::delta::Delta) batches committed
//!   through [`Session`]s in time proportional to the delta instead of
//!   the database, with [`full_violations`] as the full-revalidation
//!   reference path.
//! * [`discover`][mod@discover] — the dependency *discovery* engine, the
//!   inverse workload: profile a database into the FDs and INDs it
//!   satisfies (SPIDER-style unary IND mining over interned value ids,
//!   composed n-ary IND validation, TANE-style partition-refinement FD
//!   search) and prune the mined set to a minimal cover through the
//!   implication engines above — discovery proposes, implication
//!   disposes.
//!
//! Two design-oriented extensions round out the toolbox the paper's
//! introduction motivates:
//!
//! * [`armstrong`] — Armstrong relations for FD sets (instances satisfying
//!   exactly the implied FDs; cf. the paper's use of Fagin's Armstrong
//!   databases and its own Figure 6.1);
//! * [`design`] — BCNF analysis/decomposition and 3NF synthesis, with the
//!   typed INDs each decomposition induces (exactly how INDs arise from
//!   schema design, per Section 1).

pub mod armstrong;
pub mod design;
pub mod discover;
pub mod fd;
pub mod finite;
pub mod incremental;
pub mod ind;
pub mod interact;
pub mod reference;

pub use armstrong::armstrong_relation;
pub use discover::{discover, Discovery, DiscoveryConfig, DiscoveryStats};
pub use fd::FdEngine;
pub use finite::FiniteEngine;
pub use incremental::{
    full_violations, CatalogState, CommitOutcome, CommitSink, Durability, DurabilityConfig,
    RecoveryReport, Session, Snapshot, ViolationKey,
};
pub use ind::{Expression, IndSolver, SearchStats};
pub use interact::Saturator;
pub use reference::{ReferenceFdEngine, ReferenceIndSolver};
