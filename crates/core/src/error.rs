//! Error types shared across the core crate.

use std::fmt;

/// Errors produced by schema construction, parsing, and model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An attribute sequence contained a repeated attribute.
    DuplicateAttribute(String),
    /// A relation name was declared twice in a database schema.
    DuplicateRelation(String),
    /// A referenced relation does not exist in the schema.
    UnknownRelation(String),
    /// A referenced attribute does not exist in the given relation scheme.
    UnknownAttribute {
        /// The relation that was searched.
        relation: String,
        /// The attribute that was not found.
        attribute: String,
    },
    /// The two sides of an IND or RD have different lengths.
    ArityMismatch {
        /// Length of the left-hand side.
        left: usize,
        /// Length of the right-hand side.
        right: usize,
    },
    /// A tuple's length does not match its relation scheme's arity.
    TupleArity {
        /// The relation whose scheme was violated.
        relation: String,
        /// The scheme's arity.
        expected: usize,
        /// The offending tuple's length.
        actual: usize,
    },
    /// A parse error with position information.
    Parse {
        /// Human-readable description of what went wrong.
        message: String,
        /// Byte offset into the input at which the error was detected.
        offset: usize,
    },
    /// The EMVD sides `Y` and `Z` are not disjoint.
    EmvdOverlap,
    /// An IND was constructed with empty sides (the paper requires arity
    /// at least one).
    EmptyInd,
    /// A symbolic-relation decision problem fell outside the decidable
    /// fragment implemented by [`crate::symbolic`].
    SymbolicTooComplex(String),
    /// An engine was given a dependency kind it does not handle (e.g. the
    /// incremental catalog only maintains FDs and INDs).
    UnsupportedDependency(String),
    /// A durability operation failed: a write-ahead-log append, a
    /// checkpoint, or a recovery step. The message names the file and
    /// offset where known, so crash diagnostics stand on their own.
    Durability(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateAttribute(a) => {
                write!(f, "duplicate attribute `{a}` in attribute sequence")
            }
            CoreError::DuplicateRelation(r) => {
                write!(f, "duplicate relation scheme `{r}` in database schema")
            }
            CoreError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            CoreError::UnknownAttribute {
                relation,
                attribute,
            } => write!(f, "relation `{relation}` has no attribute `{attribute}`"),
            CoreError::ArityMismatch { left, right } => write!(
                f,
                "arity mismatch: left side has {left} attributes, right side has {right}"
            ),
            CoreError::TupleArity {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "tuple of length {actual} inserted into `{relation}` of arity {expected}"
            ),
            CoreError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            CoreError::EmvdOverlap => write!(f, "EMVD sides Y and Z must be disjoint"),
            CoreError::EmptyInd => write!(f, "INDs must have at least one attribute per side"),
            CoreError::SymbolicTooComplex(why) => {
                write!(f, "symbolic decision outside decidable fragment: {why}")
            }
            CoreError::UnsupportedDependency(what) => {
                write!(f, "unsupported dependency kind: {what}")
            }
            CoreError::Durability(what) => write!(f, "durability failure: {what}"),
        }
    }
}

impl std::error::Error for CoreError {}
