#![warn(missing_docs)]
//! Storage layer for MPF queries: functional relations, catalog, statistics.
//!
//! A **functional relation** (Definition 1 of the paper) is a relation with
//! schema `{A1, ..., Am, f}` where the functional dependency
//! `A1 A2 ... Am -> f` holds; `f` is the *measure* attribute. This crate
//! stores such relations column-agnostically: variable (non-measure)
//! attributes are interned [`VarId`]s with values drawn from finite discrete
//! domains, and the measure is an `f64` interpreted under a semiring chosen
//! by the execution layer.
//!
//! The [`Catalog`] plays the role of an RDBMS system catalog: it records each
//! variable's domain size and each relation's cardinality — exactly the
//! statistics the paper's optimizers consume (`σ_X` and `σ̂_X` in the plan
//! linearity test of Section 5.1, domain sizes for the degree/width
//! heuristics of Section 5.5).

mod catalog;
pub mod csv_io;
pub mod dense;
mod error;
mod key;
pub mod keyed;
pub mod layout;
mod relation;
mod schema;
pub mod sparse;
mod stats;

pub use catalog::{Catalog, Dictionary, VarId, VarInfo};
pub use dense::DenseFactor;
pub use error::StorageError;
pub use key::Key;
pub use keyed::{KeyedOrder, KeyedSource};
pub use relation::FunctionalRelation;
pub use schema::Schema;
pub use sparse::{Factor, SparseFactor};
pub use stats::{density_of, RelationStats};

/// A value of a discrete variable domain, represented as an index
/// `0..domain_size`.
pub type Value = u32;

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
