//! # sitfact-core
//!
//! Core data model for *incremental discovery of prominent situational facts*
//! (Sultana et al., ICDE 2014).
//!
//! A situational fact is a constraint–measure pair `(C, M)` that qualifies a
//! newly appended tuple as a *contextual skyline tuple*: no earlier tuple that
//! satisfies the conjunctive constraint `C` dominates it in the measure
//! subspace `M`.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Schema`], [`Dictionary`], [`Tuple`] — the relation `R(D; M)` with
//!   dictionary-encoded dimension attributes and numeric measure attributes,
//!   each with its own ["better" direction](Direction); the zero-copy
//!   [`TupleRef`] view and the [`TupleView`] trait let the columnar table
//!   hand out rows without materialising them;
//! * [`SubspaceMask`] — measure subspaces `M ⊆ 𝕄` as bitmasks;
//! * [`dominance`] — the dominance relation of skyline analysis, including the
//!   three-way partition of Proposition 4 that lets one full-space comparison
//!   decide dominance in every subspace;
//! * [`Constraint`], [`BoundMask`], [`ConstraintLattice`] — conjunctive
//!   constraints, the subsumption partial order (Definitions 5–8) and the
//!   lattice of tuple-satisfied constraints traversed by the discovery
//!   algorithms;
//! * [`SkylinePair`] and [`DiscoveryConfig`] — the output vocabulary and the
//!   `d̂` / `m̂` caps of the paper's experimental section (plus the `anchor`
//!   restriction sharded monitors rely on);
//! * [`routing`] — the routing-soundness predicates that make a partitioned
//!   stream provably equivalent to an unsharded one;
//! * [`pool`] — a vendored worker thread-pool (no crates.io access here) used
//!   to fan batched windows out across shards, plus the actor-style
//!   [`ActorPool`] whose workers *own* their state outright
//!   (the serving layer routes each tenant's requests to its owning worker);
//! * [`snapshot`] — [`SnapshotCell`], the latest published `Arc` behind one
//!   lock, which read-mostly consumers clone out and keep while the
//!   publisher moves on;
//! * [`audit`] — the [`Audit`] trait and [`AuditViolation`] record behind the
//!   deep structural validators every data structure exposes under
//!   `cfg(any(test, debug_assertions, feature = "deep-audit"))`.
//!
//! ## Example
//!
//! ```
//! use sitfact_core::{SchemaBuilder, Direction, Tuple, SubspaceMask, dominance};
//!
//! let schema = SchemaBuilder::new("gamelog")
//!     .dimension("player")
//!     .dimension("team")
//!     .measure("points", Direction::HigherIsBetter)
//!     .measure("fouls", Direction::LowerIsBetter)
//!     .build()
//!     .unwrap();
//!
//! let a = Tuple::new(vec![0, 1], vec![20.0, 2.0]);
//! let b = Tuple::new(vec![0, 2], vec![15.0, 4.0]);
//! let full = SubspaceMask::full(schema.num_measures());
//! // `a` scores more points with fewer fouls: it dominates `b`.
//! assert!(dominance::dominates(&a, &b, full, schema.directions()));
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod constraint;
pub mod dictionary;
pub mod dominance;
pub mod error;
pub mod hash;
pub mod lattice;
pub mod pair;
pub mod pool;
pub mod routing;
pub mod schema;
pub mod snapshot;
pub mod subspace;
pub mod tuple;
pub mod value;

pub use audit::{Audit, AuditViolation};
pub use config::DiscoveryConfig;
pub use constraint::{BoundMask, Constraint};
pub use dictionary::Dictionary;
pub use dominance::{DominanceOrdering, DominancePartition};
pub use error::{Result, SitFactError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use lattice::ConstraintLattice;
pub use pair::SkylinePair;
pub use pool::{ActorPool, ThreadPool};
pub use schema::{MeasureAttr, Schema, SchemaBuilder};
pub use snapshot::SnapshotCell;
pub use subspace::SubspaceMask;
pub use tuple::{Tuple, TupleId, TupleRef, TupleView};
pub use value::{DimValueId, Direction, UNBOUND};
