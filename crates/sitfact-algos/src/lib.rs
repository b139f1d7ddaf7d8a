//! # sitfact-algos
//!
//! The discovery algorithms of *Incremental Discovery of Prominent
//! Situational Facts* (Sultana et al., ICDE 2014): given an append-only table
//! and a newly arrived tuple `t`, find every constraint–measure pair `(C, M)`
//! that qualifies `t` as a contextual skyline tuple.
//!
//! | Algorithm | Paper | Idea |
//! |-----------|-------|------|
//! | [`BruteForce`] | Alg. 2 | compare with every tuple, for every constraint, in every subspace |
//! | [`BaselineSeq`] | Alg. 3 | one scan of `R` per subspace, pruning `C^{t,t'}` per dominator |
//! | [`BaselineIdx`] | Sec. IV | like `BaselineSeq` but dominators come from a k-d tree range query |
//! | [`CCsc`] | Sec. II/VI | a Compressed Skycube maintained per context (the adapted competitor) |
//! | [`BottomUp`] | Alg. 4 | store skyline tuples at every skyline constraint; traverse `C^t` bottom-up |
//! | [`TopDown`] | Alg. 5 | store tuples only at maximal skyline constraints; traverse top-down |
//! | [`SBottomUp`] | Sec. V-C | `BottomUp` + sharing of comparisons across measure subspaces |
//! | [`STopDown`] | Alg. 6 | `TopDown` + sharing of comparisons across measure subspaces |
//! | [`FsBottomUp`] / [`FsTopDown`] | Sec. VI-C | the shared variants over the file-backed store |
//!
//! The last six names are type aliases of one type, [`LatticeDiscovery`]
//! (module [`lattice`]), under two compile-time choices — *maximal-only
//! storage* (Invariant 2, walked top-down, instead of Invariant 1, walked
//! bottom-up) and *sharing* (the full-space pass pre-prunes the proper
//! subspaces, Proposition 4) — and a store backend. `CCsc` and the three
//! oracles stay separate: they are what the lattice kinds are checked against.
//!
//! All algorithms implement the [`Discovery`] trait and are exercised by a
//! common equivalence test-suite that checks their output against
//! [`BruteForce`] on randomized workloads; [`AlgorithmKind::build`] constructs
//! any of them behind that trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline_idx;
pub mod baseline_seq;
pub mod brute_force;
pub mod common;
pub mod csc;
pub mod lattice;
pub mod traits;

pub use baseline_idx::BaselineIdx;
pub use baseline_seq::BaselineSeq;
pub use brute_force::BruteForce;
pub use csc::CCsc;
pub use lattice::{
    BottomUp, FsBottomUp, FsTopDown, LatticeDiscovery, SBottomUp, STopDown, TopDown,
};
pub use traits::{AlgorithmKind, Discovery};
