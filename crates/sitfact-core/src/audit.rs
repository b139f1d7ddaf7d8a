//! Deep structural invariant checking.
//!
//! The workspace's property tests prove *behavioural* equivalences (indexed ≡
//! scan, batched ≡ sequential, sharded ≡ unsharded, served ≡ in-process), but
//! those proofs silently rely on *structural* invariants — sorted posting
//! lists, stride-consistent columns, canonical report order. The [`Audit`]
//! trait is the contract for checking those invariants directly: every
//! auditable structure re-derives its redundant state from first principles
//! and compares, returning a self-describing [`AuditViolation`] on the first
//! mismatch.
//!
//! Implementations live next to the structures they check (they need private
//! field access) and are compiled into every build; they run only when
//! called. Property tests end with a deep `audit()` call; the `audit_storm` binary in `sitfact-bench` hammers the
//! validators with randomized workloads.

use std::fmt;

/// A violated structural invariant, with enough context to debug it.
///
/// The three fields answer *what* broke (`structure`), *which rule* it broke
/// (`invariant`) and *how* (`detail` — concrete indexes and values, so the
/// failure is actionable without re-running under a debugger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The audited structure, e.g. `"Table"` or `"ShardedMonitor"`.
    pub structure: &'static str,
    /// Short name of the violated invariant, e.g. `"posting-list-sorted"`.
    pub invariant: &'static str,
    /// Concrete evidence: which index, which value, what was expected.
    pub detail: String,
}

impl AuditViolation {
    /// Builds a violation record.
    pub fn new(
        structure: &'static str,
        invariant: &'static str,
        detail: impl Into<String>,
    ) -> Self {
        AuditViolation {
            structure,
            invariant,
            detail: detail.into(),
        }
    }

    /// A one-line human-readable explanation of the violation.
    pub fn explain(&self) -> String {
        format!(
            "{} violated `{}`: {}",
            self.structure, self.invariant, self.detail
        )
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

impl std::error::Error for AuditViolation {}

/// Deep structural self-check.
///
/// `check` must be *redundant*: it re-derives every piece of denormalized
/// state (counters, indexes, cached orderings) from the primary data and
/// compares, so any drift introduced by an in-place mutation bug is caught
/// at the point of corruption rather than at the next wrong answer.
///
/// # Examples
///
/// ```
/// use sitfact_core::audit::{Audit, AuditViolation};
///
/// /// A counter that redundantly caches the sum of its samples.
/// struct Cached {
///     samples: Vec<u64>,
///     cached_sum: u64,
/// }
///
/// impl Audit for Cached {
///     fn check(&self) -> Result<(), AuditViolation> {
///         let truth: u64 = self.samples.iter().sum();
///         if truth != self.cached_sum {
///             return Err(AuditViolation::new(
///                 "Cached",
///                 "sum-consistent",
///                 format!("cached {} but samples sum to {truth}", self.cached_sum),
///             ));
///         }
///         Ok(())
///     }
/// }
///
/// let good = Cached { samples: vec![1, 2, 3], cached_sum: 6 };
/// assert!(good.check().is_ok());
///
/// let bad = Cached { samples: vec![1, 2, 3], cached_sum: 7 };
/// let violation = bad.check().unwrap_err();
/// assert_eq!(violation.invariant, "sum-consistent");
/// assert!(violation.explain().contains("samples sum to 6"));
/// ```
pub trait Audit {
    /// Checks every structural invariant, returning the first violation.
    fn check(&self) -> Result<(), AuditViolation>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_names_structure_invariant_and_detail() {
        let v = AuditViolation::new("Table", "column-stride", "dims.len() = 7, want 8");
        assert_eq!(
            v.explain(),
            "Table violated `column-stride`: dims.len() = 7, want 8"
        );
        assert_eq!(v.to_string(), v.explain());
    }
}
