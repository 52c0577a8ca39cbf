#![warn(missing_docs)]
//! Cost-based optimizers for MPF queries (Section 5 of the paper).
//!
//! Four algorithm families are implemented, all producing [`Plan`]s over the
//! `mpf-algebra` operators:
//!
//! * **CS** ([`Algorithm::Cs`]) — Chaudhuri & Shim's optimizer as it behaves
//!   in the MPF setting: because it does not recognize that the aggregate
//!   distributes over the *product* join (the aggregate is over a function
//!   of many columns), it cannot push group-bys and degenerates to the best
//!   linear join order with a single root `GroupBy` (the paper's Figure 3).
//! * **CS+** ([`Algorithm::CsPlusLinear`], [`Algorithm::CsPlusNonlinear`]) —
//!   CS extended with product-join/aggregate distributivity. The linear form
//!   is Algorithm 1 of the paper (greedy-conservative group-by insertion on
//!   the accumulated side); the nonlinear form searches bushy join orders and
//!   compares four candidates per join (no group-by / left / right / both,
//!   Section 5.1).
//! * **VE** ([`Algorithm::Ve`]) — Variable Elimination (Algorithm 2) under a
//!   pluggable elimination-order [`Heuristic`] (degree, width, elimination
//!   cost, their normalized products, or random).
//! * **VE+** ([`Algorithm::VePlus`]) — VE with the Section 5.4 space
//!   extension: elimination is *delayed* (no forced group-by after the
//!   per-variable join) and the per-variable join plans use the CS+
//!   greedy-conservative group-by insertion.
//!
//! The crate also provides the plan-linearity test of Section 5.1
//! ([`linearity`]), the Proposition 1 FD-based elimination pruning
//! ([`prop1`]), catalog-based cardinality estimation ([`estimate`]), and two
//! cost models ([`CostModel`]).

mod bushy;
mod context;
mod cost;
mod cs;
pub mod estimate;
pub mod heuristics;
pub mod linearity;
mod memo;
pub mod physical;
pub mod prop1;
pub mod ve;

pub use context::{BaseRel, OptContext, QuerySpec};
pub use cost::CostModel;
pub use heuristics::Heuristic;
pub use physical::{choose_physical, PhysicalConfig};

use mpf_algebra::Plan;

/// The optimization algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Unmodified Chaudhuri–Shim: best linear join order, single root
    /// group-by (no GDL optimization).
    Cs,
    /// CS+ over linear (left-deep) plans — Algorithm 1.
    CsPlusLinear,
    /// CS+ over nonlinear (bushy) plans — Section 5.1 extension.
    CsPlusNonlinear,
    /// Variable Elimination (Algorithm 2) with the given ordering heuristic.
    Ve(Heuristic),
    /// Extended-space Variable Elimination (Section 5.4) with the given
    /// ordering heuristic.
    VePlus(Heuristic),
}

impl Algorithm {
    /// Short label used by the experiment harnesses (matches the paper's
    /// table rows, e.g. `VE(deg) ext.`).
    pub fn label(&self) -> String {
        match self {
            Algorithm::Cs => "CS".into(),
            Algorithm::CsPlusLinear => "CS+ linear".into(),
            Algorithm::CsPlusNonlinear => "Nonlinear CS+".into(),
            Algorithm::Ve(h) => format!("VE({})", h.label()),
            Algorithm::VePlus(h) => format!("VE({}) ext.", h.label()),
        }
    }
}

/// An optimized plan together with its estimated cost and output
/// cardinality (in the context's cost model units).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedPlan {
    /// The executable plan.
    pub plan: Plan,
    /// Estimated total cost.
    pub est_cost: f64,
    /// Estimated result cardinality.
    pub est_rows: f64,
}

/// The most base relations [`optimize`] accepts: the bitmask
/// dynamic-programming limit — far beyond the N ≤ 7 the paper evaluates,
/// and beyond where Selinger-style DP is practical at all. Callers that
/// must not panic check this before calling [`optimize`].
pub const MAX_DP_RELATIONS: usize = 30;

/// Optimize the MPF query described by `ctx` with the chosen algorithm.
///
/// # Panics
/// Panics if `ctx` has no base relations, or more than
/// [`MAX_DP_RELATIONS`] base relations.
pub fn optimize(ctx: &OptContext<'_>, algorithm: Algorithm) -> OptimizedPlan {
    assert!(!ctx.rels.is_empty(), "cannot optimize over zero relations");
    assert!(
        ctx.rels.len() <= MAX_DP_RELATIONS,
        "dynamic programming limit is {MAX_DP_RELATIONS} relations"
    );
    let mut memo = memo::Memo::new(ctx);
    let root = match algorithm {
        Algorithm::Cs => cs::plan_linear(&mut memo, false),
        Algorithm::CsPlusLinear => cs::plan_linear(&mut memo, true),
        Algorithm::CsPlusNonlinear => bushy::plan_nonlinear(&mut memo),
        Algorithm::Ve(h) => ve::plan_ve(&mut memo, h, false),
        Algorithm::VePlus(h) => ve::plan_ve(&mut memo, h, true),
    };
    memo.optimized(root)
}
