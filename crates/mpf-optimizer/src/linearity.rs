//! The plan-linearity test of Section 5.1 (Equation 1).
//!
//! For an MPF query on variable `X`, let `σ_X = |dom(X)|` and `σ̂_X` be the
//! cardinality of the smallest base relation containing `X`. Under the
//! paper's simple cost model (join `|R||S|`, aggregate `|R| log |R|`), a
//! linear plan is *admissible* if
//!
//! ```text
//! σ_X² + σ̂_X · log σ̂_X  ≥  σ_X · σ̂_X          (Eq. 1)
//! ```
//!
//! Intuition: a nonlinear plan may reduce the smallest relation containing
//! `X` down to `σ_X` rows *before* joining it (cost `σ̂_X log σ̂_X` for the
//! aggregate plus `σ_X²` for the join), whereas a linear plan must join the
//! un-reduced relation (cost `σ_X · σ̂_X`). When the inequality fails, only
//! a nonlinear plan can exploit the reduction, and the nonlinear CS+ search
//! is warranted.

use mpf_storage::VarId;

use crate::OptContext;

/// Outcome of the linearity test for a query variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearityTest {
    /// `σ_X`: the query variable's domain size.
    pub sigma: f64,
    /// `σ̂_X`: cardinality of the smallest base relation containing `X`.
    pub sigma_hat: f64,
    /// Whether Eq. 1 holds, i.e. whether a linear plan can evaluate the
    /// query efficiently (no need for the bushy search).
    pub linear_admissible: bool,
}

/// Run the test for query variable `x`.
///
/// # Panics
/// Panics if no base relation contains `x`.
pub fn linearity_test(ctx: &OptContext<'_>, x: VarId) -> LinearityTest {
    let sigma = ctx.catalog.domain_size(x) as f64;
    let sigma_hat = ctx
        .rels
        .iter()
        .filter(|r| r.schema.contains(x))
        .map(|r| r.cardinality as f64)
        .fold(f64::INFINITY, f64::min);
    assert!(
        sigma_hat.is_finite(),
        "variable {x} appears in no base relation"
    );
    let lhs = sigma * sigma + sigma_hat * sigma_hat.max(2.0).log2();
    let rhs = sigma * sigma_hat;
    LinearityTest {
        sigma,
        sigma_hat,
        linear_admissible: lhs >= rhs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseRel, CostModel, QuerySpec};
    use mpf_storage::{Catalog, Schema};

    /// The paper's own numbers (Section 7.1): for Q1, σ_cid = 1000 and
    /// σ̂_cid = 5000 fail Eq. 1 (nonlinear plans needed); for Q2,
    /// σ_tid = σ̂_tid = 500 satisfy it (linear plan optimal).
    #[test]
    fn matches_paper_examples() {
        let mut cat = Catalog::new();
        let cid = cat.add_var("cid", 1000).unwrap();
        let tid = cat.add_var("tid", 500).unwrap();
        let wid = cat.add_var("wid", 5000).unwrap();
        let rels = vec![
            BaseRel {
                name: "warehouses".into(),
                schema: Schema::new(vec![wid, cid]).unwrap(),
                cardinality: 5000,
                fd_lhs: None,
                grid: false,
            },
            BaseRel {
                name: "ctdeals".into(),
                schema: Schema::new(vec![cid, tid]).unwrap(),
                cardinality: 500_000,
                fd_lhs: None,
                grid: false,
            },
            BaseRel {
                name: "transporters".into(),
                schema: Schema::new(vec![tid]).unwrap(),
                cardinality: 500,
                fd_lhs: None,
                grid: false,
            },
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::default(), CostModel::Simple);

        let q1 = linearity_test(&ctx, cid);
        assert_eq!(q1.sigma, 1000.0);
        assert_eq!(q1.sigma_hat, 5000.0);
        // 1000² + 5000·log2(5000) ≈ 1e6 + 61439 < 5e6 → inequality fails.
        assert!(!q1.linear_admissible);

        let q2 = linearity_test(&ctx, tid);
        assert_eq!(q2.sigma, 500.0);
        assert_eq!(q2.sigma_hat, 500.0);
        // 500² + 500·log2(500) ≥ 500·500 trivially.
        assert!(q2.linear_admissible);
    }

    #[test]
    #[should_panic(expected = "appears in no base relation")]
    fn unknown_variable_panics() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let ghost = cat.add_var("ghost", 10).unwrap();
        let ctx = OptContext::new(
            &cat,
            [BaseRel {
                name: "r".into(),
                schema: Schema::new(vec![a]).unwrap(),
                cardinality: 10,
                fd_lhs: None,
                grid: false,
            }],
            QuerySpec::default(),
            CostModel::Simple,
        );
        linearity_test(&ctx, ghost);
    }
}
