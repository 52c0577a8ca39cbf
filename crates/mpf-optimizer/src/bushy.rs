//! Nonlinear (bushy) CS+ dynamic programming — the Section 5.1 extension.
//!
//! The search strategy is extended to all binary partitions of every
//! relation subset. Where the paper compares four candidates per join (no
//! group-by / group-by left / group-by right / both), this implementation
//! gets the same effect compositionally: each subset's memo entry is a
//! **Pareto set** containing both the raw join results and their
//! group-by-reduced variants, so a join of two subsets implicitly
//! enumerates all four (and more) combinations while staying monotone —
//! see the module docs of [`crate::cs`].

use crate::cs::singletons;
use crate::memo::{Memo, NodeId};

/// Find the best bushy plan with correctness-condition group-by placement.
pub(crate) fn plan_nonlinear(memo: &mut Memo<'_, '_>) -> NodeId {
    let full: u32 = (1 << memo.ctx.rels.len()) - 1;
    let mut sets = singletons(memo, true);
    let mut needed = Vec::new();

    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let lowbit = mask & mask.wrapping_neg();
        memo.needed_outside(mask, &mut needed);
        let mut entries: Vec<NodeId> = Vec::new();

        // Enumerate binary partitions (s1, s2) of `mask`; requiring the
        // lowest set bit in s1 halves the work (join is symmetric and both
        // operands draw from full Pareto sets).
        let mut s1 = (mask - 1) & mask;
        while s1 != 0 {
            if s1 & lowbit != 0 {
                let s2 = mask & !s1;
                for &left in &sets[s1 as usize] {
                    for &right in &sets[s2 as usize] {
                        let cand = memo.join(left, right);
                        if let Some(red) = memo.reduced(cand, &needed) {
                            memo.pareto_insert(&mut entries, red);
                        }
                        memo.pareto_insert(&mut entries, cand);
                    }
                }
            }
            s1 = (s1 - 1) & mask;
        }
        sets[mask as usize] = entries;
    }

    memo.root(&sets[full as usize])
}

#[cfg(test)]
mod tests {
    use crate::{optimize, Algorithm, BaseRel, CostModel, OptContext, QuerySpec};
    use mpf_storage::Catalog;

    /// The Section 5.1 scenario: query variable X of small domain appears in
    /// two relations; a nonlinear plan can reduce the second relation to
    /// |dom(X)| *before* joining, which no linear plan can do.
    #[test]
    fn nonlinear_beats_linear_when_linearity_test_fails() {
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 10).unwrap(); // query var, small domain
        let u = cat.add_var("u", 2000).unwrap();
        let w = cat.add_var("w", 2000).unwrap();
        // x occurs in s1 (big) and s2 (smaller but >> |dom(x)|).
        let rels = vec![
            BaseRel::fixture("s1", vec![x, u], 200_000),
            BaseRel::fixture("s2", vec![x, w], 50_000),
            BaseRel::fixture("s3", vec![u], 2000),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([x]), CostModel::Io);
        let linear = optimize(&ctx, Algorithm::CsPlusLinear);
        let bushy = optimize(&ctx, Algorithm::CsPlusNonlinear);
        assert!(bushy.est_cost <= linear.est_cost);
        // The bushy plan groups s2 down to |dom(x)| = 10 rows pre-join.
        assert!(bushy.plan.group_by_count() >= 2);
    }

    #[test]
    fn nonlinear_never_worse_than_linear_cs_plus() {
        // The bushy search space contains every linear plan.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 50).unwrap();
        let c = cat.add_var("c", 50).unwrap();
        let d = cat.add_var("d", 10).unwrap();
        let rels = vec![
            BaseRel::fixture("r1", vec![a, b], 500),
            BaseRel::fixture("r2", vec![b, c], 2500),
            BaseRel::fixture("r3", vec![c, d], 500),
        ];
        for qv in [a, b, c, d] {
            let ctx = OptContext::new(
                &cat,
                rels.clone(),
                QuerySpec::group_by([qv]),
                CostModel::Io,
            );
            let linear = optimize(&ctx, Algorithm::CsPlusLinear);
            let bushy = optimize(&ctx, Algorithm::CsPlusNonlinear);
            assert!(
                bushy.est_cost <= linear.est_cost + 1e-9,
                "bushy {} > linear {} for query var {qv}",
                bushy.est_cost,
                linear.est_cost
            );
        }
    }

    #[test]
    fn two_relation_case_matches_linear() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 10).unwrap();
        let rels = vec![
            BaseRel::fixture("r1", vec![a, b], 100),
            BaseRel::fixture("r2", vec![b], 10),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let linear = optimize(&ctx, Algorithm::CsPlusLinear);
        let bushy = optimize(&ctx, Algorithm::CsPlusNonlinear);
        assert!((bushy.est_cost - linear.est_cost).abs() < 1e-9);
    }
}
