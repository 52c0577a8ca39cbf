//! Linear-plan dynamic programming: the CS baseline and CS+ (Algorithm 1).
//!
//! Both are Selinger-style dynamic programs over left-deep join orders.
//! CS+ additionally considers a `GroupBy` on top of the accumulated subplan
//! before each extension join — the Chaudhuri–Shim transformation, with
//! group variables chosen per their correctness condition (query variables
//! plus variables appearing in any relation not yet joined).
//!
//! Instead of memoizing a single min-cost plan per relation subset, the
//! program keeps a **Pareto set** keyed by output schema
//! (`pareto_insert`): the grouped and ungrouped variants of a prefix are
//! incomparable physical properties (the cheaper one may be wider), and a
//! single-plan memo would make the search non-monotone. This subsumes —
//! and strictly strengthens — the paper's greedy-conservative comparison of
//! `q1j`/`q2j` while staying inside the same `GDLPlan(CS+)` space: every
//! plan considered is a left-deep join tree with correctness-condition
//! group-bys.

use mpf_storage::Schema;

use crate::subplan::{pareto_insert, reduced_variant};
use crate::{OptContext, SubPlan};

/// Find the best linear plan. With `with_group_by = false` this is the
/// unmodified CS algorithm as it behaves on MPF queries (join ordering
/// only, single root group-by — the paper's Figure 3); with `true` it is
/// CS+ (Figure 4).
pub fn plan_linear(ctx: &OptContext<'_>, with_group_by: bool) -> SubPlan {
    let n = ctx.rels.len();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut memo: Vec<Vec<SubPlan>> = vec![Vec::new(); 1 << n];

    // Singletons: the scan (+ pushed selections), and — for CS+ — its
    // grouped variant (line 3 of Algorithm 1 with a singleton S_j).
    for j in 0..n {
        let mask = 1usize << j;
        let leaf = SubPlan::leaf(ctx, j);
        if with_group_by {
            let outside: Vec<&Schema> = (0..n)
                .filter(|&i| i != j)
                .map(|i| &ctx.rels[i].schema)
                .collect();
            if let Some(red) = reduced_variant(ctx, &leaf, outside.iter().copied()) {
                pareto_insert(&mut memo[mask], red);
            }
        }
        pareto_insert(&mut memo[mask], leaf);
    }

    // Prefix subsets in increasing mask order; extend by one relation. The
    // incoming relation is always the raw leaf (linear plans never group
    // the right operand — that is the nonlinear extension).
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let outside: Vec<&Schema> = (0..n)
            .filter(|&i| mask & (1u32 << i) == 0)
            .map(|i| &ctx.rels[i].schema)
            .collect();
        let mut entries: Vec<SubPlan> = Vec::new();
        let mut bits = mask;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev_mask = (mask & !(1u32 << j)) as usize;
            let right = SubPlan::leaf(ctx, j);
            for left in &memo[prev_mask] {
                let cand = SubPlan::join(ctx, left.clone(), right.clone());
                if with_group_by {
                    // The grouped variant of the new prefix becomes next
                    // step's `GroupBy(optPlan(S_j))` candidate.
                    if let Some(red) = reduced_variant(ctx, &cand, outside.iter().copied()) {
                        pareto_insert(&mut entries, red);
                    }
                }
                pareto_insert(&mut entries, cand);
            }
        }
        memo[mask as usize] = entries;
    }

    best_with_root_group_by(ctx, &memo[full as usize])
}

/// Apply the root group-by to every Pareto entry of the full set and return
/// the cheapest complete plan.
pub(crate) fn best_with_root_group_by(ctx: &OptContext<'_>, entries: &[SubPlan]) -> SubPlan {
    entries
        .iter()
        .map(|e| SubPlan::group(ctx, e.clone(), &ctx.query.group_vars))
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .expect("full relation set has at least one plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseRel, CostModel, QuerySpec};
    use mpf_storage::{Catalog, Schema, VarId};

    /// Chain schema r1(a,b) — r2(b,c) — r3(c,d) with a large middle table.
    fn chain(cat: &mut Catalog) -> (Vec<BaseRel>, VarId, VarId, VarId, VarId) {
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 100).unwrap();
        let c = cat.add_var("c", 100).unwrap();
        let d = cat.add_var("d", 10).unwrap();
        let mk = |name: &str, vars: Vec<VarId>, card: u64| BaseRel {
            name: name.into(),
            schema: Schema::new(vars).unwrap(),
            cardinality: card,
            fd_lhs: None,
        };
        (
            vec![
                mk("r1", vec![a, b], 1000),
                mk("r2", vec![b, c], 10_000),
                mk("r3", vec![c, d], 1000),
            ],
            a,
            b,
            c,
            d,
        )
    }

    #[test]
    fn cs_has_single_root_group_by() {
        let mut cat = Catalog::new();
        let (rels, a, ..) = chain(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let p = plan_linear(&ctx, false);
        assert_eq!(p.plan.group_by_count(), 1);
        assert_eq!(p.plan.join_count(), 2);
        assert!(p.plan.is_linear());
        assert_eq!(p.schema.vars(), &[a]);
    }

    #[test]
    fn cs_plus_pushes_group_bys_and_is_cheaper() {
        let mut cat = Catalog::new();
        let (rels, a, ..) = chain(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let cs = plan_linear(&ctx, false);
        let cs_plus = plan_linear(&ctx, true);
        // The greedy-conservative guarantee: CS+ is never worse than the
        // single-root-group-by plan.
        assert!(cs_plus.cost <= cs.cost);
        // On this schema pushing a group-by pays off.
        assert!(cs_plus.plan.group_by_count() > 1);
        assert!(cs_plus.plan.is_linear());
    }

    #[test]
    fn all_relations_scanned_exactly_once() {
        let mut cat = Catalog::new();
        let (rels, _, b, ..) = chain(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([b]), CostModel::Io);
        for with_gb in [false, true] {
            let p = plan_linear(&ctx, with_gb);
            let mut names = p.plan.base_relations();
            names.sort_unstable();
            assert_eq!(names, vec!["r1", "r2", "r3"]);
        }
    }

    #[test]
    fn single_relation_query() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 4).unwrap();
        let b = cat.add_var("b", 4).unwrap();
        let ctx = OptContext::new(
            &cat,
            [BaseRel {
                name: "r".into(),
                schema: Schema::new(vec![a, b]).unwrap(),
                cardinality: 16,
                fd_lhs: None,
            }],
            QuerySpec::group_by([a]),
            CostModel::Io,
        );
        let p = plan_linear(&ctx, true);
        assert_eq!(p.plan.join_count(), 0);
        assert_eq!(p.schema.vars(), &[a]);
    }

    #[test]
    fn pareto_keeps_grouped_and_ungrouped_variants() {
        // On the chain with query var a, the singleton {r3} prefix has both
        // a raw and a reduced (grouped onto c) entry.
        let mut cat = Catalog::new();
        let (rels, a, ..) = chain(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let leaf = SubPlan::leaf(&ctx, 2);
        let outside: Vec<&Schema> = vec![&ctx.rels[0].schema, &ctx.rels[1].schema];
        let red = reduced_variant(&ctx, &leaf, outside.iter().copied()).unwrap();
        assert!(red.schema.arity() < leaf.schema.arity());
        let mut set = Vec::new();
        pareto_insert(&mut set, leaf);
        pareto_insert(&mut set, red);
        assert_eq!(set.len(), 2, "different schemas are incomparable");
    }
}
