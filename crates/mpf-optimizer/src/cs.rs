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
//! (`Memo::pareto_insert`): the grouped and ungrouped variants of a prefix are
//! incomparable physical properties (the cheaper one may be wider), and a
//! single-plan memo would make the search non-monotone. This subsumes —
//! and strictly strengthens — the paper's greedy-conservative comparison of
//! `q1j`/`q2j` while staying inside the same `GDLPlan(CS+)` space: every
//! plan considered is a left-deep join tree with correctness-condition
//! group-bys.

use crate::memo::{Memo, NodeId};

/// The dynamic-programming table over relation subsets, seeded with each
/// singleton's scan (+ pushed selections) and — with `reduce` — its grouped
/// variant (line 3 of Algorithm 1 with a singleton S_j).
pub(crate) fn singletons(memo: &mut Memo<'_, '_>, reduce: bool) -> Vec<Vec<NodeId>> {
    let n = memo.ctx.rels.len();
    let mut sets = vec![Vec::new(); 1 << n];
    let mut needed = Vec::new();
    for leaf in 0..n {
        let set = &mut sets[1 << leaf];
        if reduce {
            memo.needed_outside(1 << leaf, &mut needed);
            if let Some(red) = memo.reduced(leaf, &needed) {
                memo.pareto_insert(set, red);
            }
        }
        memo.pareto_insert(set, leaf);
    }
    sets
}

/// Find the best linear plan. With `with_group_by = false` this is the
/// unmodified CS algorithm as it behaves on MPF queries (join ordering
/// only, single root group-by — the paper's Figure 3); with `true` it is
/// CS+ (Figure 4).
pub(crate) fn plan_linear(memo: &mut Memo<'_, '_>, with_group_by: bool) -> NodeId {
    let full: u32 = (1 << memo.ctx.rels.len()) - 1;
    let mut sets = singletons(memo, with_group_by);
    let mut needed = Vec::new();

    // Prefix subsets in increasing mask order; extend by one relation. The
    // incoming relation is always the raw leaf (linear plans never group
    // the right operand — that is the nonlinear extension).
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        memo.needed_outside(mask, &mut needed);
        let mut entries: Vec<NodeId> = Vec::new();
        let mut bits = mask;
        while bits != 0 {
            let right = bits.trailing_zeros() as NodeId;
            bits &= bits - 1;
            for &left in &sets[(mask & !(1 << right)) as usize] {
                let cand = memo.join(left, right);
                if with_group_by {
                    // The grouped variant of the new prefix becomes next
                    // step's `GroupBy(optPlan(S_j))` candidate.
                    if let Some(red) = memo.reduced(cand, &needed) {
                        memo.pareto_insert(&mut entries, red);
                    }
                }
                memo.pareto_insert(&mut entries, cand);
            }
        }
        sets[mask as usize] = entries;
    }

    memo.root(&sets[full as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::plan_estimate;
    use crate::{optimize, Algorithm, BaseRel, CostModel, OptContext, QuerySpec};
    use mpf_storage::{Catalog, Schema, VarId};

    /// Chain schema r1(a,b) — r2(b,c) — r3(c,d) with a large middle table.
    fn chain(cat: &mut Catalog) -> (Vec<BaseRel>, VarId, VarId, VarId, VarId) {
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 100).unwrap();
        let c = cat.add_var("c", 100).unwrap();
        let d = cat.add_var("d", 10).unwrap();
        let mk = BaseRel::fixture;
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
        let p = optimize(&ctx, Algorithm::Cs).plan;
        assert_eq!(p.group_by_count(), 1);
        assert_eq!(p.join_count(), 2);
        assert!(p.is_linear());
        assert_eq!(plan_estimate(&ctx, &p).0.vars(), &[a]);
    }

    #[test]
    fn cs_plus_pushes_group_bys_and_is_cheaper() {
        let mut cat = Catalog::new();
        let (rels, a, ..) = chain(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let cs = optimize(&ctx, Algorithm::Cs);
        let cs_plus = optimize(&ctx, Algorithm::CsPlusLinear);
        // The greedy-conservative guarantee: CS+ is never worse than the
        // single-root-group-by plan.
        assert!(cs_plus.est_cost <= cs.est_cost);
        // On this schema pushing a group-by pays off.
        assert!(cs_plus.plan.group_by_count() > 1);
        assert!(cs_plus.plan.is_linear());
    }

    #[test]
    fn all_relations_scanned_exactly_once() {
        let mut cat = Catalog::new();
        let (rels, _, b, ..) = chain(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([b]), CostModel::Io);
        for algo in [Algorithm::Cs, Algorithm::CsPlusLinear] {
            let p = optimize(&ctx, algo);
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
        let p = optimize(&ctx, Algorithm::CsPlusLinear).plan;
        assert_eq!(p.join_count(), 0);
        assert_eq!(plan_estimate(&ctx, &p).0.vars(), &[a]);
    }

    #[test]
    fn pareto_keeps_grouped_and_ungrouped_variants() {
        // On the chain with query var a, the singleton {r3} prefix has both
        // a raw and a reduced (grouped onto c) entry.
        let mut cat = Catalog::new();
        let (rels, a, ..) = chain(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let mut memo = Memo::new(&ctx);
        let leaf = 2;
        let mut needed = Vec::new();
        memo.needed_outside(1 << 2, &mut needed);
        let red = memo.reduced(leaf, &needed).unwrap();
        assert!(memo.schema(red).len() < memo.schema(leaf).len());
        let mut set = Vec::new();
        memo.pareto_insert(&mut set, leaf);
        memo.pareto_insert(&mut set, red);
        assert_eq!(set, vec![leaf, red], "different schemas are incomparable");
    }
}
