//! Variable Elimination as a relational plan generator (Algorithm 2), and
//! its extended-space variant (Section 5.4).
//!
//! To eliminate a variable `v`, all live factors containing `v` are
//! product-joined and the result is grouped onto the remaining variables.
//! Plain VE forces that group-by; extended VE (**VE+**) instead *delays*
//! elimination — the per-variable join plan is built with the CS+
//! greedy-conservative four-way comparison, which inserts group-bys exactly
//! where they pay off (and the final root group-by guarantees semantics).
//! VE+ additionally skips variables that Proposition 1 proves removable by
//! projection.

use mpf_storage::VarId;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::memo::{Memo, NodeId};
use crate::{heuristics, prop1, Heuristic, OptContext, OptimizedPlan};

/// Run Variable Elimination under a heuristic order. `extended = true`
/// selects the VE+ space extension.
pub(crate) fn plan_ve(memo: &mut Memo<'_, '_>, heuristic: Heuristic, extended: bool) -> NodeId {
    let ctx = memo.ctx;
    let mut to_eliminate: Vec<VarId> = ctx
        .all_vars()
        .into_iter()
        .filter(|v| !ctx.query.group_vars.contains(v))
        .collect();
    if extended {
        // Proposition 1: variables outside every declared FD left-hand side
        // need no aggregation — the final root group-by projects them away.
        let removable = prop1::removable_vars(ctx);
        to_eliminate.retain(|v| !removable.contains(v));
    }
    if let Heuristic::Random(seed) = heuristic {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        to_eliminate.shuffle(&mut rng);
    }
    ve_ordered(memo, &to_eliminate, heuristic, extended)
}

/// Run Variable Elimination with a fixed elimination order (used for the
/// random-heuristic experiment and for plan-space tests). For deterministic
/// heuristics the order is *re-selected dynamically* from `order`'s members,
/// matching line 5 of Algorithm 2; pass [`Heuristic::Random`] to consume
/// `order` verbatim.
///
/// In extended mode the algorithm also costs the *plain* VE plan for the
/// order it actually realized and returns the cheaper of the two — this is
/// the constructive content of Theorem 3 (`GDLPlan(VE) ⊂ GDLPlan(VE+)` for
/// a fixed order): the extended space contains the forced-group-by plan, so
/// VE+ is never worse than VE on the same order.
pub fn plan_ve_ordered(
    ctx: &OptContext<'_>,
    order: &[VarId],
    heuristic: Heuristic,
    extended: bool,
) -> OptimizedPlan {
    let mut memo = Memo::new(ctx);
    let root = ve_ordered(&mut memo, order, heuristic, extended);
    memo.optimized(root)
}

/// Variable Elimination over `order`: the body of [`plan_ve_ordered`].
fn ve_ordered(
    memo: &mut Memo<'_, '_>,
    order: &[VarId],
    heuristic: Heuristic,
    extended: bool,
) -> NodeId {
    let mut factors: Vec<NodeId> = (0..memo.ctx.rels.len()).collect();
    let mut remaining: Vec<VarId> = order.to_vec();
    let mut eliminated: Vec<VarId> = Vec::new();
    let mut group: Vec<NodeId> = Vec::new();

    while !remaining.is_empty() {
        let v = match heuristic {
            Heuristic::Random(_) => remaining[0],
            _ => heuristics::select_next(memo, heuristic, &factors, &remaining, &eliminated),
        };
        remaining.retain(|&u| u != v);
        eliminated.push(v);

        // rels(v, S): live factors whose schema contains v; the rest stay.
        group.clear();
        factors.retain(|&f| {
            let member = memo.contains(f, v);
            if member {
                group.push(f);
            }
            !member
        });
        if group.is_empty() {
            // v already disappeared via an earlier group-by.
            continue;
        }
        // Join rels(v); plain VE then groups v away (line 6 of Algorithm
        // 2), VE+ delays the elimination (Section 5.4, change 2).
        let mut p = join_smallest_first(memo, &mut group, &factors, extended);
        if !extended {
            let mut keep = memo.set(p).to_vec();
            let l = memo.local(v).expect("v occurs in its factors");
            keep[(l / 64) as usize] &= !(1 << (l % 64));
            p = memo.group(p, &keep);
        }
        factors.push(p);
    }

    // Join whatever factors remain (all contain only query variables in
    // plain VE) and apply the root group-by on the query variables.
    let rest = join_smallest_first(memo, &mut factors, &[], extended);
    let plan = memo.root(&[rest]);
    if !extended {
        return plan;
    }
    // Theorem 3: the plain plan for the realized order is in the extended
    // space; keep whichever the cost model prefers.
    let plain = ve_ordered(memo, &eliminated, Heuristic::Random(0), false);
    if memo.cost(plain) < memo.cost(plan) {
        plain
    } else {
        plan
    }
}

/// Join `factors` in a fixed smallest-first linear order, per the paper's
/// VE implementation (`joinplan` on a small relation set). In extended
/// mode each step is the cheapest of the four group-by placements, each
/// side keeping what `others`, the factors still to join and the opposite
/// side need.
fn join_smallest_first(
    memo: &mut Memo<'_, '_>,
    factors: &mut [NodeId],
    others: &[NodeId],
    extended: bool,
) -> NodeId {
    factors.sort_by(|&a, &b| memo.rows(a).total_cmp(&memo.rows(b)));
    let (mut needed_l, mut needed_r) = (Vec::new(), Vec::new());
    let mut acc = factors[0];
    let pending = &factors[1..];
    for (i, &next) in pending.iter().enumerate() {
        acc = if extended {
            // The accumulated side's outside includes `next` itself.
            memo.needed(others.iter().chain(&pending[i..]).copied(), &mut needed_l);
            let right_outside = others.iter().chain(&pending[i + 1..]).copied().chain([acc]);
            memo.needed(right_outside, &mut needed_r);
            memo.best_join_of_four(acc, next, &needed_l, &needed_r)
        } else {
            memo.join(acc, next)
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::plan_estimate;
    use crate::{optimize, Algorithm, BaseRel, CostModel, QuerySpec};
    use mpf_storage::Catalog;

    fn chain_ctx(cat: &mut Catalog) -> (Vec<BaseRel>, Vec<VarId>) {
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 50).unwrap();
        let c = cat.add_var("c", 50).unwrap();
        let d = cat.add_var("d", 10).unwrap();
        (
            vec![
                BaseRel::fixture("r1", vec![a, b], 500),
                BaseRel::fixture("r2", vec![b, c], 2500),
                BaseRel::fixture("r3", vec![c, d], 500),
            ],
            vec![a, b, c, d],
        )
    }

    #[test]
    fn ve_produces_group_by_per_variable() {
        let mut cat = Catalog::new();
        let (rels, vars) = chain_ctx(&mut cat);
        let ctx = OptContext::new(
            &cat,
            rels,
            QuerySpec::group_by([vars[0]]),
            CostModel::Io,
        );
        let p = optimize(&ctx, Algorithm::Ve(Heuristic::Degree));
        // Three eliminations (b, c, d) plus the root group-by.
        assert_eq!(p.plan.group_by_count(), 4);
        assert_eq!(plan_estimate(&ctx, &p.plan).0.vars(), &[vars[0]]);
        let mut scans = p.plan.base_relations();
        scans.sort_unstable();
        assert_eq!(scans, vec!["r1", "r2", "r3"]);
    }

    #[test]
    fn ve_plus_no_worse_than_ve_same_order() {
        let mut cat = Catalog::new();
        let (rels, vars) = chain_ctx(&mut cat);
        let ctx = OptContext::new(
            &cat,
            rels,
            QuerySpec::group_by([vars[0]]),
            CostModel::Io,
        );
        // Fixed order via the Random path (consumed verbatim).
        for order in [
            vec![vars[3], vars[2], vars[1]],
            vec![vars[1], vars[2], vars[3]],
            vec![vars[2], vars[1], vars[3]],
        ] {
            let ve = plan_ve_ordered(&ctx, &order, Heuristic::Random(0), false);
            let vep = plan_ve_ordered(&ctx, &order, Heuristic::Random(0), true);
            assert!(
                vep.est_cost <= ve.est_cost + 1e-9,
                "VE+ cost {} > VE cost {} for order {order:?}",
                vep.est_cost,
                ve.est_cost
            );
        }
    }

    #[test]
    fn random_orders_are_reproducible() {
        let mut cat = Catalog::new();
        let (rels, vars) = chain_ctx(&mut cat);
        let ctx = OptContext::new(
            &cat,
            rels,
            QuerySpec::group_by([vars[0]]),
            CostModel::Io,
        );
        let p1 = optimize(&ctx, Algorithm::Ve(Heuristic::Random(42)));
        let p2 = optimize(&ctx, Algorithm::Ve(Heuristic::Random(42)));
        assert_eq!(p1.plan, p2.plan);
        assert_eq!(p1.est_cost, p2.est_cost);
    }

    #[test]
    fn constrained_domain_query() {
        // `select a, SUM(f) from v where d = 3 group by a` — d is bound but
        // still eliminated; the leaf for r3 carries the selection.
        let mut cat = Catalog::new();
        let (rels, vars) = chain_ctx(&mut cat);
        let ctx = OptContext::new(
            &cat,
            rels,
            QuerySpec::group_by([vars[0]]).filter(vars[3], 3),
            CostModel::Io,
        );
        let p = optimize(&ctx, Algorithm::Ve(Heuristic::Degree));
        assert_eq!(plan_estimate(&ctx, &p.plan).0.vars(), &[vars[0]]);
        let rendered = p.plan.render(&|v| format!("{v}"));
        assert!(rendered.contains("Select"));
    }

    #[test]
    fn all_vars_are_query_vars() {
        // Nothing to eliminate: plan is just joins + root group-by.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 4).unwrap();
        let b = cat.add_var("b", 4).unwrap();
        let ctx = OptContext::new(
            &cat,
            [
                BaseRel::fixture("r1", vec![a], 4),
                BaseRel::fixture("r2", vec![a, b], 16),
            ],
            QuerySpec::group_by([a, b]),
            CostModel::Io,
        );
        let p = optimize(&ctx, Algorithm::Ve(Heuristic::Degree));
        assert_eq!(p.plan.group_by_count(), 1);
        assert_eq!(p.plan.join_count(), 1);
    }
}
