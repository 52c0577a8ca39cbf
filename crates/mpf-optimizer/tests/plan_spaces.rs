//! Plan-space relationships from Section 5 of the paper, checked as cost
//! inequalities on random optimization contexts:
//!
//! * the CS+ greedy-conservative guarantee ("a plan that is no worse in
//!   terms of cost than the original single GroupBy node plan");
//! * `GDLPlan(CS+ linear) ⊆ GDLPlan(CS+ nonlinear)` — bushy search is
//!   never worse (Theorem 1 via search-space inclusion);
//! * `GDLPlan(VE) ⊆ GDLPlan(VE+)` for a fixed elimination order
//!   (Theorem 3);
//! * VE plans lie in the nonlinear CS+ space cost-wise on these instances
//!   (`cost(CS+) ≤ cost(VE)`, the practical content of Theorem 1's
//!   `GDLPlan(VE) ⊆ GDLPlan(CS+)`).

use mpf_optimizer::{
    optimize, ve::plan_ve_ordered, Algorithm, BaseRel, CostModel, Heuristic, OptContext,
    QuerySpec,
};
use mpf_storage::{Catalog, Schema, VarId};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A random optimization context: variables with random domains, relations
/// over random subsets with containment-consistent cardinalities.
#[derive(Debug, Clone)]
struct Ctx {
    domains: Vec<u64>,
    rel_vars: Vec<Vec<usize>>,
    card_fracs: Vec<f64>,
    query_var: usize,
    seed: u64,
}

fn ctx_strategy() -> impl Strategy<Value = Ctx> {
    (3usize..=6, 2usize..=5, 0u64..10_000).prop_flat_map(|(nvars, nrels, seed)| {
        let domains = proptest::collection::vec(2u64..=50, nvars);
        let rel = proptest::collection::vec(0usize..nvars, 1..=3).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        });
        let rels = proptest::collection::vec(rel, nrels);
        let fracs = proptest::collection::vec(0.05f64..1.0, nrels);
        (domains, rels, fracs, 0usize..nvars).prop_map(move |(domains, rel_vars, card_fracs, query_var)| Ctx {
            domains,
            rel_vars,
            card_fracs,
            query_var,
            seed,
        })
    })
}

fn build<'a>(c: &Ctx, cat: &'a mut Catalog) -> Option<OptContext<'a>> {
    for (i, &d) in c.domains.iter().enumerate() {
        cat.add_var(&format!("x{i}"), d).ok()?;
    }
    let mut rels = Vec::new();
    for (ri, vars) in c.rel_vars.iter().enumerate() {
        let ids: Vec<VarId> = vars.iter().map(|&v| VarId(v as u32)).collect();
        let full: u64 = vars.iter().map(|&v| c.domains[v]).product();
        let card = ((full as f64 * c.card_fracs[ri]).ceil() as u64).max(1);
        rels.push(BaseRel {
            name: format!("r{ri}"),
            schema: Schema::new(ids).ok()?,
            cardinality: card,
            fd_lhs: None,
            grid: false,
        });
    }
    // Query variable must appear somewhere.
    if !c.rel_vars.iter().any(|vs| vs.contains(&c.query_var)) {
        return None;
    }
    let query = QuerySpec::group_by([VarId(c.query_var as u32)]);
    Some(OptContext::new(cat, rels, query, CostModel::Io))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CS+ (which may push group-bys) never costs more than CS (which
    /// cannot) — the Chaudhuri–Shim greedy-conservative guarantee.
    #[test]
    fn cs_plus_no_worse_than_cs(c in ctx_strategy()) {
        let mut cat = Catalog::new();
        let Some(ctx) = build(&c, &mut cat) else { return Ok(()) };
        let cs = optimize(&ctx, Algorithm::Cs);
        let csp = optimize(&ctx, Algorithm::CsPlusLinear);
        prop_assert!(
            csp.est_cost <= cs.est_cost + 1e-6,
            "CS+ {} > CS {}",
            csp.est_cost,
            cs.est_cost
        );
    }

    /// The bushy search space contains every linear plan.
    #[test]
    fn nonlinear_no_worse_than_linear(c in ctx_strategy()) {
        let mut cat = Catalog::new();
        let Some(ctx) = build(&c, &mut cat) else { return Ok(()) };
        let lin = optimize(&ctx, Algorithm::CsPlusLinear);
        let non = optimize(&ctx, Algorithm::CsPlusNonlinear);
        prop_assert!(
            non.est_cost <= lin.est_cost + 1e-6,
            "nonlinear {} > linear {}",
            non.est_cost,
            lin.est_cost
        );
    }

    /// Theorem 3: for the *same* elimination order, the extended space
    /// contains the plain VE plan, so VE+ never costs more.
    #[test]
    fn ve_plus_no_worse_than_ve_fixed_order(c in ctx_strategy()) {
        let mut cat = Catalog::new();
        let Some(ctx) = build(&c, &mut cat) else { return Ok(()) };
        let mut order: Vec<VarId> = ctx
            .all_vars()
            .into_iter()
            .filter(|v| !ctx.query.group_vars.contains(v))
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(c.seed);
        order.shuffle(&mut rng);
        let ve = plan_ve_ordered(&ctx, &order, Heuristic::Random(0), false);
        let vep = plan_ve_ordered(&ctx, &order, Heuristic::Random(0), true);
        prop_assert!(
            vep.est_cost <= ve.est_cost + 1e-6,
            "VE+ {} > VE {} (order {:?})",
            vep.est_cost,
            ve.est_cost,
            order
        );
    }

    /// Practical Theorem 1 content: the nonlinear CS+ optimum lower-bounds
    /// every VE plan under every deterministic heuristic.
    #[test]
    fn cs_plus_nonlinear_lower_bounds_ve(c in ctx_strategy()) {
        let mut cat = Catalog::new();
        let Some(ctx) = build(&c, &mut cat) else { return Ok(()) };
        let opt = optimize(&ctx, Algorithm::CsPlusNonlinear);
        for h in Heuristic::DETERMINISTIC {
            let ve = optimize(&ctx, Algorithm::Ve(h));
            prop_assert!(
                opt.est_cost <= ve.est_cost + 1e-6,
                "CS+ {} > VE({}) {}",
                opt.est_cost,
                h.label(),
                ve.est_cost
            );
        }
    }

    /// Every produced plan scans each base relation exactly once and ends
    /// with the query schema.
    #[test]
    fn plans_are_well_formed(c in ctx_strategy()) {
        let mut cat = Catalog::new();
        let Some(ctx) = build(&c, &mut cat) else { return Ok(()) };
        let n = ctx.rels.len();
        for algo in [
            Algorithm::Cs,
            Algorithm::CsPlusLinear,
            Algorithm::CsPlusNonlinear,
            Algorithm::Ve(Heuristic::Degree),
            Algorithm::VePlus(Heuristic::Degree),
        ] {
            let p = optimize(&ctx, algo);
            let mut scans = p.plan.base_relations();
            scans.sort_unstable();
            scans.dedup();
            prop_assert_eq!(scans.len(), n, "{} misses/duplicates scans", algo.label());
            prop_assert_eq!(
                p.plan.join_count(),
                n - 1,
                "{} has wrong join count",
                algo.label()
            );
            let schema_set: std::collections::BTreeSet<VarId> =
                p.schema_of(&ctx).into_iter().collect();
            let want: std::collections::BTreeSet<VarId> =
                ctx.query.group_vars.iter().copied().collect();
            prop_assert_eq!(schema_set, want);
        }
    }
}

/// Helper: output schema of an optimized plan (root group-by vars).
trait SchemaOf {
    fn schema_of(&self, ctx: &OptContext<'_>) -> Vec<VarId>;
}

impl SchemaOf for mpf_optimizer::OptimizedPlan {
    fn schema_of(&self, _ctx: &OptContext<'_>) -> Vec<VarId> {
        match &self.plan {
            mpf_algebra::Plan::GroupBy { group_vars, .. } => group_vars.clone(),
            _ => panic!("optimized plans end in a root group-by"),
        }
    }
}
