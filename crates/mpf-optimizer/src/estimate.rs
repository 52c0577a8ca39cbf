//! Catalog-based cardinality estimation.
//!
//! Estimates use the classical uniformity + containment assumptions of
//! System-R style optimizers, over the statistics the paper assumes are in
//! the catalog (per-variable domain sizes, per-relation cardinalities):
//!
//! * **selection** on `v = c` keeps a `1/|dom(v)|` fraction of rows;
//! * **product join** output is `|L|·|R| / ∏_{v ∈ shared} |dom(v)|`;
//! * **group-by** output is `min(|in|, ∏_{v ∈ group} |dom(v)|)`.
//!
//! All domain sizes are *effective* domains
//! ([`OptContext::effective_domain`]): a variable bound by an equality
//! predicate contributes 1.

use mpf_storage::{Schema, Value, VarId};

use crate::OptContext;

/// Estimated rows of a base relation after applying the query's applicable
/// equality predicates.
pub fn base_rows(ctx: &OptContext<'_>, rel_idx: usize) -> f64 {
    let rel = &ctx.rels[rel_idx];
    let preds = ctx.applicable_predicates(&rel.schema);
    select_rows(ctx, rel.cardinality as f64, &preds)
}

/// Estimated rows of a selection on `predicates` over `in_rows` rows.
pub fn select_rows(ctx: &OptContext<'_>, in_rows: f64, predicates: &[(VarId, Value)]) -> f64 {
    let mut rows = in_rows;
    for &(v, _) in predicates {
        let d = ctx.catalog.domain_size(v) as f64;
        if d > 0.0 {
            rows /= d;
        }
    }
    rows.max(1.0)
}

/// Estimated rows of `l ⨝* r` given operand schemas and cardinalities.
pub fn join_rows(
    ctx: &OptContext<'_>,
    l_schema: &Schema,
    l_rows: f64,
    r_schema: &Schema,
    r_rows: f64,
) -> f64 {
    let shared = l_schema.intersect(r_schema);
    let denom = ctx.domain_product(shared.iter()).max(1.0);
    (l_rows * r_rows / denom).max(1.0)
}

/// Estimated rows of `GroupBy_{group}(in)`.
pub fn group_rows(ctx: &OptContext<'_>, in_rows: f64, group: &Schema) -> f64 {
    let dom = ctx.domain_product(group.iter());
    in_rows.min(dom).max(1.0)
}

/// Estimated output schema and cardinality of an arbitrary logical plan
/// (used by physical operator selection, which must size operators the
/// dynamic program has already placed).
pub fn plan_estimate(ctx: &OptContext<'_>, plan: &mpf_algebra::Plan) -> (Schema, f64) {
    use mpf_algebra::Plan;
    match plan {
        Plan::Scan { relation } => {
            let rel = ctx
                .rels
                .iter()
                .find(|r| &r.name == relation)
                .expect("plan scans a context relation");
            (rel.schema.clone(), rel.cardinality as f64)
        }
        Plan::Select { input, predicates } => {
            let (schema, rows) = plan_estimate(ctx, input);
            (schema, select_rows(ctx, rows, predicates))
        }
        Plan::Join { left, right } => {
            let (ls, lr) = plan_estimate(ctx, left);
            let (rs, rr) = plan_estimate(ctx, right);
            let rows = join_rows(ctx, &ls, lr, &rs, rr);
            (ls.union(&rs), rows)
        }
        Plan::GroupBy { input, group_vars } => {
            let (_, in_rows) = plan_estimate(ctx, input);
            let schema: Schema = group_vars.iter().copied().collect();
            let rows = group_rows(ctx, in_rows, &schema);
            (schema, rows)
        }
    }
}

/// Estimated density of `rows` rows on the catalog grid of `schema`:
/// `rows / ∏ |dom(v)|`, capped at 1. Grid sizes use the catalog's *real*
/// domains, not the effective ones — the dense kernels grid over the
/// data's actual value range regardless of query predicates. `None` when
/// the grid exceeds [`mpf_storage::dense::MAX_DENSE_CELLS`], which
/// callers treat as "never dense".
pub fn schema_density(ctx: &OptContext<'_>, schema: &Schema, rows: f64) -> Option<f64> {
    let domains: Vec<u64> = schema
        .iter()
        .map(|v| ctx.catalog.domain_size(v))
        .collect();
    let cells = mpf_storage::dense::grid_cells(&domains)?;
    if cells == 0 {
        return Some(0.0);
    }
    Some((rows / cells as f64).min(1.0))
}

/// Annotate an executed-plan trace with per-node estimated output rows.
///
/// `span` is the root span the interpreter recorded for `plan` (the span
/// tree mirrors the plan tree node-for-node); after this pass every span
/// carries `est_rows` next to its actual row count, which is what
/// `EXPLAIN ANALYZE` prints to make cost-model drift visible. Returns the
/// root estimate. Span subtrees that do not mirror the plan (e.g. spans
/// grafted by ad-hoc operator calls) are left unannotated.
pub fn annotate_estimates(
    ctx: &OptContext<'_>,
    plan: &mpf_algebra::PhysicalPlan,
    span: &mut mpf_algebra::TraceSpan,
) -> f64 {
    annotate_rec(ctx, plan, span).1
}

fn annotate_rec(
    ctx: &OptContext<'_>,
    plan: &mpf_algebra::PhysicalPlan,
    span: &mut mpf_algebra::TraceSpan,
) -> (Schema, f64) {
    use mpf_algebra::PhysicalPlan as PP;
    // Recurse only when the span's children mirror the plan node's inputs;
    // otherwise estimate the input from the logical plan alone.
    let input_est = |input: &PP, child: Option<&mut mpf_algebra::TraceSpan>| match child {
        Some(c) => annotate_rec(ctx, input, c),
        None => plan_estimate(ctx, &input.to_logical()),
    };
    let (schema, rows) = match plan {
        PP::Scan { relation } => match ctx.rels.iter().find(|r| &r.name == relation) {
            Some(rel) => (rel.schema.clone(), rel.cardinality as f64),
            None => (std::iter::empty().collect(), f64::NAN),
        },
        PP::Select { input, predicates } => {
            let (schema, rows) = input_est(input, span.children.first_mut());
            (schema, select_rows(ctx, rows, predicates))
        }
        PP::Join { left, right, .. } | PP::JoinAgg { left, right, .. } => {
            let two = span.children.len() == 2;
            let mut it = span.children.iter_mut();
            let (ls, lr) = input_est(left, if two { it.next() } else { None });
            let (rs, rr) = input_est(right, if two { it.next() } else { None });
            let rows = join_rows(ctx, &ls, lr, &rs, rr);
            match plan {
                // A fused step is estimated like the unfused pair: join
                // cardinality feeds the group-count model, the
                // intermediate just never materializes.
                PP::JoinAgg { group_vars, .. } => {
                    let schema: Schema = group_vars.iter().copied().collect();
                    let rows = group_rows(ctx, rows, &schema);
                    (schema, rows)
                }
                _ => (ls.union(&rs), rows),
            }
        }
        PP::GroupBy {
            input, group_vars, ..
        } => {
            let (_, in_rows) = input_est(input, span.children.first_mut());
            let schema: Schema = group_vars.iter().copied().collect();
            let rows = group_rows(ctx, in_rows, &schema);
            (schema, rows)
        }
    };
    span.est_rows = Some(rows);
    (schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseRel, CostModel, QuerySpec};
    use mpf_storage::Catalog;

    #[test]
    fn estimates_follow_assumptions() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 100).unwrap();
        let c = cat.add_var("c", 5).unwrap();
        let r1 = BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1000,
            fd_lhs: None,
        };
        let r2 = BaseRel {
            name: "r2".into(),
            schema: Schema::new(vec![b, c]).unwrap(),
            cardinality: 500,
            fd_lhs: None,
        };
        let ctx = OptContext::new(
            &cat,
            [r1.clone(), r2.clone()],
            QuerySpec::group_by([a]),
            CostModel::Io,
        );
        assert_eq!(base_rows(&ctx, 0), 1000.0);
        // Join on b: 1000*500/100 = 5000.
        let j = join_rows(&ctx, &r1.schema, 1000.0, &r2.schema, 500.0);
        assert_eq!(j, 5000.0);
        // Grouping 5000 rows onto a (domain 10) -> 10.
        let g = group_rows(&ctx, j, &Schema::new(vec![a]).unwrap());
        assert_eq!(g, 10.0);
        // Grouping 5 rows onto b (domain 100) capped by input.
        let g2 = group_rows(&ctx, 5.0, &Schema::new(vec![b]).unwrap());
        assert_eq!(g2, 5.0);
    }

    #[test]
    fn predicates_shrink_estimates() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 100).unwrap();
        let r1 = BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1000,
            fd_lhs: None,
        };
        let ctx = OptContext::new(
            &cat,
            [r1.clone()],
            QuerySpec::group_by([a]).filter(b, 7),
            CostModel::Io,
        );
        // Selection on b keeps 1/100 of rows.
        assert_eq!(base_rows(&ctx, 0), 10.0);
        // Bound variable contributes effective domain 1 to joins.
        let j = join_rows(&ctx, &r1.schema, 10.0, &r1.schema, 10.0);
        // Shared vars a (10) and b (bound, 1): 10*10/10 = 10.
        assert_eq!(j, 10.0);
    }

    #[test]
    fn cross_product_estimate() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 10).unwrap();
        let sa = Schema::new(vec![a]).unwrap();
        let sb = Schema::new(vec![b]).unwrap();
        let ctx = OptContext::new(&cat, [], QuerySpec::default(), CostModel::Io);
        assert_eq!(join_rows(&ctx, &sa, 10.0, &sb, 10.0), 100.0);
    }
}
