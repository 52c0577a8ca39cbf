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

/// Estimated rows of a selection on `predicates` over `in_rows` rows:
/// each variable keeps `1/|dom(v)|` of the rows once, however often the
/// conjunction repeats it, and two different constants on one variable
/// select nothing.
pub fn select_rows(ctx: &OptContext<'_>, in_rows: f64, predicates: &[(VarId, Value)]) -> f64 {
    let mut rows = in_rows;
    for (i, &(v, c)) in predicates.iter().enumerate() {
        match predicates[..i].iter().find(|p| p.0 == v) {
            Some(&(_, first)) if first != c => return 0.0,
            Some(_) => {}
            None => {
                let d = ctx.catalog.domain_size(v) as f64;
                if d > 0.0 {
                    rows /= d;
                }
            }
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

/// Estimated density of `rows` rows on the grid of `schema`:
/// `rows / ∏ |dom(v)|`, capped at 1. A variable in `pinned` — fixed by a
/// selection below the operand, whose slice of a grid is one cell wide
/// on that axis — counts 1; every other variable counts its catalog's
/// *real* domain, not the effective one, because the dense kernels grid
/// an unselected operand over the data's actual value range whatever
/// the query's predicates bind elsewhere. `None` when the grid exceeds
/// [`mpf_storage::layout::MAX_DENSE_CELLS`], which callers treat as
/// "never dense".
pub fn schema_density(
    ctx: &OptContext<'_>,
    schema: &Schema,
    pinned: &[VarId],
    rows: f64,
) -> Option<f64> {
    let domains: Vec<u64> = schema
        .iter()
        .map(|v| {
            if pinned.contains(&v) {
                1
            } else {
                ctx.catalog.domain_size(v)
            }
        })
        .collect();
    let cells = mpf_storage::layout::grid_cells(&domains)?;
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
        PP::Step {
            inputs, group_vars, ..
        } => {
            // The inputs join left to right; a step with group variables
            // is then estimated like the unfused marginalization above
            // that join: join cardinality feeds the group-count model,
            // whether or not the intermediate materializes.
            let mirrored = span.children.len() == inputs.len();
            let mut children = span.children.iter_mut().filter(|_| mirrored);
            let mut joined: Option<(Schema, f64)> = None;
            for input in inputs {
                let (s, r) = input_est(input, children.next());
                joined = Some(match joined {
                    None => (s, r),
                    Some((js, jr)) => (js.union(&s), join_rows(ctx, &js, jr, &s, r)),
                });
            }
            let (schema, rows) = joined.expect("a step has inputs");
            match group_vars {
                Some(g) => {
                    let schema: Schema = g.iter().copied().collect();
                    let rows = group_rows(ctx, rows, &schema);
                    (schema, rows)
                }
                None => (schema, rows),
            }
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
            grid: false,
        };
        let r2 = BaseRel {
            name: "r2".into(),
            schema: Schema::new(vec![b, c]).unwrap(),
            cardinality: 500,
            fd_lhs: None,
            grid: false,
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
            grid: false,
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
    fn repeated_predicates_count_each_variable_once() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 256).unwrap();
        let b = cat.add_var("b", 256).unwrap();
        let ctx = OptContext::new(&cat, [], QuerySpec::default(), CostModel::Io);
        let rows = 65_536.0;
        assert_eq!(select_rows(&ctx, rows, &[(b, 1)]), 256.0);
        // `b = 1 and b = 1` is `b = 1`.
        assert_eq!(select_rows(&ctx, rows, &[(b, 1), (b, 1)]), 256.0);
        assert_eq!(select_rows(&ctx, rows, &[(b, 1), (a, 3), (b, 1)]), 1.0);
        // `b = 1 and b = 2` selects nothing.
        assert_eq!(select_rows(&ctx, rows, &[(b, 1), (b, 2)]), 0.0);
        assert_eq!(select_rows(&ctx, rows, &[(b, 1), (a, 3), (b, 2)]), 0.0);
    }

    #[test]
    fn pinned_variables_count_one_cell_in_density() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 256).unwrap();
        let b = cat.add_var("b", 256).unwrap();
        let ctx = OptContext::new(&cat, [], QuerySpec::default(), CostModel::Io);
        let ab = Schema::new(vec![a, b]).unwrap();
        // The 256-row slice of a complete 256×256 grid at `b = c`: sparse
        // on the full grid, complete on the slice's.
        assert_eq!(schema_density(&ctx, &ab, &[], 256.0), Some(1.0 / 256.0));
        assert_eq!(schema_density(&ctx, &ab, &[b], 256.0), Some(1.0));
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
