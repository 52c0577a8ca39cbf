//! Cost-based physical operator selection.
//!
//! The paper emphasizes that, unlike the GDL setting where one algorithm
//! implements each of multiplication and marginalization, "in the
//! relational case there are multiple algorithms to implement join
//! (multiplication) and aggregation (summation), and the choice of
//! algorithm is based on the cost of accessing disk-resident operands".
//! This module makes that choice for a finished logical plan, per
//! elimination step ([`PhysicalPlan::Step`]), in a fixed order of
//! representations ([`OpRepr`]):
//!
//! * **dense** odometer kernels when every grid is feasible and, under
//!   [`DenseMode::Auto`], every operand is dense enough;
//! * else **sparse** tensor kernels under [`ReprMode::Auto`] whenever
//!   every coordinate space is feasible, at any density;
//! * else (coordinate spaces too large for the sparse kernels, or
//!   [`ReprMode::Off`]) the **hash** operators ([`OpRepr::Rows`]).
//!
//! The choice never depends on the executor's thread count: the same plan
//! runs at every [`mpf_algebra::ExecLimits::threads`].
//!
//! A dense or sparse join feeding a marginalization of the same
//! representation then becomes one two-input step with group variables,
//! the fused elimination step.
//!
//! Operand sizes come from the same catalog-based estimator the join
//! ordering used ([`estimate::plan_estimate`]).
//!
//! A variable a selection fixes (`σ_{b=c}`) over an operand estimated
//! complete is *pinned* above it: on a complete grid the selection is a
//! slice whose `b` axis is one cell wide, so dense eligibility grids it
//! with domain 1, and a complete operand's slice stays complete —
//! `rows/|b|` over `grid/|b|`. Over any other operand the selection is a
//! row filter, whose output the dense kernels grid over the real domain
//! of `b`, so it pins nothing and is judged as before.

use mpf_algebra::{DenseMode, OpRepr, PhysicalPlan, Plan, ReprMode};
use mpf_storage::{Schema, VarId};

use crate::{estimate, OptContext};

/// Minimum estimated operand density (rows over the schema's catalog
/// grid) before [`DenseMode::Auto`] selects a dense operator. Sparse
/// operands waste grid cells; at 0.5+ the odometer kernel's per-cell cost
/// undercuts hashing.
const DENSE_MIN_DENSITY: f64 = 0.5;

/// Physical selection knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhysicalConfig {
    /// Whether to consider the dense odometer kernels. The engine passes
    /// its own mode; [`DenseMode::Auto`] by default.
    pub dense_mode: DenseMode,
    /// Whether to consider the sparse-tensor kernels; [`ReprMode::Auto`]
    /// by default.
    pub repr_mode: ReprMode,
}

impl PhysicalConfig {
    /// Set the dense-kernel selection mode (builder style).
    pub fn with_dense(mut self, mode: DenseMode) -> Self {
        self.dense_mode = mode;
        self
    }

    /// Set the sparse-tensor selection mode (builder style).
    pub fn with_repr(mut self, mode: ReprMode) -> Self {
        self.repr_mode = mode;
        self
    }
}

/// A lowered subplan's estimated output: its schema and rows, whether it
/// is a grid (a grid base relation, a slice of a grid, or a dense
/// operator's output), and the variables a selection pinned to one cell
/// of that grid.
struct Estimate {
    schema: Schema,
    rows: f64,
    grid: bool,
    pinned: Vec<VarId>,
}

impl Estimate {
    /// The estimate of an operator's output, which is a grid — keeping
    /// its pinned axes — only when the operator runs dense.
    fn ran(mut self, dense: bool) -> Estimate {
        self.grid = dense;
        if !dense {
            self.pinned.clear();
        }
        self
    }
}

/// Whether the dense kernel should be selected for an operator whose
/// inputs have the given estimates and whose output grid (`out`'s
/// schema, its pinned variables one cell wide) must be materialized.
/// `Off`: never. `Auto`: when every grid is feasible and every input
/// clears [`DENSE_MIN_DENSITY`] — near-complete operands are where the
/// odometer kernel wins. A variable pinned in one input but
/// not in another that has it never goes dense: the grids disagree on
/// its axis.
fn dense_applies(
    ctx: &OptContext<'_>,
    cfg: &PhysicalConfig,
    inputs: &[&Estimate],
    out: &Estimate,
) -> bool {
    if cfg.dense_mode == DenseMode::Off {
        return false;
    }
    if estimate::schema_density(ctx, &out.schema, &out.pinned, 0.0).is_none() {
        return false;
    }
    let pinned_unevenly = |v: &VarId| {
        let mut sides = inputs.iter().filter(|e| e.schema.contains(*v));
        sides.clone().any(|e| e.pinned.contains(v)) && !sides.all(|e| e.pinned.contains(v))
    };
    if out.pinned.iter().any(pinned_unevenly) {
        return false;
    }
    inputs.iter().all(|input| {
        estimate::schema_density(ctx, &input.schema, &input.pinned, input.rows)
            .is_some_and(|d| d >= DENSE_MIN_DENSITY)
    })
}

/// Whether a sparse-tensor kernel should be selected for an operator over
/// the given input and output schemas. Checked *after* [`dense_applies`]:
/// when a grid is complete enough for the odometer kernel, dense is
/// strictly better; below that, sorted-merge over linearized coordinates
/// beats hashing at every density measured (down to 0.5 %, `pr7_repr`),
/// so the only test is feasibility — every coordinate space within
/// [`mpf_storage::layout::MAX_SPARSE_COORD_CELLS`], over the catalog's real
/// domains. `Off`: never.
fn sparse_applies(ctx: &OptContext<'_>, cfg: &PhysicalConfig, schemas: &[&Schema]) -> bool {
    cfg.repr_mode == ReprMode::Auto
        && schemas.iter().all(|s| {
            let domains: Vec<u64> = s.iter().map(|v| ctx.catalog.domain_size(v)).collect();
            mpf_storage::layout::grid_cells_wide(&domains).is_some()
        })
}

/// The representation of a step over `inputs` into `out`: dense when
/// [`dense_applies`], else sparse when every schema's coordinate space
/// is feasible, else hash.
fn step_repr(
    ctx: &OptContext<'_>,
    cfg: &PhysicalConfig,
    inputs: &[&Estimate],
    out: &Estimate,
) -> OpRepr {
    if dense_applies(ctx, cfg, inputs, out) {
        return OpRepr::Dense;
    }
    let mut schemas: Vec<&Schema> = inputs.iter().map(|e| &e.schema).collect();
    schemas.push(&out.schema);
    if sparse_applies(ctx, cfg, &schemas) {
        return OpRepr::Sparse;
    }
    OpRepr::Rows
}

/// Annotate a logical plan with cost-chosen operator algorithms.
pub fn choose_physical(ctx: &OptContext<'_>, plan: &Plan, cfg: PhysicalConfig) -> PhysicalPlan {
    lower(ctx, &cfg, plan).0
}

/// Choose each step's representation bottom-up, handing every subplan's
/// estimated schema and rows (those of [`estimate::plan_estimate`]) and
/// its pinned variables to its parent, so each node is estimated once.
///
/// A dense join feeding a dense marginalization, or a sparse join feeding
/// a sparse one, becomes a single two-input step with group variables:
/// the elimination step then folds every join pair straight into its
/// group accumulator, skipping the join intermediate entirely. Mixed and
/// hash pairings stay two steps.
fn lower(ctx: &OptContext<'_>, cfg: &PhysicalConfig, plan: &Plan) -> (PhysicalPlan, Estimate) {
    match plan {
        Plan::Scan { relation } => {
            let (schema, rows) = estimate::plan_estimate(ctx, plan);
            let grid = ctx.rels.iter().any(|r| &r.name == relation && r.grid);
            let scan = PhysicalPlan::Scan {
                relation: relation.clone(),
            };
            let est = Estimate {
                schema,
                rows,
                grid,
                pinned: Vec::new(),
            };
            (scan, est)
        }
        Plan::Select { input, predicates } => {
            let (input, mut est) = lower(ctx, cfg, input);
            est.rows = estimate::select_rows(ctx, est.rows, predicates);
            for &(v, _) in predicates.iter().filter(|_| est.grid) {
                if !est.pinned.contains(&v) {
                    est.pinned.push(v);
                }
            }
            let select = PhysicalPlan::Select {
                input: Box::new(input),
                predicates: predicates.clone(),
            };
            (select, est)
        }
        Plan::Join { left, right } => {
            let (left, l) = lower(ctx, cfg, left);
            let (right, r) = lower(ctx, cfg, right);
            let mut pinned = l.pinned.clone();
            pinned.extend(r.pinned.iter().filter(|v| !l.pinned.contains(v)));
            let est = Estimate {
                schema: l.schema.union(&r.schema),
                rows: estimate::join_rows(ctx, &l.schema, l.rows, &r.schema, r.rows),
                grid: true,
                pinned,
            };
            let repr = step_repr(ctx, cfg, &[&l, &r], &est);
            let join = PhysicalPlan::Step {
                inputs: vec![left, right],
                group_vars: None,
                repr,
            };
            (join, est.ran(repr == OpRepr::Dense))
        }
        Plan::GroupBy { input, group_vars } => {
            let (input, in_est) = lower(ctx, cfg, input);
            let schema: Schema = group_vars.iter().copied().collect();
            let est = Estimate {
                rows: estimate::group_rows(ctx, in_est.rows, &schema),
                grid: true,
                pinned: in_est
                    .pinned
                    .iter()
                    .copied()
                    .filter(|v| schema.contains(*v))
                    .collect(),
                schema,
            };
            let repr = step_repr(ctx, cfg, &[&in_est], &est);
            let inputs = match input {
                PhysicalPlan::Step {
                    inputs,
                    group_vars: None,
                    repr: join,
                } if join == repr && repr != OpRepr::Rows => inputs,
                input => vec![input],
            };
            let step = PhysicalPlan::Step {
                inputs,
                group_vars: Some(group_vars.clone()),
                repr,
            };
            (step, est.ran(repr == OpRepr::Dense))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, Algorithm, BaseRel, CostModel, QuerySpec};
    use mpf_storage::{Catalog, Schema, VarId};

    fn ctx_fixture(cat: &mut Catalog) -> (Vec<BaseRel>, VarId, VarId, VarId) {
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 10_000).unwrap();
        let c = cat.add_var("c", 10_000).unwrap();
        (
            vec![
                BaseRel {
                    name: "r1".into(),
                    schema: Schema::new(vec![a, b]).unwrap(),
                    cardinality: 100_000,
                    fd_lhs: None,
                    grid: false,
                },
                BaseRel {
                    name: "r2".into(),
                    schema: Schema::new(vec![b, c]).unwrap(),
                    cardinality: 5_000_000,
                    fd_lhs: None,
                    grid: false,
                },
            ],
            a,
            b,
            c,
        )
    }

    #[test]
    fn large_operands_off_the_kernels_lower_to_hash() {
        // The 5M-row fixture, once as optimized and once unreduced: a
        // 100k-row build side joining r2 under a {a, b} group-by with 100k
        // estimated groups. With the dense and sparse kernels off, no
        // operand size selects anything but the hash operators.
        let mut cat = Catalog::new();
        let (rels, a, b, _) = ctx_fixture(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let optimized = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let unreduced = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a, b]);
        let cfg = PhysicalConfig::default()
            .with_dense(DenseMode::Off)
            .with_repr(ReprMode::Off);
        for plan in [&optimized, &unreduced] {
            assert_eq!(choose_physical(&ctx, plan, cfg), PhysicalPlan::default_hash(plan));
        }
    }

    #[test]
    fn dense_selection_follows_mode_and_density() {
        // Complete relations over small domains: density 1.0 everywhere.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let rels = vec![
            BaseRel::fixture("r1", vec![a, b], 64),
            BaseRel::fixture("r2", vec![b, c], 64),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default().with_repr(ReprMode::Off);
        let off = choose_physical(&ctx, &plan, cfg.with_dense(DenseMode::Off));
        assert_eq!(off.dense_operator_count(), 0);
        let auto = choose_physical(&ctx, &plan, cfg.with_dense(DenseMode::Auto));
        assert_eq!(
            auto.dense_operator_count(),
            plan.join_count() + plan.group_by_count(),
            "complete operands go dense under auto:\n{}",
            auto.render(&|v| format!("x{}", v.0))
        );
        assert_eq!(auto.to_logical(), plan);

        // Sparse data (density 1/16): auto declines.
        let sparse = vec![
            BaseRel::fixture("r1", vec![a, b], 4),
            BaseRel::fixture("r2", vec![b, c], 4),
        ];
        let sctx = OptContext::new(&cat, sparse, QuerySpec::group_by([a]), CostModel::Io);
        let splan = optimize(&sctx, Algorithm::CsPlusNonlinear).plan;
        let sauto = choose_physical(&sctx, &splan, cfg.with_dense(DenseMode::Auto));
        assert_eq!(sauto.dense_operator_count(), 0, "sparse operands stay hash");
    }

    #[test]
    fn dense_join_into_dense_agg_fuses() {
        // Complete relations over small domains: both operators go dense
        // under auto, and the join feeds the marginalization directly —
        // the canonical VE elimination step the fused operator targets.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let rels = vec![
            BaseRel::fixture("r1", vec![a, b], 64),
            BaseRel::fixture("r2", vec![b, c], 64),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default()
            .with_dense(DenseMode::Auto)
            .with_repr(ReprMode::Off);
        let fused = choose_physical(&ctx, &plan, cfg);
        assert!(
            !fused_reprs(&fused).is_empty(),
            "dense join into dense agg fuses:\n{}",
            fused.render(&|v| format!("x{}", v.0))
        );
        assert!(fused_reprs(&fused).iter().all(|&r| r == OpRepr::Dense));
        // Fusion is an annotation change only: the logical plan and the
        // dense operator accounting (one join + one group-by per fused
        // step) are unchanged.
        assert_eq!(fused.to_logical(), plan);
        assert_eq!(
            fused.dense_operator_count(),
            plan.join_count() + plan.group_by_count()
        );
    }

    /// The representation of every fused step (two inputs, group
    /// variables) in the plan.
    fn fused_reprs(p: &PhysicalPlan) -> Vec<OpRepr> {
        match p {
            PhysicalPlan::Scan { .. } => vec![],
            PhysicalPlan::Select { input, .. } => fused_reprs(input),
            PhysicalPlan::Step {
                inputs,
                group_vars,
                repr,
            } => {
                let own = (inputs.len() == 2 && group_vars.is_some()).then_some(*repr);
                own.into_iter().chain(inputs.iter().flat_map(fused_reprs)).collect()
            }
        }
    }

    #[test]
    fn evidence_on_grids_stays_dense() {
        // The triangle `r1(a,b)·r2(b,c)·r3(c,a)` over complete 64×64
        // relations with `b = 3`: on grids the selections are slices, one
        // cell wide on `b`, and every step of every plan stays dense; on
        // explicit rows they are row filters and the plans are as if
        // nothing were pinned.
        let mut cat = Catalog::new();
        let [a, b, c] = ["a", "b", "c"].map(|v| cat.add_var(v, 64).unwrap());
        let rels = |grid: bool| {
            [("r1", [a, b]), ("r2", [b, c]), ("r3", [c, a])].map(|(name, vars)| BaseRel {
                grid,
                ..BaseRel::fixture(name, vars.to_vec(), 64 * 64)
            })
        };
        let query = QuerySpec::group_by([a]).filter(b, 3);
        let cfg = PhysicalConfig::default();
        for algo in [
            Algorithm::CsPlusNonlinear,
            Algorithm::Ve(crate::Heuristic::Degree),
        ] {
            let grids = OptContext::new(&cat, rels(true), query.clone(), CostModel::Io);
            let plan = optimize(&grids, algo).plan;
            let phys = choose_physical(&grids, &plan, cfg);
            let render = phys.render(&|v| format!("x{}", v.0));
            assert_eq!(
                phys.dense_operator_count(),
                plan.join_count() + plan.group_by_count(),
                "{render}"
            );
            let rows = OptContext::new(&cat, rels(false), query.clone(), CostModel::Io);
            let phys = choose_physical(&rows, &plan, cfg);
            let render = phys.render(&|v| format!("x{}", v.0));
            assert!(!dense_over_select(&phys), "{render}");
        }
    }

    /// Whether a dense two-input step reads a selection.
    fn dense_over_select(p: &PhysicalPlan) -> bool {
        let select = |p: &PhysicalPlan| matches!(p, PhysicalPlan::Select { .. });
        match p {
            PhysicalPlan::Scan { .. } => false,
            PhysicalPlan::Select { input, .. } => dense_over_select(input),
            PhysicalPlan::Step { inputs, repr, .. } => {
                (*repr == OpRepr::Dense && inputs.len() == 2 && inputs.iter().any(select))
                    || inputs.iter().any(dense_over_select)
            }
        }
    }

    #[test]
    fn infeasible_grids_are_never_dense() {
        // Domains whose cross product exceeds MAX_DENSE_CELLS, estimated
        // complete: only the feasibility check keeps the step off dense.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 1 << 13).unwrap();
        let b = cat.add_var("b", 1 << 13).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1 << 26,
            fd_lhs: None,
            grid: false,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let phys = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default().with_repr(ReprMode::Off),
        );
        assert_eq!(phys.dense_operator_count(), 0, "grid never materializes");
    }

    #[test]
    fn sparse_selection_is_by_feasibility_not_density() {
        // Base densities ~0.19 and an estimated join output density ~0.035:
        // every operand is too sparse for dense auto (0.5).
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let rels = vec![
            BaseRel::fixture("r1", vec![a, b], 12),
            BaseRel::fixture("r2", vec![b, c], 12),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default();
        let off = choose_physical(&ctx, &plan, cfg.with_repr(ReprMode::Off));
        assert_eq!(off.sparse_operator_count(), 0);
        let auto = choose_physical(&ctx, &plan, cfg.with_repr(ReprMode::Auto));
        assert_eq!(
            auto.sparse_operator_count(),
            plan.join_count() + plan.group_by_count(),
            "mid-density operands go sparse under auto:\n{}",
            auto.render(&|v| format!("x{}", v.0))
        );
        assert_eq!(auto.dense_operator_count(), 0, "dense auto declines at 9%");
        assert_eq!(auto.to_logical(), plan);

        // Estimated density 0.5%: auto still selects the sparse kernels.
        let mut cat2 = Catalog::new();
        let a2 = cat2.add_var("a", 100).unwrap();
        let b2 = cat2.add_var("b", 100).unwrap();
        let c2 = cat2.add_var("c", 100).unwrap();
        let sparse = vec![
            BaseRel::fixture("r1", vec![a2, b2], 50),
            BaseRel::fixture("r2", vec![b2, c2], 50),
        ];
        let sctx = OptContext::new(&cat2, sparse, QuerySpec::group_by([a2]), CostModel::Io);
        let splan = optimize(&sctx, Algorithm::CsPlusNonlinear).plan;
        let sauto = choose_physical(&sctx, &splan, cfg);
        assert_eq!(
            sauto.sparse_operator_count(),
            splan.join_count() + splan.group_by_count(),
            "0.5% operands go sparse under the default config:\n{}",
            sauto.render(&|v| format!("x{}", v.0))
        );
    }

    #[test]
    fn sparse_join_into_sparse_agg_fuses() {
        // The mid-density fixture above: every operator goes sparse, and
        // each sparse join feeding a sparse marginalization becomes one
        // sparse elimination step.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let rels = vec![
            BaseRel::fixture("r1", vec![a, b], 12),
            BaseRel::fixture("r2", vec![b, c], 12),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default();
        let on = choose_physical(&ctx, &plan, cfg);
        let render = |p: &PhysicalPlan| p.render(&|v| format!("x{}", v.0));
        assert!(!fused_reprs(&on).is_empty(), "sparse pair fuses:\n{}", render(&on));
        assert!(
            fused_reprs(&on).iter().all(|&r| r == OpRepr::Sparse),
            "fused as a sparse step:\n{}",
            render(&on)
        );
        assert_eq!(on.to_logical(), plan);
        assert_eq!(on.sparse_operator_count(), plan.join_count() + plan.group_by_count());
        assert_eq!(on.dense_operator_count(), 0);
    }

    #[test]
    fn dense_wins_over_sparse_on_complete_grids() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 64,
            fd_lhs: None,
            grid: false,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let phys = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default()
                .with_dense(DenseMode::Auto)
                .with_repr(ReprMode::Auto),
        );
        assert!(phys.dense_operator_count() > 0, "complete grids go dense");
        assert_eq!(phys.sparse_operator_count(), 0, "dense outranks sparse");
    }

    #[test]
    fn wide_grids_go_sparse_where_dense_cannot() {
        // Grid of 2^26 cells, estimated complete: over the dense cap,
        // within the sparse cap.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 1 << 13).unwrap();
        let b = cat.add_var("b", 1 << 13).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1 << 26,
            fd_lhs: None,
            grid: false,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let phys = choose_physical(&ctx, &plan, PhysicalConfig::default());
        assert_eq!(phys.dense_operator_count(), 0, "grid never fits densely");
        assert!(
            phys.sparse_operator_count() > 0,
            "coordinates stay feasible:\n{}",
            phys.render(&|v| format!("x{}", v.0))
        );
    }
}
