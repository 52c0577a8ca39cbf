//! Cost-based physical operator selection.
//!
//! The paper emphasizes that, unlike the GDL setting where one algorithm
//! implements each of multiplication and marginalization, "in the
//! relational case there are multiple algorithms to implement join
//! (multiplication) and aggregation (summation), and the choice of
//! algorithm is based on the cost of accessing disk-resident operands".
//! This module makes that choice for a finished logical plan, per
//! operator, in a fixed order:
//!
//! * the **dense** odometer kernels ([`JoinAlgo::Dense`],
//!   [`AggAlgo::DenseAgg`]) when every grid is feasible and, under
//!   [`DenseMode::Auto`], every operand is dense enough;
//! * else the **sparse-tensor** kernels ([`JoinAlgo::SparseTensor`],
//!   [`AggAlgo::SparseAgg`]) under [`ReprMode::Auto`] whenever every
//!   coordinate space is feasible, at any density;
//! * else (coordinate spaces too large for the sparse kernels, or
//!   [`ReprMode::Off`]), when the executor will run with more than one
//!   worker thread ([`PhysicalConfig::threads`]) and the build side (joins) or the
//!   estimated group count (aggregates) reaches
//!   [`PhysicalConfig::parallel_min_rows`], the **parallel partitioned**
//!   variants ([`JoinAlgo::Parallel`], [`AggAlgo::ParallelAgg`]), with the
//!   partition count sized for cache residency by
//!   [`mpf_algebra::partitioned::parallel_partitions`];
//! * else the **hash** operators ([`JoinAlgo::Hash`], [`AggAlgo::HashAgg`]).
//!
//! With [`PhysicalConfig::fuse`], a dense or sparse join feeding a
//! marginalization of the same kind then becomes one elimination step
//! ([`PhysicalPlan::JoinAgg`]).
//!
//! Operand sizes come from the same catalog-based estimator the join
//! ordering used ([`estimate::plan_estimate`]).

use mpf_algebra::{partitioned, AggAlgo, DenseMode, JoinAlgo, PhysicalPlan, Plan, ReprMode};
use mpf_storage::Schema;

use crate::{estimate, OptContext};

/// Estimated bytes per row for an operand of the given arity (mirrors
/// `FunctionalRelation::row_bytes`: 4-byte values plus an 8-byte measure).
fn row_bytes(arity: usize) -> u64 {
    arity as u64 * 4 + 8
}

/// Physical selection knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalConfig {
    /// Worker threads the executor will run with. With one thread the
    /// parallel operators are never selected (they degenerate to the
    /// plain hash operators at run time anyway, but the annotation would
    /// be noise in rendered plans).
    pub threads: usize,
    /// Minimum estimated build/group rows before a parallel operator is
    /// worth its partitioning pass. Small operands fit in cache whole;
    /// partitioning them only adds a copy.
    pub parallel_min_rows: f64,
    /// Whether to consider the dense odometer kernels ([`JoinAlgo::Dense`],
    /// [`AggAlgo::DenseAgg`]). The engine passes its own mode (read from
    /// `MPF_DENSE`); [`DenseMode::Auto`] by default.
    pub dense_mode: DenseMode,
    /// Minimum estimated operand density (rows over the schema's catalog
    /// grid) before [`DenseMode::Auto`] selects a dense operator. Sparse
    /// operands waste grid cells; at 0.5+ the odometer kernel's
    /// per-cell cost undercuts hashing.
    pub dense_min_density: f64,
    /// Whether to consider the sparse-tensor kernels
    /// ([`JoinAlgo::SparseTensor`], [`AggAlgo::SparseAgg`]);
    /// [`ReprMode::Auto`] by default.
    pub repr_mode: ReprMode,
    /// Whether to fuse a dense (sparse) join feeding a dense (sparse)
    /// marginalization into a single [`PhysicalPlan::JoinAgg`] operator
    /// that folds the join straight into the output without
    /// materializing the join intermediate. On by default; turn off to
    /// compare unfused plans.
    pub fuse: bool,
}

impl Default for PhysicalConfig {
    fn default() -> Self {
        PhysicalConfig {
            threads: mpf_algebra::limits::default_threads(),
            parallel_min_rows: 32_768.0,
            dense_mode: DenseMode::default(),
            dense_min_density: 0.5,
            repr_mode: ReprMode::default(),
            fuse: true,
        }
    }
}

impl PhysicalConfig {
    /// Set the worker-thread count the plan will execute with.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

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

    /// Enable or disable join→marginalize fusion (builder style).
    pub fn with_fuse(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }
}

/// Whether the dense kernel should be selected for an operator whose
/// inputs have the given (schema, rows) estimates and whose output schema
/// grid must be materialized. `Off`: never. `On`: whenever every grid is
/// feasible. `Auto`: additionally every input must clear the density
/// threshold — near-complete operands are where the odometer kernel wins.
fn dense_applies(
    ctx: &OptContext<'_>,
    cfg: &PhysicalConfig,
    inputs: &[(&Schema, f64)],
    out_schema: &Schema,
) -> bool {
    if cfg.dense_mode == DenseMode::Off {
        return false;
    }
    if estimate::schema_density(ctx, out_schema, 0.0).is_none() {
        return false;
    }
    for &(schema, rows) in inputs {
        match estimate::schema_density(ctx, schema, rows) {
            None => return false,
            Some(d) => {
                if cfg.dense_mode == DenseMode::Auto && d < cfg.dense_min_density {
                    return false;
                }
            }
        }
    }
    true
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

/// The algorithm for a product join of the given operand estimates.
fn join_algo(
    ctx: &OptContext<'_>,
    cfg: &PhysicalConfig,
    (ls, lr): (&Schema, f64),
    (rs, rr): (&Schema, f64),
    out: &Schema,
) -> JoinAlgo {
    if dense_applies(ctx, cfg, &[(ls, lr), (rs, rr)], out) {
        return JoinAlgo::Dense;
    }
    if sparse_applies(ctx, cfg, &[ls, rs, out]) {
        return JoinAlgo::SparseTensor;
    }
    let build = lr.min(rr);
    if cfg.threads > 1 && build >= cfg.parallel_min_rows {
        // Large operands: partition into cache-sized buckets and join them
        // on the worker pool. Row bytes come from the wider schema so the
        // partition count covers the probe side too.
        let row_bytes = row_bytes(ls.arity().max(rs.arity()));
        JoinAlgo::Parallel {
            partitions: partitioned::parallel_partitions(build as usize, row_bytes, cfg.threads),
        }
    } else {
        JoinAlgo::Hash
    }
}

/// The algorithm for a group-by of `(in_schema, in_rows)` onto `out`,
/// estimated at `groups` rows.
fn agg_algo(
    ctx: &OptContext<'_>,
    cfg: &PhysicalConfig,
    (in_schema, in_rows): (&Schema, f64),
    out: &Schema,
    groups: f64,
) -> AggAlgo {
    if dense_applies(ctx, cfg, &[(in_schema, in_rows)], out) {
        return AggAlgo::DenseAgg;
    }
    if sparse_applies(ctx, cfg, &[in_schema, out]) {
        return AggAlgo::SparseAgg;
    }
    if cfg.threads > 1 && groups >= cfg.parallel_min_rows {
        // Many groups: the accumulator table itself blows the cache, so
        // partition on the group hash. Few-group aggregation stays
        // cache-resident and gains nothing.
        AggAlgo::ParallelAgg {
            partitions: partitioned::parallel_partitions(
                groups as usize,
                row_bytes(out.arity()),
                cfg.threads,
            ),
        }
    } else {
        AggAlgo::HashAgg
    }
}

/// Annotate a logical plan with cost-chosen operator algorithms.
pub fn choose_physical(ctx: &OptContext<'_>, plan: &Plan, cfg: PhysicalConfig) -> PhysicalPlan {
    lower(ctx, &cfg, plan).0
}

/// Choose each operator's algorithm bottom-up, handing every subplan's
/// estimated schema and rows (those of [`estimate::plan_estimate`]) to its
/// parent, so each node is estimated once.
///
/// With [`PhysicalConfig::fuse`], a dense join feeding a dense
/// marginalization, or a sparse join feeding a sparse one, becomes a single
/// [`PhysicalPlan::JoinAgg`] carrying the join's algorithm: the elimination
/// step then folds every join pair straight into its group accumulator,
/// skipping the join intermediate entirely. Mixed and hash pairings keep
/// their chosen algorithms.
fn lower(ctx: &OptContext<'_>, cfg: &PhysicalConfig, plan: &Plan) -> (PhysicalPlan, Schema, f64) {
    match plan {
        Plan::Scan { relation } => {
            let (schema, rows) = estimate::plan_estimate(ctx, plan);
            let scan = PhysicalPlan::Scan {
                relation: relation.clone(),
            };
            (scan, schema, rows)
        }
        Plan::Select { input, predicates } => {
            let (input, schema, rows) = lower(ctx, cfg, input);
            let select = PhysicalPlan::Select {
                input: Box::new(input),
                predicates: predicates.clone(),
            };
            (select, schema, estimate::select_rows(ctx, rows, predicates))
        }
        Plan::Join { left, right } => {
            let (left, ls, lr) = lower(ctx, cfg, left);
            let (right, rs, rr) = lower(ctx, cfg, right);
            let schema = ls.union(&rs);
            let join = PhysicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                algo: join_algo(ctx, cfg, (&ls, lr), (&rs, rr), &schema),
            };
            (join, schema, estimate::join_rows(ctx, &ls, lr, &rs, rr))
        }
        Plan::GroupBy { input, group_vars } => {
            let (input, in_schema, in_rows) = lower(ctx, cfg, input);
            let schema: Schema = group_vars.iter().copied().collect();
            let rows = estimate::group_rows(ctx, in_rows, &schema);
            let agg = agg_algo(ctx, cfg, (&in_schema, in_rows), &schema, rows);
            let group_vars = group_vars.clone();
            let group = match input {
                PhysicalPlan::Join { left, right, algo }
                    if cfg.fuse
                        && matches!(
                            (algo, agg),
                            (JoinAlgo::Dense, AggAlgo::DenseAgg)
                                | (JoinAlgo::SparseTensor, AggAlgo::SparseAgg)
                        ) =>
                {
                    PhysicalPlan::JoinAgg {
                        left,
                        right,
                        group_vars,
                        algo,
                    }
                }
                input => PhysicalPlan::GroupBy {
                    input: Box::new(input),
                    group_vars,
                    algo: agg,
                },
            };
            (group, schema, rows)
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
                },
                BaseRel {
                    name: "r2".into(),
                    schema: Schema::new(vec![b, c]).unwrap(),
                    cardinality: 5_000_000,
                    fd_lhs: None,
                },
            ],
            a,
            b,
            c,
        )
    }

    #[test]
    fn large_operands_lower_to_hash_or_parallel() {
        // The 5M-row fixture, once as optimized and once unreduced: a
        // 100k-row build side joining r2 under a {a, b} group-by with 100k
        // estimated groups. No operand size selects anything but the hash
        // operators at one thread, or the parallel ones at four.
        let mut cat = Catalog::new();
        let (rels, a, b, _) = ctx_fixture(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let optimized = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let unreduced = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a, b]);
        let cfg = PhysicalConfig::default()
            .with_dense(DenseMode::Off)
            .with_repr(ReprMode::Off);
        for plan in [&optimized, &unreduced] {
            let seq = choose_physical(&ctx, plan, cfg.with_threads(1));
            assert_eq!(
                seq,
                PhysicalPlan::default_hash(plan),
                "one thread -> all hash"
            );
        }
        let par = choose_physical(&ctx, &unreduced, cfg.with_threads(4));
        assert!(
            matches!(
                &par,
                PhysicalPlan::GroupBy {
                    input,
                    algo: AggAlgo::ParallelAgg { .. },
                    ..
                } if matches!(**input, PhysicalPlan::Join { algo: JoinAlgo::Parallel { .. }, .. })
            ),
            "four threads -> parallel:\n{}",
            par.render(&|v| format!("x{}", v.0))
        );
        // Annotations do not change the logical plan.
        assert_eq!(par.to_logical(), unreduced);
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
        let cfg = PhysicalConfig::default().with_threads(1).with_repr(ReprMode::Off);
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

        // Sparse data (density 1/16): auto declines, forced mode selects.
        let sparse = vec![
            BaseRel::fixture("r1", vec![a, b], 4),
            BaseRel::fixture("r2", vec![b, c], 4),
        ];
        let sctx = OptContext::new(&cat, sparse, QuerySpec::group_by([a]), CostModel::Io);
        let splan = optimize(&sctx, Algorithm::CsPlusNonlinear).plan;
        let sauto = choose_physical(&sctx, &splan, cfg.with_dense(DenseMode::Auto));
        assert_eq!(sauto.dense_operator_count(), 0, "sparse operands stay hash");
        let son = choose_physical(&sctx, &splan, cfg.with_dense(DenseMode::On));
        assert!(son.dense_operator_count() > 0, "forced mode ignores density");
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
            .with_threads(1)
            .with_dense(DenseMode::Auto)
            .with_repr(ReprMode::Off);
        let fused = choose_physical(&ctx, &plan, cfg);
        fn count_fused(p: &PhysicalPlan) -> usize {
            match p {
                PhysicalPlan::Scan { .. } => 0,
                PhysicalPlan::Select { input, .. } | PhysicalPlan::GroupBy { input, .. } => {
                    count_fused(input)
                }
                PhysicalPlan::Join { left, right, .. } => {
                    count_fused(left) + count_fused(right)
                }
                PhysicalPlan::JoinAgg { left, right, .. } => {
                    1 + count_fused(left) + count_fused(right)
                }
            }
        }
        assert!(
            count_fused(&fused) > 0,
            "dense join into dense agg fuses:\n{}",
            fused.render(&|v| format!("x{}", v.0))
        );
        // Fusion is an annotation change only: the logical plan and the
        // dense operator accounting (one join + one group-by per fused
        // node) are unchanged.
        assert_eq!(fused.to_logical(), plan);
        let unfused = choose_physical(&ctx, &plan, cfg.with_fuse(false));
        assert_eq!(count_fused(&unfused), 0, "with_fuse(false) keeps the pair");
        assert_eq!(
            fused.dense_operator_count(),
            unfused.dense_operator_count()
        );
    }

    #[test]
    fn infeasible_grids_are_never_dense() {
        // Domains whose cross product exceeds MAX_DENSE_CELLS.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 1 << 13).unwrap();
        let b = cat.add_var("b", 1 << 13).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1 << 26,
            fd_lhs: None,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let on = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default()
                .with_threads(1)
                .with_dense(DenseMode::On)
                .with_repr(ReprMode::Off),
        );
        assert_eq!(on.dense_operator_count(), 0, "grid never materializes");
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
        let cfg = PhysicalConfig::default().with_threads(1);
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
        let cfg = PhysicalConfig::default().with_threads(1);
        fn fused(p: &PhysicalPlan) -> Vec<JoinAlgo> {
            match p {
                PhysicalPlan::Scan { .. } => vec![],
                PhysicalPlan::Select { input, .. } | PhysicalPlan::GroupBy { input, .. } => {
                    fused(input)
                }
                PhysicalPlan::Join { left, right, .. } => [fused(left), fused(right)].concat(),
                PhysicalPlan::JoinAgg {
                    left, right, algo, ..
                } => [vec![*algo], fused(left), fused(right)].concat(),
            }
        }
        let on = choose_physical(&ctx, &plan, cfg);
        let off = choose_physical(&ctx, &plan, cfg.with_fuse(false));
        let render = |p: &PhysicalPlan| p.render(&|v| format!("x{}", v.0));
        assert!(!fused(&on).is_empty(), "sparse pair fuses:\n{}", render(&on));
        assert!(
            fused(&on).iter().all(|&a| a == JoinAlgo::SparseTensor),
            "fused as a sparse step:\n{}",
            render(&on)
        );
        assert!(fused(&off).is_empty(), "with_fuse(false) keeps the pair");
        assert_eq!(on.to_logical(), plan);
        assert_eq!(off.to_logical(), plan);
        assert_eq!(on.sparse_operator_count(), off.sparse_operator_count());
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
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let phys = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default()
                .with_threads(1)
                .with_dense(DenseMode::Auto)
                .with_repr(ReprMode::Auto),
        );
        assert!(phys.dense_operator_count() > 0, "complete grids go dense");
        assert_eq!(phys.sparse_operator_count(), 0, "dense outranks sparse");
    }

    #[test]
    fn wide_grids_go_sparse_where_dense_cannot() {
        // Grid of 2^26 cells: over the dense cap, within the sparse cap.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 1 << 13).unwrap();
        let b = cat.add_var("b", 1 << 13).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1 << 22,
            fd_lhs: None,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let phys = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default()
                .with_threads(1)
                .with_dense(DenseMode::On)
                .with_repr(ReprMode::Auto),
        );
        assert_eq!(phys.dense_operator_count(), 0, "grid never fits densely");
        assert!(
            phys.sparse_operator_count() > 0,
            "coordinates stay feasible:\n{}",
            phys.render(&|v| format!("x{}", v.0))
        );
    }

    #[test]
    fn parallel_operators_require_threads_and_scale() {
        let mut cat = Catalog::new();
        let (rels, a, ..) = ctx_fixture(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig {
            parallel_min_rows: 1_000.0,
            ..PhysicalConfig::default()
        }
        .with_dense(DenseMode::Off)
        .with_repr(ReprMode::Off);
        let seq = choose_physical(&ctx, &plan, cfg.with_threads(1));
        assert_eq!(seq.parallel_operator_count(), 0, "one thread -> no parallel ops");
        let par = choose_physical(&ctx, &plan, cfg.with_threads(4));
        assert!(
            par.parallel_operator_count() > 0,
            "large memory-resident operands go parallel:\n{}",
            par.render(&|v| format!("x{}", v.0))
        );
        // Partition counts are worker-aligned and bounded.
        fn check(p: &PhysicalPlan) {
            match p {
                PhysicalPlan::Scan { .. } => {}
                PhysicalPlan::Select { input, .. } => check(input),
                PhysicalPlan::Join { left, right, algo } => {
                    if let JoinAlgo::Parallel { partitions } = algo {
                        assert!(*partitions >= 4 && *partitions % 4 == 0);
                    }
                    check(left);
                    check(right);
                }
                PhysicalPlan::GroupBy { input, algo, .. } => {
                    if let AggAlgo::ParallelAgg { partitions } = algo {
                        assert!(*partitions >= 4 && *partitions % 4 == 0);
                    }
                    check(input);
                }
                PhysicalPlan::JoinAgg { left, right, .. } => {
                    check(left);
                    check(right);
                }
            }
        }
        check(&par);
        assert_eq!(par.to_logical(), plan);
    }
}
