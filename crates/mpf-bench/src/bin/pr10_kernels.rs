//! Benchmark for the monomorphized dense kernels and the fused
//! join→marginalize operator (PR 10).
//!
//! Sections:
//!
//! * **kernel_ve_plus** — a dense complete-relation VE+ triangle query
//!   (r1(a,b) ⨝ r2(b,c) ⨝ r3(c,a), grouped on `a`), end to end through
//!   the physical interpreter. Eliminating the first variable joins two
//!   D²-cell relations into a D³-cell grid and folds it back down, so
//!   the run is dominated by the grid kernels rather than by row→grid
//!   conversion. The sequential reference runs the same plan with the
//!   dense kernels off (`DenseMode::Off`), so every step runs the sparse
//!   kernel; the timed runs use the dense kernels at threads {1, 4}.
//! * **fused_join_agg** — the same plan with fusion on: the D³ join
//!   feeding the marginalization contracts directly into the output
//!   accumulator grid (one two-input step) instead of materializing,
//!   against the unfused dense pipeline — each fused step split into a
//!   join step and a one-input step — as reference. Besides time, each run
//!   reports `peak_rows` — the fused path never materializes the join
//!   intermediate, so its peak must be strictly below the unfused
//!   run's.
//!
//! Both kernels fold each cell's products in the same order, so every
//! dense run is checked bit for bit against the sparse reference
//! (`bit_eq_sparse`), and every fused run `function_eq` against the
//! unfused pipeline (`function_eq_unfused`); a `false` anywhere fails
//! `bench_check` unconditionally. Timings are the median of `--reps`
//! runs after one untimed warmup.
//!
//! Usage: `pr10_kernels [--rows <n>] [--reps <n>] [--scale <f>] [--out <path>]`

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mpf_algebra::{
    DenseMode, ExecContext, ExecStats, Executor, MetricsRegistry, PhysicalPlan, RelationStore,
    ReprMode,
};
use mpf_bench::Args;
use mpf_optimizer::{
    choose_physical, optimize, Algorithm, BaseRel, CostModel, Heuristic, OptContext,
    PhysicalConfig, QuerySpec,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, Value};

const THREAD_COUNTS: [usize; 2] = [1, 4];
const SR: SemiringKind = SemiringKind::SumProduct;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Median wall-clock milliseconds of `reps` runs after one warmup.
fn time_ms(reps: usize, mut f: impl FnMut() -> FunctionalRelation) -> (f64, FunctionalRelation) {
    let mut out = f(); // warmup (also the returned result)
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        out = f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(samples), out)
}

/// Whether `x` and `y` hold the same rows with bit-identical measures
/// (`y`'s columns read in `x`'s order).
fn bit_eq(x: &FunctionalRelation, y: &FunctionalRelation) -> bool {
    let bits = |r: &FunctionalRelation| -> Option<BTreeMap<Vec<Value>, u64>> {
        let pos: Vec<usize> =
            x.schema().iter().map(|v| r.schema().position(v).ok()).collect::<Option<_>>()?;
        let keyed = |(row, m): (&[Value], f64)| (pos.iter().map(|&p| row[p]).collect(), m.to_bits());
        Some(r.rows().map(keyed).collect())
    };
    x.schema().arity() == y.schema().arity() && x.len() == y.len() && bits(x) == bits(y)
}

/// Execute a physical plan with the dense mode pinned on the context:
/// under `DenseMode::Off` every step runs the sparse kernel.
fn run_plan(
    store: &RelationStore,
    phys: &PhysicalPlan,
    threads: usize,
    dense: DenseMode,
) -> (FunctionalRelation, ExecStats) {
    let exec = Executor::new(store, SR).with_threads(threads);
    let mut cx = ExecContext::new(SR)
        .with_threads(threads)
        .with_dense(dense)
        .with_repr(ReprMode::Auto);
    let rel = exec.execute_physical_in(&mut cx, phys).expect("plan executes");
    (rel, cx.take_stats())
}

/// `plan` with every fused step split into a product join of its two
/// inputs and a one-input step over that join, both on the fused step's
/// representation: the unfused pipeline the fused step replaces.
fn unfuse(plan: &PhysicalPlan) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Scan { .. } => plan.clone(),
        PhysicalPlan::Select { input, predicates } => PhysicalPlan::Select {
            input: Box::new(unfuse(input)),
            predicates: predicates.clone(),
        },
        PhysicalPlan::Step {
            inputs,
            group_vars,
            repr,
        } => {
            let mut inputs: Vec<PhysicalPlan> = inputs.iter().map(unfuse).collect();
            if inputs.len() == 2 && group_vars.is_some() {
                inputs = vec![PhysicalPlan::Step {
                    inputs,
                    group_vars: None,
                    repr: *repr,
                }];
            }
            PhysicalPlan::Step {
                inputs,
                group_vars: group_vars.clone(),
                repr: *repr,
            }
        }
    }
}

fn feed(metrics: &MetricsRegistry, section: &str, path: &str, ms: f64) {
    metrics.inc(&format!("bench.{section}.runs"));
    metrics.observe(
        &format!("bench.{section}.{path}"),
        Duration::from_secs_f64(ms / 1e3),
    );
}

fn main() {
    let args = Args::capture();
    let scale: f64 = args.get("scale", 1.0);
    let rows: usize = ((args.get("rows", 16384usize) as f64) * scale) as usize;
    let reps: usize = args.get("reps", 3);
    let out_path: String = args.get("out", "BENCH_PR10.json".to_string());
    let metrics = MetricsRegistry::new();

    // The VE+ triangle: complete factors r1(a,b), r2(b,c), r3(c,a) over a
    // common √rows-value domain, marginalized onto `a` under
    // extended-space VE. Every operator densifies, and eliminating the
    // first variable expands two D²-cell grids into a D³-cell
    // intermediate — the kernel-bound regime the dense kernels target
    // (row→grid conversion stays O(D²)).
    let side = (rows as f64).sqrt().max(4.0) as u64;
    let mut cat = Catalog::new();
    let a = cat.add_var("a", side).expect("var");
    let b = cat.add_var("b", side).expect("var");
    let c = cat.add_var("c", side).expect("var");
    let r1 = FunctionalRelation::complete("r1", Schema::new(vec![a, b]).expect("schema"), &cat, |r| {
        1.0 + ((r[0] as u64 * 19 + r[1] as u64 * 3) % 83) as f64 / 83.0
    });
    let r2 = FunctionalRelation::complete("r2", Schema::new(vec![b, c]).expect("schema"), &cat, |r| {
        1.0 + ((r[0] as u64 * 11 + r[1] as u64 * 17) % 79) as f64 / 79.0
    });
    let r3 = FunctionalRelation::complete("r3", Schema::new(vec![c, a]).expect("schema"), &cat, |r| {
        1.0 + ((r[0] as u64 * 23 + r[1] as u64 * 29) % 73) as f64 / 73.0
    });
    let rows_per_relation = r3.len();
    let base = |rel: &FunctionalRelation| BaseRel {
        name: rel.name().to_string(),
        schema: rel.schema().clone(),
        cardinality: rel.len() as u64,
        fd_lhs: None,
        grid: false,
    };
    let rels = vec![base(&r1), base(&r2), base(&r3)];
    let mut store = RelationStore::new();
    store.insert(r1);
    store.insert(r2);
    store.insert(r3);
    let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
    let plan = optimize(&ctx, Algorithm::VePlus(Heuristic::Degree)).plan;
    let cfg = PhysicalConfig::default().with_repr(ReprMode::Off);
    // Fusion off in the first section: it times the dense kernels alone.
    let fused_phys = choose_physical(&ctx, &plan, cfg);
    let unfused_phys = unfuse(&fused_phys);

    let mut sections = Vec::new();

    // -- kernel_ve_plus ---------------------------------------------------
    let (sparse_ms, sparse_out) =
        time_ms(reps, || run_plan(&store, &unfused_phys, 1, DenseMode::Off).0);
    eprintln!("kernel_ve_plus: sparse {sparse_ms:.1} ms, {} rows", sparse_out.len());
    feed(&metrics, "kernel_ve_plus", "sparse.t1", sparse_ms);
    let mut runs = Vec::new();
    for &t in &THREAD_COUNTS {
        let (ms, out) = time_ms(reps, || run_plan(&store, &unfused_phys, t, DenseMode::Auto).0);
        let (_, stats) = run_plan(&store, &unfused_phys, t, DenseMode::Auto);
        let speedup = sparse_ms / ms;
        let eq = bit_eq(&out, &sparse_out);
        eprintln!(
            "kernel_ve_plus: dense threads {t} -> {ms:.1} ms ({speedup:.2}x vs sparse, bit_eq {eq})"
        );
        feed(&metrics, "kernel_ve_plus", &format!("dense.t{t}"), ms);
        runs.push(format!(
            "    {{\"threads\": {t}, \"dense_ops\": {}, \"ms\": {ms:.3}, \
             \"speedup\": {speedup:.3}, \"bit_eq_sparse\": {eq}}}",
            stats.dense_joins + stats.dense_group_bys
        ));
    }
    sections.push(format!(
        "{{\n  \"name\": \"kernel_ve_plus\", \"rows_per_relation\": {rows_per_relation},\n  \
         \"result_rows\": {},\n  \"sequential_ms\": {sparse_ms:.3},\n  \"runs\": [\n{}\n  ]\n}}",
        sparse_out.len(),
        runs.join(",\n")
    ));

    // -- fused_join_agg ---------------------------------------------------
    // The same plan with fusion on: every dense join feeding a dense
    // marginalization contracts straight into the output accumulator.
    // Reference is the unfused dense single-thread run.
    let (unfused_ms, unfused_out) =
        time_ms(reps, || run_plan(&store, &unfused_phys, 1, DenseMode::Auto).0);
    let (_, unfused_stats) = run_plan(&store, &unfused_phys, 1, DenseMode::Auto);
    let unfused_peak = unfused_stats.max_intermediate_rows;
    eprintln!(
        "fused_join_agg: unfused {unfused_ms:.1} ms, peak {unfused_peak} rows"
    );
    feed(&metrics, "fused_join_agg", "unfused.t1", unfused_ms);
    let mut fruns = Vec::new();
    for &t in &THREAD_COUNTS {
        let (ms, out) = time_ms(reps, || run_plan(&store, &fused_phys, t, DenseMode::Auto).0);
        let (_, stats) = run_plan(&store, &fused_phys, t, DenseMode::Auto);
        let speedup = unfused_ms / ms;
        let eq = out.function_eq(&unfused_out);
        let peak_ok = stats.fused_join_aggs == 0 || stats.max_intermediate_rows < unfused_peak;
        eprintln!(
            "fused_join_agg: fused threads {t} -> {ms:.1} ms ({speedup:.2}x, eq {eq}, \
             {} fused ops, peak {} rows, peak_below_unfused {peak_ok})",
            stats.fused_join_aggs, stats.max_intermediate_rows
        );
        feed(&metrics, "fused_join_agg", &format!("fused.t{t}"), ms);
        fruns.push(format!(
            "    {{\"threads\": {t}, \"fused_ops\": {}, \"peak_rows\": {}, \"ms\": {ms:.3}, \
             \"speedup\": {speedup:.3}, \"function_eq_unfused\": {eq}, \
             \"peak_below_unfused\": {peak_ok}}}",
            stats.fused_join_aggs, stats.max_intermediate_rows
        ));
    }
    sections.push(format!(
        "{{\n  \"name\": \"fused_join_agg\", \"rows_per_relation\": {rows_per_relation},\n  \
         \"unfused_peak_rows\": {unfused_peak},\n  \"sequential_ms\": {unfused_ms:.3},\n  \
         \"runs\": [\n{}\n  ]\n}}",
        fruns.join(",\n")
    ));

    let json = format!(
        "{{\n\"benchmark\": \"pr10_kernels\",\n\"rows\": {rows},\n\"reps\": {reps},\n\
         \"host_threads\": {},\n\"benchmarks\": [\n{}\n],\n\"metrics\": {}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sections.join(",\n"),
        metrics.to_json()
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
