//! Benchmark baseline for the dense odometer kernels.
//!
//! Measures the sparse hash operators vs. the dense fast path on the
//! complete-relation workloads the paper's inference experiments run:
//!
//! * **dense_join** — product join of two complete relations
//!   ([`mpf_algebra::ops::product_join`] vs. the dense step,
//!   [`mpf_algebra::ops::step`] with nothing eliminated);
//! * **dense_group_by** — marginalization of the complete join output
//!   onto one variable (hash aggregate vs. the dense one-input step);
//! * **ve_plus_end_to_end** — a three-relation chain query planned with
//!   extended-space VE and executed through the physical interpreter,
//!   the all-hash plan (`DenseMode::Off` planning) vs. the plan
//!   `choose_physical` annotates dense under
//!   [`DenseMode::Auto`].
//!
//! Every dense run is checked `function_eq` against the sparse result and
//! reported as `function_eq_sparse` (a `false` anywhere fails
//! `bench_check` unconditionally). The `sequential_ms` reference of each
//! section is the single-threaded *sparse* time, so the regression gate
//! tracks the fallback path too. Timings are the median of `--reps` runs
//! after one untimed warmup.
//!
//! Usage: `pr5_dense [--rows <n>] [--reps <n>] [--scale <f>] [--out <path>]`

use std::time::{Duration, Instant};

use mpf_algebra::{ops, DenseMode, ExecContext, Executor, MetricsRegistry, OpRepr, RelationStore};
use mpf_bench::Args;
use mpf_optimizer::{
    choose_physical, optimize, Algorithm, BaseRel, CostModel, Heuristic, OptContext,
    PhysicalConfig, QuerySpec,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema};

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

struct Run {
    threads: usize,
    dense_ops: u64,
    ms: f64,
    speedup: f64,
    eq: bool,
}

/// Feed one timed run into the registry, keyed by section and path.
fn feed(metrics: &MetricsRegistry, section: &str, threads: Option<usize>, ms: f64) {
    metrics.inc(&format!("bench.{section}.runs"));
    let key = match threads {
        Some(t) => format!("bench.{section}.dense.t{t}"),
        None => format!("bench.{section}.sparse"),
    };
    metrics.observe(&key, Duration::from_secs_f64(ms / 1e3));
}

fn runs_json(sequential_ms: f64, runs: &[Run]) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"dense_ops\": {}, \"ms\": {:.3}, \
                 \"speedup\": {:.3}, \"function_eq_sparse\": {}}}",
                r.threads, r.dense_ops, r.ms, r.speedup, r.eq
            )
        })
        .collect();
    format!(
        "\"sequential_ms\": {:.3},\n  \"runs\": [\n{}\n  ]",
        sequential_ms,
        rows.join(",\n")
    )
}

fn main() {
    let args = Args::capture();
    let scale: f64 = args.get("scale", 1.0);
    let rows: usize = ((args.get("rows", 16384usize) as f64) * scale) as usize;
    let reps: usize = args.get("reps", 3);
    let out_path: String = args.get("out", "BENCH_PR5.json".to_string());
    let metrics = MetricsRegistry::new();

    let mut sections = Vec::new();

    // -- dense_join ------------------------------------------------------
    // Two complete relations sharing a 64-value variable; the union grid
    // (side × 64 × side) is the dense join's output. `--rows` is the
    // per-side row count, so side = rows / 64.
    let side = (rows / 64).max(2) as u64;
    let mut cat = Catalog::new();
    let a = cat.add_var("a", side).expect("var");
    let b = cat.add_var("b", 64).expect("var");
    let c = cat.add_var("c", side).expect("var");
    let l = FunctionalRelation::complete("l", Schema::new(vec![a, b]).expect("schema"), &cat, |r| {
        1.0 + ((r[0] as u64 * 31 + r[1] as u64 * 7) % 97) as f64 / 97.0
    });
    let r = FunctionalRelation::complete("r", Schema::new(vec![b, c]).expect("schema"), &cat, |r| {
        1.0 + ((r[0] as u64 * 13 + r[1] as u64 * 5) % 89) as f64 / 89.0
    });
    let rows_per_side = l.len();
    let (seq_ms, seq_out) = time_ms(reps, || {
        ops::product_join(&mut ExecContext::new(SR), &l, &r).expect("join fits")
    });
    eprintln!("dense_join: sparse {seq_ms:.1} ms, {} rows", seq_out.len());
    feed(&metrics, "dense_join", None, seq_ms);
    let mut runs = Vec::new();
    for &t in &THREAD_COUNTS {
        let (ms, out) = time_ms(reps, || {
            let mut cx = ExecContext::new(SR).with_threads(t);
            ops::step(&mut cx, &[&l, &r], None, OpRepr::Dense).expect("join fits")
        });
        let mut cx = ExecContext::new(SR).with_threads(t);
        ops::step(&mut cx, &[&l, &r], None, OpRepr::Dense).expect("join fits");
        let run = Run {
            threads: t,
            dense_ops: cx.stats().dense_joins,
            ms,
            speedup: seq_ms / ms,
            eq: out.function_eq(&seq_out),
        };
        eprintln!(
            "dense_join: threads {t} -> {ms:.1} ms ({:.2}x, eq {})",
            run.speedup, run.eq
        );
        feed(&metrics, "dense_join", Some(t), ms);
        runs.push(run);
    }
    sections.push(format!(
        "{{\n  \"name\": \"dense_join\", \"rows_per_side\": {rows_per_side},\n  \"output_rows\": {},\n  {}\n}}",
        seq_out.len(),
        runs_json(seq_ms, &runs)
    ));

    // -- dense_group_by --------------------------------------------------
    // Marginalize the complete join output onto its first variable. The
    // input comes from the *dense* join: in a dense pipeline an
    // aggregation's input is itself a dense operator's output, so it
    // arrives in grid (odometer) order — the form the zero-copy borrow
    // requires. (The hash join's output is the same function in hash
    // order, which the dense path would refuse.)
    let input =
        ops::step(&mut ExecContext::new(SR), &[&l, &r], None, OpRepr::Dense).expect("join fits");
    assert!(input.function_eq(&seq_out), "dense join matches sparse");
    let gb_rows = input.len();
    let (gseq_ms, gseq_out) = time_ms(reps, || {
        ops::group_by(&mut ExecContext::new(SR), &input, &[a]).expect("agg fits")
    });
    eprintln!("dense_group_by: sparse {gseq_ms:.1} ms, {} groups", gseq_out.len());
    feed(&metrics, "dense_group_by", None, gseq_ms);
    let mut gruns = Vec::new();
    for &t in &THREAD_COUNTS {
        let (ms, out) = time_ms(reps, || {
            let mut cx = ExecContext::new(SR).with_threads(t);
            ops::step(&mut cx, &[&input], Some(&[a]), OpRepr::Dense).expect("agg fits")
        });
        let mut cx = ExecContext::new(SR).with_threads(t);
        ops::step(&mut cx, &[&input], Some(&[a]), OpRepr::Dense).expect("agg fits");
        let run = Run {
            threads: t,
            dense_ops: cx.stats().dense_group_bys,
            ms,
            speedup: gseq_ms / ms,
            eq: out.function_eq(&gseq_out),
        };
        eprintln!(
            "dense_group_by: threads {t} -> {ms:.1} ms ({:.2}x, eq {})",
            run.speedup, run.eq
        );
        feed(&metrics, "dense_group_by", Some(t), ms);
        gruns.push(run);
    }
    sections.push(format!(
        "{{\n  \"name\": \"dense_group_by\", \"input_rows\": {gb_rows},\n  \"groups\": {},\n  {}\n}}",
        gseq_out.len(),
        runs_json(gseq_ms, &gruns)
    ));

    // -- ve_plus_end_to_end ----------------------------------------------
    // The paper's inference shape: a chain of complete factors, planned
    // with extended-space VE, marginalized onto the head variable. The
    // reference plan is chosen with dense planning off; the dense plans
    // under DenseMode::Auto (complete base relations estimate density 1.0,
    // so every join and marginalization annotates dense).
    // The tail variables get domain rows/8 (2048 at the default scale),
    // so the base factor r3(c, d) is a complete ~4M-cell grid and the
    // dominant operator is its marginalization γ_c(r3) — eliminating d
    // from a large complete factor, the paper's core inference
    // bottleneck — still under MAX_DENSE_CELLS.
    let vside = (rows / 8).max(2) as u64;
    let mut vcat = Catalog::new();
    let va = vcat.add_var("a", 32).expect("var");
    let vb = vcat.add_var("b", 32).expect("var");
    let vc = vcat.add_var("c", vside).expect("var");
    let vd = vcat.add_var("d", vside).expect("var");
    let r1 = FunctionalRelation::complete("r1", Schema::new(vec![va, vb]).expect("schema"), &vcat, |r| {
        1.0 + ((r[0] as u64 * 19 + r[1] as u64 * 3) % 83) as f64 / 83.0
    });
    let r2 = FunctionalRelation::complete("r2", Schema::new(vec![vb, vc]).expect("schema"), &vcat, |r| {
        1.0 + ((r[0] as u64 * 11 + r[1] as u64 * 17) % 79) as f64 / 79.0
    });
    let r3 = FunctionalRelation::complete("r3", Schema::new(vec![vc, vd]).expect("schema"), &vcat, |r| {
        1.0 + ((r[0] as u64 * 23 + r[1] as u64 * 29) % 73) as f64 / 73.0
    });
    // Scale key: the dominant (largest) factor in the chain.
    let rows_per_relation = r3.len();
    let mut store = RelationStore::new();
    let base = |rel: &FunctionalRelation| BaseRel {
        name: rel.name().to_string(),
        schema: rel.schema().clone(),
        cardinality: rel.len() as u64,
        fd_lhs: None,
        grid: false,
    };
    let rels = vec![base(&r1), base(&r2), base(&r3)];
    store.insert(r1);
    store.insert(r2);
    store.insert(r3);
    let ctx = OptContext::new(&vcat, rels, QuerySpec::group_by([va]), CostModel::Io);
    let plan = optimize(&ctx, Algorithm::VePlus(Heuristic::Degree)).plan;
    // The sparse-tensor kernels are pinned off: this baseline times hash
    // vs. dense (pr7_repr covers the sparse kernels).
    let cfg = PhysicalConfig {
        repr_mode: mpf_algebra::ReprMode::Off,
        ..PhysicalConfig::default()
    };
    let seq_phys = choose_physical(&ctx, &plan, cfg.with_dense(DenseMode::Off));
    let dense_phys = choose_physical(&ctx, &plan, cfg.with_dense(DenseMode::Auto));
    let (vseq_ms, vseq_out) = time_ms(reps, || {
        let exec = Executor::new(&store, SR).with_threads(1);
        let (rel, _) = exec.execute_physical(&seq_phys).expect("plan executes");
        rel
    });
    eprintln!("ve_plus: sparse {vseq_ms:.1} ms, {} rows", vseq_out.len());
    feed(&metrics, "ve_plus", None, vseq_ms);
    let mut vruns = Vec::new();
    for &t in &THREAD_COUNTS {
        let (ms, out) = time_ms(reps, || {
            let exec = Executor::new(&store, SR).with_threads(t);
            let (rel, _) = exec.execute_physical(&dense_phys).expect("plan executes");
            rel
        });
        let run = Run {
            threads: t,
            dense_ops: dense_phys.dense_operator_count() as u64,
            ms,
            speedup: vseq_ms / ms,
            eq: out.function_eq(&vseq_out),
        };
        eprintln!(
            "ve_plus: threads {t} -> {ms:.1} ms ({:.2}x, eq {}, {} dense ops)",
            run.speedup, run.eq, run.dense_ops
        );
        feed(&metrics, "ve_plus", Some(t), ms);
        vruns.push(run);
    }
    sections.push(format!(
        "{{\n  \"name\": \"ve_plus_end_to_end\", \"rows_per_relation\": {rows_per_relation},\n  \
         \"result_rows\": {},\n  {}\n}}",
        vseq_out.len(),
        runs_json(vseq_ms, &vruns)
    ));

    // The `dense_ops` field counts the dense operators that actually ran
    // (kernel sections) or were annotated on the executed plan (ve_plus).
    let json = format!(
        "{{\n\"benchmark\": \"pr5_dense\",\n\"rows\": {rows},\n\"reps\": {reps},\n\
         \"host_threads\": {},\n\"benchmarks\": [\n{}\n],\n\"metrics\": {}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sections.join(",\n"),
        metrics.to_json()
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
