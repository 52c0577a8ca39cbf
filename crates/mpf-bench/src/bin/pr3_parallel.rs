//! Benchmark baseline for the parallel execution layer.
//!
//! Measures sequential vs. parallel execution of the three shapes the
//! layer accelerates, at 1/2/4/8 worker threads:
//!
//! * **large_join** — sparse product join of two `--rows`-row relations
//!   (plain hash join vs. [`mpf_algebra::partitioned::parallel_join`]);
//! * **group_by** — marginalization of a `--rows`-row relation onto a
//!   ~128k-value variable (hash aggregate vs. `parallel_group_by`);
//! * **ve_plus_end_to_end** — a three-relation chain query planned with
//!   extended-space VE and executed through the physical interpreter,
//!   sequential plan vs. the plan `choose_physical` annotates for N
//!   threads.
//!
//! Every parallel run is checked `function_eq` against the sequential
//! result. Timings are the median of `--reps` runs after one untimed
//! warmup (first-touch page faults otherwise dominate the first run).
//! Results are written as JSON to `--out` (default `BENCH_PR3.json`);
//! per-run counters/latency histograms from the metrics registry are
//! embedded under a `"metrics"` key, and one span-traced VE+ execution
//! is written to `--trace-out` (default `TRACE_PR3.json`) so CI can
//! archive an operator-level trace next to the timings.
//!
//! Usage: `pr3_parallel [--rows <n>] [--reps <n>] [--scale <f>]
//!         [--out <path>] [--trace-out <path>]`

use std::time::{Duration, Instant};

use mpf_algebra::{
    ops, partitioned, ExecContext, Executor, MetricsRegistry, RelationStore, TraceLevel,
};
use mpf_bench::Args;
use mpf_optimizer::{
    choose_physical, optimize, Algorithm, BaseRel, CostModel, Heuristic, OptContext,
    PhysicalConfig, QuerySpec,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, Value};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SR: SemiringKind = SemiringKind::SumProduct;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    // Splitmix-style finalizer: raw xorshift outputs are GF(2)-linear, so
    // the low bits of *consecutive* outputs are correlated — bad when
    // consecutive draws fill the columns of one row and uniqueness is
    // enforced by rejection (the reachable tuple set collapses).
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sparse random relation: `rows` draws over the given domains.
fn sparse(
    name: &str,
    schema: Schema,
    domains: &[u64],
    rows: usize,
    seed: u64,
) -> FunctionalRelation {
    let mut rel = FunctionalRelation::new(name, schema);
    let mut state = seed | 1;
    let mut row = vec![0 as Value; domains.len()];
    // Argument tuples must be unique — a functional relation maps each
    // assignment to ONE measure, and duplicate keys would make the
    // function-equality check order-dependent.
    let mut seen = std::collections::HashSet::with_capacity(rows);
    for _ in 0..rows {
        loop {
            for (v, &d) in row.iter_mut().zip(domains) {
                *v = (xorshift(&mut state) % d) as Value;
            }
            if seen.insert(row.clone()) {
                break;
            }
        }
        let m = 1.0 + (xorshift(&mut state) % 100) as f64 / 100.0;
        rel.push_row(&row, m).expect("row matches schema");
    }
    rel
}

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
    partitions: usize,
    ms: f64,
    speedup: f64,
    eq: bool,
}

/// Feed one timed run into the registry: a per-section run counter plus a
/// latency histogram keyed by section and worker count (`sequential` for
/// the single-threaded reference run).
fn feed(metrics: &MetricsRegistry, section: &str, threads: Option<usize>, ms: f64) {
    metrics.inc(&format!("bench.{section}.runs"));
    let key = match threads {
        Some(t) => format!("bench.{section}.t{t}"),
        None => format!("bench.{section}.sequential"),
    };
    metrics.observe(&key, Duration::from_secs_f64(ms / 1e3));
}

fn runs_json(sequential_ms: f64, runs: &[Run]) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"partitions\": {}, \"ms\": {:.3}, \
                 \"speedup\": {:.3}, \"function_eq_sequential\": {}}}",
                r.threads, r.partitions, r.ms, r.speedup, r.eq
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
    let rows: usize = ((args.get("rows", 2_000_000usize) as f64) * scale) as usize;
    let reps: usize = args.get("reps", 3);
    let out_path: String = args.get("out", "BENCH_PR3.json".to_string());
    let trace_path: String = args.get("trace-out", "TRACE_PR3.json".to_string());
    let metrics = MetricsRegistry::new();

    let mut sections = Vec::new();

    // -- large_join ------------------------------------------------------
    let mut cat = Catalog::new();
    let x = cat.add_var("x", 1 << 10).expect("var");
    let y = cat.add_var("y", 1 << 20).expect("var");
    let z = cat.add_var("z", 1 << 10).expect("var");
    let l = sparse(
        "l",
        Schema::new(vec![x, y]).expect("schema"),
        &[1 << 10, 1 << 20],
        rows,
        0x9E37_79B9_7F4A_7C15,
    );
    let r = sparse(
        "r",
        Schema::new(vec![y, z]).expect("schema"),
        &[1 << 20, 1 << 10],
        rows,
        0xD1B5_4A32_D192_ED03,
    );
    let (seq_ms, seq_out) = time_ms(reps, || {
        ops::product_join(&mut ExecContext::new(SR), &l, &r).expect("join fits")
    });
    eprintln!("large_join: sequential {seq_ms:.1} ms, {} rows", seq_out.len());
    feed(&metrics, "large_join", None, seq_ms);
    let mut runs = Vec::new();
    for &t in &THREAD_COUNTS {
        let (ms, out) = time_ms(reps, || {
            partitioned::parallel_join(&mut ExecContext::new(SR), &l, &r, t).expect("join fits")
        });
        let run = Run {
            threads: t,
            partitions: partitioned::parallel_partitions(
                l.len().min(r.len()),
                l.row_bytes().max(r.row_bytes()),
                t,
            ),
            ms,
            speedup: seq_ms / ms,
            eq: out.function_eq_in(&seq_out, SR),
        };
        eprintln!(
            "large_join: threads {t} -> {ms:.1} ms ({:.2}x, eq {})",
            run.speedup, run.eq
        );
        feed(&metrics, "large_join", Some(t), ms);
        runs.push(run);
    }
    sections.push(format!(
        "{{\n  \"name\": \"large_join\", \"rows_per_side\": {rows},\n  \"output_rows\": {},\n  {}\n}}",
        seq_out.len(),
        runs_json(seq_ms, &runs)
    ));

    // -- group_by --------------------------------------------------------
    let mut gcat = Catalog::new();
    let g = gcat.add_var("g", 1 << 17).expect("var");
    let w = gcat.add_var("w", 1 << 8).expect("var");
    let gb_rows = rows.max(1) * 2;
    let input = sparse(
        "input",
        Schema::new(vec![g, w]).expect("schema"),
        &[1 << 17, 1 << 8],
        gb_rows,
        0xA076_1D64_78BD_642F,
    );
    let (gseq_ms, gseq_out) = time_ms(reps, || {
        ops::group_by(&mut ExecContext::new(SR), &input, &[g]).expect("agg fits")
    });
    eprintln!("group_by: sequential {gseq_ms:.1} ms, {} groups", gseq_out.len());
    feed(&metrics, "group_by", None, gseq_ms);
    let mut gruns = Vec::new();
    for &t in &THREAD_COUNTS {
        let (ms, out) = time_ms(reps, || {
            partitioned::parallel_group_by(&mut ExecContext::new(SR), &input, &[g], t)
                .expect("agg fits")
        });
        let run = Run {
            threads: t,
            partitions: partitioned::parallel_partitions(input.len(), input.row_bytes(), t),
            ms,
            speedup: gseq_ms / ms,
            eq: out.function_eq_in(&gseq_out, SR),
        };
        eprintln!(
            "group_by: threads {t} -> {ms:.1} ms ({:.2}x, eq {})",
            run.speedup, run.eq
        );
        feed(&metrics, "group_by", Some(t), ms);
        gruns.push(run);
    }
    sections.push(format!(
        "{{\n  \"name\": \"group_by\", \"input_rows\": {gb_rows},\n  \"groups\": {},\n  {}\n}}",
        gseq_out.len(),
        runs_json(gseq_ms, &gruns)
    ));

    // -- ve_plus_end_to_end ----------------------------------------------
    let mut vcat = Catalog::new();
    let a = vcat.add_var("a", 1 << 8).expect("var");
    let b = vcat.add_var("b", 1 << 20).expect("var");
    let c = vcat.add_var("c", 1 << 20).expect("var");
    let d = vcat.add_var("d", 1 << 8).expect("var");
    let r1 = sparse(
        "r1",
        Schema::new(vec![a, b]).expect("schema"),
        &[1 << 8, 1 << 20],
        rows,
        0x2545_F491_4F6C_DD1D,
    );
    let r2 = sparse(
        "r2",
        Schema::new(vec![b, c]).expect("schema"),
        &[1 << 20, 1 << 20],
        rows,
        0x9E6D_62D0_6F6A_9A9B,
    );
    let r3 = sparse(
        "r3",
        Schema::new(vec![c, d]).expect("schema"),
        &[1 << 20, 1 << 8],
        rows,
        0xC2B2_AE3D_27D4_EB4F,
    );
    let mut store = RelationStore::new();
    let base = |rel: &FunctionalRelation| BaseRel {
        name: rel.name().to_string(),
        schema: rel.schema().clone(),
        cardinality: rel.len() as u64,
        fd_lhs: None,
    };
    let rels = vec![base(&r1), base(&r2), base(&r3)];
    store.insert(r1);
    store.insert(r2);
    store.insert(r3);
    let ctx = OptContext::new(&vcat, rels, QuerySpec::group_by([a]), CostModel::Io);
    let plan = optimize(&ctx, Algorithm::VePlus(Heuristic::Degree)).plan;
    // The sequential/parallel comparison is hash operators vs. their
    // parallel partitioned counterparts, so alternate representations are
    // pinned off: this baseline times the row-major hash operators.
    let cfg = PhysicalConfig {
        repr_mode: mpf_algebra::ReprMode::Off,
        ..PhysicalConfig::default()
    };
    let phys_for = |t: usize| choose_physical(&ctx, &plan, cfg.with_threads(t));
    let seq_phys = phys_for(1);
    let (vseq_ms, vseq_out) = time_ms(reps, || {
        let exec = Executor::new(&store, SR).with_threads(1);
        let (rel, _) = exec.execute_physical(&seq_phys).expect("plan executes");
        rel
    });
    eprintln!("ve_plus: sequential {vseq_ms:.1} ms, {} rows", vseq_out.len());
    feed(&metrics, "ve_plus", None, vseq_ms);
    let mut vruns = Vec::new();
    for &t in &THREAD_COUNTS {
        let phys = phys_for(t);
        let (ms, out) = time_ms(reps, || {
            let exec = Executor::new(&store, SR).with_threads(t);
            let (rel, _) = exec.execute_physical(&phys).expect("plan executes");
            rel
        });
        let run = Run {
            threads: t,
            partitions: phys.parallel_operator_count(),
            ms,
            speedup: vseq_ms / ms,
            eq: out.function_eq_in(&vseq_out, SR),
        };
        eprintln!(
            "ve_plus: threads {t} -> {ms:.1} ms ({:.2}x, eq {}, {} parallel ops)",
            run.speedup, run.eq, run.partitions
        );
        feed(&metrics, "ve_plus", Some(t), ms);
        vruns.push(run);
    }
    sections.push(format!(
        "{{\n  \"name\": \"ve_plus_end_to_end\", \"rows_per_relation\": {rows},\n  \"result_rows\": {},\n  {}\n}}",
        vseq_out.len(),
        runs_json(vseq_ms, &vruns)
    ));

    // -- traced VE+ run --------------------------------------------------
    // One span-traced execution of the widest parallel VE+ plan: the trace
    // JSON is the CI artifact that shows per-operator rows/cells/time and
    // partition/worker counts for this commit.
    let trace_threads = *THREAD_COUNTS.last().expect("non-empty");
    let traced_phys = phys_for(trace_threads);
    let mut tcx = ExecContext::new(SR)
        .with_threads(trace_threads)
        .with_trace(TraceLevel::Spans);
    let texec = Executor::new(&store, SR).with_threads(trace_threads);
    texec
        .execute_physical_in(&mut tcx, &traced_phys)
        .expect("plan executes");
    let trace = tcx.take_trace();
    eprintln!(
        "traced ve_plus at {trace_threads} threads: {} spans",
        trace.span_count()
    );
    std::fs::write(&trace_path, trace.to_json()).expect("write trace json");
    eprintln!("wrote {trace_path}");

    // The `partitions` field of ve_plus runs holds the parallel operator
    // count of the executed plan (the per-operator partition counts live
    // in the plan annotations).
    let json = format!(
        "{{\n\"benchmark\": \"pr3_parallel\",\n\"rows\": {rows},\n\"reps\": {reps},\n\
         \"host_threads\": {},\n\"benchmarks\": [\n{}\n],\n\"metrics\": {}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sections.join(",\n"),
        metrics.to_json()
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
