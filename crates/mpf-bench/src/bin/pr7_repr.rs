//! Benchmark baseline for the sparse-tensor kernels against the hash
//! operators.
//!
//! Sweeps the density bands the planner's representation lattice divides
//! the workload space into and, at each band, runs the same
//! join-then-marginalize pipeline two ways:
//!
//! * **hash** — the row-major reference ([`mpf_algebra::ops::product_join`]
//!   followed by [`mpf_algebra::ops::group_by`]), single-threaded; its
//!   time is the section's `sequential_ms` regression reference;
//! * **sparse** — [`mpf_algebra::ops::step`] starting at the sparse
//!   kernel: the join sorted-merges the two inputs' coordinate lists and
//!   the one-input step collapses coordinates for the marginalization. The intermediate stays a
//!   coordinate-form relation and never materializes rows; neither does
//!   the timed output (the equality check reads its rows afterwards).
//!
//! Every sparse run is checked `function_eq` against the hash result and
//! reported as `function_eq_sparse` (a `false` anywhere fails
//! `bench_check` unconditionally). One section is emitted per density so
//! the regression gate tracks each band separately; the 5–30% band is
//! where the sparse representation is expected to win (≥2x at full
//! scale), while 0.5% (hash territory) and 90% (dense territory) document
//! the edges of the lattice. Timings are the median of `--reps` runs
//! after one untimed warmup.
//!
//! Usage: `pr7_repr [--rows <n>] [--reps <n>] [--scale <f>] [--out <path>]`

use std::time::{Duration, Instant};

use mpf_algebra::{ops, DenseMode, ExecContext, MetricsRegistry, OpRepr, ReprMode};
use mpf_bench::Args;
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};

const THREAD_COUNTS: [usize; 2] = [1, 4];
const SR: SemiringKind = SemiringKind::SumProduct;

/// The sweep's density bands with stable section-name suffixes (the
/// regression gate matches sections by name, so the labels must not
/// depend on float formatting).
const BANDS: [(f64, &str); 5] = [
    (0.005, "d005"),
    (0.05, "d050"),
    (0.15, "d150"),
    (0.30, "d300"),
    (0.90, "d900"),
];

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

/// Deterministic per-cell inclusion decision (split-mix style hash), so a
/// (density, salt) pair always generates the same relation.
fn keep_cell(cell: u64, salt: u64, density: f64) -> bool {
    let mut x = cell.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    ((x >> 11) as f64 / (1u64 << 53) as f64) < density
}

/// A binary relation over `vars` whose support is a deterministic
/// `density` fraction of the `doms` grid.
fn sparse_rel(
    name: &str,
    vars: Vec<VarId>,
    doms: [u64; 2],
    density: f64,
    salt: u64,
) -> FunctionalRelation {
    let rows = (0..doms[0] * doms[1])
        .filter(|&c| keep_cell(c, salt, density))
        .map(|c| {
            let row = vec![(c / doms[1]) as u32, (c % doms[1]) as u32];
            (row, 1.0 + ((c.wrapping_mul(31).wrapping_add(salt)) % 97) as f64 / 97.0)
        });
    FunctionalRelation::from_rows(name, Schema::new(vars).expect("schema"), rows).expect("rel")
}

struct Run {
    threads: usize,
    sparse_ops: u64,
    ms: f64,
    speedup: f64,
    eq: bool,
}

fn runs_json(sequential_ms: f64, runs: &[Run]) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"sparse_ops\": {}, \"ms\": {:.3}, \
                 \"speedup\": {:.3}, \"function_eq_sparse\": {}}}",
                r.threads, r.sparse_ops, r.ms, r.speedup, r.eq
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
    let out_path: String = args.get("out", "BENCH_PR7.json".to_string());
    let metrics = MetricsRegistry::new();

    // One shared-variable join shape per band: l(a, b) ⋈ r(b, c) over an
    // (side × 64 × side) union grid, marginalized onto a. `--rows` is the
    // *grid* cells per relation, so side = rows / 64 and the actual row
    // counts scale with the band's density.
    let side = (rows / 64).max(2) as u64;
    let mut cat = Catalog::new();
    let a = cat.add_var("a", side).expect("var");
    let b = cat.add_var("b", 64).expect("var");
    let c = cat.add_var("c", side).expect("var");

    let mut sections = Vec::new();
    for (density, label) in BANDS {
        let l = sparse_rel("l", vec![a, b], [side, 64], density, 1);
        let r = sparse_rel("r", vec![b, c], [64, side], density, 2);
        let input_rows = l.len() + r.len();

        // Hash reference: row-major join + hash aggregate, single thread.
        let (seq_ms, seq_out) = time_ms(reps, || {
            let mut cx = ExecContext::new(SR);
            let j = ops::product_join(&mut cx, &l, &r).expect("join fits");
            ops::group_by(&mut cx, &j, &[a]).expect("agg fits")
        });
        eprintln!(
            "repr_pipeline_{label}: hash {seq_ms:.1} ms ({input_rows} input rows, {} groups)",
            seq_out.len()
        );
        metrics.inc(&format!("bench.repr.{label}.runs"));
        metrics.observe(
            &format!("bench.repr.{label}.hash"),
            Duration::from_secs_f64(seq_ms / 1e3),
        );

        // Sparse pipeline: the intermediate stays in coordinate form
        // between the join and the marginalization.
        let mut runs = Vec::new();
        for &t in &THREAD_COUNTS {
            let pipeline = |cx: &mut ExecContext<'_>| {
                let j = ops::step(cx, &[&l, &r], None, OpRepr::Sparse).expect("join fits");
                ops::step(cx, &[&j], Some(&[a]), OpRepr::Sparse).expect("agg fits")
            };
            let (ms, out) = time_ms(reps, || {
                let mut cx = ExecContext::new(SR)
                    .with_repr(ReprMode::Auto)
                    .with_dense(DenseMode::Off)
                    .with_threads(t);
                pipeline(&mut cx)
            });
            let mut cx = ExecContext::new(SR)
                .with_repr(ReprMode::Auto)
                .with_dense(DenseMode::Off)
                .with_threads(t);
            pipeline(&mut cx);
            let stats = cx.stats();
            let run = Run {
                threads: t,
                sparse_ops: stats.sparse_joins + stats.sparse_group_bys,
                ms,
                speedup: seq_ms / ms,
                eq: out.function_eq(&seq_out),
            };
            eprintln!(
                "repr_pipeline_{label}: sparse, threads {t} -> {ms:.1} ms \
                 ({:.2}x, eq {}, {} sparse ops)",
                run.speedup, run.eq, run.sparse_ops
            );
            metrics.observe(
                &format!("bench.repr.{label}.sparse.t{t}"),
                Duration::from_secs_f64(ms / 1e3),
            );
            runs.push(run);
        }
        sections.push(format!(
            "{{\n  \"name\": \"repr_pipeline_{label}\", \"input_rows\": {input_rows},\n  \
             \"density\": {density},\n  \"groups\": {},\n  {}\n}}",
            seq_out.len(),
            runs_json(seq_ms, &runs)
        ));
    }

    // The `sparse_ops` field counts the sparse-tensor operators that
    // actually ran (join + marginalization per pipeline).
    let json = format!(
        "{{\n\"benchmark\": \"pr7_repr\",\n\"rows\": {rows},\n\"reps\": {reps},\n\
         \"host_threads\": {},\n\"benchmarks\": [\n{}\n],\n\"metrics\": {}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sections.join(",\n"),
        metrics.to_json()
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
