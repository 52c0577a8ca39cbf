//! Wire-level benchmark of the MPF service: four workloads driven through
//! a real `mpf_serve::Server` on a loopback socket, every reply checked,
//! with a separate traced run that attributes the round trip to crates.
//!
//! ```text
//! cargo run --offline --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--smoke] [--agree]
//! ```
//!
//! The last line on standard output is one JSON object per the contract
//! in `BENCHMARK.json`; see `benchmark/README.md`.

mod check;
mod layers;
mod oracle;
mod run;
mod service;
mod stats;
mod trace;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Report, Sizing};
use workload::Workload;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

/// A metric of the contract: name, unit, direction, and for end-to-end
/// metrics the share of the baseline by which it may worsen.
struct MetricDef {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `BENCHMARK.json`'s `end_to_end`, in the order they are printed.
const END_TO_END: [MetricDef; 6] = [
    gated("throughput_qps", "1/s", Better::Higher, 0.25),
    gated("query_p50_ms", "ms", Better::Lower, 0.25),
    gated("query_p90_ms", "ms", Better::Lower, 0.25),
    gated("update_p50_ms", "ms", Better::Lower, 0.25),
    gated("peak_rss_mb", "MB", Better::Lower, 0.25),
    gated("setup_s", "s", Better::Lower, 0.25),
];

/// `BENCHMARK.json`'s `per_layer`.
const PER_LAYER: [MetricDef; 37] = [
    layer("wire.roundtrip_us", "us", Better::Lower),
    layer("wire.transport_us", "us", Better::Lower),
    layer("wire.delayed_ack_stall_us", "us", Better::Lower),
    layer("serve.wire_parse_us", "us", Better::Lower),
    layer("serve.self_us", "us", Better::Lower),
    layer("serve.ok", "count", Better::Higher),
    layer("serve.err", "count", Better::Lower),
    layer("serve.shed", "count", Better::Lower),
    layer("engine.sql_parse_us", "us", Better::Lower),
    layer("engine.self_us", "us", Better::Lower),
    layer("engine.run_us", "us", Better::Lower),
    layer("engine.cache.hit_ratio", "ratio", Better::Higher),
    layer("engine.cache.patched", "count", Better::Higher),
    layer("engine.cache.evictions", "count", Better::Lower),
    layer("engine.cache.bytes_resident", "bytes", Better::Lower),
    layer("engine.update_us", "us", Better::Lower),
    layer("engine.update_us_per_db_mb", "us/MB", Better::Lower),
    layer("optimizer.optimize_us", "us", Better::Lower),
    layer("optimizer.share_pct", "%", Better::Lower),
    layer("algebra.execute_us", "us", Better::Lower),
    layer("algebra.share_pct", "%", Better::Lower),
    layer("algebra.join_us", "us", Better::Lower),
    layer("algebra.groupby_us", "us", Better::Lower),
    layer("algebra.joinagg_us", "us", Better::Lower),
    layer("algebra.dense_pct", "%", Better::Higher),
    layer("algebra.sparse_pct", "%", Better::Higher),
    layer("algebra.converts_per_op", "ratio", Better::Lower),
    layer("algebra.rows_processed", "rows", Better::Lower),
    layer("algebra.max_intermediate_rows", "rows", Better::Lower),
    layer("infer.tree_build_us", "us", Better::Lower),
    layer("storage.db_heap_mb", "MB", Better::Lower),
    layer("storage.answer_rows", "rows", Better::Lower),
    layer("setup.datagen_s", "s", Better::Lower),
    layer("setup.load_s", "s", Better::Lower),
    layer("setup.warm_s", "s", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
    layer("trace.coverage_pct", "%", Better::Higher),
];

/// `run_seconds` of `BENCHMARK.json`: the window when `--seconds` is not
/// given.
const DEFAULT_SECONDS: f64 = 12.0;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        agree: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?;
                opts.workloads = vec![w];
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--agree" => opts.agree = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a metric of the contract"))
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`.
fn contract_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def_of(name).unit
        );
    }
    out.push_str("}}");
    out
}

/// The recorded result: the contract object plus provenance.
fn result_file(w: Workload, opts: &Options, sizing: Sizing, report: &Report) -> String {
    let cfg = service::serve_config();
    let t = &cfg.default_tenant;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", w.name());
    let _ = writeln!(out, "  \"why\": \"{}\",", w.why());
    let _ = writeln!(out, "  \"traced\": {},", opts.trace);
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(out, "  \"git_commit\": \"{}\",", git_commit());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"connections\": {},", w.connections());
    let _ = writeln!(out, "  \"writer\": {},", w.has_writer());
    let _ = writeln!(out, "  \"tri_d\": {},", service::TRI_D);
    let _ = writeln!(out, "  \"supply_chain_scale\": {},", service::SCALE);
    let _ = writeln!(out, "  \"view_cache_bytes\": {},", w.cache_bytes());
    let _ = writeln!(out, "  \"window_s\": {},", sizing.window.as_secs_f64());
    let _ = writeln!(out, "  \"settle_s\": {},", sizing.settle.as_secs_f64());
    let _ = writeln!(out, "  \"setups\": {},", sizing.setups);
    let _ = writeln!(
        out,
        "  \"serve_config\": {{\"pool_cells\": {}, \"pool_threads\": {}, \"queue_depth\": {}, \"queue_deadline_ms\": {}, \"max_inflight\": {}, \"cells_per_query\": {}, \"threads_per_query\": {}, \"query_timeout_ms\": {}}},",
        cfg.pool_cells,
        cfg.pool_threads,
        cfg.queue_depth,
        cfg.queue_deadline.as_millis(),
        t.max_inflight,
        t.cells_per_query,
        t.threads_per_query,
        t.query_timeout.map_or(0, |d| d.as_millis()),
    );
    let _ = writeln!(out, "  \"answer_rel_tol\": {},", wire::REL_TOL);
    out.push_str("  \"info\": {");
    for (i, (k, v)) in report.info.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": {v}");
    }
    out.push_str("},\n");
    let _ = writeln!(out, "  \"result\": {}", contract_json(report));
    out.push_str("}\n");
    out
}

fn print_report(w: Workload, report: &Report) {
    println!("== {} ==", w.name());
    for (name, value) in &report.metrics {
        let def = def_of(name);
        let better = match def.better {
            Better::Higher => "higher is better",
            Better::Lower => "lower is better",
        };
        println!("{name:<32} {value:>16.4} {:<6} ({better})", def.unit);
    }
    for (name, value) in &report.info {
        println!("{name:<32} {value:>16}");
    }
    for note in &report.notes {
        println!("!! {note}");
    }
}

fn run_one(w: Workload, opts: &Options) -> Result<Report, String> {
    let sizing = if opts.smoke {
        Sizing::smoke()
    } else {
        Sizing::full(opts.seconds)
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let report = if opts.trace {
        layers::per_layer(w, opts.seed, sizing, &dir)?
    } else {
        run::end_to_end(w, opts.seed, sizing)?
    };
    let kind = if opts.trace { "layers" } else { "result" };
    std::fs::write(
        dir.join(format!("{kind}-{}.json", w.name())),
        result_file(w, opts, sizing, &report),
    )
    .map_err(|e| e.to_string())?;
    Ok(report)
}

/// Run one workload in a process of its own and return its standard
/// output. A run's memory high-water mark and its first, cold set-up are
/// per process, so runs that are compared must not share one.
fn run_in_child(w: Workload, opts: &Options) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        child.arg("--smoke");
    }
    let out = child.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{} run failed: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr).trim_end()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// The value of `name` in a contract result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let (_, rest) = line.split_once(&format!("\"{name}\": {{\"value\": "))?;
    rest.split(',').next()?.parse().ok()
}

/// `--agree`: the whole suite twice on the same commit and seed. Prints
/// the relative difference of every gated metric next to its bound and
/// fails if identical code disagrees with itself by more than a bound.
fn agree(opts: &Options) -> Result<bool, String> {
    let mut within = true;
    for &w in &opts.workloads {
        let runs = [run_in_child(w, opts)?, run_in_child(w, opts)?];
        let [first, second] = runs
            .each_ref()
            .map(|out| out.lines().last().unwrap_or_default());
        println!("== {} ==", w.name());
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (metric_in(first, def.name), metric_in(second, def.name))
            else {
                return Err(format!("{}: a run printed no {}", w.name(), def.name));
            };
            let bound = def.bound.unwrap_or(f64::INFINITY);
            let diff = ((b - a) / a).abs();
            let verdict = if diff <= bound { "ok" } else { "DISAGREES" };
            within &= diff <= bound;
            println!(
                "{:<16} {a:>14.4} {b:>14.4} {:<4} diff {:>6.2}%  bound {:>5.1}%  {verdict}",
                def.name,
                def.unit,
                100.0 * diff,
                100.0 * bound
            );
        }
        if !(first.contains("\"correct\": true") && second.contains("\"correct\": true")) {
            println!("!! a run answered wrongly:\n{first}\n{second}");
            within = false;
        }
    }
    Ok(within)
}

fn fail(e: String) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // Ambient knobs must not change a run.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MPF_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.agree {
        return match agree(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => fail(e),
        };
    }
    if let [w] = opts.workloads[..] {
        return match run_one(w, &opts) {
            Ok(report) => {
                print_report(w, &report);
                println!("{}", contract_json(&report));
                ExitCode::SUCCESS
            }
            Err(e) => fail(format!("{}: {e}", w.name())),
        };
    }
    // The whole suite: every workload in a process of its own.
    for &w in &opts.workloads {
        match run_in_child(w, &opts) {
            Ok(out) => print!("{out}"),
            Err(e) => return fail(e),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The harness must survive the refactors it measures: it may only
    /// name entry points the roadmap keeps.
    #[test]
    fn harness_names_no_engine_internals() {
        // Assembled so that this file does not contain them either.
        let banned = [
            ["Exec", "utor"].concat(),
            ["Join", "Algo"].concat(),
            ["Agg", "Algo"].concat(),
            ["_au", "to("].concat(),
            ["choose_", "physical"].concat(),
            ["ops::", "raw"].concat(),
        ];
        for entry in std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src")).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            for word in &banned {
                assert!(
                    !text.contains(word.as_str()),
                    "{} names `{word}`",
                    path.display()
                );
            }
        }
    }

    /// `BENCHMARK.json` and the harness must describe the same metrics
    /// and workloads.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let json = harness_file("../BENCHMARK.json");
        for def in &END_TO_END {
            let better = match def.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                def.name,
                def.unit,
                def.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for def in &PER_LAYER {
            let better = match def.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                def.name, def.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(w.why().len() <= 200);
        }
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("query_p50_ms", 1.2034)],
            info: Vec::new(),
            notes: Vec::new(),
        };
        assert_eq!(
            contract_json(&report),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"query_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn reads_metrics_back_from_a_contract_line() {
        let report = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("query_p50_ms", 1.2034)],
            info: Vec::new(),
            notes: Vec::new(),
        };
        let line = contract_json(&report);
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "query_p50_ms"), Some(1.2034));
        assert_eq!(metric_in(&line, "query_p90_ms"), None);
    }

    #[test]
    fn arguments_parse() {
        let args: Vec<String> = "--workload dense_inference --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.workloads, vec![Workload::DenseInference]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert_eq!(parse_args(&[]).unwrap().workloads.len(), 4);
    }
}
