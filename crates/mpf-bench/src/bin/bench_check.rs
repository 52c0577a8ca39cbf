//! Bench-regression gate: compare a fresh benchmark run (`pr5_dense`,
//! `pr7_repr`, `pr8_cache`, `pr9_scenarios` or `pr10_kernels`) against its
//! checked-in baseline and fail CI when the sequential reference of any
//! section regresses by more than the tolerance.
//!
//! The comparison is per-row (time / input rows), so a reduced-scale
//! smoke run can be compared against the full-scale baseline — but
//! per-row cost is not scale-invariant (hash tables spill, caches
//! saturate), so cross-scale comparisons are reported as warnings only
//! and never fail the build. `function_eq_sparse: false` (a dense run
//! in `pr5_dense`, or a sparse-kernel run in `pr7_repr`, diverging from
//! the row-major hash reference), `function_eq_cache: false` (a
//! cache-served run diverging from a cold recompute),
//! `function_eq_scenarios: false` (a scenario batch diverging from a
//! sequential loop of single-scenario runs), `bit_eq_sparse: false`
//! (a dense-kernel run in `pr10_kernels` not bit-identical to the same
//! plan on the sparse kernel), or
//! `function_eq_unfused: false` (a fused join→marginalize run diverging
//! from the unfused pipeline) anywhere in the new results fails
//! unconditionally: a wrong answer is a regression at any scale. So does
//! `peak_below_unfused: false` — a fused run that materializes as much
//! as the unfused pipeline has lost its reason to exist.
//!
//! The parser is a purpose-built scanner for the flat JSON the bench bins
//! emit (no serde in this workspace); it is not a general JSON reader.
//!
//! Usage: `bench_check --baseline <BENCH_PR*.json> [--new BENCH_NEW.json]
//!         [--tolerance 0.25]`

use std::process::ExitCode;

use mpf_bench::Args;

/// One benchmark section: its name, the row scale it ran at, and the
/// sequential reference time.
#[derive(Debug)]
struct Section {
    name: String,
    rows: f64,
    sequential_ms: f64,
}

/// Scan for `"key": <number>` after byte offset `from`; returns the value
/// and the offset just past it.
fn number_after(text: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let pat = format!("\"{key}\":");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    let val: f64 = rest[..end].parse().ok()?;
    Some((val, at + (text[at..].len() - rest.len()) + end))
}

/// Scan for `"key": "<string>"` after byte offset `from`.
fn string_after(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let pat = format!("\"{key}\": \"");
    let at = text[from..].find(&pat)? + from + pat.len();
    let end = text[at..].find('"')? + at;
    Some((text[at..end].to_string(), end))
}

fn parse_sections(text: &str) -> Vec<Section> {
    let mut out = Vec::new();
    let mut pos = match text.find("\"benchmarks\":") {
        Some(p) => p,
        None => return out,
    };
    while let Some((name, after_name)) = string_after(text, "name", pos) {
        // Each section declares its scale under a section-specific key
        // (rows_per_side / input_rows / rows_per_relation) before the
        // sequential time; take the first number key that appears.
        let rows = ["rows_per_side", "input_rows", "rows_per_relation"]
            .iter()
            .filter_map(|k| number_after(text, k, after_name).map(|(v, _)| v))
            .fold(f64::NAN, |acc, v| if acc.is_nan() { v } else { acc });
        let Some((sequential_ms, after_seq)) = number_after(text, "sequential_ms", after_name)
        else {
            break;
        };
        out.push(Section {
            name,
            rows,
            sequential_ms,
        });
        pos = after_seq;
    }
    out
}

fn main() -> ExitCode {
    let args = Args::capture();
    if !args.has("baseline") {
        eprintln!(
            "usage: bench_check --baseline <BENCH_PR*.json> [--new BENCH_NEW.json] \
             [--tolerance 0.25]"
        );
        return ExitCode::from(2);
    }
    let baseline_path: String = args.get("baseline", String::new());
    let new_path: String = args.get("new", "BENCH_NEW.json".to_string());
    let tolerance: f64 = args.get("tolerance", 0.25);

    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
    let fresh =
        std::fs::read_to_string(&new_path).unwrap_or_else(|e| panic!("read {new_path}: {e}"));

    let mut failed = false;

    // Correctness is non-negotiable at any scale.
    if fresh.contains("\"function_eq_sparse\": false") {
        eprintln!("FAIL: a dense run diverged from its sparse reference in {new_path}");
        failed = true;
    }
    if fresh.contains("\"function_eq_cache\": false") {
        eprintln!("FAIL: a cache-served run diverged from a cold recompute in {new_path}");
        failed = true;
    }
    if fresh.contains("\"function_eq_scenarios\": false") {
        eprintln!(
            "FAIL: a scenario batch diverged from its sequential single-scenario loop in {new_path}"
        );
        failed = true;
    }
    if fresh.contains("\"bit_eq_sparse\": false") {
        eprintln!(
            "FAIL: a dense-kernel run is not bit-identical to its sparse reference in {new_path}"
        );
        failed = true;
    }
    if fresh.contains("\"function_eq_unfused\": false") {
        eprintln!("FAIL: a fused run diverged from the unfused pipeline in {new_path}");
        failed = true;
    }
    if fresh.contains("\"peak_below_unfused\": false") {
        eprintln!(
            "FAIL: a fused run reported peak intermediate rows at or above the unfused \
             pipeline in {new_path}"
        );
        failed = true;
    }

    let base_sections = parse_sections(&baseline);
    let new_sections = parse_sections(&fresh);
    if base_sections.is_empty() || new_sections.is_empty() {
        eprintln!(
            "FAIL: could not parse benchmark sections (baseline: {}, new: {})",
            base_sections.len(),
            new_sections.len()
        );
        return ExitCode::FAILURE;
    }

    for new in &new_sections {
        let Some(base) = base_sections.iter().find(|b| b.name == new.name) else {
            eprintln!("warn: section {} missing from baseline, skipping", new.name);
            continue;
        };
        let same_scale = (base.rows - new.rows).abs() < 0.5;
        let base_per_row = base.sequential_ms / base.rows.max(1.0);
        let new_per_row = new.sequential_ms / new.rows.max(1.0);
        let ratio = new_per_row / base_per_row.max(f64::MIN_POSITIVE);
        let verdict = if ratio <= 1.0 + tolerance {
            "ok"
        } else if same_scale {
            failed = true;
            "FAIL"
        } else {
            "warn (scale mismatch, not enforced)"
        };
        eprintln!(
            "{}: {:.2}x per-row vs baseline ({:.6} -> {:.6} ms/row at {} vs {} rows) [{}]",
            new.name, ratio, base_per_row, new_per_row, base.rows, new.rows, verdict
        );
    }

    if failed {
        eprintln!("bench_check: regression beyond {:.0}% tolerance", tolerance * 100.0);
        ExitCode::FAILURE
    } else {
        eprintln!("bench_check: within {:.0}% tolerance", tolerance * 100.0);
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
"benchmark": "pr5_dense",
"rows": 100,
"benchmarks": [
{
  "name": "dense_join", "rows_per_side": 100,
  "output_rows": 5,
  "sequential_ms": 10.000,
  "runs": [
    {"threads": 1, "dense_ops": 1, "ms": 6.0, "speedup": 1.667, "function_eq_sparse": true}
  ]
},
{
  "name": "dense_group_by", "input_rows": 200,
  "groups": 7,
  "sequential_ms": 4.000,
  "runs": []
},
{
  "name": "ve_plus_end_to_end", "rows_per_relation": 300,
  "result_rows": 2,
  "sequential_ms": 8.000,
  "runs": []
}
]
}"#;

    #[test]
    fn parses_sections() {
        let s = parse_sections(SAMPLE);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name, "dense_join");
        assert_eq!(s[0].rows, 100.0);
        assert_eq!(s[0].sequential_ms, 10.0);
        assert_eq!(s[1].name, "dense_group_by");
        assert_eq!(s[1].rows, 200.0);
        assert_eq!(s[1].sequential_ms, 4.0);
        assert_eq!(s[2].name, "ve_plus_end_to_end");
        assert_eq!(s[2].rows, 300.0);
        assert_eq!(s[2].sequential_ms, 8.0);
    }

    #[test]
    fn number_scanner_handles_whitespace() {
        let (v, _) = number_after("{\"x\":  -1.5e2}", "x", 0).unwrap();
        assert_eq!(v, -150.0);
    }
}
