//! Plan identity: every optimizer picks exactly the plan, estimated cost and
//! estimated cardinality recorded in `plan_identity.golden`.
//!
//! The cases cover every [`Algorithm`] family the benchmarks run (CS, CS+
//! linear and nonlinear, VE and VE+ under the degree, width and
//! elimination-cost heuristics) under both [`CostModel`]s, on two sets of
//! query shapes:
//!
//! * the `invest` view of the supply chain (scale 0.05, seed 1) with the
//!   group-by and evidence shapes the ad-hoc benchmark workload sends;
//! * the three N = 7, domain 10 synthetic views of the Figure 10
//!   experiment, queried on every chain variable.
//!
//! Each golden line holds the case, `est_cost.to_bits()`,
//! `est_rows.to_bits()` and an FNV-1a digest of the rendered plan. After
//! them, one line per `invest` case holds the digest of the physical plan
//! [`choose_physical`] lowers it to under the default
//! [`PhysicalConfig`] — the operator algorithms the ad-hoc workload
//! executes. Any difference fails the test, which prints the current line
//! (with the rendered plan) of every case that changed, in golden format.

use mpf_datagen::{SupplyChain, SupplyChainConfig, SyntheticKind, SyntheticView};
use mpf_optimizer::{
    choose_physical, optimize, Algorithm, CostModel, Heuristic, OptContext, PhysicalConfig,
    QuerySpec,
};
use mpf_storage::Catalog;

const GOLDEN: &str = include_str!("plan_identity.golden");

const ALGORITHMS: [Algorithm; 9] = [
    Algorithm::Cs,
    Algorithm::CsPlusLinear,
    Algorithm::CsPlusNonlinear,
    Algorithm::Ve(Heuristic::Degree),
    Algorithm::Ve(Heuristic::Width),
    Algorithm::Ve(Heuristic::ElimCost),
    Algorithm::VePlus(Heuristic::Degree),
    Algorithm::VePlus(Heuristic::Width),
    Algorithm::VePlus(Heuristic::ElimCost),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden line per (cost model, algorithm) for the query `label`, plus
/// the rendered plans keyed by line for the failure report.
fn record<'c>(
    out: &mut Vec<(String, String)>,
    label: &str,
    catalog: &Catalog,
    ctx_for: &dyn Fn(CostModel) -> OptContext<'c>,
) {
    for model in [CostModel::Simple, CostModel::Io] {
        let ctx = ctx_for(model);
        for algo in ALGORITHMS {
            let opt = optimize(&ctx, algo);
            let rendered = opt.plan.render(&|v| catalog.name(v).to_string());
            let line = format!(
                "{label} | {model:?} | {} | cost={:016x} rows={:016x} plan={:016x}",
                algo.label(),
                opt.est_cost.to_bits(),
                opt.est_rows.to_bits(),
                fnv1a(rendered.as_bytes()),
            );
            out.push((line, rendered));
        }
    }
}

/// The physical-plan line of every (cost model, algorithm) for `label`.
fn record_physical<'c>(
    out: &mut Vec<(String, String)>,
    label: &str,
    catalog: &Catalog,
    ctx_for: &dyn Fn(CostModel) -> OptContext<'c>,
) {
    for model in [CostModel::Simple, CostModel::Io] {
        let ctx = ctx_for(model);
        for algo in ALGORITHMS {
            let plan = optimize(&ctx, algo).plan;
            let physical = choose_physical(&ctx, &plan, PhysicalConfig::default());
            let rendered = physical.render(&|v| catalog.name(v).to_string());
            let line = format!(
                "{label} | {model:?} | {} | physical={:016x}",
                algo.label(),
                fnv1a(rendered.as_bytes()),
            );
            out.push((line, rendered));
        }
    }
}

/// The supply chain the `invest` cases query (scale 0.05, seed 1).
fn supply_chain() -> SupplyChain {
    SupplyChain::generate(SupplyChainConfig {
        seed: 1,
        ..SupplyChainConfig::at_scale(0.05)
    })
}

/// The `invest` group-by and evidence shapes: (group vars, evidence vars),
/// every evidence variable bound to 1.
fn invest_specs() -> Vec<(Vec<&'static str>, Vec<&'static str>)> {
    let mut specs: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    for v in ["pid", "sid", "wid", "cid", "tid"] {
        specs.push((vec![v], vec![]));
    }
    for (x, y) in [("cid", "tid"), ("wid", "cid"), ("wid", "tid")] {
        specs.push((vec![x, y], vec![]));
    }
    for (g, e) in [
        ("wid", "tid"),
        ("cid", "tid"),
        ("sid", "tid"),
        ("tid", "cid"),
        ("wid", "cid"),
        ("pid", "cid"),
        ("cid", "wid"),
        ("tid", "sid"),
    ] {
        specs.push((vec![g], vec![e]));
    }
    for (g, e1, e2) in [
        ("wid", "cid", "tid"),
        ("sid", "wid", "tid"),
        ("pid", "cid", "tid"),
        ("tid", "sid", "wid"),
    ] {
        specs.push((vec![g], vec![e1, e2]));
    }
    specs
}

fn invest_cases(out: &mut Vec<(String, String)>, physical: bool) {
    let sc = supply_chain();
    for (group, evidence) in invest_specs() {
        let query = evidence.iter().fold(
            QuerySpec::group_by(group.iter().map(|v| sc.var(v))),
            |q, e| q.filter(sc.var(e), 1),
        );
        let label = format!(
            "invest group={} where={}",
            group.join(","),
            evidence.join(",")
        );
        let ctx_for = |model| sc.ctx(query.clone(), model);
        if physical {
            record_physical(out, &label, &sc.catalog, &ctx_for);
        } else {
            record(out, &label, &sc.catalog, &ctx_for);
        }
    }
}

fn fig10_cases(out: &mut Vec<(String, String)>) {
    for kind in SyntheticKind::ALL {
        let view = SyntheticView::generate(kind, 7, 10, 11);
        for &qv in &view.chain_vars {
            let label = format!("{} N=7 group={}", kind.label(), view.catalog.name(qv));
            record(out, &label, &view.catalog, &|model| {
                view.ctx(QuerySpec::group_by([qv]), model)
            });
        }
    }
}

#[test]
fn every_strategy_picks_the_recorded_plan() {
    let mut actual = Vec::new();
    invest_cases(&mut actual, false);
    fig10_cases(&mut actual);
    invest_cases(&mut actual, true);

    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        golden.len(),
        actual.len(),
        "the golden file and the test enumerate different cases"
    );
    let mut report = String::new();
    for (want, (got, rendered)) in golden.iter().zip(&actual) {
        if want != got {
            report.push_str(&format!("- {want}\n+ {got}\n{rendered}\n"));
        }
    }
    assert!(report.is_empty(), "plans changed:\n{report}");
}
