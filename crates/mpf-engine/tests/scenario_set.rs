//! Scenario-batch contract: `Database::run_scenarios` fan-out is
//! **bit-identical** to a sequential loop of single-scenario runs —
//! shared trunks, plan reuse, and worker fan-out are pure optimizations —
//! and to an independent reference that applies each scenario as real
//! data to a second database (measure edits through `update_measure`,
//! domain moves remapped in this file and installed with
//! `insert_relation`, evidence as query filters). The sequential loop
//! builds each scenario's overlay the way the batch does, so only the
//! reference checks how overrides are applied.
//!
//! The property is checked across four semirings (including division-free
//! `MinProduct`, so the recompute frontier path is exercised where the
//! Section 6 ratio trick cannot apply), thread counts {1, 4}, and the
//! transparent view cache off/on — with random measures, random scenario
//! sets (measure shocks, domain moves, evidence), and random group-bys.

use std::collections::HashSet;

use mpf_engine::{Database, Override, Query, QueryRequest, Scenario, ScenarioSet};
use mpf_algebra::ExecLimits;
use mpf_semiring::{Aggregate, Combine};
use mpf_storage::{FunctionalRelation, Schema, Value};
use proptest::prelude::*;

/// `(combine, agg)` pairs resolving to the semirings under test.
/// `MinProduct` has no division ([`mpf_semiring::SemiringKind`]), so it
/// pins the recompute-only frontier path.
const SEMIRINGS: [(Combine, Aggregate); 4] = [
    (Combine::Product, Aggregate::Sum), // SumProduct
    (Combine::Sum, Aggregate::Min),     // MinSum (tropical)
    (Combine::Product, Aggregate::Max), // MaxProduct
    (Combine::Product, Aggregate::Min), // MinProduct — division-free
];

/// Variable names/domains of the chain schema, and each relation's vars.
const VARS: [(&str, u64); 4] = [("a", 2), ("b", 3), ("c", 2), ("d", 2)];
const RELS: [(&str, [&str; 2]); 3] = [("r1", ["a", "b"]), ("r2", ["b", "c"]), ("r3", ["c", "d"])];

/// Chain r1(a,b) ⋈ r2(b,c) ⋈ r3(c,d) under view `v`, dyadic measures
/// (`k/8`) so every semiring combination is exact in `f64` and
/// bit-identity is the real contract, not a tolerance.
fn build_db(combine: Combine, threads: usize, cache_bytes: u64, seed: u32) -> Database {
    let db = Database::new()
        .with_limits(ExecLimits::none().with_threads(threads))
        .with_cache_bytes(cache_bytes);
    for (name, domain) in VARS {
        db.add_var(name, domain).unwrap();
    }
    let catalog = db.catalog();
    let rels: Vec<FunctionalRelation> = RELS
        .iter()
        .enumerate()
        .map(|(ri, (name, vars))| {
            let ids = vars.map(|v| catalog.var(v).unwrap());
            FunctionalRelation::complete(*name, Schema::new(ids.to_vec()).unwrap(), &catalog, |r| {
                1.0 + ((seed + ri as u32 * 7 + r[0] * 5 + r[1] * 3) % 16) as f64 / 8.0
            })
        })
        .collect();
    drop(catalog);
    let names: Vec<&str> = RELS.iter().map(|(n, _)| *n).collect();
    for rel in rels {
        db.insert_relation(rel).unwrap();
    }
    db.create_view("v", &names, combine).unwrap();
    db
}

/// A scenario described by indices only, resolved against a concrete
/// database at apply time (rows are looked up, so overrides always name
/// existing rows).
#[derive(Debug, Clone)]
enum Edit {
    /// Shock one row's measure to `k/8`.
    Measure { rel: usize, row_idx: usize, k: u32 },
    /// Remap one variable of one relation, `from -> to`.
    Move { rel: usize, var: usize, from: u32, to: u32 },
    /// Condition the scenario on `var = value`.
    Evidence { var: usize, value: u32 },
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0..3usize, 0..12usize, 0u32..32).prop_map(|(rel, row_idx, k)| Edit::Measure {
            rel,
            row_idx,
            k
        }),
        (0..3usize, 0..2usize, 0u32..3, 0u32..3).prop_map(|(rel, var, from, to)| Edit::Move {
            rel,
            var,
            from,
            to
        }),
        (0..4usize, 0u32..2).prop_map(|(var, value)| Edit::Evidence { var, value }),
    ]
}

fn scenario_sets() -> impl Strategy<Value = Vec<Vec<Edit>>> {
    proptest::collection::vec(proptest::collection::vec(edit_strategy(), 0..3), 1..5)
}

/// Resolve index-form edits into a concrete named scenario.
fn resolve(db: &Database, name: String, edits: &[Edit]) -> Scenario {
    let snap = db.snapshot();
    let mut sc = Scenario::named(name);
    for edit in edits {
        sc = match *edit {
            Edit::Measure { rel, row_idx, k } => {
                let (rel_name, _) = RELS[rel];
                let r = snap.relation_of(rel_name).unwrap();
                sc.measure(rel_name, r.row(row_idx % r.len()).to_vec(), k as f64 / 8.0)
            }
            Edit::Move { rel, var, from, to } => {
                let (rel_name, vars) = RELS[rel];
                let (var_name, domain) = VARS[VARS.iter().position(|(n, _)| *n == vars[var]).unwrap()];
                sc.move_domain(
                    rel_name,
                    var_name,
                    (from as u64 % domain) as Value,
                    (to as u64 % domain) as Value,
                )
            }
            Edit::Evidence { var, value } => {
                let (var_name, domain) = VARS[var];
                sc.evidence(var_name, (value as u64 % domain) as Value)
            }
        };
    }
    sc
}

/// `rel` with its `pos` column's `from` values moved to `to`; where the
/// move merges rows, the first occurrence wins (the alternate-domain
/// convention of Section 3.1, written out here independently of the
/// engine's override code).
fn remapped(rel: &FunctionalRelation, pos: usize, from: Value, to: Value) -> FunctionalRelation {
    let mut seen = HashSet::new();
    let rows: Vec<(Vec<Value>, f64)> = rel
        .rows()
        .filter_map(|(row, m)| {
            let mut row = row.to_vec();
            if row[pos] == from {
                row[pos] = to;
            }
            seen.insert(row.clone()).then_some((row, m))
        })
        .collect();
    FunctionalRelation::from_rows(rel.name(), rel.schema().clone(), rows).unwrap()
}

/// The independent reference for one scenario: a fresh database, view
/// cache off, holding the scenario's overrides as real data, queried
/// with the scenario's evidence as equality filters.
fn applied(
    combine: Combine,
    threads: usize,
    seed: u32,
    q: &Query,
    sc: &Scenario,
) -> FunctionalRelation {
    let db = build_db(combine, threads, 0, seed);
    for ov in sc.overrides() {
        match ov {
            Override::Measure { relation, row, measure } => {
                db.update_measure(relation, row, *measure).unwrap();
            }
            Override::Domain { relation, var, from, to } => {
                let rel = db.relation(relation).unwrap();
                let pos = rel.schema().position(db.catalog().var(var).unwrap()).unwrap();
                let moved = remapped(&rel, pos, *from, *to);
                drop(rel);
                db.insert_relation(moved).unwrap();
            }
        }
    }
    let mut q = q.clone();
    for (var, value) in sc.evidence_set() {
        q = q.filter(var.clone(), *value);
    }
    db.run(&q).unwrap().relation
}

/// The answer's content, bit-exactly: rows in relation order with raw
/// measure bits (schema column order included via the row vectors).
fn bits(rel: &FunctionalRelation) -> Vec<(Vec<Value>, u64)> {
    rel.rows().map(|(r, m)| (r.to_vec(), m.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batch_is_bit_identical_to_sequential_loop(
        sets in scenario_sets(),
        seed in 0u32..1000,
        gq in 0usize..3,
    ) {
        let group_by: &[&str] = [&["a", "d"][..], &["b"][..], &["a", "c"][..]][gq];
        for (combine, agg) in SEMIRINGS {
            for threads in [1usize, 4] {
                for cache_bytes in [0u64, 64 << 20] {
                    let db = build_db(combine, threads, cache_bytes, seed);
                    let q = Query::on("v").group_by(group_by.iter().copied()).aggregate(agg);
                    let scenarios: Vec<Scenario> = sets
                        .iter()
                        .enumerate()
                        .map(|(i, edits)| resolve(&db, format!("s{i}"), edits))
                        .collect();

                    // The reference: a plain sequential loop of
                    // single-scenario requests.
                    let sequential: Vec<_> = scenarios
                        .iter()
                        .map(|sc| {
                            db.run(QueryRequest::from(&q).scenario(sc.clone()))
                                .unwrap()
                        })
                        .collect();
                    let baseline = db.run(&q).unwrap();
                    let reference: Vec<_> = scenarios
                        .iter()
                        .map(|sc| applied(combine, threads, seed, &q, sc))
                        .collect();

                    let set: ScenarioSet = scenarios.clone().into_iter().collect();
                    let report = db
                        .run_scenarios(QueryRequest::from(&q).scenario_set(set))
                        .unwrap();

                    prop_assert_eq!(
                        bits(&report.baseline.relation),
                        bits(&baseline.relation),
                        "baseline diverged ({combine:?}/{agg:?}, threads={threads}, cache={cache_bytes})"
                    );
                    prop_assert_eq!(report.outcomes.len(), scenarios.len());
                    for (i, (outcome, seq)) in
                        report.outcomes.iter().zip(&sequential).enumerate()
                    {
                        prop_assert_eq!(&outcome.name, &format!("s{i}"));
                        prop_assert_eq!(
                            bits(&outcome.answer.relation),
                            bits(&seq.relation),
                            "scenario s{i} diverged ({combine:?}/{agg:?}, threads={threads}, cache={cache_bytes})"
                        );
                        prop_assert_eq!(
                            bits(&outcome.answer.relation),
                            bits(&reference[i]),
                            "scenario s{i} diverged from its applied reference ({combine:?}/{agg:?}, threads={threads}, cache={cache_bytes})"
                        );
                        // The divergence summary is consistent with the
                        // bit comparison it claims to report.
                        prop_assert_eq!(
                            outcome.divergence.is_invariant(),
                            bits(&outcome.answer.relation) == bits(&baseline.relation),
                            "divergence flag inconsistent for s{i}"
                        );
                    }
                }
            }
        }
    }
}

/// Duplicate names are a typed error; multi-scenario sets are rejected by
/// the single-answer entry points.
#[test]
fn scenario_set_api_contract() {
    use mpf_engine::EngineError;
    let db = build_db(Combine::Product, 1, 0, 1);
    let q = Query::on("v").group_by(["a"]);
    let dup = QueryRequest::from(&q)
        .scenario(Scenario::named("x").measure("r1", vec![0, 0], 1.0))
        .scenario(Scenario::named("x").measure("r1", vec![0, 1], 1.0));
    assert!(matches!(
        db.run_scenarios(dup).unwrap_err(),
        EngineError::DuplicateScenario(_)
    ));

    let multi = QueryRequest::from(&q)
        .scenario(Scenario::named("x").measure("r1", vec![0, 0], 1.0))
        .scenario(Scenario::named("y").measure("r1", vec![0, 1], 1.0));
    assert!(matches!(
        db.run(multi.clone()).unwrap_err(),
        EngineError::ScenarioBatch { count: 2 }
    ));
    assert!(matches!(
        db.describe(multi).unwrap_err(),
        EngineError::ScenarioBatch { count: 2 }
    ));

    // An empty set still reports the baseline.
    let report = db.run_scenarios(&q).unwrap();
    assert!(report.outcomes.is_empty());
    assert_eq!(report.trunk_builds, 0);
}

/// Trunk sharing actually happens: identical measure-only scenarios over
/// one relation of a 3-relation chain must reuse trunk subtrees across
/// the batch (builds strictly fewer trunks than scenario-executions).
#[test]
fn trunks_are_shared_across_scenarios() {
    let db = build_db(Combine::Product, 4, 0, 2);
    let q = Query::on("v").group_by(["a"]);
    let snap = db.snapshot();
    let r1 = snap.relation_of("r1").unwrap();
    let set: ScenarioSet = (0..8)
        .map(|i| {
            Scenario::named(format!("s{i}")).measure(
                "r1",
                r1.row(i % r1.len()).to_vec(),
                (i + 2) as f64,
            )
        })
        .collect();
    drop(snap);
    let report = db
        .run_scenarios(QueryRequest::from(&q).scenario_set(set))
        .unwrap();
    assert_eq!(report.outcomes.len(), 8);
    assert!(
        report.trunk_builds > 0,
        "a chain query with one touched relation must have a shared trunk"
    );
    assert!(
        report.trunk_hits > report.trunk_builds,
        "8 scenarios sharing trunks should hit more than they build \
         (builds={}, hits={})",
        report.trunk_builds,
        report.trunk_hits
    );
}

/// `describe` plans a scenario against the provider `run` evaluates it
/// on: domain moves that leave `r2` a third full (too sparse for the
/// dense kernels) render the physical plan the scenario's answer
/// records, not the baseline's.
#[test]
fn describe_renders_the_plan_a_domain_move_runs() {
    let db = build_db(Combine::Product, 1, 0, 3);
    let q = QueryRequest::on("v").group_by(["a", "d"]);
    let mv = Scenario::named("mv").move_domain("r2", "b", 1, 0).move_domain("r2", "b", 2, 0);
    let req = q.clone().scenario(mv);
    let text = db.describe(req.clone()).unwrap();
    let physical = db.run(req).unwrap().physical;
    let catalog = db.catalog();
    let rendered = physical.render(&|v| catalog.name(v).to_string());
    assert!(text.ends_with(&rendered), "describe:\n{text}\nrun:\n{rendered}");
    let baseline = db.run(q).unwrap().physical;
    assert_ne!(baseline, physical, "the move changes the plan");
}
