//! Guardrail and fallback behavior of the engine facade: resource budgets
//! trip with typed errors (never a panic or an OOM), generous budgets are
//! invisible, and the strategy fallback chain serves queries past
//! optimizer-side failures, recording who answered in
//! [`Answer::served_by`].

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use mpf_algebra::{AlgebraError, CancelToken, ExecLimits, ResourceKind};
use mpf_datagen::{SupplyChain, SupplyChainConfig};
use mpf_engine::{Database, EngineError, FallbackPolicy, Query, Strategy};
use mpf_semiring::Combine;
use mpf_storage::{FunctionalRelation, Schema};

/// The fault registry is process-global. Under `fault-injection` every test
/// here holds this lock while it runs queries, so a fault armed by the
/// tests in `faults` never reaches another test's query.
fn lock() -> Option<MutexGuard<'static, ()>> {
    static LOCK: Mutex<()> = Mutex::new(());
    cfg!(feature = "fault-injection").then(|| LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

fn supply_chain_db(scale: f64) -> Database {
    let sc = SupplyChain::generate(SupplyChainConfig::at_scale(scale));
    let db = Database::from_parts(sc.catalog, sc.store);
    db.create_view("invest", &mpf_datagen::supply_chain::RELATION_NAMES, Combine::Product)
        .unwrap();
    db
}

/// Acceptance scenario: a supply-chain query under `max_total_cells = 1`
/// returns `ResourceExhausted` — the first scan already exceeds the budget,
/// every fallback strategy trips the same way, and nothing panics or
/// materializes the join.
#[test]
fn supply_chain_query_with_one_cell_budget_is_rejected() {
    let _g = lock();
    let db = supply_chain_db(0.01).with_limits(ExecLimits::none().with_max_total_cells(1));
    let err = db.run(Query::on("invest").group_by(["wid"])).unwrap_err();
    match err {
        EngineError::Algebra(AlgebraError::ResourceExhausted {
            resource: ResourceKind::TotalCells,
            limit: 1,
            observed,
        }) => assert!(observed > 1),
        other => panic!("expected TotalCells trip, got {other:?}"),
    }
}

/// Generous limits change nothing: same answer, requested strategy serves,
/// no fallback entries.
#[test]
fn generous_limits_are_transparent() {
    let _g = lock();
    let unlimited = supply_chain_db(0.01);
    let limited = supply_chain_db(0.01).with_limits(
        ExecLimits::none()
            .with_max_output_rows(100_000_000)
            .with_max_total_cells(1_000_000_000)
            .with_timeout(Duration::from_secs(3600))
            .with_cancel_token(CancelToken::new()),
    );
    let q = Query::on("invest").group_by(["wid"]);
    let want = unlimited.run(&q).unwrap();
    let got = limited.run(&q).unwrap();
    assert!(want.relation.function_eq(&got.relation));
    assert_eq!(got.served_by, Strategy::Auto);
    assert!(got.fallback.is_empty());
}

#[test]
fn cancelled_queries_error_without_fallback() {
    let _g = lock();
    let token = CancelToken::new();
    token.cancel();
    let db = supply_chain_db(0.01).with_limits(ExecLimits::none().with_cancel_token(token));
    let err = db.run(Query::on("invest").group_by(["wid"])).unwrap_err();
    assert_eq!(err, EngineError::Algebra(AlgebraError::Cancelled));
}

#[test]
fn expired_deadline_errors_without_fallback() {
    let _g = lock();
    let db = supply_chain_db(0.01).with_limits(ExecLimits::none().with_timeout(Duration::ZERO));
    let err = db.run(Query::on("invest").group_by(["wid"])).unwrap_err();
    assert!(matches!(
        err,
        EngineError::Algebra(AlgebraError::ResourceExhausted {
            resource: ResourceKind::WallClock,
            ..
        })
    ));
}

/// A view beyond the optimizer's 30-relation DP limit is still served: the
/// chain's terminal naive strategy performs no plan search.
#[test]
fn views_beyond_dp_limit_fall_back_to_naive() {
    let _g = lock();
    let db = Database::new();
    let a = db.add_var("a", 4).unwrap();
    let names: Vec<String> = (0..31).map(|i| format!("r{i}")).collect();
    for n in &names {
        db.insert_relation(
            FunctionalRelation::from_rows(
                n.clone(),
                Schema::new(vec![a]).unwrap(),
                (0..4u32).map(|v| (vec![v], 1.0)),
            )
            .unwrap(),
        )
        .unwrap();
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    db.create_view("wide", &refs, Combine::Product).unwrap();

    let ans = db.run(Query::on("wide").group_by(["a"])).unwrap();
    assert_eq!(ans.served_by, Strategy::Naive);
    assert!(ans
        .fallback
        .iter()
        .all(|(_, e)| matches!(e, EngineError::TooManyRelations { count: 31, limit: 30 })));
    assert!(!ans.fallback.is_empty());
    assert_eq!(ans.relation.len(), 4);
    assert!((ans.relation.lookup(&[0]).unwrap() - 1.0).abs() < 1e-9);

    // With fallback disabled the same query is a typed error.
    let strict = db.clone().with_fallback(FallbackPolicy::none());
    assert!(matches!(
        strict.run(Query::on("wide").group_by(["a"])).unwrap_err(),
        EngineError::TooManyRelations { count: 31, limit: 30 }
    ));
}

#[test]
fn empty_views_are_rejected_at_creation() {
    let _g = lock();
    let db = Database::new();
    assert!(matches!(
        db.create_view("hollow", &[], Combine::Product),
        Err(EngineError::EmptyView(n)) if n == "hollow"
    ));
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;

    use mpf_algebra::fault;
    use mpf_engine::{QueryRequest, Scenario};
    use mpf_semiring::approx_eq;
    use mpf_storage::Schema;

    /// r1(a, b) ⋈ r2(b, c) with known answers.
    ///
    /// The relations are complete over their 2×2 grids, so the dense
    /// fast path would normally serve them without ever reaching the
    /// sparse operator fault sites (`product_join`, `group_by`); the
    /// tests that arm those sites force `DenseMode::Off`.
    fn tiny_db() -> Database {
        let db = Database::new();
        let a = db.add_var("a", 2).unwrap();
        let b = db.add_var("b", 2).unwrap();
        let c = db.add_var("c", 2).unwrap();
        db.insert_relation(
            FunctionalRelation::from_rows(
                "r1",
                Schema::new(vec![a, b]).unwrap(),
                [
                    (vec![0, 0], 1.0),
                    (vec![0, 1], 2.0),
                    (vec![1, 0], 3.0),
                    (vec![1, 1], 4.0),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert_relation(
            FunctionalRelation::from_rows(
                "r2",
                Schema::new(vec![b, c]).unwrap(),
                [
                    (vec![0, 0], 10.0),
                    (vec![0, 1], 20.0),
                    (vec![1, 0], 30.0),
                    (vec![1, 1], 40.0),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_view("v", &["r1", "r2"], Combine::Product).unwrap();
        db
    }

    /// Acceptance scenario: a fault injected into the VE+ optimizer makes
    /// the first attempt fail, the chain retries with linear CS+, and the
    /// answer is correct with the serving strategy recorded.
    #[test]
    fn ve_plus_optimizer_fault_falls_back_to_cs_plus() {
        let _g = lock();
        fault::clear_all();
        let db = tiny_db();
        let q = Query::on("v")
            .group_by(["c"])
            .strategy(Strategy::VePlus(mpf_optimizer::Heuristic::Degree));

        fault::inject("optimize::VE(deg) ext.", 1);
        let ans = db.run(&q).unwrap();
        assert_eq!(ans.served_by, Strategy::CsPlusLinear);
        assert_eq!(ans.fallback.len(), 1);
        assert_eq!(
            ans.fallback[0],
            (
                Strategy::VePlus(mpf_optimizer::Heuristic::Degree),
                EngineError::Algebra(AlgebraError::FaultInjected(
                    "optimize::VE(deg) ext.".into()
                ))
            )
        );
        assert!(approx_eq(ans.relation.lookup(&[0]).unwrap(), 220.0));
        assert!(approx_eq(ans.relation.lookup(&[1]).unwrap(), 320.0));

        // The arm disarmed after firing: the same query now serves directly.
        let again = db.run(&q).unwrap();
        assert_eq!(
            again.served_by,
            Strategy::VePlus(mpf_optimizer::Heuristic::Degree)
        );
        assert!(again.fallback.is_empty());
    }

    /// A scenario walks the same fallback chain alone and inside a batch:
    /// a VE+ optimizer fault armed once is cured by linear CS+ either way,
    /// and both answers record the same serving strategy, failed attempt
    /// and bits. The measure shock takes the batch's plan-reuse path, the
    /// domain move the per-scenario planning path.
    #[test]
    fn a_scenario_falls_back_alike_alone_and_in_a_batch() {
        let _g = lock();
        fault::clear_all();
        let db = tiny_db().with_cache_bytes(0);
        let vep = Strategy::VePlus(mpf_optimizer::Heuristic::Degree);
        let site = "optimize::VE(deg) ext.";
        for sc in [
            Scenario::named("shock").measure("r1", vec![0, 0], 100.0),
            Scenario::named("move").move_domain("r2", "b", 1, 0),
        ] {
            let req = QueryRequest::on("v").group_by(["c"]).strategy(vep).scenario(sc);
            fault::inject(site, 1);
            let alone = db.run(req.clone()).unwrap();
            assert_eq!(alone.served_by, Strategy::CsPlusLinear);
            assert_eq!(alone.fallback.len(), 1);
            // The batch plans its baseline first: the scenario's VE+ plan
            // is the site's second call.
            fault::inject(site, 2);
            let report = db.run_scenarios(req).unwrap();
            assert_eq!(report.baseline.served_by, vep);
            assert!(report.baseline.fallback.is_empty());
            let batched = &report.outcomes[0].answer;
            assert_eq!(batched.served_by, alone.served_by);
            assert_eq!(batched.fallback, alone.fallback);
            assert_eq!(bits(batched), bits(&alone));
        }
        fault::clear_all();
    }

    /// An execution-side operator fault is also cured by the retry.
    #[test]
    fn join_fault_is_cured_by_fallback() {
        let _g = lock();
        fault::clear_all();
        // Hash-path pins: this arms the hash join's fault site, so the
        // dense and sparse representations must both stand down.
        let db = tiny_db()
            .with_dense(mpf_engine::DenseMode::Off)
            .with_repr(mpf_engine::ReprMode::Off);
        fault::inject("product_join", 1);
        let ans = db.run(Query::on("v").group_by(["c"])).unwrap();
        assert_eq!(ans.fallback.len(), 1);
        assert!(matches!(
            ans.fallback[0].1,
            EngineError::Algebra(AlgebraError::FaultInjected(_))
        ));
        assert!(approx_eq(ans.relation.lookup(&[0]).unwrap(), 220.0));
    }

    /// The answer's stats cover the whole fallback chain: the attempt that
    /// died mid-plan had already scanned its inputs, and that work shows up
    /// in the served answer's counters on top of the successful retry's.
    #[test]
    fn fallback_answer_reports_work_of_failed_attempts() {
        let _g = lock();
        fault::clear_all();
        let db = tiny_db()
            .with_dense(mpf_engine::DenseMode::Off)
            .with_repr(mpf_engine::ReprMode::Off);
        let q = Query::on("v").group_by(["c"]);
        let clean = db.run(&q).unwrap();
        assert!(clean.stats.rows_scanned > 0);

        fault::inject("product_join", 1);
        let ans = db.run(&q).unwrap();
        assert_eq!(ans.fallback.len(), 1);
        assert!(
            ans.stats.rows_scanned > clean.stats.rows_scanned,
            "failed attempt's scans missing: {} vs clean {}",
            ans.stats.rows_scanned,
            clean.stats.rows_scanned
        );
        assert!(ans.relation.function_eq(&clean.relation));
    }

    /// When every strategy in the chain faults, the last error surfaces as
    /// a typed failure — never a panic.
    #[test]
    fn exhausted_chain_surfaces_last_error() {
        let _g = lock();
        fault::clear_all();
        let db = tiny_db();
        for site in [
            "optimize::VE(deg) ext.",
            "optimize::CS+ linear",
            "optimize::naive",
        ] {
            fault::inject_always(site);
        }
        let err = db
            .run(
                Query::on("v")
                    .group_by(["c"])
                    .strategy(Strategy::VePlus(mpf_optimizer::Heuristic::Degree)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Algebra(AlgebraError::FaultInjected("optimize::naive".into()))
        );
        fault::clear_all();
    }

    /// A fault inside cache maintenance never fails the update: the tree
    /// that could not be patched is evicted, and demand rebuilds it.
    #[test]
    fn fault_while_patching_evicts_the_tree() {
        let _g = lock();
        fault::clear_all();
        let db = tiny_db().with_cache_bytes(1 << 20);
        let q = Query::on("v").group_by(["c"]);
        for _ in 0..3 {
            db.run(&q).unwrap();
        }
        let vc = db.view_cache().unwrap().clone();
        assert_eq!(vc.len(), 1);

        fault::inject("vecache::propagate", 1);
        assert_eq!(db.update_measure("r1", &[0, 0], 2.0).unwrap(), 1.0);
        assert_eq!(vc.counter("patched"), 0);
        assert_eq!(vc.counter("evictions"), 1);
        assert!(vc.is_empty());
        // c=0: (2+3)·10 + (2+4)·30 = 230.
        let ans = db.run(&q).unwrap();
        assert!(approx_eq(ans.relation.lookup(&[0]).unwrap(), 230.0));
        fault::clear_all();
    }

    /// Rows of an answer with their measure bits, in key order.
    fn bits(ans: &mpf_engine::Answer) -> Vec<(Vec<mpf_storage::Value>, u64)> {
        let mut rows: Vec<_> = ans
            .relation
            .rows()
            .map(|(row, m)| (row.to_vec(), m.to_bits()))
            .collect();
        rows.sort();
        rows
    }

    /// The base tree and a tree derived from it on `a = 1` share the
    /// indexes of the table whose rows the evidence kept. A fault while
    /// one of them is patched evicts that tree only; the other keeps being
    /// patched through the shared indexes and keeps answering like an
    /// uncached database.
    #[test]
    fn fault_while_patching_one_of_two_sharing_trees_evicts_only_it() {
        let _g = lock();
        fault::clear_all();
        let db = tiny_db().with_cache_bytes(1 << 20);
        let cold = tiny_db();
        let queries = [
            Query::on("v").group_by(["c"]),
            Query::on("v").group_by(["c"]).filter("a", 1),
        ];
        for _ in 0..3 {
            db.run(&queries[0]).unwrap();
        }
        db.run(&queries[1]).unwrap();
        let vc = db.view_cache().unwrap().clone();
        assert_eq!((vc.len(), vc.counter("derived")), (2, 1));
        let a = db.catalog().var("a").unwrap();
        let keys = |version: u64| {
            [vec![], vec![(a, 1)]].map(|evidence| mpf_engine::CacheKey {
                version,
                view: "v".into(),
                semiring: mpf_semiring::SemiringKind::SumProduct,
                evidence,
            })
        };
        // The derived tree kept one table whole (and shares its indexes)
        // and filtered another.
        let trees = keys(db.snapshot().version()).map(|k| vc.lookup(&k).unwrap());
        let kept: Vec<bool> = trees[0]
            .tables()
            .iter()
            .zip(trees[1].tables())
            .map(|(t, u)| t.len() == u.len())
            .collect();
        assert!(kept.contains(&true) && kept.contains(&false), "{kept:?}");
        drop(trees);
        let update = |relation: &str, row: &[u32], measure: f64| {
            for d in [&db, &cold] {
                d.update_measure(relation, row, measure).unwrap();
            }
        };

        // The first update builds the indexes through both trees.
        update("r1", &[1, 0], 6.0);
        assert_eq!((vc.counter("patched"), vc.counter("evictions")), (2, 0));

        fault::inject("vecache::propagate", 1);
        update("r2", &[0, 1], 40.0);
        assert_eq!((vc.counter("patched"), vc.counter("evictions")), (3, 1));
        let resident = keys(db.snapshot().version()).map(|k| vc.lookup(&k).is_some());
        assert_eq!(resident.iter().filter(|&&r| r).count(), 1, "{resident:?}");
        let survivor = resident.iter().position(|&r| r).unwrap();

        update("r1", &[1, 1], 2.0);
        update("r2", &[1, 0], 15.0);
        assert_eq!((vc.counter("patched"), vc.counter("evictions")), (5, 1));
        let key = keys(db.snapshot().version())[survivor].clone();
        assert!(vc.lookup(&key).is_some(), "the surviving tree was evicted");
        let served = db.run(&queries[survivor]).unwrap();
        assert!(served.cache.is_some());
        assert_eq!(bits(&served), bits(&cold.run(&queries[survivor]).unwrap()));
        for q in &queries {
            assert_eq!(
                bits(&db.run(q).unwrap()),
                bits(&cold.run(q).unwrap()),
                "{q}"
            );
        }
        fault::clear_all();
    }
}
