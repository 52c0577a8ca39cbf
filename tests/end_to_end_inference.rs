//! End-to-end integration: probabilistic inference (Section 4) and
//! workload optimization (Section 6) against brute-force oracles.

use mpf::algebra::{ops, ExecContext};
use mpf::engine::{Database, DenseMode, ReprMode, SqlOutcome};
use mpf::infer::{acyclic, bp, triangulate, BayesNet, JunctionTree, VariableGraph, VeCache};
use mpf::optimizer::{Algorithm, Heuristic};
use mpf::semiring::{approx_eq, Combine, SemiringKind};
use mpf::storage::{FunctionalRelation, Schema};

/// Posterior via optimized MPF query == posterior via enumeration, across
/// random networks, targets, and algorithms.
#[test]
fn random_networks_posteriors_match_enumeration() {
    for seed in 0..6 {
        let bn = BayesNet::random(7, 2, 2, seed);
        let joint = bn.joint().unwrap();
        let sr = SemiringKind::SumProduct;
        let nodes = bn.nodes().to_vec();
        let target = nodes[(seed as usize) % nodes.len()];
        let evidence_var = nodes[(seed as usize + 3) % nodes.len()];
        if evidence_var == target {
            continue;
        }

        // Oracle.
        let cx = &mut ExecContext::new(sr);
        let cond = ops::select_eq(cx, &joint, &[(evidence_var, 1)]).unwrap();
        let marg = ops::group_by(cx, &cond, &[target]).unwrap();
        let z: f64 = marg.measures().iter().sum();
        let want: Vec<f64> = (0..2)
            .map(|v| marg.lookup(&[v]).unwrap_or(0.0) / z)
            .collect();

        for algo in [
            Algorithm::Cs,
            Algorithm::CsPlusLinear,
            Algorithm::CsPlusNonlinear,
            Algorithm::Ve(Heuristic::Degree),
            Algorithm::Ve(Heuristic::Width),
            Algorithm::VePlus(Heuristic::ElimCost),
            Algorithm::Ve(Heuristic::Random(seed)),
        ] {
            let got = bn.posterior(target, &[(evidence_var, 1)], algo).unwrap();
            for v in 0..2 {
                assert!(
                    approx_eq(got[v], want[v]),
                    "seed {seed} {}: Pr={got:?} want {want:?}",
                    algo.label()
                );
            }
        }
    }
}

/// VE-cache over a Bayesian network answers every marginal exactly, and the
/// junction-tree path (BP over populated cliques) agrees.
#[test]
fn cache_and_junction_tree_agree_on_marginals() {
    for seed in [1, 5, 9] {
        let bn = BayesNet::random(6, 2, 2, seed);
        let sr = SemiringKind::SumProduct;
        let cpts: Vec<&FunctionalRelation> = bn.cpts().iter().collect();
        let joint = bn.joint().unwrap();

        // Path 1: VE-cache (Algorithm 3).
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &cpts, None).unwrap();

        // Path 2: Junction tree (Algorithm 5) + BP calibration.
        let schemas: Vec<_> = cpts.iter().map(|r| r.schema().clone()).collect();
        let jt = JunctionTree::from_schemas(&schemas, None).unwrap();
        let mut tables = jt.populate_in(&mut ExecContext::new(sr), &cpts, bn.catalog()).unwrap();
        bp::calibrate_in(&mut ExecContext::new(sr), &mut tables, &jt.tree).unwrap();

        let cx = &mut ExecContext::new(sr);
        for &node in bn.nodes() {
            let want = ops::group_by(cx, &joint, &[node]).unwrap();
            let from_cache = cache.answer(node).unwrap();
            assert!(want.function_eq(&from_cache), "cache wrong (seed {seed})");

            let table = tables
                .iter()
                .find(|t| t.schema().contains(node))
                .expect("every variable is in some clique");
            let from_jt = ops::group_by(cx, table, &[node]).unwrap();
            assert!(want.function_eq(&from_jt), "junction tree wrong (seed {seed})");
        }
    }
}

/// The paper's Figure 12–15 pipeline: a cyclic schema is rejected by BP,
/// fixed by triangulation, and the junction tree supports exact marginals.
#[test]
fn cyclic_schema_junction_tree_pipeline() {
    let mut cat = mpf::storage::Catalog::new();
    let pid = cat.add_var("pid", 2).unwrap();
    let sid = cat.add_var("sid", 2).unwrap();
    let wid = cat.add_var("wid", 2).unwrap();
    let cid = cat.add_var("cid", 2).unwrap();
    let tid = cat.add_var("tid", 2).unwrap();
    let mk = |name: &str, vars: Vec<mpf::storage::VarId>, salt: u32| {
        FunctionalRelation::complete(
            name,
            mpf::storage::Schema::new(vars).unwrap(),
            &cat,
            move |row| ((row.iter().sum::<u32>() + salt) % 3 + 1) as f64 / 2.0,
        )
    };
    let rels = [mk("contracts", vec![pid, sid], 0),
        mk("warehouses", vec![wid, cid], 1),
        mk("transporters", vec![tid], 2),
        mk("location", vec![pid, wid], 3),
        mk("ctdeals", vec![cid, tid], 4),
        mk("stdeals", vec![sid, tid], 5)];
    let refs: Vec<&FunctionalRelation> = rels.iter().collect();
    let schemas: Vec<_> = rels.iter().map(|r| r.schema().clone()).collect();

    // Cyclic: GYO does not reduce, the variable graph is not chordal, and
    // plain BP refuses.
    assert!(!acyclic::is_acyclic(schemas.iter()));
    let graph = VariableGraph::from_schemas(schemas.iter());
    assert!(!graph.is_chordal());
    assert!(bp::bp_acyclic(SemiringKind::SumProduct, &refs).is_err());

    // Junction tree fixes it: triangulate (Figure 14), build cliques
    // (Figure 15), populate, calibrate — and marginals are exact.
    let tri = triangulate::triangulate(&graph, &[tid, sid]);
    assert!(tri.filled.is_chordal());
    let jt = JunctionTree::from_schemas(&schemas, Some(&[tid, sid])).unwrap();
    assert_eq!(jt.cliques.len(), 3);
    let sr = SemiringKind::SumProduct;
    let mut tables = jt.populate_in(&mut ExecContext::new(sr), &refs, &cat).unwrap();
    bp::calibrate_in(&mut ExecContext::new(sr), &mut tables, &jt.tree).unwrap();

    let cx = &mut ExecContext::new(sr);
    let mut view = rels[0].clone();
    for r in &rels[1..] {
        view = ops::product_join(cx, &view, r).unwrap();
    }
    for v in [pid, sid, wid, cid, tid] {
        let want = ops::group_by(cx, &view, &[v]).unwrap();
        let table = tables.iter().find(|t| t.schema().contains(v)).unwrap();
        let got = ops::group_by(cx, table, &[v]).unwrap();
        assert!(want.function_eq(&got), "marginal diverged for {v}");
    }

    // VE-cache handles the cyclic schema transparently (it implements the
    // same triangulation, Theorem 10).
    let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
    for v in [pid, sid, wid, cid, tid] {
        let want = ops::group_by(cx, &view, &[v]).unwrap();
        assert!(want.function_eq(&cache.answer(v).unwrap()));
    }
}

/// Log-space inference end-to-end: posteriors computed with log-measure
/// CPTs in the `LogSumProduct` semiring match linear-space inference after
/// exponentiation — numerical-stability path for deep networks.
#[test]
fn log_space_inference_matches_linear_space() {
    let bn = BayesNet::random(8, 2, 2, 17);
    let sr_lin = SemiringKind::SumProduct;
    let sr_log = SemiringKind::LogSumProduct;
    let target = *bn.nodes().last().unwrap();

    // Log-transform every CPT measure (0 probability -> -inf = log zero).
    let log_cpts: Vec<FunctionalRelation> = bn
        .cpts()
        .iter()
        .map(|cpt| {
            let mut out = FunctionalRelation::new(cpt.name().to_string(), cpt.schema().clone());
            for (row, m) in cpt.rows() {
                out.push_row(row, m.ln()).unwrap();
            }
            out
        })
        .collect();

    let lin_joint = bn.joint().unwrap();
    let want = ops::group_by(&mut ExecContext::new(sr_lin), &lin_joint, &[target]).unwrap();

    let log_cx = &mut ExecContext::new(sr_log);
    let mut log_joint = log_cpts[0].clone();
    for cpt in &log_cpts[1..] {
        log_joint = ops::product_join(log_cx, &log_joint, cpt).unwrap();
    }
    let got_log = ops::group_by(log_cx, &log_joint, &[target]).unwrap();
    for (row, lm) in got_log.rows() {
        let linear = want.lookup(row).unwrap();
        assert!(
            approx_eq(lm.exp(), linear),
            "log-space {} vs linear {}",
            lm.exp(),
            linear
        );
    }

    // The VE-cache machinery also works in log space (division = subtraction).
    let refs: Vec<&FunctionalRelation> = log_cpts.iter().collect();
    let cache = VeCache::build_in(&mut ExecContext::new(sr_log), &refs, None).unwrap();
    let marg = cache.answer(target).unwrap();
    for (row, lm) in marg.rows() {
        assert!(approx_eq(lm.exp(), want.lookup(row).unwrap()));
    }
}

/// Tropical inference end-to-end: most-probable-explanation style queries
/// via the max-product semiring on CPTs.
#[test]
fn max_product_inference() {
    let bn = BayesNet::sprinkler();
    let sr = SemiringKind::MaxProduct;
    let joint = bn.joint().unwrap();
    let rain = bn.catalog().var("rain").unwrap();

    // max over all other vars of the joint, per rain value.
    let want = ops::group_by(&mut ExecContext::new(sr), &joint, &[rain]).unwrap();

    // Same via a VE-cache built in max-product.
    let cpts: Vec<&FunctionalRelation> = bn.cpts().iter().collect();
    let cache = VeCache::build_in(&mut ExecContext::new(sr), &cpts, None).unwrap();
    let got = cache.answer(rain).unwrap();
    assert!(want.function_eq(&got));
}

/// The evidence triangle `tri = r1(a,b)·r2(b,c)·r3(c,a)` at side `d`:
/// the three relations as complete grids, and the same rows pushed one by
/// one (explicit rows, on which a selection is a row filter).
fn triangle(d: u64) -> (Database, [FunctionalRelation; 3], [FunctionalRelation; 3]) {
    let db = Database::new();
    let [a, b, c] = ["a", "b", "c"].map(|v| db.add_var(v, d).unwrap());
    let catalog = db.snapshot().catalog().clone();
    let grids = [("r1", [a, b]), ("r2", [b, c]), ("r3", [c, a])].map(|(name, vars)| {
        let schema = Schema::new(vars.to_vec()).unwrap();
        FunctionalRelation::complete(name, schema, &catalog, |row| {
            0.5 + ((row[0] * 7 + row[1] * 3) % 11) as f64 / 8.0
        })
    });
    let rows = grids.clone().map(|g| {
        let pushed = g.rows().map(|(row, m)| (row.to_vec(), m));
        FunctionalRelation::from_rows(g.name(), g.schema().clone(), pushed).unwrap()
    });
    (db, grids, rows)
}

/// A database holding `rels` under the `tri` view.
fn tri_db(
    db: &Database,
    rels: &[FunctionalRelation; 3],
    dense: DenseMode,
    repr: ReprMode,
) -> Database {
    let out = Database::from_parts(db.snapshot().catalog().clone(), Default::default())
        .with_dense(dense)
        .with_repr(repr);
    for r in rels {
        out.insert_relation(r.clone()).unwrap();
    }
    out.create_view("tri", &["r1", "r2", "r3"], Combine::Product)
        .unwrap();
    out
}

fn answer(db: &Database, sql: &str) -> FunctionalRelation {
    match db.run_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        SqlOutcome::Answer(ans) => ans.relation,
        other => panic!("{sql}: not an answer: {other:?}"),
    }
}

/// Degenerate evidence on complete grids — constants outside the domain,
/// repeated and contradictory predicates on one variable, every axis
/// pinned, pinned group variables — answers exactly what the row filter
/// and `naive_mpf` over explicit rows answer, under every dense and
/// sparse mode, with no panic.
#[test]
fn degenerate_evidence_on_grids_matches_the_row_filter() {
    let d = 9;
    let (db, grids, rows) = triangle(d);
    let catalog = db.snapshot().catalog().clone();
    let var = |n: &str| catalog.var(n).unwrap();
    let on_grids = [
        tri_db(&db, &grids, DenseMode::Auto, ReprMode::Auto),
        tri_db(&db, &grids, DenseMode::Off, ReprMode::Auto),
        tri_db(&db, &grids, DenseMode::Auto, ReprMode::Off),
    ];
    let on_rows = tri_db(&db, &rows, DenseMode::Auto, ReprMode::Auto);
    // (select list, evidence, group variables)
    type Case<'a> = (&'a str, &'a [(&'a str, u32)], &'a [&'a str]);
    let cases: [Case; 11] = [
        ("a", &[("b", 8)], &["a"]),
        ("a", &[("b", 9)], &["a"]),
        ("a", &[("b", 300)], &["a"]),
        ("a", &[("b", 1), ("b", 1)], &["a"]),
        ("a", &[("b", 1), ("b", 2)], &["a"]),
        ("a", &[("a", 3), ("b", 4), ("c", 5)], &["a"]),
        ("b, c", &[("a", 3), ("b", 4), ("c", 5)], &["b", "c"]),
        ("b", &[("b", 3)], &["b"]),
        ("a, b", &[("b", 3)], &["a", "b"]),
        ("a, b", &[("b", 3), ("a", 0)], &["a", "b"]),
        ("c, a", &[("b", 3), ("a", 7), ("b", 3)], &["c", "a"]),
    ];
    for (agg, sr) in [
        ("sum", SemiringKind::SumProduct),
        ("max", SemiringKind::MaxProduct),
    ] {
        for (select, evidence, group) in cases {
            let cond: Vec<String> = evidence.iter().map(|(v, c)| format!("{v} = {c}")).collect();
            let sql = format!(
                "select {select}, {agg}(f) from tri where {} group by {select}",
                cond.join(" and ")
            );
            let preds: Vec<_> = evidence.iter().map(|&(v, c)| (var(v), c)).collect();
            let group: Vec<_> = group.iter().map(|&v| var(v)).collect();
            let refs: Vec<&FunctionalRelation> = rows.iter().collect();
            let naive = ops::naive_mpf(&mut ExecContext::new(sr), &refs, &preds, &group).unwrap();
            let filtered = answer(&on_rows, &sql);
            assert!(filtered.function_eq(&naive), "{sql}: row filter vs naive");
            for db in &on_grids {
                let got = answer(db, &sql);
                assert!(got.function_eq(&naive), "{sql}: {got:?}\nwant {naive:?}");
            }
            let out_of_domain = evidence.iter().any(|&(_, c)| u64::from(c) >= d);
            let contradictory = evidence
                .iter()
                .any(|&(v, c)| evidence.iter().any(|&(w, e)| v == w && c != e));
            assert_eq!(naive.is_empty(), out_of_domain || contradictory, "{sql}");
            // A pinned group variable keeps its pinned value.
            for &g in &group {
                if let Some(&(_, c)) = preds.iter().find(|p| p.0 == g) {
                    let got = answer(&on_grids[0], &sql);
                    let i = got.schema().position(g).unwrap();
                    assert!(got.rows().all(|(row, _)| row[i] == c), "{sql}");
                }
            }
        }
    }
}
