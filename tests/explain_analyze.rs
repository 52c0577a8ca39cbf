//! Snapshot + property tests for `Database::explain_analyze` (the traced
//! half of the request API). The snapshots are normalized — wall times and
//! the worker count vary run to run and with `MPF_THREADS` — so the same
//! golden text must hold at `MPF_THREADS=1` and `MPF_THREADS=4`.

use mpf::algebra::OpRepr;
use mpf::datagen::{SupplyChain, SupplyChainConfig};
use mpf::engine::{
    Database, DenseMode, Query, QueryRequest, ReprMode, SpanKind, Strategy, TraceLevel,
};
use mpf::infer::BayesNet;
use mpf::optimizer::Heuristic;
use mpf::semiring::kernel::SimdTier;
use mpf::semiring::Combine;
use mpf::storage::{FunctionalRelation, Schema};
use proptest::prelude::*;

/// Strip the run-dependent parts of an explain-analyze rendering: every
/// `time=<duration>` actual, the `-- workers:` line (tracks MPF_THREADS),
/// and the `-- optimize/execute` timing line.
fn normalize(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with("-- workers:") || line.starts_with("-- optimize:") {
            continue;
        }
        let mut rest = line;
        while let Some(i) = rest.find("time=") {
            out.push_str(&rest[..i]);
            out.push_str("time=_");
            let tail = &rest[i + "time=".len()..];
            let end = tail
                .find([',', ')'])
                .unwrap_or(tail.len());
            rest = &tail[end..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

fn supply_chain_db() -> Database {
    let sc = SupplyChain::generate(SupplyChainConfig {
        scale: 0.004,
        ctdeals_density: 0.7,
        ..Default::default()
    });
    let db = Database::from_parts(sc.catalog, sc.store)
        .with_dense(DenseMode::Auto)
        .with_repr(ReprMode::Auto);
    db.run_sql(
        "create mpfview invest as (select pid, sid, wid, cid, tid, \
         measure = (* c.price, l.quantity, w.overhead, ct.discount, t.overhead) \
         from contracts c, location l, warehouses w, ctdeals ct, transporters t \
         where c.pid = l.pid and l.wid = w.wid and w.cid = ct.cid and ct.tid = t.tid)",
    )
    .unwrap();
    db
}

/// The sprinkler Bayes net as an engine database: the joint distribution is
/// the product view over the four CPTs (Section 4 of the paper).
fn sprinkler_db() -> Database {
    let bn = BayesNet::sprinkler();
    let db = Database::from_parts(bn.catalog().clone(), Default::default())
        .with_dense(DenseMode::Auto)
        .with_repr(ReprMode::Auto);
    for cpt in bn.cpts() {
        db.insert_relation(cpt.clone()).unwrap();
    }
    db.create_view(
        "joint",
        &["cpt_cloudy", "cpt_sprinkler", "cpt_rain", "cpt_wet"],
        Combine::Product,
    )
    .unwrap();
    db
}

#[test]
fn supply_chain_explain_analyze_snapshot() {
    let db = supply_chain_db();
    let text = db
        .explain_analyze(
            Query::on("invest")
                .group_by(["wid"])
                .strategy(Strategy::VePlus(Heuristic::Degree)),
        )
        .unwrap();
    let expected = "\
-- strategy: ve+(degree)
-- estimated cost: 17016.00
-- rows scanned=4428, processed=4536, peak intermediate=20
JoinAgg (Fused)  (est rows=20.0, rows=20, cells=40, time=_, repr=sparse, nest=stream, fused=true)
  ProductJoin (SparseTensor)  (est rows=20.0, rows=20, cells=60, time=_, repr=sparse, keyed=built)
    JoinAgg (Fused)  (est rows=4.0, rows=4, cells=8, time=_, repr=sparse, nest=scatter, keyed=built, fused=true)
      Scan transporters  (est rows=2.0, rows=2, cells=4, time=_, repr=rows)
      Scan ctdeals  (est rows=6.0, rows=6, cells=18, time=_, repr=rows)
    Scan warehouses  (est rows=20.0, rows=20, cells=60, time=_, repr=rows)
  JoinAgg (Fused)  (est rows=20.0, rows=20, cells=40, time=_, repr=sparse, nest=scatter, keyed=built, fused=true)
    Scan contracts  (est rows=400.0, rows=400, cells=1200, time=_, repr=rows)
    Scan location  (est rows=4000.0, rows=4000, cells=12000, time=_, repr=rows)
";
    assert_eq!(normalize(&text), expected, "got:\n{}", normalize(&text));
}

#[test]
fn bayes_net_explain_analyze_snapshot() {
    let db = sprinkler_db();
    let text = db
        .explain_analyze(
            Query::on("joint")
                .group_by(["rain"])
                .filter("wet", 1)
                .strategy(Strategy::VePlus(Heuristic::Degree)),
        )
        .unwrap();
    let expected = "\
-- strategy: ve+(degree)
-- estimated cost: 86.00
-- rows scanned=18, processed=52, peak intermediate=8
JoinAgg (Fused)  (est rows=2.0, rows=2, cells=4, time=_, repr=dense, nest=tile, simd=base, fused=true)
  Select  (est rows=4.0, rows=4, cells=16, time=_, repr=dense, pinned=wet)
    Scan cpt_wet  (est rows=8.0, rows=8, cells=32, time=_, repr=rows)
  ProductJoin (Dense)  (est rows=8.0, rows=8, cells=32, time=_, repr=dense)
    ProductJoin (Dense)  (est rows=4.0, rows=4, cells=12, time=_, repr=dense)
      Scan cpt_cloudy  (est rows=2.0, rows=2, cells=4, time=_, repr=rows)
      Scan cpt_sprinkler  (est rows=4.0, rows=4, cells=12, time=_, repr=rows)
    Scan cpt_rain  (est rows=4.0, rows=4, cells=12, time=_, repr=rows)
";
    assert_eq!(normalize(&text), expected, "got:\n{}", normalize(&text));
}

/// The benchmark spine's dense triangle `tri = r1(a,b)·r2(b,c)·r3(c,a)`
/// over complete relations, at side `d`.
fn triangle_db(d: u64) -> Database {
    let db = Database::new()
        .with_dense(DenseMode::Auto)
        .with_repr(ReprMode::Auto);
    let [a, b, c] = ["a", "b", "c"].map(|v| db.add_var(v, d).unwrap());
    let catalog = db.snapshot().catalog().clone();
    for (name, vars) in [("r1", [a, b]), ("r2", [b, c]), ("r3", [c, a])] {
        let schema = Schema::new(vars.to_vec()).unwrap();
        let rel = FunctionalRelation::complete(name, schema, &catalog, |row| {
            1.0 + (row[0] * 4 + row[1]) as f64 / 8.0
        });
        db.insert_relation(rel).unwrap();
    }
    db.create_view("tri", &["r1", "r2", "r3"], Combine::Product)
        .unwrap();
    db
}

/// A fused elimination step that runs on the dense kernels reports the
/// loop nest it took (`nest=tile`: register tiles along output axes) and
/// the instruction-set tier it ran on — the D³
/// step of every `tri` marginal. Steps this small stay on the base tier
/// on every host.
#[test]
fn dense_triangle_explain_analyze_snapshot() {
    let db = triangle_db(4);
    let text = db
        .explain_analyze(
            Query::on("tri")
                .group_by(["a"])
                .strategy(Strategy::Ve(Heuristic::Degree)),
        )
        .unwrap();
    let expected = "\
-- strategy: ve(degree)
-- estimated cost: 300.00
-- rows scanned=48, processed=92, peak intermediate=16
GroupBy (DenseAgg)  (est rows=4.0, rows=4, cells=8, time=_, repr=dense)
  JoinAgg (Fused)  (est rows=4.0, rows=4, cells=8, time=_, repr=dense, nest=cell, simd=base, fused=true)
    Scan r3  (est rows=16.0, rows=16, cells=48, time=_, repr=rows)
    JoinAgg (Fused)  (est rows=16.0, rows=16, cells=48, time=_, repr=dense, nest=tile, simd=base, fused=true)
      Scan r1  (est rows=16.0, rows=16, cells=48, time=_, repr=rows)
      Scan r2  (est rows=16.0, rows=16, cells=48, time=_, repr=rows)
";
    assert_eq!(normalize(&text), expected, "got:\n{}", normalize(&text));
}

/// Evidence on a complete grid is a pinned slice: the selection runs as
/// a dense operator tagged with the variable it pinned, and both
/// elimination steps that read a slice stay on the dense kernels.
#[test]
fn dense_triangle_evidence_explain_analyze_snapshot() {
    let db = triangle_db(4);
    let q = Query::on("tri")
        .group_by(["a"])
        .filter("b", 2)
        .strategy(Strategy::Ve(Heuristic::Degree));
    let text = db.explain_analyze(q.clone()).unwrap();
    let expected = "\
-- strategy: ve(degree)
-- estimated cost: 172.00
-- rows scanned=48, processed=84, peak intermediate=4
GroupBy (DenseAgg)  (est rows=4.0, rows=4, cells=8, time=_, repr=dense)
  JoinAgg (Fused)  (est rows=4.0, rows=4, cells=8, time=_, repr=dense, nest=tile, simd=base, fused=true)
    Select  (est rows=4.0, rows=4, cells=12, time=_, repr=dense, pinned=b)
      Scan r1  (est rows=16.0, rows=16, cells=48, time=_, repr=rows)
    JoinAgg (Fused)  (est rows=4.0, rows=4, cells=12, time=_, repr=dense, nest=tile, simd=base, fused=true)
      Select  (est rows=4.0, rows=4, cells=12, time=_, repr=dense, pinned=b)
        Scan r2  (est rows=16.0, rows=16, cells=48, time=_, repr=rows)
      Scan r3  (est rows=16.0, rows=16, cells=48, time=_, repr=rows)
";
    assert_eq!(normalize(&text), expected, "got:\n{}", normalize(&text));

    // `Answer::trace` carries the same tags, the pinned variable by id.
    let b = db.snapshot().catalog().var("b").unwrap();
    let ans = db
        .run(QueryRequest::from(&q).trace(TraceLevel::Spans))
        .unwrap();
    let mut selects = 0;
    ans.trace.as_ref().unwrap().for_each(&mut |s| {
        if s.kind == SpanKind::Select {
            selects += 1;
            assert_eq!((s.repr, s.pinned.as_slice()), (OpRepr::Dense, &[b][..]));
        } else if s.kind != SpanKind::Scan {
            assert_eq!(s.repr, OpRepr::Dense, "{}", s.label);
        }
    });
    assert_eq!(selects, 2);
}

/// At side 64 the D³ step clears the tile nest's work gate and runs on
/// the widest tier the host supports; explain-analyze names it.
#[test]
fn dense_triangle_explain_analyze_names_the_host_tier() {
    let db = triangle_db(64);
    let text = db
        .explain_analyze(
            Query::on("tri")
                .group_by(["a"])
                .strategy(Strategy::Ve(Heuristic::Degree)),
        )
        .unwrap();
    let tier = SimdTier::detect().name();
    let d3 = format!(
        "JoinAgg (Fused)  (est rows=4096.0, rows=4096, cells=12288, time=_, repr=dense, \
         nest=tile, simd={tier}, fused=true)"
    );
    let text = normalize(&text);
    assert!(text.contains(&d3), "want `{d3}` in:\n{text}");
    assert!(
        text.contains("nest=cell, simd=base, fused=true"),
        "the D² step keeps the cell nest:\n{text}"
    );
}

/// Every traced operator feeds the same accounting as `ExecStats`, so the
/// span tree must reconcile exactly with the answer's stats: scan spans sum
/// to `rows_scanned`, operator spans sum to `rows_processed`, and per-kind
/// span counts equal the per-kind operator counters. A fused
/// join→marginalize span records under `GroupBy` but accounts as one join
/// *plus* one group-by, so it increments both expected counts.
fn assert_trace_reconciles(db: &Database, q: &Query) {
    let ans = db
        .run(QueryRequest::from(q).trace(TraceLevel::Spans))
        .unwrap();
    let tree = ans.trace.as_ref().expect("trace requested");
    let (mut scanned, mut processed) = (0u64, 0u64);
    let (mut scans, mut joins, mut group_bys, mut selects) = (0u64, 0u64, 0u64, 0u64);
    tree.for_each(&mut |s| match s.kind {
        SpanKind::Scan => {
            scanned += s.rows_out;
            scans += 1;
        }
        SpanKind::Join => {
            processed += s.rows_in + s.rows_out;
            joins += 1;
        }
        SpanKind::GroupBy => {
            processed += s.rows_in + s.rows_out;
            group_bys += 1;
            if s.fused {
                joins += 1;
            }
        }
        SpanKind::Select => {
            processed += s.rows_in + s.rows_out;
            selects += 1;
        }
        SpanKind::Phase => {}
    });
    assert_eq!(scanned, ans.stats.rows_scanned, "scan spans vs rows_scanned");
    assert_eq!(
        processed, ans.stats.rows_processed,
        "operator spans vs rows_processed"
    );
    assert_eq!(joins, ans.stats.joins, "join span count");
    assert_eq!(group_bys, ans.stats.group_bys, "group-by span count");
    assert_eq!(selects, ans.stats.selects, "select span count");
    assert!(scans > 0, "a query must scan something");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn span_row_counts_sum_to_exec_stats(
        strategy_idx in 0usize..5,
        query_idx in 0usize..4,
    ) {
        let strategies = [
            Strategy::Naive,
            Strategy::Cs,
            Strategy::CsPlusNonlinear,
            Strategy::Ve(Heuristic::Degree),
            Strategy::VePlus(Heuristic::Width),
        ];
        let queries = [
            Query::on("invest").group_by(["wid"]),
            Query::on("invest").group_by(["cid"]).filter("tid", 1),
            Query::on("invest").group_by(["sid", "tid"]),
            Query::on("invest").group_by([] as [&str; 0]),
        ];
        let db = supply_chain_db();
        let q = queries[query_idx].clone().strategy(strategies[strategy_idx]);
        assert_trace_reconciles(&db, &q);
    }
}

#[test]
fn bayes_net_trace_reconciles_too() {
    let db = sprinkler_db();
    for s in [Strategy::Cs, Strategy::VePlus(Heuristic::Degree)] {
        let q = Query::on("joint")
            .group_by(["rain"])
            .filter("wet", 1)
            .strategy(s);
        assert_trace_reconciles(&db, &q);
    }
}
