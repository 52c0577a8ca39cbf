//! Property tests for the dense odometer kernels: on support-exact inputs
//! the dense join and marginalization equal the hash operators for every
//! semiring — bit for bit wherever both walk a cell's eliminated axes in
//! the same order, as functions otherwise — equal the sparse step bit
//! for bit, are *bit-identical across thread counts*, and charge the
//! budgets identically (same typed error on a trip, same rows-processed
//! accounting). On inputs that are not support-exact every [`DenseMode`]
//! falls back to the sparse operators, so answers never depend on the
//! mode.
//!
//! Modes are pinned on the [`ExecContext`].

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use mpf_algebra::{
    dense, ops, AlgebraError, CancelToken, DenseMode, ExecContext, ExecLimits, Executor, OpRepr,
    PhysicalPlan, Plan, RelationStore, ReprMode, ResourceKind, TraceLevel,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];

/// The fault registry is process-global. Under `fault-injection` every test
/// here holds this lock while it runs, so a fault armed by the tests in
/// `faults` never fires inside another test's operators.
fn lock() -> Option<MutexGuard<'static, ()>> {
    static LOCK: Mutex<()> = Mutex::new(());
    cfg!(feature = "fault-injection").then(|| LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Exact equality up to row and column order — no float tolerance.
fn bit_identical(a: &FunctionalRelation, b: &FunctionalRelation) -> bool {
    // Each row's values in `a`'s variable order, and its measure's bits.
    let cells = |rel: &FunctionalRelation| -> Option<BTreeMap<Vec<u32>, u64>> {
        let pos: Vec<usize> =
            a.schema().iter().map(|v| rel.schema().position(v).ok()).collect::<Option<_>>()?;
        let cell = |(row, m): (&[u32], f64)| (pos.iter().map(|&p| row[p]).collect(), m.to_bits());
        Some(rel.rows().map(cell).collect())
    };
    a.schema().arity() == b.schema().arity() && a.len() == b.len() && cells(a) == cells(b)
}

/// The same schema, the same rows in the same order and the same measure
/// bits: what one kernel gives at every thread count.
fn same_bits_in_order(a: &FunctionalRelation, b: &FunctionalRelation) -> bool {
    let bits = |(row, m): (&[u32], f64)| (row.to_vec(), m.to_bits());
    a.schema() == b.schema() && a.rows().map(bits).eq(b.rows().map(bits))
}

/// Complete r1(a, b) and r2(b, c) over 3-value domains with the given
/// measures (support-exact join inputs: every grid point is a row and the
/// shared variable spans the same range on both sides).
fn rels(
    sr: SemiringKind,
    m1: &[u8],
    m2: &[u8],
) -> (FunctionalRelation, FunctionalRelation, [VarId; 3]) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 3).unwrap();
    let b = cat.add_var("b", 3).unwrap();
    let c = cat.add_var("c", 3).unwrap();
    // BoolOrAnd measures must stay in {0, 1}. A zero measure is `−0.0`,
    // so a kernel that canonicalizes signed zeros shows in the bits.
    let conv = |m: u8| {
        let v = if sr == SemiringKind::BoolOrAnd {
            (m % 2) as f64
        } else {
            m as f64
        };
        if v == 0.0 {
            -0.0
        } else {
            v
        }
    };
    let r1 = FunctionalRelation::from_rows(
        "r1",
        Schema::new(vec![a, b]).unwrap(),
        (0..9u32).map(|i| (vec![i / 3, i % 3], conv(m1[i as usize]))),
    )
    .unwrap();
    let r2 = FunctionalRelation::from_rows(
        "r2",
        Schema::new(vec![b, c]).unwrap(),
        (0..9u32).map(|i| (vec![i / 3, i % 3], conv(m2[i as usize]))),
    )
    .unwrap();
    (r1, r2, [a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense join + marginalization match the hash operators for every
    /// semiring at every thread count on support-exact inputs, with the
    /// dense output bit-identical across thread counts.
    #[test]
    fn dense_operators_match_sparse(
        m1 in proptest::collection::vec(0u8..10, 9),
        m2 in proptest::collection::vec(0u8..10, 9),
        group_var in 0usize..3,
    ) {
        let _g = lock();
        for sr in SemiringKind::ALL {
            let (r1, r2, vars) = rels(sr, &m1, &m2);
            let gv = [vars[group_var]];
            let want_join = ops::product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
            let want_agg = ops::group_by(&mut ExecContext::new(sr), &want_join, &gv).unwrap();
            let mut base: Option<(FunctionalRelation, FunctionalRelation)> = None;
            for t in THREADS {
                let mut cx = ExecContext::new(sr).with_threads(t);
                let got_join = ops::step(&mut cx, &[&r1, &r2], None, OpRepr::Dense).unwrap();
                let got_agg = ops::step(&mut cx, &[&got_join], Some(&gv), OpRepr::Dense).unwrap();
                prop_assert_eq!(cx.stats().dense_joins, 1, "dense path taken");
                prop_assert_eq!(cx.stats().dense_group_bys, 1);
                // The same products as the hash join, and the same folds
                // as the hash group-by over the dense join's odometer rows...
                prop_assert!(bit_identical(&want_join, &got_join), "join: sr {sr:?} threads {t}");
                let over_dense = ops::group_by(&mut ExecContext::new(sr), &got_join, &gv).unwrap();
                prop_assert!(bit_identical(&over_dense, &got_agg), "agg: sr {sr:?} threads {t}");
                // ...and the hash pipeline's answer. Its join emits rows
                // probe-major (`r2`'s `b, c` outside `r1`'s `a`), so its
                // group-by folds in the dense step's merge order (shared
                // `b`, then `a`, then `c`) onto `a` and `c`; onto `b` it
                // folds `c` outside `a`, within tolerance.
                if group_var != 1 {
                    prop_assert!(bit_identical(&want_agg, &got_agg), "agg: sr {sr:?} threads {t}");
                } else {
                    prop_assert!(want_agg.function_eq(&got_agg), "agg: sr {sr:?} threads {t}");
                }
                // ...and the dense results never vary with the thread
                // count, down to the bits.
                match &base {
                    None => base = Some((got_join, got_agg)),
                    Some((j, g)) => {
                        prop_assert!(bit_identical(&got_join, j), "join bits: sr {sr:?}");
                        prop_assert!(bit_identical(&got_agg, g), "agg bits: sr {sr:?}");
                    }
                }
            }
        }
    }

    /// Whatever the dense mode, steps starting their chain at the dense
    /// kernel answer identically, bit for bit: Off runs the sparse kernel,
    /// which folds in the dense kernel's order, and Auto refuses inputs
    /// that are not support-exact, so mode only ever picks the kernel,
    /// never the answer. Holes are punched in r1 (making it
    /// incomplete) to exercise the fallback side.
    #[test]
    fn mode_never_changes_answers(
        m1 in proptest::collection::vec(0u8..10, 9),
        m2 in proptest::collection::vec(0u8..10, 9),
        hole_picks in proptest::collection::vec(0usize..9, 0..4),
        sr_idx in 0usize..7,
    ) {
        let _g = lock();
        let holes: std::collections::BTreeSet<usize> = hole_picks.into_iter().collect();
        let sr = SemiringKind::ALL[sr_idx];
        let (r1, r2, [_, b, _]) = rels(sr, &m1, &m2);
        let punched = FunctionalRelation::from_rows(
            "r1",
            r1.schema().clone(),
            r1.rows().enumerate().filter(|(i, _)| !holes.contains(i)).map(|(_, (row, m))| (row.to_vec(), m)),
        )
        .unwrap();
        for input in [&r1, &punched] {
            let mut answers: Vec<FunctionalRelation> = Vec::new();
            for mode in [DenseMode::Off, DenseMode::Auto] {
                let mut cx = ExecContext::new(sr).with_dense(mode);
                let j = ops::step(&mut cx, &[input, &r2], None, OpRepr::Dense).unwrap();
                let g = ops::step(&mut cx, &[&j], Some(&[b]), OpRepr::Dense).unwrap();
                if mode == DenseMode::Off {
                    prop_assert_eq!(cx.stats().dense_joins + cx.stats().dense_group_bys, 0);
                }
                if !dense::join_support_exact(input, &r2) {
                    prop_assert_eq!(cx.stats().dense_joins, 0, "incomplete input fell back");
                }
                answers.push(g);
            }
            for other in &answers[1..] {
                prop_assert!(bit_identical(&answers[0], other), "sr {sr:?} holes {holes:?}");
            }
        }
    }
}

/// Sides of [`big_fixture`]: at 8 the join's 8^5 = 32 768 products stay
/// on one worker; at 19 its 19^5 ≈ 2.5·10^6 products are two
/// [`dense::PARALLEL_MIN_WORK`]s, so at 4 threads the step fans out to
/// two workers.
const BIG_SIDES: [u32; 2] = [8, 19];

/// Two complete `side`^3-row relations `r1(a, b, c)` and `r2(c, d, e)`:
/// their join is a `side`^5-cell output grid.
fn big_fixture(side: u32) -> (FunctionalRelation, FunctionalRelation, [VarId; 5]) {
    let mut cat = Catalog::new();
    let vars: Vec<VarId> = ["a", "b", "c", "d", "e"]
        .iter()
        .map(|n| cat.add_var(n, u64::from(side)).unwrap())
        .collect();
    let &[a, b, c, d, e] = vars.as_slice() else { unreachable!() };
    let cell = |row: &[u32]| (row[0] * side * side + row[1] * side + row[2]) as f64;
    let r1 = FunctionalRelation::complete("r1", Schema::new(vec![a, b, c]).unwrap(), &cat, |row| {
        0.1 + cell(row) / 7.0
    });
    let r2 = FunctionalRelation::complete("r2", Schema::new(vec![c, d, e]).unwrap(), &cat, |row| {
        0.3 + cell(row) / 11.0
    });
    (r1, r2, [a, b, c, d, e])
}

/// The parallel kernels are bit-identical to the sequential ones, below
/// the fan-out gate and on an output large enough to engage them, for the
/// semirings whose additions are float-order-sensitive.
#[test]
fn parallel_dense_kernels_match_sequential_bits() {
    let _g = lock();
    for side in BIG_SIDES {
        let (r1, r2, [_, b, _, d, _]) = big_fixture(side);
        for sr in [SemiringKind::SumProduct, SemiringKind::LogSumProduct] {
            let mut seq = ExecContext::new(sr).with_threads(1);
            let j1 = ops::step(&mut seq, &[&r1, &r2], None, OpRepr::Dense).unwrap();
            let g1 = ops::step(&mut seq, &[&j1], Some(&[b, d]), OpRepr::Dense).unwrap();
            let mut par = ExecContext::new(sr).with_threads(4);
            let j4 = ops::step(&mut par, &[&r1, &r2], None, OpRepr::Dense).unwrap();
            let g4 = ops::step(&mut par, &[&j4], Some(&[b, d]), OpRepr::Dense).unwrap();
            assert_eq!(seq.stats().dense_joins, 1);
            assert_eq!(par.stats().dense_joins, 1);
            assert!(same_bits_in_order(&j1, &j4), "{sr:?} side {side} join");
            assert!(same_bits_in_order(&g1, &g4), "{sr:?} side {side} agg");
            // The hash join stores the same products. Its rows come
            // probe-major (`r2`'s `c, d, e` outside `r1`'s `a, b`), so the
            // hash group-by folds `c, e` outside `a` where the dense step
            // folds `c, a, e`: the same function, within tolerance. Checked
            // below the gate only: the hash pipeline over the bigger side's
            // 2.5·10^6 rows is most of this suite's debug-build time.
            if side != BIG_SIDES[0] {
                continue;
            }
            let sj = ops::product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
            let sg = ops::group_by(&mut ExecContext::new(sr), &sj, &[b, d]).unwrap();
            assert!(bit_identical(&sj, &j4), "{sr:?} side {side} hash join parity");
            assert!(sg.function_eq(&g4), "{sr:?} side {side} hash agg parity");
        }
    }
}

/// A join stores its products unchecked in every form, so two `1e200`
/// grids join to `+∞` rows alike in the dense, sparse and hash forms; the
/// marginalization above each one rejects the `+∞` sums with a typed
/// `NonFiniteMeasure`.
#[test]
fn overflowing_products_are_joined_then_rejected_by_the_group_by() {
    let _g = lock();
    let sr = SemiringKind::SumProduct;
    let (r1, r2, [a, _, _]) = rels(sr, &[1u8; 9], &[1u8; 9]);
    let big = |r: &FunctionalRelation| {
        let rows = r.rows().map(|(row, _)| (row.to_vec(), 1e200));
        FunctionalRelation::from_rows(r.name(), r.schema().clone(), rows).unwrap()
    };
    let (r1, r2) = (big(&r1), big(&r2));
    let infinite = |j: &FunctionalRelation| j.len() == 27 && j.measures().iter().all(|&m| m == f64::INFINITY);

    let mut dx = ExecContext::new(sr);
    let dj = ops::step(&mut dx, &[&r1, &r2], None, OpRepr::Dense).unwrap();
    assert_eq!(dx.stats().dense_joins, 1, "the dense join ran");
    assert!(infinite(&dj), "dense join: {dj:?}");
    let mut sx = ExecContext::new(sr).with_dense(DenseMode::Off);
    let sj = ops::step(&mut sx, &[&r1, &r2], None, OpRepr::Sparse).unwrap();
    assert_eq!(sx.stats().sparse_joins, 1, "the sparse join ran");
    assert!(infinite(&sj), "sparse join: {sj:?}");
    let mut hx = ExecContext::new(sr);
    let hj = ops::product_join(&mut hx, &r1, &r2).unwrap();
    assert!(infinite(&hj), "hash join: {hj:?}");
    assert!(bit_identical(&dj, &sj) && bit_identical(&dj, &hj), "same rows in every form");

    let rejected = |r: Result<FunctionalRelation, AlgebraError>, op: &str| match r {
        Err(AlgebraError::NonFiniteMeasure { op: got, value }) => {
            assert_eq!((got, value), (op, f64::INFINITY));
        }
        other => panic!("{op}: expected NonFiniteMeasure, got {other:?}"),
    };
    rejected(ops::step(&mut dx, &[&dj], Some(&[a]), OpRepr::Dense), "dense::agg");
    rejected(ops::step(&mut sx, &[&sj], Some(&[a]), OpRepr::Sparse), "sparse::agg");
    rejected(ops::group_by(&mut hx, &hj, &[a]), "group_by");
}

/// Physical plans annotated dense by the planner execute through the
/// interpreter to the same answer and accounting as the all-hash plan, at
/// every thread count. Over inputs that are not grids the same dense
/// join and one-input steps decline to the sparse kernel, the fallback
/// of the fused dense step, and to the hash operators under
/// [`ReprMode::Off`]; the spans record the representation that ran.
#[test]
fn dense_plans_match_hash_plans_through_the_interpreter() {
    let _g = lock();
    let sr = SemiringKind::SumProduct;
    let (r1, r2, [_, b, _]) = rels(sr, &[3u8; 9], &[5u8; 9]);
    // r1 without its first row: no longer a grid.
    let rows = r1.rows().skip(1).map(|(row, m)| (row.to_vec(), m));
    let holed = FunctionalRelation::from_rows("holed", r1.schema().clone(), rows).unwrap();
    let mut store = RelationStore::new();
    store.insert(r1);
    store.insert(r2);
    store.insert(holed);
    let dense_plan = |left: &str| {
        let logical = Plan::group_by(Plan::join(Plan::scan(left), Plan::scan("r2")), vec![b]);
        let physical = PhysicalPlan::from_logical(&logical, &mut |_| OpRepr::Dense);
        (logical, physical)
    };
    let (logical, plan) = dense_plan("r1");
    let (want, want_stats) = Executor::new(&store, sr)
        .execute_physical(&PhysicalPlan::default_hash(&logical))
        .unwrap();
    for t in THREADS {
        let (got, stats) = Executor::new(&store, sr)
            .with_threads(t)
            .execute_physical(&plan)
            .unwrap();
        assert!(want.function_eq(&got), "threads {t}");
        assert_eq!(stats.dense_joins, 1, "threads {t}");
        assert_eq!(stats.dense_group_bys, 1, "threads {t}");
        // Budget accounting parity: both pipelines count the same work.
        assert_eq!(stats.rows_processed, want_stats.rows_processed, "threads {t}");
        assert_eq!(stats.rows_scanned, want_stats.rows_scanned, "threads {t}");
    }

    let (logical, plan) = dense_plan("holed");
    let exec = Executor::new(&store, sr);
    let (want, _) = exec.execute(&logical).unwrap();
    for (repr, ran) in [(ReprMode::Auto, OpRepr::Sparse), (ReprMode::Off, OpRepr::Rows)] {
        let mut cx = ExecContext::new(sr).with_repr(repr).with_trace(TraceLevel::Spans);
        let got = exec.execute_physical_in(&mut cx, &plan).unwrap();
        assert!(want.function_eq(&got), "{repr:?}");
        let mut steps = Vec::new();
        cx.take_trace().for_each(&mut |span| {
            if span.label != "Scan holed" && span.label != "Scan r2" {
                steps.push((span.label.clone(), span.repr));
            }
        });
        assert_eq!(
            steps,
            [("GroupBy (DenseAgg)".to_string(), ran), ("ProductJoin (Dense)".to_string(), ran)],
            "{repr:?}"
        );
    }
}

/// A budget trip inside a dense kernel surfaces the same typed error as
/// the sparse operator it replaces — including from the parallel path,
/// where workers charge the shared budget live.
#[test]
fn budget_trips_are_identical_across_paths() {
    let _g = lock();
    let sr = SemiringKind::SumProduct;
    let (r1, r2, _) = rels(sr, &[1u8; 9], &[1u8; 9]);
    let limits = ExecLimits::none().with_max_output_rows(10);
    let want = ops::product_join(&mut ExecContext::with_limits(sr, limits.clone()), &r1, &r2)
        .unwrap_err();
    assert!(matches!(
        want,
        AlgebraError::ResourceExhausted { resource: ResourceKind::OutputRows, limit: 10, .. }
    ));
    let mut cx = ExecContext::with_limits(sr, limits);
    let got = ops::step(&mut cx, &[&r1, &r2], None, OpRepr::Dense).unwrap_err();
    assert_eq!(want, got, "sequential dense trip");

    let (b1, b2, _) = big_fixture(BIG_SIDES[1]);
    let limits = ExecLimits::none().with_max_output_rows(100);
    for t in THREADS {
        let mut cx = ExecContext::with_limits(sr, limits.clone()).with_threads(t);
        match ops::step(&mut cx, &[&b1, &b2], None, OpRepr::Dense) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::OutputRows,
                limit: 100,
                ..
            }) => {}
            other => panic!("threads {t}: expected OutputRows trip, got {other:?}"),
        }
    }
}

/// A cancelled token stops the dense kernels with the typed `Cancelled`
/// error at every thread count, like the sparse operators.
#[test]
fn cancellation_stops_dense_kernels() {
    let _g = lock();
    let sr = SemiringKind::SumProduct;
    let (r1, r2, [_, b, _]) = rels(sr, &[1u8; 9], &[1u8; 9]);
    for t in THREADS {
        let token = CancelToken::new();
        token.cancel();
        let limits = ExecLimits::none().with_cancel_token(token);
        let mut cx = ExecContext::with_limits(sr, limits).with_threads(t);
        match ops::step(&mut cx, &[&r1, &r2], None, OpRepr::Dense) {
            Err(AlgebraError::Cancelled) => {}
            other => panic!("threads {t}: expected Cancelled, got {other:?}"),
        }
        match ops::step(&mut cx, &[&r1], Some(&[b]), OpRepr::Dense) {
            Err(AlgebraError::Cancelled) => {}
            other => panic!("threads {t} agg: expected Cancelled, got {other:?}"),
        }
    }
}

/// Fault-injection parity at the three new dense sites: an armed site
/// fails exactly that operator with [`AlgebraError::FaultInjected`] and
/// disarms after firing, like every sparse site.
#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use mpf_algebra::fault;

    #[test]
    fn dense_sites_fire_once_and_disarm() {
        let _g = lock();
        fault::clear_all();
        let sr = SemiringKind::SumProduct;
        let (r1, r2, [_, b, _]) = rels(sr, &[1u8; 9], &[2u8; 9]);

        fault::inject("dense::join", 1);
        assert_eq!(
            ops::step(&mut ExecContext::new(sr), &[&r1, &r2], None, OpRepr::Dense).unwrap_err(),
            AlgebraError::FaultInjected("dense::join".into())
        );
        assert!(ops::step(&mut ExecContext::new(sr), &[&r1, &r2], None, OpRepr::Dense).is_ok());

        fault::inject("dense::agg", 1);
        assert_eq!(
            ops::step(&mut ExecContext::new(sr), &[&r1], Some(&[b]), OpRepr::Dense).unwrap_err(),
            AlgebraError::FaultInjected("dense::agg".into())
        );
        assert!(ops::step(&mut ExecContext::new(sr), &[&r1], Some(&[b]), OpRepr::Dense).is_ok());

        // The conversion site fires from inside the join (the first
        // operand it borrows) and leaves the context's stats coherent: no
        // dense join was recorded for the failed attempt.
        fault::inject("dense::convert", 1);
        let mut cx = ExecContext::new(sr);
        assert_eq!(
            ops::step(&mut cx, &[&r1, &r2], None, OpRepr::Dense).unwrap_err(),
            AlgebraError::FaultInjected("dense::convert".into())
        );
        assert_eq!(cx.stats().dense_joins, 0);
        assert!(ops::step(&mut cx, &[&r1, &r2], None, OpRepr::Dense).is_ok());
        assert_eq!(cx.stats().dense_joins, 1);
        fault::clear_all();
    }
}
