//! Fault-injection coverage of every instrumented operator site: an armed
//! site makes exactly its operator return [`AlgebraError::FaultInjected`],
//! the arm disarms after firing (so a retry succeeds), and plans running
//! through the [`Executor`] surface the error without panicking.
//!
//! Run with `cargo test -p mpf-algebra --features fault-injection`.
#![cfg(feature = "fault-injection")]

use std::sync::Mutex;

use mpf_algebra::{
    dense, fault, ops, AlgebraError, CancelToken, ExecContext, ExecLimits, Executor, OpRepr,
    PhysicalPlan, Plan, RelationStore,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema};

/// One operator invocation under test.
type OpCall<'a> = Box<dyn Fn() -> Result<FunctionalRelation, AlgebraError> + 'a>;

/// The fault registry is process-global; tests that arm sites serialize on
/// this lock so one test's arms never fire in another.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fixtures() -> (Catalog, FunctionalRelation, FunctionalRelation) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 3).unwrap();
    let b = cat.add_var("b", 3).unwrap();
    let c = cat.add_var("c", 3).unwrap();
    let l = FunctionalRelation::complete("l", Schema::new(vec![a, b]).unwrap(), &cat, |row| {
        (row[0] * 3 + row[1] + 1) as f64
    });
    let r = FunctionalRelation::complete("r", Schema::new(vec![b, c]).unwrap(), &cat, |row| {
        (row[0] + 2 * row[1] + 1) as f64
    });
    (cat, l, r)
}

fn injected(site: &str) -> AlgebraError {
    AlgebraError::FaultInjected(site.to_string())
}

/// Every instrumented operator: arming the site fails exactly that call,
/// and the very next call (the retry a fallback chain would make)
/// succeeds because Nth arms disarm after firing. Each call runs in a
/// fresh [`ExecContext`], the carrier of the fault hooks.
#[test]
fn each_operator_site_fires_once() {
    let _g = lock();
    fault::clear_all();
    let (cat, l, r) = fixtures();
    let a = cat.var("a").unwrap();
    let sr = SemiringKind::SumProduct;

    let calls: Vec<(&str, OpCall<'_>)> = vec![
        (
            "product_join",
            Box::new(|| ops::product_join(&mut ExecContext::new(sr), &l, &r)),
        ),
        (
            "group_by",
            Box::new(|| ops::group_by(&mut ExecContext::new(sr), &l, &[a])),
        ),
        (
            "select_eq",
            Box::new(|| ops::select_eq(&mut ExecContext::new(sr), &l, &[(a, 0)])),
        ),
        (
            "product_semijoin",
            Box::new(|| ops::product_semijoin(&mut ExecContext::new(sr), &l, &r)),
        ),
        (
            "update_semijoin",
            Box::new(|| ops::update_semijoin(&mut ExecContext::new(sr), &l, &r)),
        ),
        (
            "divide_join",
            Box::new(|| ops::divide_join(&mut ExecContext::new(sr), &l, &r)),
        ),
        (
            "naive_mpf",
            Box::new(|| ops::naive_mpf(&mut ExecContext::new(sr), &[&l, &r], &[], &[a])),
        ),
        (
            "dense::join",
            Box::new(|| {
                ops::step(&mut ExecContext::new(sr), &[&l, &r], None, OpRepr::Dense)
            }),
        ),
        (
            "dense::agg",
            Box::new(|| {
                ops::step(&mut ExecContext::new(sr), &[&l], Some(&[a]), OpRepr::Dense)
            }),
        ),
        (
            "dense::join_agg",
            Box::new(|| {
                ops::step(&mut ExecContext::new(sr), &[&l, &r], Some(&[a]), OpRepr::Dense)
            }),
        ),
        // The operand borrow inside the fused kernel, ahead of either nest.
        (
            "dense::convert",
            Box::new(|| {
                ops::step(&mut ExecContext::new(sr), &[&l, &r], Some(&[a]), OpRepr::Dense)
            }),
        ),
        (
            "sparse::join_agg",
            Box::new(|| {
                ops::step(&mut ExecContext::new(sr), &[&l, &r], Some(&[a]), OpRepr::Sparse)
            }),
        ),
        (
            "sparse::join",
            Box::new(|| {
                ops::step(&mut ExecContext::new(sr), &[&l, &r], None, OpRepr::Sparse)
            }),
        ),
        // Keying a row-major operand, ahead of the sorted merge.
        (
            "sparse::convert",
            Box::new(|| {
                ops::step(&mut ExecContext::new(sr), &[&l, &r], None, OpRepr::Sparse)
            }),
        ),
    ];

    for (site, call) in &calls {
        fault::inject(site, 1);
        assert_eq!(call().unwrap_err(), injected(site), "site {site}");
        assert!(call().is_ok(), "site {site} must disarm after firing");
    }
}

#[test]
fn second_invocation_faults_leave_first_intact() {
    let _g = lock();
    fault::clear_all();
    let (cat, l, _) = fixtures();
    let a = cat.var("a").unwrap();
    let sr = SemiringKind::SumProduct;

    fault::inject("group_by", 2);
    let group_by = || ops::group_by(&mut ExecContext::new(sr), &l, &[a]);
    let first = group_by().unwrap();
    assert_eq!(group_by().unwrap_err(), injected("group_by"));
    // Disarmed again; results are unaffected by the fault machinery.
    assert!(first.function_eq(&group_by().unwrap()));
}

#[test]
fn executor_surfaces_faults_as_errors() {
    let _g = lock();
    fault::clear_all();
    let (_, l, r) = fixtures();
    let mut s = RelationStore::new();
    s.insert(l);
    s.insert(r);
    let exec = Executor::new(&s, SemiringKind::SumProduct);
    let plan = Plan::group_by(Plan::join(Plan::scan("l"), Plan::scan("r")), vec![]);

    fault::inject_always("product_join");
    assert_eq!(exec.execute(&plan).unwrap_err(), injected("product_join"));
    fault::clear("product_join");
    assert!(exec.execute(&plan).is_ok());
}

/// Work done before a fault fires is not lost: a caller-owned context
/// keeps the stats of the operators that completed, which is what lets
/// the engine report total work across failed fallback attempts.
#[test]
fn context_keeps_stats_accumulated_before_the_fault() {
    let _g = lock();
    fault::clear_all();
    let (_, l, r) = fixtures();
    let mut s = RelationStore::new();
    s.insert(l);
    s.insert(r);
    let exec = Executor::new(&s, SemiringKind::SumProduct);
    let plan = Plan::group_by(Plan::join(Plan::scan("l"), Plan::scan("r")), vec![]);
    let physical = exec.lower(&plan).unwrap();

    // Fail the group-by, after the join already ran.
    fault::inject("group_by", 1);
    let mut cx = ExecContext::new(SemiringKind::SumProduct);
    assert_eq!(
        exec.execute_physical_in(&mut cx, &physical).unwrap_err(),
        injected("group_by")
    );
    let stats = cx.stats();
    assert_eq!(stats.joins, 1, "the join before the fault is on record");
    assert_eq!(stats.group_bys, 0);
    assert_eq!(stats.rows_scanned, 18);
    fault::clear_all();

    // A direct PhysicalPlan round-trip also surfaces the fault.
    fault::inject_always("sparse::agg");
    let sparse = PhysicalPlan::Step {
        inputs: vec![PhysicalPlan::Scan {
            relation: "l".into(),
        }],
        group_vars: Some(vec![]),
        repr: OpRepr::Sparse,
    };
    assert_eq!(
        exec.execute_physical(&sparse).unwrap_err(),
        injected("sparse::agg")
    );
    fault::clear_all();
}

/// Keying a stored relation — its sorted order and the trie levels the
/// kernel reads — happens under the `sparse::convert` site and its
/// deadline poll. A build that faults or is cancelled memoizes nothing:
/// the stored relation's bytes stay put and the next clean step builds
/// the order itself. A side keyed before the fault keeps its order.
#[test]
fn faulted_or_cancelled_keying_memoizes_nothing() {
    let _g = lock();
    fault::clear_all();
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 5).unwrap();
    let b = cat.add_var("b", 5).unwrap();
    let c = cat.add_var("c", 5).unwrap();
    // Rows in descending order, so keying sorts and builds real levels.
    let partial = |name: &str, vars, salt: u32| {
        let rows = (0..25u32).rev().filter(move |i| !(i + salt).is_multiple_of(3));
        FunctionalRelation::from_rows(
            name,
            Schema::new(vars).unwrap(),
            rows.map(|i| (vec![i / 5, i % 5], 1.0 + f64::from(i))),
        )
        .unwrap()
    };
    let mut store = RelationStore::new();
    store.insert(partial("l", vec![a, b], 1));
    store.insert(partial("r", vec![b, c], 2));
    let (l, r) = (store.shared("l").unwrap(), store.shared("r").unwrap());
    // The step memoizes inferred domains before keying; take them first
    // so that only an order or a level could move the bytes.
    let _ = (l.inferred_domains(), r.inferred_domains());
    let bytes = || (l.heap_bytes(), r.heap_bytes());
    let before = bytes();
    let sr = SemiringKind::SumProduct;
    let step = |cx: &mut ExecContext<'_>| ops::step(cx, &[l, r], Some(&[a, c]), OpRepr::Sparse);
    let memo = |cx: &ExecContext<'_>| (cx.stats().keyed_memo_hits, cx.stats().keyed_memo_builds);

    fault::inject("sparse::convert", 1);
    assert_eq!(
        step(&mut ExecContext::new(sr)).unwrap_err(),
        injected("sparse::convert")
    );
    assert_eq!(bytes(), before, "faulted first side");

    let token = CancelToken::new();
    token.cancel();
    let mut cancelled = ExecContext::with_limits(sr, ExecLimits::none().with_cancel_token(token));
    assert_eq!(step(&mut cancelled).unwrap_err(), AlgebraError::Cancelled);
    assert_eq!(bytes(), before, "cancelled before either side");

    // Fault the right side's keying: the left one finished and stays.
    fault::inject("sparse::convert", 2);
    assert_eq!(
        step(&mut ExecContext::new(sr)).unwrap_err(),
        injected("sparse::convert")
    );
    assert!(bytes().0 > before.0, "the left order is memoized");
    assert_eq!(
        bytes().1,
        before.1,
        "the faulted right side memoized nothing"
    );

    let mut cx = ExecContext::new(sr);
    let got = step(&mut cx).unwrap();
    assert_eq!(memo(&cx), (1, 1));
    let want = ops::join_group_by(&mut ExecContext::new(sr), l, r, &[a, c]).unwrap();
    assert!(want.function_eq(&got));
    fault::clear_all();
}

/// A dense step cancelled while its row-range workers run stops inside
/// the workers' guard polls with the typed `Cancelled` error. The
/// `op_guard::cancel` failpoint cancels the token at the first guard
/// tick, which only the workers reach: the step's operand checks poll
/// the context directly, not through a guard. The workers then charge
/// a small fraction of the step's output cells.
#[test]
fn cancelling_a_dense_step_stops_its_workers() {
    let _g = lock();
    fault::clear_all();
    // `γ_{x,y}(l(x, e) ⨝ r(e, y))` over complete grids: 2^22 products,
    // four `PARALLEL_MIN_WORK`s, so the step splits its 2^20 output rows
    // across every worker of a 2- or 4-thread context.
    const _: () = assert!(1024 * 4 * 1024 >= 4 * dense::PARALLEL_MIN_WORK, "the step fans out");
    let mut cat = Catalog::new();
    let x = cat.add_var("x", 1024).unwrap();
    let e = cat.add_var("e", 4).unwrap();
    let y = cat.add_var("y", 1024).unwrap();
    let [l, r] = [("l", vec![x, e]), ("r", vec![e, y])].map(|(name, vars)| {
        FunctionalRelation::complete(name, Schema::new(vars).unwrap(), &cat, |row| {
            1.0 + f64::from(row[0] % 3 + row[1] % 5)
        })
    });
    let output_cells = 3u64 << 20;
    for threads in [2, 4] {
        let token = CancelToken::new();
        let limits = ExecLimits::none().with_cancel_token(token.clone());
        let mut cx =
            ExecContext::with_limits(SemiringKind::SumProduct, limits).with_threads(threads);
        fault::inject("op_guard::cancel", 1);
        let out = ops::step(&mut cx, &[&l, &r], Some(&[x, y]), OpRepr::Dense);
        assert_eq!(out.unwrap_err(), AlgebraError::Cancelled, "threads {threads}");
        assert!(token.is_cancelled(), "threads {threads}: the failpoint fired");
        let used = cx.budget().unwrap().cells_used();
        assert!(
            used < output_cells / 8,
            "threads {threads}: the workers ran on after the cancel ({used} cells charged)"
        );
    }
    fault::clear_all();
}
