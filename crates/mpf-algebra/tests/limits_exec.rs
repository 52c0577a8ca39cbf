//! Executor-level tests for resource budgets ([`mpf_algebra::ExecLimits`]):
//! each limit trips with a typed error, and — the transparency property —
//! limits set high enough never change a query's result.

use std::time::Duration;

use mpf_algebra::limits::TICK_INTERVAL;
use mpf_algebra::{
    ops, AlgebraError, CancelToken, ExecContext, ExecLimits, Executor, OpRepr, Plan, RelationStore,
    ResourceKind, TraceLevel,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

/// r1(a, b) ⋈ r2(b, c) over 3-value domains, with the given measures
/// (row-major over the complete relations).
fn store_with(m1: &[f64], m2: &[f64]) -> (RelationStore, VarId, VarId, VarId) {
    let mut c = Catalog::new();
    let a = c.add_var("a", 3).unwrap();
    let b = c.add_var("b", 3).unwrap();
    let d = c.add_var("c", 3).unwrap();
    let mut s = RelationStore::new();
    s.insert(
        FunctionalRelation::from_rows(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            (0..9u32).map(|i| (vec![i / 3, i % 3], m1[i as usize])),
        )
        .unwrap(),
    );
    s.insert(
        FunctionalRelation::from_rows(
            "r2",
            Schema::new(vec![b, d]).unwrap(),
            (0..9u32).map(|i| (vec![i / 3, i % 3], m2[i as usize])),
        )
        .unwrap(),
    );
    (s, a, b, d)
}

fn join_plan(group: Vec<VarId>) -> Plan {
    Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), group)
}

#[test]
fn row_cap_trips_with_typed_error() {
    let (s, _, _, d) = store_with(&[1.0; 9], &[1.0; 9]);
    // The join produces 27 rows; cap operators at 10.
    let exec = Executor::with_limits(
        &s,
        SemiringKind::SumProduct,
        ExecLimits::none().with_max_output_rows(10),
    );
    match exec.execute(&join_plan(vec![d])) {
        Err(AlgebraError::ResourceExhausted {
            resource: ResourceKind::OutputRows,
            limit: 10,
            ..
        }) => {}
        other => panic!("expected OutputRows trip, got {other:?}"),
    }
}

#[test]
fn cell_cap_trips_on_first_scan() {
    let (s, _, _, d) = store_with(&[1.0; 9], &[1.0; 9]);
    let exec = Executor::with_limits(
        &s,
        SemiringKind::SumProduct,
        ExecLimits::none().with_max_total_cells(1),
    );
    match exec.execute(&join_plan(vec![d])) {
        Err(AlgebraError::ResourceExhausted {
            resource: ResourceKind::TotalCells,
            limit: 1,
            observed,
        }) => assert!(observed > 1, "scan must charge all its cells"),
        other => panic!("expected TotalCells trip, got {other:?}"),
    }
}

#[test]
fn cancellation_stops_execution() {
    let (s, _, _, d) = store_with(&[1.0; 9], &[1.0; 9]);
    let token = CancelToken::new();
    token.cancel();
    let exec = Executor::with_limits(
        &s,
        SemiringKind::SumProduct,
        ExecLimits::none().with_cancel_token(token),
    );
    assert_eq!(
        exec.execute(&join_plan(vec![d])).unwrap_err(),
        AlgebraError::Cancelled
    );
}

#[test]
fn expired_deadline_trips() {
    let (s, _, _, d) = store_with(&[1.0; 9], &[1.0; 9]);
    let exec = Executor::with_limits(
        &s,
        SemiringKind::SumProduct,
        ExecLimits::none().with_timeout(Duration::ZERO),
    );
    match exec.execute(&join_plan(vec![d])) {
        Err(AlgebraError::ResourceExhausted {
            resource: ResourceKind::WallClock,
            ..
        }) => {}
        other => panic!("expected WallClock trip, got {other:?}"),
    }
}

#[test]
fn unlimited_limits_mean_no_budget() {
    let (s, _, _, _) = store_with(&[1.0; 9], &[1.0; 9]);
    let exec = Executor::with_limits(&s, SemiringKind::SumProduct, ExecLimits::none());
    assert!(exec.budget().is_none());
}

/// Complete `l(x, e)` and `r` of side 67 with constant measures, `r`
/// over `[e, y]` or, `transposed`, over `[y, e]`: the fused dense
/// contraction onto `[x, y]` has 4 489 output rows of 3 cells, each
/// output row (67 cells × 67 eliminated values) well over one guard tick
/// of work.
fn contraction(
    measure: f64,
    transposed: bool,
) -> (FunctionalRelation, FunctionalRelation, [VarId; 2]) {
    let mut c = Catalog::new();
    let x = c.add_var("x", 67).unwrap();
    let e = c.add_var("e", 67).unwrap();
    let y = c.add_var("y", 67).unwrap();
    let r_vars = if transposed { vec![y, e] } else { vec![e, y] };
    let l = FunctionalRelation::complete("l", Schema::new(vec![x, e]).unwrap(), &c, |_| measure);
    let r = FunctionalRelation::complete("r", Schema::new(r_vars).unwrap(), &c, |_| measure);
    (l, r, [x, y])
}

/// The two nests of the fused dense step and the layouts that take them:
/// `r(e, y)` has `y` unit-stride in `r` and broadcast in `l`, so the
/// step runs register tiles; `r(y, e)` has no such group axis (both
/// operands are contiguous along `e`), so it folds cell by cell.
const NESTS: [(&str, bool); 2] = [("tile", false), ("cell", true)];

fn fused_under(
    transposed: bool,
    limits: ExecLimits,
    measure: f64,
) -> Result<FunctionalRelation, AlgebraError> {
    let (l, r, gv) = contraction(measure, transposed);
    let mut cx = ExecContext::with_limits(SemiringKind::SumProduct, limits).with_threads(1);
    ops::step(&mut cx, &[&l, &r], Some(&gv), OpRepr::Dense)
}

/// The nest the fused span of an unlimited run reports.
fn nest_of(transposed: bool) -> &'static str {
    let (l, r, gv) = contraction(1.0, transposed);
    let mut cx = ExecContext::new(SemiringKind::SumProduct)
        .with_threads(1)
        .with_trace(TraceLevel::Spans);
    ops::step(&mut cx, &[&l, &r], Some(&gv), OpRepr::Dense).unwrap();
    let mut nest = None;
    cx.take_trace().for_each(&mut |span| {
        if span.fused {
            nest = span.nest;
        }
    });
    nest.expect("the fused dense step ran")
}

/// The fused dense kernel polls once per register tile and charges once
/// per stored strip of tiles in its tile nest, and polls and charges once
/// per cell in the cell-major one; either way every limit trips with its
/// typed error *inside* the kernel — the observed count shows it stopped
/// at the first settlement past the cap (at most a tick plus one output
/// row later), not after materializing all 4 489 rows.
#[test]
fn fused_dense_kernel_trips_every_limit_mid_flight() {
    let slack = u64::from(TICK_INTERVAL) + 67;
    for (nest, transposed) in NESTS {
        assert_eq!(nest_of(transposed), nest);
        match fused_under(transposed, ExecLimits::none().with_max_output_rows(2000), 1.0) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::OutputRows,
                limit: 2000,
                observed,
            }) => assert!(observed <= 2000 + slack, "{nest}: stopped late at {observed}"),
            other => panic!("{nest}: expected OutputRows trip, got {other:?}"),
        }
        match fused_under(transposed, ExecLimits::none().with_max_total_cells(6000), 1.0) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::TotalCells,
                limit: 6000,
                observed,
            }) => assert!(observed <= 6000 + 3 * slack, "{nest}: stopped late at {observed}"),
            other => panic!("{nest}: expected TotalCells trip, got {other:?}"),
        }
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            fused_under(transposed, ExecLimits::none().with_cancel_token(token), 1.0).unwrap_err(),
            AlgebraError::Cancelled,
            "{nest}"
        );
        match fused_under(transposed, ExecLimits::none().with_timeout(Duration::ZERO), 1.0) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::WallClock,
                ..
            }) => {}
            other => panic!("{nest}: expected WallClock trip, got {other:?}"),
        }
        // Generous limits are transparent, bit for bit.
        let generous = ExecLimits::none()
            .with_max_output_rows(1_000_000)
            .with_max_total_cells(10_000_000)
            .with_timeout(Duration::from_secs(3600))
            .with_cancel_token(CancelToken::new());
        let got = fused_under(transposed, generous, 1.5).unwrap();
        let want = fused_under(transposed, ExecLimits::none(), 1.5).unwrap();
        assert_eq!(got.measures(), want.measures(), "{nest}");
    }
}

/// A `SumProduct` contraction that overflows to `+∞` is a typed
/// `NonFiniteMeasure` from the fused kernel in both nests: rows are
/// validated cell by cell before they are stored.
#[test]
fn fused_dense_kernel_rejects_overflow_in_both_nests() {
    for (nest, transposed) in NESTS {
        match fused_under(transposed, ExecLimits::none(), 1e200) {
            Err(AlgebraError::NonFiniteMeasure {
                op: "dense::join_agg",
                value,
            }) => assert_eq!(value, f64::INFINITY, "{nest}"),
            other => panic!("{nest}: expected NonFiniteMeasure, got {other:?}"),
        }
    }
}

/// The same side-67 contraction through the fused *sparse* kernel, in
/// the form `group` selects: `[e, x]` leads the merge order (stream),
/// `[x, y]` does not (scatter). Either way 4 489 output rows of 3 cells
/// from a 300 763-row join.
fn fused_sparse_under(
    group: &str,
    limits: ExecLimits,
    measure: f64,
) -> Result<FunctionalRelation, AlgebraError> {
    let (l, r, [x, y]) = contraction(measure, false);
    let e = l.schema().vars()[1];
    let gv = if group == "stream" { [e, x] } else { [x, y] };
    let mut cx = ExecContext::with_limits(SemiringKind::SumProduct, limits).with_threads(1);
    ops::step(&mut cx, &[&l, &r], Some(&gv), OpRepr::Sparse)
}

/// Both fused sparse forms poll once per `(a row × b run)` and charge
/// each output group as it is found, so every limit trips with its typed
/// error inside the kernel, within a tick plus one row of its cap.
#[test]
fn fused_sparse_kernel_trips_every_limit_mid_flight() {
    let slack = u64::from(TICK_INTERVAL) + 67;
    for form in ["stream", "scatter"] {
        match fused_sparse_under(form, ExecLimits::none().with_max_output_rows(2000), 1.0) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::OutputRows,
                limit: 2000,
                observed,
            }) => assert!(observed <= 2000 + slack, "{form}: stopped late at {observed}"),
            other => panic!("{form}: expected OutputRows trip, got {other:?}"),
        }
        match fused_sparse_under(form, ExecLimits::none().with_max_total_cells(6000), 1.0) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::TotalCells,
                limit: 6000,
                observed,
            }) => assert!(observed <= 6000 + 3 * slack, "{form}: stopped late at {observed}"),
            other => panic!("{form}: expected TotalCells trip, got {other:?}"),
        }
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            fused_sparse_under(form, ExecLimits::none().with_cancel_token(token), 1.0).unwrap_err(),
            AlgebraError::Cancelled,
            "{form}"
        );
        match fused_sparse_under(form, ExecLimits::none().with_timeout(Duration::ZERO), 1.0) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::WallClock,
                ..
            }) => {}
            other => panic!("{form}: expected WallClock trip, got {other:?}"),
        }
        // Only the output is charged: a 5 000-row cap the 300 763-row
        // join would trip passes, and generous limits change no bit.
        let capped = fused_sparse_under(form, ExecLimits::none().with_max_output_rows(5000), 1.5);
        let want = fused_sparse_under(form, ExecLimits::none(), 1.5).unwrap();
        assert_eq!(capped.unwrap().measures(), want.measures(), "{form}");
    }
}

/// A `SumProduct` contraction that overflows to `+∞` is a typed
/// `NonFiniteMeasure` from both fused sparse forms.
#[test]
fn fused_sparse_kernel_rejects_overflow_in_both_forms() {
    for form in ["stream", "scatter"] {
        match fused_sparse_under(form, ExecLimits::none(), 1e200) {
            Err(AlgebraError::NonFiniteMeasure {
                op: "sparse::join_agg",
                value,
            }) => assert_eq!(value, f64::INFINITY, "{form}"),
            other => panic!("{form}: expected NonFiniteMeasure, got {other:?}"),
        }
    }
}

/// A sparse cross product of two 2^20-row operands has 2^40 rows, 16 TiB
/// of output no machine can reserve up front. Under a row cap both the
/// join and the staged fused step (its group grid of 2^23 cells is too
/// large to scatter) stop at the cap with a typed error: the kernel grows
/// its output as it goes instead of reserving the full join.
#[test]
fn huge_sparse_join_trips_its_cap_before_reserving() {
    let mut c = Catalog::new();
    let x = c.add_var("x", 1 << 20).unwrap();
    let y = c.add_var("y", 1 << 23).unwrap();
    let n = 1u64 << 20;
    let operand = |name: &str, v: VarId, stride: u64| {
        let (doms, coords) = (vec![c.domain_size(v)], (0..n).map(|i| i * stride).collect());
        FunctionalRelation::from_coords(name, Schema::new(vec![v]).unwrap(), doms, coords, vec![1.0; n as usize])
    };
    let (l, r) = (operand("l", x, 1), operand("r", y, 8));
    for group in [None, Some(&[y][..])] {
        let limits = ExecLimits::none().with_max_output_rows(1000);
        let mut cx = ExecContext::with_limits(SemiringKind::SumProduct, limits).with_threads(1);
        match ops::step(&mut cx, &[&l, &r], group, OpRepr::Sparse) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::OutputRows,
                limit: 1000,
                observed,
            }) => assert!(observed <= 1000 + u64::from(TICK_INTERVAL), "{group:?}: stopped late at {observed}"),
            other => panic!("{group:?}: expected OutputRows trip, got {other:?}"),
        }
    }
}

proptest! {
    /// Guardrail transparency: under any semiring, measures, and grouping,
    /// an execution with limits far above the query's needs returns exactly
    /// the relation an unlimited execution returns.
    #[test]
    fn generous_limits_are_transparent(
        m1 in prop::collection::vec(0.1f64..10.0, 9),
        m2 in prop::collection::vec(0.1f64..10.0, 9),
        which in 0usize..4,
        sr_idx in 0usize..3,
    ) {
        let (s, a, _, d) = store_with(&m1, &m2);
        let group = match which {
            0 => vec![a],
            1 => vec![d],
            2 => vec![a, d],
            _ => vec![],
        };
        let sr = [
            SemiringKind::SumProduct,
            SemiringKind::MinSum,
            SemiringKind::MaxProduct,
        ][sr_idx];
        let plan = join_plan(group);

        let unlimited = Executor::new(&s, sr);
        let (want, want_stats) = unlimited.execute(&plan).unwrap();

        let generous = ExecLimits::none()
            .with_max_output_rows(1_000_000)
            .with_max_total_cells(10_000_000)
            .with_timeout(Duration::from_secs(3600))
            .with_cancel_token(CancelToken::new());
        let limited = Executor::with_limits(&s, sr, generous);
        let (got, got_stats) = limited.execute(&plan).unwrap();

        prop_assert!(want.function_eq(&got));
        prop_assert_eq!(want_stats.rows_processed, got_stats.rows_processed);
        // The budget observed the work even though nothing tripped.
        let budget = limited.budget().unwrap();
        prop_assert!(budget.cells_used() > 0);
    }
}
