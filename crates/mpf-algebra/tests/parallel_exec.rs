//! Property tests for the parallel execution layer: at every thread
//! count, the concurrent subplan scheduler computes *bit-identical*
//! results to the sequential pipeline — same support, same measures, same
//! stats counters — and trips the same typed errors when a budget is
//! exceeded or the query is cancelled.
//!
//! The determinism argument being checked: a forked worker runs the same
//! operators over the same inputs as the sequential interpreter would, so
//! no float operation is ever reassociated by parallelism; the parent
//! absorbs the worker's stats in plan order, and all of them merge
//! commutatively.

use mpf_algebra::{
    AlgebraError, CancelToken, ExecLimits, Executor, PhysicalPlan, Plan, RelationStore,
    ResourceKind,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const SEMIRINGS: [SemiringKind; 7] = [
    SemiringKind::SumProduct,
    SemiringKind::MinSum,
    SemiringKind::MaxSum,
    SemiringKind::MinProduct,
    SemiringKind::MaxProduct,
    SemiringKind::BoolOrAnd,
    SemiringKind::LogSumProduct,
];
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Exact equality up to row/column order — no float tolerance.
fn bit_identical(a: &FunctionalRelation, b: &FunctionalRelation) -> bool {
    let (a, b) = (a.canonicalized(), b.canonicalized());
    a.schema() == b.schema() && a.len() == b.len() && a.rows().eq(b.rows())
}

/// r1(a, b) and r2(b, c) over 3-value domains with the given measures.
fn rels(sr: SemiringKind, m1: &[u8], m2: &[u8]) -> (FunctionalRelation, FunctionalRelation, [VarId; 3]) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 3).unwrap();
    let b = cat.add_var("b", 3).unwrap();
    let c = cat.add_var("c", 3).unwrap();
    // BoolOrAnd measures must stay in {0, 1}.
    let conv = |m: u8| {
        if sr == SemiringKind::BoolOrAnd {
            (m % 2) as f64
        } else {
            m as f64
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

    /// A plan whose two join inputs each contain an operator, so the
    /// interpreter forks the right one onto a worker whenever threads
    /// allow, is *bit-identical across thread counts* with the same stats
    /// counters, for every semiring.
    #[test]
    fn forked_plans_match_sequential(
        m1 in proptest::collection::vec(0u8..10, 9),
        m2 in proptest::collection::vec(0u8..10, 9),
        sr_idx in 0usize..7,
        group_var in 0usize..3,
    ) {
        let sr = SEMIRINGS[sr_idx];
        let (r1, r2, vars) = rels(sr, &m1, &m2);
        let mut store = RelationStore::new();
        store.insert(r1);
        store.insert(r2);
        let plan = PhysicalPlan::default_hash(&Plan::group_by(
            Plan::join(
                Plan::group_by(Plan::scan("r1"), vec![vars[0], vars[1]]),
                Plan::group_by(Plan::scan("r2"), vec![vars[1], vars[2]]),
            ),
            vec![vars[group_var]],
        ));
        let sequential = Executor::new(&store, sr).with_threads(1);
        let (want, want_stats) = sequential.execute_physical(&plan).unwrap();
        for t in THREADS {
            let exec = Executor::new(&store, sr).with_threads(t);
            let (got, stats) = exec.execute_physical(&plan).unwrap();
            prop_assert!(
                bit_identical(&got, &want),
                "thread count changed bits: sr {sr:?} threads {t}"
            );
            prop_assert_eq!(stats, want_stats.clone());
        }
    }
}

fn capped_exec(store: &RelationStore, limits: ExecLimits, threads: usize) -> Executor<'_, RelationStore> {
    Executor::with_limits(store, SemiringKind::SumProduct, limits).with_threads(threads)
}

/// The plan used by the budget-parity tests. Both join inputs contain an
/// operator, so above one thread the right input runs on a forked worker:
/// `GroupBy_b(GroupBy_ab(r1) ⨝* GroupBy_abc(r2 ⨝* r1))`. The worker
/// produces the plan's only 27-row intermediate, so it is the worker
/// that charges the shared budget past its caps.
fn parity_fixture() -> (RelationStore, PhysicalPlan) {
    let (r1, r2, [a, b, c]) = rels(SemiringKind::SumProduct, &[1u8; 9], &[1u8; 9]);
    let mut store = RelationStore::new();
    store.insert(r1);
    store.insert(r2);
    let logical = Plan::group_by(
        Plan::join(
            Plan::group_by(Plan::scan("r1"), vec![a, b]),
            Plan::group_by(
                Plan::join(Plan::scan("r2"), Plan::scan("r1")),
                vec![a, b, c],
            ),
        ),
        vec![b],
    );
    (store, PhysicalPlan::default_hash(&logical))
}

/// A worker tripping the shared row cap surfaces the same typed error the
/// sequential pipeline reports, at every thread count.
#[test]
fn row_cap_parity_under_parallelism() {
    let (store, plan) = parity_fixture();
    // Every operator but the worker's 27-row join stays within 10 rows.
    let limits = ExecLimits::none().with_max_output_rows(10);
    for t in THREADS {
        match capped_exec(&store, limits.clone(), t).execute_physical(&plan) {
            Err(AlgebraError::ResourceExhausted { resource, limit: 10, .. }) => {
                assert_eq!(resource, ResourceKind::OutputRows, "threads {t}");
            }
            other => panic!("threads {t}: expected OutputRows trip, got {other:?}"),
        }
    }
}

/// Same for the shared total-cells budget, which workers charge live.
#[test]
fn cell_cap_parity_under_parallelism() {
    let (store, plan) = parity_fixture();
    // The scans (27 cells each; r1 is charged once) and the left
    // group-by (27) fit in 150 cells; the worker's join (27 rows × 4
    // cells) pushes the total past it.
    let limits = ExecLimits::none().with_max_total_cells(150);
    for t in THREADS {
        match capped_exec(&store, limits.clone(), t).execute_physical(&plan) {
            Err(AlgebraError::ResourceExhausted { resource, limit: 150, .. }) => {
                assert_eq!(resource, ResourceKind::TotalCells, "threads {t}");
            }
            other => panic!("threads {t}: expected TotalCells trip, got {other:?}"),
        }
    }
}

/// A cancelled token stops the forked worker and the inline side (both
/// poll it at operator checkpoints) with the typed `Cancelled` error.
#[test]
fn cancellation_stops_parallel_execution() {
    let (store, plan) = parity_fixture();
    for t in THREADS {
        let token = CancelToken::new();
        token.cancel();
        let exec = capped_exec(&store, ExecLimits::none().with_cancel_token(token), t);
        match exec.execute_physical(&plan) {
            Err(AlgebraError::Cancelled) => {}
            other => panic!("threads {t}: expected Cancelled, got {other:?}"),
        }
    }
}
