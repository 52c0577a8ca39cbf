//! Typed-error parity of the parallel execution layer: a dense step big
//! enough to split its output rows across workers trips the same typed
//! error at every thread count when a budget is exceeded or the query is
//! cancelled. Every worker charges the one shared budget live.
//!
//! Bit identity of a split step's answers across thread counts is checked
//! in `kernel_parity` (`stride_layout_matrix_parity`, threads {1, 4}) and
//! `dense_parity` (`parallel_dense_kernels_match_sequential_bits`).

use mpf_algebra::{
    dense, AlgebraError, CancelToken, ExecLimits, Executor, OpRepr, PhysicalPlan, RelationStore,
    ResourceKind,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema};

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// `γ_{x,y}(l(x, e) ⨝ r(e, y))` as one fused dense step over complete
/// grids, `x` and `y` of 1024 values and `e` of 2. Its 2^21 products are
/// two [`dense::PARALLEL_MIN_WORK`]s, so above one thread the step splits
/// its output rows across two workers. Each scan is 2 048 rows (6 144
/// cells); the step's output is 2^20 rows.
fn parity_fixture() -> (RelationStore, PhysicalPlan) {
    const _: () = assert!(1024 * 2 * 1024 >= 2 * dense::PARALLEL_MIN_WORK, "the step fans out");
    let mut cat = Catalog::new();
    let x = cat.add_var("x", 1024).unwrap();
    let e = cat.add_var("e", 2).unwrap();
    let y = cat.add_var("y", 1024).unwrap();
    let mut store = RelationStore::new();
    for (name, vars) in [("l", vec![x, e]), ("r", vec![e, y])] {
        let schema = Schema::new(vars).unwrap();
        store.insert(FunctionalRelation::complete(name, schema, &cat, |row| {
            1.0 + f64::from(row[0] % 3 + row[1] % 5)
        }));
    }
    let scan = |name: &str| PhysicalPlan::Scan { relation: name.into() };
    let plan = PhysicalPlan::Step {
        inputs: vec![scan("l"), scan("r")],
        group_vars: Some(vec![x, y]),
        repr: OpRepr::Dense,
    };
    (store, plan)
}

fn capped_exec(
    store: &RelationStore,
    limits: ExecLimits,
    threads: usize,
) -> Executor<'_, RelationStore> {
    Executor::with_limits(store, SemiringKind::SumProduct, limits).with_threads(threads)
}

/// The dense step's workers trip the shared row cap with the same typed
/// error the sequential kernel reports, at every thread count.
#[test]
fn row_cap_parity_under_parallelism() {
    let (store, plan) = parity_fixture();
    // The scans fit in 10 000 rows; the step's 2^20 do not.
    let limits = ExecLimits::none().with_max_output_rows(10_000);
    for t in THREADS {
        match capped_exec(&store, limits.clone(), t).execute_physical(&plan) {
            Err(AlgebraError::ResourceExhausted { resource, limit: 10_000, .. }) => {
                assert_eq!(resource, ResourceKind::OutputRows, "threads {t}");
            }
            other => panic!("threads {t}: expected OutputRows trip, got {other:?}"),
        }
    }
}

/// Same for the shared total-cells budget, which the workers charge live.
#[test]
fn cell_cap_parity_under_parallelism() {
    let (store, plan) = parity_fixture();
    // The scans charge 12 288 cells; the step's output (3 cells a row)
    // pushes the total past 100 000 a few strips in.
    let limits = ExecLimits::none().with_max_total_cells(100_000);
    for t in THREADS {
        match capped_exec(&store, limits.clone(), t).execute_physical(&plan) {
            Err(AlgebraError::ResourceExhausted { resource, limit: 100_000, .. }) => {
                assert_eq!(resource, ResourceKind::TotalCells, "threads {t}");
            }
            other => panic!("threads {t}: expected TotalCells trip, got {other:?}"),
        }
    }
}

/// A cancelled token stops the plan with the typed `Cancelled` error at
/// every thread count (the scans poll it before the step starts).
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
