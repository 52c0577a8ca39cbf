//! Execution guardrails: resource budgets and cooperative cancellation.
//!
//! A disk-resident MPF workload can materialize intermediates that dwarf
//! the inputs (a bad elimination order on the supply-chain view multiplies
//! domains together), so the executor accepts an [`ExecLimits`] describing
//! how much work a query is allowed to do:
//!
//! * **per-operator output rows** — caps any single intermediate,
//! * **total materialized cells** — caps the sum over all operators of
//!   `rows × (arity + 1)` (the `+ 1` counts the measure column),
//! * **wall-clock deadline** — elapsed time from executor start,
//! * **cancellation** — a [`CancelToken`] another thread can trip.
//!
//! Limits are enforced through an [`ExecBudget`] created once per
//! execution. Operators receive `Option<&ExecBudget>`; the `None` path
//! (no limits configured) costs nothing. Deadline and cancellation are
//! polled every [`TICK_INTERVAL`] rows via [`OpGuard`] so tight loops stay
//! tight.
//!
//! Tripping a budget returns [`AlgebraError::ResourceExhausted`] (or
//! [`AlgebraError::Cancelled`]) — never a panic — so the engine can fall
//! back to a cheaper strategy or surface a typed error.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{AlgebraError, Result};

/// Which [`ExecLimits`] budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// A single operator produced more output rows than allowed.
    OutputRows,
    /// The execution materialized more total cells than allowed.
    TotalCells,
    /// The wall-clock deadline passed.
    WallClock,
    /// A worker-thread reservation could not be satisfied (the shared
    /// [`BudgetPool`] had no thread tokens left).
    Threads,
}

impl ResourceKind {
    /// The unit the limit/consumed figures of this budget are measured
    /// in; error messages print it so a shed/reject response names not
    /// just *that* a budget tripped but *what* ran out.
    pub fn unit(&self) -> &'static str {
        match self {
            ResourceKind::OutputRows => "rows",
            ResourceKind::TotalCells => "cells",
            ResourceKind::WallClock => "ms",
            ResourceKind::Threads => "threads",
        }
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::OutputRows => write!(f, "per-operator output-row"),
            ResourceKind::TotalCells => write!(f, "total materialized-cell"),
            ResourceKind::WallClock => write!(f, "wall-clock"),
            ResourceKind::Threads => write!(f, "worker-thread"),
        }
    }
}

/// Cooperative cancellation handle. Cloning shares the flag, so one clone
/// can be handed to another thread (or a signal handler) while the
/// executor polls the other.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the executor's
    /// next poll (every [`TICK_INTERVAL`] rows).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declarative resource budgets for one query execution. All limits are
/// optional; [`ExecLimits::default`] enforces nothing.
#[derive(Debug, Clone, Default)]
pub struct ExecLimits {
    /// Maximum rows any single operator may output.
    pub max_output_rows: Option<u64>,
    /// Maximum total cells (`rows × (arity + 1)`) materialized across all
    /// operators of the execution, scans included.
    pub max_total_cells: Option<u64>,
    /// Maximum wall-clock time from executor start.
    pub timeout: Option<Duration>,
    /// External cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Worker threads for the parallel operators and for concurrent
    /// subplan scheduling. `None` resolves through [`default_threads`]
    /// (the `MPF_THREADS` environment variable, else the machine's
    /// available parallelism). A knob, not a budget: it never trips an
    /// error and is ignored by [`ExecLimits::is_unlimited`].
    pub threads: Option<usize>,
}

impl ExecLimits {
    /// No limits — identical to `ExecLimits::default()`, reads better at
    /// call sites.
    pub fn none() -> ExecLimits {
        ExecLimits::default()
    }

    /// Cap the rows any single operator may output.
    pub fn with_max_output_rows(mut self, rows: u64) -> ExecLimits {
        self.max_output_rows = Some(rows);
        self
    }

    /// Cap the total cells materialized by the execution.
    pub fn with_max_total_cells(mut self, cells: u64) -> ExecLimits {
        self.max_total_cells = Some(cells);
        self
    }

    /// Set a wall-clock deadline counted from executor start.
    pub fn with_timeout(mut self, timeout: Duration) -> ExecLimits {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a cancellation token (keep a clone to trip it).
    pub fn with_cancel_token(mut self, token: CancelToken) -> ExecLimits {
        self.cancel = Some(token);
        self
    }

    /// Set the worker-thread count for parallel execution (clamped to at
    /// least 1).
    pub fn with_threads(mut self, threads: usize) -> ExecLimits {
        self.threads = Some(threads.max(1));
        self
    }

    /// The configured thread count, or the environment default
    /// ([`default_threads`]).
    pub fn effective_threads(&self) -> usize {
        self.threads.map_or_else(default_threads, |t| t.max(1))
    }

    /// True when no limit of any kind is configured — the executor skips
    /// budget tracking entirely. `threads` is a tuning knob, not a budget,
    /// so it does not count: setting only it still allocates no budget.
    pub fn is_unlimited(&self) -> bool {
        self.max_output_rows.is_none()
            && self.max_total_cells.is_none()
            && self.timeout.is_none()
            && self.cancel.is_none()
    }
}

/// Worker threads used when [`ExecLimits::threads`] is unset: the
/// `MPF_THREADS` environment variable when it parses as a positive
/// integer, else the machine's available parallelism. The latter is read
/// once per process: on Linux it parses cgroup files, tens of
/// microseconds that every query's physical planning would pay.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MPF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    static MACHINE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many rows a tight loop processes between deadline/cancel polls.
pub const TICK_INTERVAL: u32 = 1024;

/// Runtime budget tracker for one execution. Counters are atomic so the
/// partitioned parallel operators can charge from worker threads.
#[derive(Debug)]
pub struct ExecBudget {
    limits: ExecLimits,
    start: Instant,
    total_cells: AtomicU64,
}

impl ExecBudget {
    /// Start tracking against `limits`. The wall clock starts now.
    pub fn new(limits: ExecLimits) -> ExecBudget {
        ExecBudget {
            limits,
            start: Instant::now(),
            total_cells: AtomicU64::new(0),
        }
    }

    /// The limits this budget enforces.
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// Total cells charged so far.
    pub fn cells_used(&self) -> u64 {
        self.total_cells.load(Ordering::Relaxed)
    }

    /// Check one operator's cumulative output-row count against the
    /// per-operator row cap.
    pub fn check_rows(&self, rows: u64) -> Result<()> {
        if let Some(limit) = self.limits.max_output_rows {
            if rows > limit {
                return Err(AlgebraError::ResourceExhausted {
                    resource: ResourceKind::OutputRows,
                    limit,
                    observed: rows,
                });
            }
        }
        Ok(())
    }

    /// Add `cells` to the global materialized-cell counter and check the
    /// cap. Atomic, so parallel operators may charge concurrently.
    pub fn charge_cells(&self, cells: u64) -> Result<()> {
        let total = self
            .total_cells
            .fetch_add(cells, Ordering::Relaxed)
            .saturating_add(cells);
        if let Some(limit) = self.limits.max_total_cells {
            if total > limit {
                return Err(AlgebraError::ResourceExhausted {
                    resource: ResourceKind::TotalCells,
                    limit,
                    observed: total,
                });
            }
        }
        Ok(())
    }

    /// Charge one operator's complete output in one call: `rows` rows of
    /// `arity` variables (plus the measure column). Equivalent to
    /// [`ExecBudget::check_rows`] + [`ExecBudget::charge_cells`].
    pub fn charge_output(&self, rows: u64, arity: usize) -> Result<()> {
        self.check_rows(rows)?;
        self.charge_cells(rows.saturating_mul(arity as u64 + 1))
    }

    /// Poll the deadline and the cancellation token. Cheap but not free;
    /// tight loops should go through an [`OpGuard`].
    pub fn checkpoint(&self) -> Result<()> {
        if let Some(token) = &self.limits.cancel {
            if token.is_cancelled() {
                return Err(AlgebraError::Cancelled);
            }
        }
        if let Some(timeout) = self.limits.timeout {
            let elapsed = self.start.elapsed();
            if elapsed > timeout {
                return Err(AlgebraError::ResourceExhausted {
                    resource: ResourceKind::WallClock,
                    limit: timeout.as_millis() as u64,
                    observed: elapsed.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// Per-operator guard carried on the stack of each operator's row loops.
/// Batches budget traffic so the common case is one branch and one or two
/// increments per row — and nothing at all when no budget is installed.
///
/// * [`OpGuard::poll`] — call once per *input* row scanned; polls
///   deadline/cancellation every [`TICK_INTERVAL`] calls.
/// * [`OpGuard::produced`] — call once per *output* row emitted; checks
///   the row cap and charges cells every [`TICK_INTERVAL`] rows (so an
///   exploding operator is stopped at most `TICK_INTERVAL` rows past its
///   budget, long before the intermediate is fully materialized).
/// * [`OpGuard::finish`] — call once before returning the output; settles
///   the remaining uncharged rows.
#[derive(Debug)]
pub struct OpGuard<'a> {
    budget: Option<&'a ExecBudget>,
    cells_per_row: u64,
    rows: u64,
    pending_rows: u32,
    poll_count: u32,
}

impl<'a> OpGuard<'a> {
    /// A guard for one operator whose output rows have `arity` variables
    /// (cells per row = `arity + 1`, counting the measure column).
    /// `budget: None` makes every method a no-op.
    pub fn new(budget: Option<&'a ExecBudget>, arity: usize) -> OpGuard<'a> {
        OpGuard {
            budget,
            cells_per_row: arity as u64 + 1,
            rows: 0,
            pending_rows: 0,
            poll_count: 0,
        }
    }

    #[inline]
    fn poll_budget(&mut self, budget: &ExecBudget) -> Result<()> {
        self.poll_count += 1;
        if self.poll_count >= TICK_INTERVAL {
            self.poll_count = 0;
            budget.checkpoint()?;
        }
        Ok(())
    }

    fn flush(&mut self, budget: &ExecBudget) -> Result<()> {
        budget.check_rows(self.rows)?;
        budget.charge_cells(self.pending_rows as u64 * self.cells_per_row)?;
        self.pending_rows = 0;
        Ok(())
    }

    /// Count one scanned input row (deadline/cancel polling only).
    #[inline]
    pub fn poll(&mut self) -> Result<()> {
        if let Some(budget) = self.budget {
            self.poll_budget(budget)?;
        }
        Ok(())
    }

    /// Count `units` of scanned work at once — the row-granular
    /// equivalent of `units` calls to [`OpGuard::poll`], used by the
    /// row-major fused dense kernel, whose unit of progress is one output
    /// row of `cells × eliminated` multiply-adds: a row worth at least
    /// [`TICK_INTERVAL`] units polls the deadline and the cancellation
    /// token itself, cheaper rows share a poll.
    #[inline]
    pub fn poll_many(&mut self, units: u64) -> Result<()> {
        if let Some(budget) = self.budget {
            self.poll_count = self.poll_count.saturating_add(units.min(u32::MAX as u64) as u32);
            if self.poll_count >= TICK_INTERVAL {
                self.poll_count = 0;
                budget.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Count one emitted output row.
    #[inline]
    pub fn produced(&mut self) -> Result<()> {
        if let Some(budget) = self.budget {
            self.rows += 1;
            self.pending_rows += 1;
            if self.pending_rows >= TICK_INTERVAL {
                self.flush(budget)?;
            }
            self.poll_budget(budget)?;
        }
        Ok(())
    }

    /// Count `n` emitted output rows at once — the block-granular
    /// equivalent of `n` calls to [`OpGuard::produced`], used by the
    /// chunked dense kernels whose inner loops run guard-free over
    /// contiguous runs. Flushes on the same cumulative-row thresholds,
    /// so a budget trip reports the same observed row count either way
    /// (callers pass blocks well under [`TICK_INTERVAL`] multiples, e.g.
    /// one tile row or a few thousand cells at a time).
    #[inline]
    pub fn produced_many(&mut self, n: u64) -> Result<()> {
        if let Some(budget) = self.budget {
            self.rows += n;
            self.pending_rows = self.pending_rows.saturating_add(n.min(u32::MAX as u64) as u32);
            if self.pending_rows >= TICK_INTERVAL {
                self.flush(budget)?;
            }
            self.poll_budget(budget)?;
        }
        Ok(())
    }

    /// Settle outstanding charges; call once before returning the
    /// operator's output.
    pub fn finish(mut self) -> Result<()> {
        if let Some(budget) = self.budget {
            self.flush(budget)?;
            budget.checkpoint()?;
        }
        Ok(())
    }
}

/// A process-wide admission pool of execution resources, shared by every
/// in-flight query of a multi-tenant service.
///
/// Individual queries are bounded by their own [`ExecLimits`]; the pool
/// bounds the *sum*: a service grants each admitted query a lease of
/// materialized-cell budget and worker threads, and the grant comes back
/// when the lease drops — even on panic or early return. When the pool
/// cannot satisfy a request it returns the same typed
/// [`AlgebraError::ResourceExhausted`] the per-query budgets use, with
/// `limit` = the pool's capacity and `observed` = what granting the
/// request would have consumed, so a shed response can tell the tenant
/// exactly which resource ran out and by how much.
///
/// The pool deliberately has no queue: callers that want to wait-then-
/// retry implement their own bounded queue on top (the `mpf-serve`
/// admission controller does), keeping "no capacity right now" a cheap,
/// non-blocking check here.
#[derive(Debug)]
pub struct BudgetPool {
    total_cells: u64,
    total_threads: usize,
    state: Mutex<PoolState>,
}

#[derive(Debug)]
struct PoolState {
    cells_in_use: u64,
    threads_in_use: usize,
}

/// A grant of pooled resources; returns them to the [`BudgetPool`] on
/// drop.
#[derive(Debug)]
pub struct BudgetLease {
    pool: Arc<BudgetPool>,
    cells: u64,
    threads: usize,
}

impl BudgetPool {
    /// A pool of `total_cells` materialized cells and `total_threads`
    /// worker threads (both clamped to at least 1).
    pub fn new(total_cells: u64, total_threads: usize) -> Arc<BudgetPool> {
        Arc::new(BudgetPool {
            total_cells: total_cells.max(1),
            total_threads: total_threads.max(1),
            state: Mutex::new(PoolState {
                cells_in_use: 0,
                threads_in_use: 0,
            }),
        })
    }

    /// Total cell capacity.
    pub fn total_cells(&self) -> u64 {
        self.total_cells
    }

    /// Total thread capacity.
    pub fn total_threads(&self) -> usize {
        self.total_threads
    }

    /// Cells currently leased.
    pub fn cells_in_use(&self) -> u64 {
        self.lock().cells_in_use
    }

    /// Threads currently leased.
    pub fn threads_in_use(&self) -> usize {
        self.lock().threads_in_use
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to lease `cells` and `threads` from the pool. Non-blocking:
    /// the typed error says which resource is exhausted (threads are
    /// checked first — a query that cannot run at all is reported before
    /// its memory ask). A request for more than the pool's *capacity*
    /// can never succeed; the error's figures make that visible
    /// (`observed > limit` even with an idle pool).
    pub fn try_lease(
        self: &Arc<Self>,
        cells: u64,
        threads: usize,
    ) -> Result<BudgetLease> {
        let threads = threads.max(1);
        let mut st = self.lock();
        let threads_would_use = st.threads_in_use.saturating_add(threads);
        if threads_would_use > self.total_threads {
            return Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::Threads,
                limit: self.total_threads as u64,
                observed: threads_would_use as u64,
            });
        }
        let cells_would_use = st.cells_in_use.saturating_add(cells);
        if cells_would_use > self.total_cells {
            return Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::TotalCells,
                limit: self.total_cells,
                observed: cells_would_use,
            });
        }
        st.cells_in_use = cells_would_use;
        st.threads_in_use = threads_would_use;
        drop(st);
        Ok(BudgetLease {
            pool: Arc::clone(self),
            cells,
            threads,
        })
    }
}

impl BudgetLease {
    /// Cells granted by this lease.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Threads granted by this lease.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`ExecLimits`] bounding a query to exactly this lease's grant.
    pub fn limits(&self) -> ExecLimits {
        ExecLimits::none()
            .with_max_total_cells(self.cells)
            .with_threads(self.threads)
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        let mut st = self.pool.lock();
        st.cells_in_use = st.cells_in_use.saturating_sub(self.cells);
        st.threads_in_use = st.threads_in_use.saturating_sub(self.threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_enforce_nothing() {
        let budget = ExecBudget::new(ExecLimits::none());
        assert!(ExecLimits::none().is_unlimited());
        budget.charge_output(u64::MAX, 100).unwrap();
        budget.checkpoint().unwrap();
    }

    #[test]
    fn parallelism_knobs_are_not_budgets() {
        let l = ExecLimits::none().with_threads(4);
        assert!(l.is_unlimited(), "knobs alone allocate no budget");
        assert_eq!(l.effective_threads(), 4);
        assert!(ExecLimits::none().effective_threads() >= 1);
    }

    #[test]
    fn row_cap_trips() {
        let budget = ExecBudget::new(ExecLimits::none().with_max_output_rows(10));
        budget.charge_output(10, 2).unwrap();
        let err = budget.charge_output(11, 2).unwrap_err();
        assert_eq!(
            err,
            AlgebraError::ResourceExhausted {
                resource: ResourceKind::OutputRows,
                limit: 10,
                observed: 11,
            }
        );
    }

    #[test]
    fn cell_cap_accumulates_across_operators() {
        let budget = ExecBudget::new(ExecLimits::none().with_max_total_cells(100));
        budget.charge_output(10, 4).unwrap(); // 50 cells
        budget.charge_output(10, 4).unwrap(); // 100 cells: at the limit
        let err = budget.charge_output(1, 0).unwrap_err();
        match err {
            AlgebraError::ResourceExhausted {
                resource: ResourceKind::TotalCells,
                limit: 100,
                observed,
            } => assert_eq!(observed, 101),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn cancellation_is_observed_at_checkpoint() {
        let token = CancelToken::new();
        let budget = ExecBudget::new(ExecLimits::none().with_cancel_token(token.clone()));
        budget.checkpoint().unwrap();
        token.cancel();
        assert_eq!(budget.checkpoint().unwrap_err(), AlgebraError::Cancelled);
        assert!(token.is_cancelled());
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let budget = ExecBudget::new(ExecLimits::none().with_timeout(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        match budget.checkpoint().unwrap_err() {
            AlgebraError::ResourceExhausted {
                resource: ResourceKind::WallClock,
                ..
            } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn guard_polls_at_interval() {
        let token = CancelToken::new();
        let budget = ExecBudget::new(ExecLimits::none().with_cancel_token(token.clone()));
        let mut guard = OpGuard::new(Some(&budget), 2);
        token.cancel();
        // Cancellation is only seen at the tick interval, not every row.
        for _ in 0..TICK_INTERVAL - 1 {
            guard.poll().unwrap();
        }
        assert_eq!(guard.poll().unwrap_err(), AlgebraError::Cancelled);
    }

    #[test]
    fn guard_stops_exploding_output_early() {
        let budget = ExecBudget::new(ExecLimits::none().with_max_output_rows(100));
        let mut guard = OpGuard::new(Some(&budget), 3);
        let mut emitted = 0u64;
        let err = loop {
            match guard.produced() {
                Ok(()) => emitted += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            AlgebraError::ResourceExhausted {
                resource: ResourceKind::OutputRows,
                limit: 100,
                ..
            }
        ));
        // Tripped at the first flush after the cap, not after materializing
        // an unbounded intermediate.
        assert!(emitted < TICK_INTERVAL as u64 + 100);
    }

    #[test]
    fn guard_finish_settles_remainder() {
        let budget = ExecBudget::new(ExecLimits::none().with_max_total_cells(10));
        let mut guard = OpGuard::new(Some(&budget), 4); // 5 cells per row
        guard.produced().unwrap();
        guard.produced().unwrap();
        // 10 cells: at the limit, settled only at finish.
        guard.finish().unwrap();
        assert_eq!(budget.cells_used(), 10);

        let mut guard = OpGuard::new(Some(&budget), 0);
        guard.produced().unwrap();
        assert!(guard.finish().is_err(), "11th cell trips the cap");
    }

    #[test]
    fn no_budget_guard_is_free() {
        let mut guard = OpGuard::new(None, 7);
        for _ in 0..10 * TICK_INTERVAL {
            guard.poll().unwrap();
            guard.produced().unwrap();
        }
        guard.finish().unwrap();
    }

    #[test]
    fn pool_leases_and_returns_on_drop() {
        let pool = BudgetPool::new(100, 4);
        let a = pool.try_lease(60, 2).unwrap();
        assert_eq!(pool.cells_in_use(), 60);
        assert_eq!(pool.threads_in_use(), 2);
        let b = pool.try_lease(40, 2).unwrap();
        assert_eq!(pool.cells_in_use(), 100);
        drop(a);
        assert_eq!(pool.cells_in_use(), 40);
        assert_eq!(pool.threads_in_use(), 2);
        drop(b);
        assert_eq!(pool.cells_in_use(), 0);
        assert_eq!(pool.threads_in_use(), 0);
    }

    #[test]
    fn pool_exhaustion_is_typed_per_resource() {
        let pool = BudgetPool::new(100, 2);
        let _held = pool.try_lease(90, 2).unwrap();
        // Threads run out first and are reported first.
        match pool.try_lease(5, 1).unwrap_err() {
            AlgebraError::ResourceExhausted {
                resource: ResourceKind::Threads,
                limit: 2,
                observed: 3,
            } => {}
            other => panic!("unexpected error: {other:?}"),
        }
        drop(_held);
        let _one_thread = pool.try_lease(90, 1).unwrap();
        match pool.try_lease(20, 1).unwrap_err() {
            AlgebraError::ResourceExhausted {
                resource: ResourceKind::TotalCells,
                limit: 100,
                observed: 110,
            } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn lease_limits_mirror_the_grant() {
        let pool = BudgetPool::new(1000, 8);
        let lease = pool.try_lease(250, 3).unwrap();
        let limits = lease.limits();
        assert_eq!(limits.max_total_cells, Some(250));
        assert_eq!(limits.effective_threads(), 3);
    }

    #[test]
    fn resource_kinds_name_their_units() {
        assert_eq!(ResourceKind::OutputRows.unit(), "rows");
        assert_eq!(ResourceKind::TotalCells.unit(), "cells");
        assert_eq!(ResourceKind::WallClock.unit(), "ms");
        assert_eq!(ResourceKind::Threads.unit(), "threads");
    }
}
