//! The single execution context threaded through every physical operator.
//!
//! [`ExecContext`] owns the pieces that used to be scattered across the
//! executor and the `*_budgeted` operator variants: the active semiring,
//! the optional [`ExecBudget`] (row/cell caps, deadline, cancellation),
//! the mutable [`ExecStats`] work counters, and the fault-injection hooks
//! ([`crate::fault`]). Every operator in [`crate::ops`],
//! [`crate::partitioned`], [`crate::dense`] and [`crate::sparse`] takes
//! `&mut ExecContext` as its first argument, so budgets, stats, and
//! failpoints apply uniformly whether an operator is reached through the
//! [`Executor`](crate::Executor), the inference layer (Belief
//! Propagation, VE-cache, Bayesian networks), or a direct call.
//!
//! A context either owns its budget (built from [`ExecLimits`] by
//! [`ExecContext::with_limits`] — the inference entry points do this) or
//! borrows one owned elsewhere ([`ExecContext::with_budget`] — the
//! executor does this so the budget's cell counter outlives individual
//! executions and callers can inspect it afterwards).
//!
//! # Parallel execution
//!
//! [`ExecContext::fork`] produces a child context for a worker thread:
//! the child charges the *same* budget (the cell counter is atomic and
//! the cancellation/deadline state is shared), shares the parent's
//! scanned-relation ledger (so a base relation scanned from two
//! concurrent subplans is still charged once, exactly as in sequential
//! execution), and accumulates its own fresh [`ExecStats`]. When the
//! worker finishes, the parent merges the child's counters back with
//! [`ExecContext::absorb`] in a deterministic (plan) order; all
//! [`ExecStats`] fields merge commutatively (sums, and `max` for the
//! high-water mark), so the totals are identical to a sequential run.
//! The number of *extra* workers the whole execution may fan out to is
//! bounded by a token pool shared by every fork of one root context
//! (`threads - 1` tokens).

use std::collections::HashSet;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

use mpf_semiring::SemiringKind;
use mpf_storage::{FunctionalRelation, KeyedSource};

use crate::dense::{DenseMode, KernelMode};
use crate::limits::{ExecBudget, ExecLimits, OpGuard};
use crate::sparse::ReprMode;
use crate::trace::{OpRepr, SpanDesc, SpanKind, TraceCollector, TraceLevel, TraceTree};
use crate::{fault, ExecStats, Result};

/// Owned-or-borrowed budget slot.
#[derive(Debug)]
enum BudgetSlot<'b> {
    /// No limits configured: every budget operation is a no-op.
    None,
    /// The context owns the budget (inference entry points). Shared, so
    /// forked worker contexts charge the same counters.
    Owned(Arc<ExecBudget>),
    /// The budget lives in the executor (or another caller) so its
    /// counters survive the context.
    Borrowed(&'b ExecBudget),
}

/// Execution state threaded through every physical operator: semiring,
/// optional resource budget, work counters, and fault-injection hooks.
#[derive(Debug)]
pub struct ExecContext<'b> {
    semiring: SemiringKind,
    budget: BudgetSlot<'b>,
    stats: ExecStats,
    /// Base relations already charged to the budget as materialized
    /// input, so repeated scans of the same relation are charged once.
    /// Shared across forks: two concurrent subplans scanning the same
    /// relation still charge it once, matching sequential execution.
    charged_scans: Arc<Mutex<HashSet<String>>>,
    /// Worker threads this execution may use (including the caller).
    threads: usize,
    /// Spare worker tokens (`threads - 1`) shared by every fork of one
    /// root context, bounding total fan-out across nested fork points.
    fork_tokens: Arc<AtomicIsize>,
    /// Per-operator span collector ([`TraceLevel::Off`] by default:
    /// every trace hook is a single branch, no allocation).
    trace: TraceCollector,
    /// Whether [`crate::dense`] kernels may be dispatched to
    /// ([`DenseMode::Auto`] unless set; the engine passes its own mode).
    dense: DenseMode,
    /// Whether [`crate::sparse`] tensor kernels may be dispatched to
    /// ([`ReprMode::Auto`] unless set).
    repr: ReprMode,
    /// Which inner-loop flavor the monomorphized kernels run
    /// ([`KernelMode::Chunked`] unless set).
    kernel: KernelMode,
}

impl<'b> ExecContext<'b> {
    fn build(semiring: SemiringKind, budget: BudgetSlot<'b>, threads: usize) -> ExecContext<'b> {
        let threads = threads.max(1);
        ExecContext {
            semiring,
            budget,
            stats: ExecStats::default(),
            charged_scans: Arc::new(Mutex::new(HashSet::new())),
            threads,
            fork_tokens: Arc::new(AtomicIsize::new(threads as isize - 1)),
            trace: TraceCollector::new(TraceLevel::Off),
            dense: DenseMode::default(),
            repr: ReprMode::default(),
            kernel: KernelMode::default(),
        }
    }

    /// An unlimited context: no budget, fresh stats, environment-default
    /// parallelism ([`crate::limits::default_threads`]).
    pub fn new(semiring: SemiringKind) -> ExecContext<'static> {
        ExecContext::build(semiring, BudgetSlot::None, crate::limits::default_threads())
    }

    /// A context enforcing `limits` through an owned budget. Unlimited
    /// `limits` allocate no budget (zero per-row overhead); a deadline's
    /// wall clock starts now. The `threads` knob is taken from `limits`
    /// either way.
    pub fn with_limits(semiring: SemiringKind, limits: ExecLimits) -> ExecContext<'static> {
        let threads = limits.effective_threads();
        ExecContext::build(
            semiring,
            if limits.is_unlimited() {
                BudgetSlot::None
            } else {
                BudgetSlot::Owned(Arc::new(ExecBudget::new(limits)))
            },
            threads,
        )
    }

    /// A context charging a budget owned by the caller (the executor's
    /// per-query budget, whose counters outlive this context). The thread
    /// count is taken from the budget's limits when present.
    pub fn with_budget(
        semiring: SemiringKind,
        budget: Option<&'b ExecBudget>,
    ) -> ExecContext<'b> {
        let threads = match budget {
            Some(b) => b.limits().effective_threads(),
            None => crate::limits::default_threads(),
        };
        ExecContext::build(
            semiring,
            match budget {
                Some(b) => BudgetSlot::Borrowed(b),
                None => BudgetSlot::None,
            },
            threads,
        )
    }

    /// Override the worker-thread count (builder style). Resets the
    /// fork-token pool, so call this before execution starts.
    pub fn with_threads(mut self, threads: usize) -> ExecContext<'b> {
        self.set_threads(threads);
        self
    }

    /// Override the worker-thread count. Resets the fork-token pool.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
        self.fork_tokens = Arc::new(AtomicIsize::new(self.threads as isize - 1));
    }

    /// Override the dense-kernel dispatch mode (builder style).
    pub fn with_dense(mut self, mode: DenseMode) -> ExecContext<'b> {
        self.dense = mode;
        self
    }

    /// Override the dense-kernel dispatch mode.
    pub fn set_dense(&mut self, mode: DenseMode) {
        self.dense = mode;
    }

    /// The dense-kernel dispatch mode ([`crate::sparse::join_auto`],
    /// [`crate::sparse::agg_auto`] and [`crate::dense::join_agg_auto`]
    /// consult this).
    pub fn dense_mode(&self) -> DenseMode {
        self.dense
    }

    /// Override the sparse-tensor dispatch mode (builder style).
    pub fn with_repr(mut self, mode: ReprMode) -> ExecContext<'b> {
        self.repr = mode;
        self
    }

    /// Override the sparse-tensor dispatch mode.
    pub fn set_repr(&mut self, mode: ReprMode) {
        self.repr = mode;
    }

    /// The sparse-tensor dispatch mode ([`crate::sparse::join_auto`] and
    /// [`crate::sparse::agg_auto`] consult this).
    pub fn repr_mode(&self) -> ReprMode {
        self.repr
    }

    /// Override the kernel inner-loop mode (builder style).
    pub fn with_kernel(mut self, mode: KernelMode) -> ExecContext<'b> {
        self.kernel = mode;
        self
    }

    /// Override the kernel inner-loop mode.
    pub fn set_kernel(&mut self, mode: KernelMode) {
        self.kernel = mode;
    }

    /// The kernel inner-loop mode (the [`crate::dense`] and
    /// [`crate::sparse`] kernels consult this).
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Enable per-operator tracing (builder style).
    pub fn with_trace(mut self, level: TraceLevel) -> ExecContext<'b> {
        self.set_trace_level(level);
        self
    }

    /// Enable or disable per-operator tracing.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace.set_level(level);
    }

    /// The active trace level.
    pub fn trace_level(&self) -> TraceLevel {
        self.trace.level()
    }

    /// True when spans are being collected. Callers building expensive
    /// span labels should gate on this.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// Open a span for an operator about to run; `desc` is evaluated only
    /// when tracing is on. Pair with [`ExecContext::span_close`].
    pub fn span_open(&mut self, desc: impl FnOnce() -> SpanDesc) {
        self.trace.open(desc);
    }

    /// Open a phase span grouping subsequent operator spans (inference
    /// entry points use this; operator accounting attaches children).
    pub fn span_phase(&mut self, label: &str) {
        self.trace.open(|| SpanDesc::phase(label));
    }

    /// Close the innermost open span, recording wall time and an optional
    /// failure; `fault` is evaluated only when tracing is on.
    pub fn span_close(&mut self, fault: impl FnOnce() -> Option<String>) {
        self.trace.close(fault);
    }

    /// Take the finished trace, resetting the collector.
    pub fn take_trace(&mut self) -> TraceTree {
        self.trace.take()
    }

    /// Graft a finished worker's spans under the innermost open span (or
    /// the roots), in call order — the trace counterpart of
    /// [`ExecContext::absorb`]. Callers absorb children in plan order, so
    /// the tree is identical at every thread count.
    pub fn absorb_trace(&mut self, trace: TraceTree) {
        self.trace.absorb(trace.roots);
    }

    /// The active semiring.
    pub fn semiring(&self) -> SemiringKind {
        self.semiring
    }

    /// Worker threads this execution may use (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The budget being charged, if limits are configured.
    pub fn budget(&self) -> Option<&ExecBudget> {
        match &self.budget {
            BudgetSlot::None => None,
            BudgetSlot::Owned(b) => Some(b),
            BudgetSlot::Borrowed(b) => Some(b),
        }
    }

    /// A child context for a worker thread: same semiring and knobs, the
    /// *same* budget (atomic counters, shared deadline/cancellation), the
    /// same scanned-relation ledger and fork-token pool, and fresh stats.
    /// Merge the child's stats back with [`ExecContext::absorb`].
    pub fn fork(&self) -> ExecContext<'b> {
        ExecContext {
            semiring: self.semiring,
            budget: match &self.budget {
                BudgetSlot::None => BudgetSlot::None,
                BudgetSlot::Owned(b) => BudgetSlot::Owned(Arc::clone(b)),
                BudgetSlot::Borrowed(b) => BudgetSlot::Borrowed(b),
            },
            stats: ExecStats::default(),
            charged_scans: Arc::clone(&self.charged_scans),
            threads: self.threads,
            fork_tokens: Arc::clone(&self.fork_tokens),
            trace: TraceCollector::new(self.trace.level()),
            dense: self.dense,
            repr: self.repr,
            kernel: self.kernel,
        }
    }

    /// Merge a finished worker's counters into this context. Callers
    /// absorb children in plan order; because every [`ExecStats`] field
    /// merges commutatively the totals equal a sequential run's.
    pub fn absorb(&mut self, child: ExecStats) {
        self.stats.merge(&child);
    }

    /// Try to take a worker token for one extra thread. Returns `false`
    /// when the execution is single-threaded or the pool is exhausted;
    /// pair a `true` with [`ExecContext::release_worker`].
    pub(crate) fn try_acquire_worker(&self) -> bool {
        if self.threads <= 1 {
            return false;
        }
        if self.fork_tokens.fetch_sub(1, Ordering::AcqRel) > 0 {
            true
        } else {
            self.fork_tokens.fetch_add(1, Ordering::AcqRel);
            false
        }
    }

    /// Return a worker token taken by [`ExecContext::try_acquire_worker`].
    pub(crate) fn release_worker(&self) {
        self.fork_tokens.fetch_add(1, Ordering::AcqRel);
    }

    /// The work counters accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Take the accumulated work counters, resetting them to zero.
    pub fn take_stats(&mut self) -> ExecStats {
        std::mem::take(&mut self.stats)
    }

    /// An [`OpGuard`] for one operator emitting rows of `arity` variables.
    pub fn guard(&self, arity: usize) -> OpGuard<'_> {
        OpGuard::new(self.budget(), arity)
    }

    /// Fault-injection hook: fail if the named site is armed (a no-op
    /// without the `fault-injection` feature).
    pub fn fault(&self, site: &str) -> Result<()> {
        fault::check(site)
    }

    /// Poll the deadline and cancellation token, if any.
    pub fn checkpoint(&self) -> Result<()> {
        match self.budget() {
            Some(b) => b.checkpoint(),
            None => Ok(()),
        }
    }

    /// Record a scan of base relation `name`: counts rows in the
    /// stats on every scan, but charges the budget only the first time
    /// each relation is scanned (scans borrow the stored relation — there
    /// is no per-scan clone to charge). The ledger is shared across
    /// forks, so concurrent subplans also charge each relation once.
    pub fn record_scan(&mut self, name: &str, rel: &FunctionalRelation) -> Result<()> {
        self.stats.rows_scanned += rel.len() as u64;
        self.trace_op(SpanKind::Scan, &[], rel, OpRepr::Rows);
        if let Some(budget) = self.budget() {
            budget.checkpoint()?;
        }
        let mut charged = self
            .charged_scans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if !charged.contains(name) {
            if let Some(budget) = self.budget() {
                budget.charge_output(rel.len() as u64, rel.schema().arity())?;
            }
            charged.insert(name.to_string());
        }
        Ok(())
    }

    /// Account one operator's input/output cardinalities in the stats
    /// (rows processed, high-water intermediate size).
    pub(crate) fn account(
        &mut self,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
    ) {
        for rel in inputs {
            self.stats.rows_processed += rel.len() as u64;
        }
        self.stats.rows_processed += output.len() as u64;
        self.stats.max_intermediate_rows =
            self.stats.max_intermediate_rows.max(output.len() as u64);
    }

    /// Account a join operator (any algorithm).
    pub(crate) fn record_join(
        &mut self,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
    ) {
        self.record_join_ex(inputs, output, OpRepr::Rows);
    }

    /// [`ExecContext::record_join`] with an explicit representation:
    /// sparse/dense joins count in both `joins` and their per-repr
    /// counter and mark their span.
    pub(crate) fn record_join_ex(
        &mut self,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
        repr: OpRepr,
    ) {
        self.account(inputs, output);
        self.stats.joins += 1;
        match repr {
            OpRepr::Rows => {}
            OpRepr::Sparse => self.stats.sparse_joins += 1,
            OpRepr::Dense => self.stats.dense_joins += 1,
        }
        self.trace_op(SpanKind::Join, inputs, output, repr);
    }

    /// Account a group-by operator (any algorithm).
    pub(crate) fn record_group_by(
        &mut self,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
    ) {
        self.record_group_by_ex(inputs, output, OpRepr::Rows);
    }

    /// [`ExecContext::record_group_by`] with an explicit representation.
    pub(crate) fn record_group_by_ex(
        &mut self,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
        repr: OpRepr,
    ) {
        self.account(inputs, output);
        self.stats.group_bys += 1;
        match repr {
            OpRepr::Rows => {}
            OpRepr::Sparse => self.stats.sparse_group_bys += 1,
            OpRepr::Dense => self.stats.dense_group_bys += 1,
        }
        self.trace_op(SpanKind::GroupBy, inputs, output, repr);
    }

    /// Account a fused join→marginalize operator: the pair counts as one
    /// join *and* one group-by (so totals reconcile with an unfused plan)
    /// plus one fused-op tick, but only the *output* is accounted as an
    /// intermediate — the join product is never materialized, which is
    /// exactly the point of fusing.
    pub(crate) fn record_join_agg_ex(
        &mut self,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
        repr: OpRepr,
    ) {
        self.account(inputs, output);
        self.stats.joins += 1;
        self.stats.group_bys += 1;
        self.stats.fused_join_aggs += 1;
        match repr {
            OpRepr::Rows => {}
            OpRepr::Sparse => {
                self.stats.sparse_joins += 1;
                self.stats.sparse_group_bys += 1;
            }
            OpRepr::Dense => {
                self.stats.dense_joins += 1;
                self.stats.dense_group_bys += 1;
            }
        }
        self.trace_op(SpanKind::GroupBy, inputs, output, repr);
        self.trace.set_fused(true);
    }

    /// Account a selection operator.
    pub(crate) fn record_select(
        &mut self,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
    ) {
        self.account(inputs, output);
        self.stats.selects += 1;
        self.trace_op(SpanKind::Select, inputs, output, OpRepr::Rows);
    }

    /// Count one dense↔rows boundary conversion. Conversions charge no
    /// budget cells (the factor replaces its operand), so they surface
    /// only in the stats counter.
    pub(crate) fn note_dense_convert(&mut self) {
        self.stats.dense_converts += 1;
    }

    /// Count one sparse↔rows boundary conversion.
    pub(crate) fn note_sparse_convert(&mut self) {
        self.stats.sparse_converts += 1;
    }

    /// Count one kernel dispatch by inner-loop mode and tag the active
    /// span with `kernel=`. Call *after* the operator's `record_*` hook
    /// so an ad-hoc leaf span exists to tag.
    pub(crate) fn note_kernel_op(&mut self, mode: KernelMode) {
        match mode {
            KernelMode::Scalar => self.stats.kernel_scalar_ops += 1,
            KernelMode::Chunked => self.stats.kernel_chunked_ops += 1,
        }
        self.trace.set_kernel(mode.name());
    }

    /// Count where a row-major sparse operand's keyed order came from.
    pub(crate) fn note_keyed(&mut self, source: KeyedSource) {
        match source {
            KeyedSource::Memo => self.stats.keyed_memo_hits += 1,
            KeyedSource::Built => self.stats.keyed_memo_builds += 1,
            KeyedSource::Fresh => {}
        }
    }

    /// The keyed-memo counters now, for [`ExecContext::tag_keyed_since`].
    pub(crate) fn keyed_mark(&self) -> (u64, u64) {
        (self.stats.keyed_memo_hits, self.stats.keyed_memo_builds)
    }

    /// Tag the active span `keyed=built` when the operator filled a
    /// relation's memo since `mark`, `keyed=memo` when memos served all
    /// its memo lookups, and not at all when it made none. Same call-order
    /// rule as [`ExecContext::note_kernel_op`].
    pub(crate) fn tag_keyed_since(&mut self, mark: (u64, u64)) {
        let (hits, builds) = self.keyed_mark();
        if builds > mark.1 {
            self.trace.set_keyed("built");
        } else if hits > mark.0 {
            self.trace.set_keyed("memo");
        }
    }

    /// Tag the active fused span with the form its kernel ran — dense
    /// `nest=row` / `nest=cell`, sparse `nest=stream` / `nest=scatter` /
    /// `nest=staged`. Same call-order rule as
    /// [`ExecContext::note_kernel_op`].
    pub(crate) fn note_fused_nest(&mut self, nest: &'static str) {
        self.trace.set_nest(nest);
    }

    /// Raise the high-water intermediate size for rows an operator
    /// materialized internally (a fused operator's staged join).
    pub(crate) fn note_intermediate(&mut self, rows: u64) {
        self.stats.max_intermediate_rows = self.stats.max_intermediate_rows.max(rows);
    }

    /// [`ExecContext::record_join_ex`]/[`ExecContext::record_group_by_ex`]
    /// from cardinalities alone, for the factor-carrying operators whose
    /// operands are never row-materialized.
    pub(crate) fn record_factor_op(
        &mut self,
        kind: SpanKind,
        rows_in: &[u64],
        rows_out: u64,
        arity: usize,
        repr: OpRepr,
    ) {
        let total_in: u64 = rows_in.iter().sum();
        self.stats.rows_processed += total_in + rows_out;
        self.stats.max_intermediate_rows = self.stats.max_intermediate_rows.max(rows_out);
        match kind {
            SpanKind::Join => {
                self.stats.joins += 1;
                match repr {
                    OpRepr::Rows => {}
                    OpRepr::Sparse => self.stats.sparse_joins += 1,
                    OpRepr::Dense => self.stats.dense_joins += 1,
                }
            }
            SpanKind::GroupBy => {
                self.stats.group_bys += 1;
                match repr {
                    OpRepr::Rows => {}
                    OpRepr::Sparse => self.stats.sparse_group_bys += 1,
                    OpRepr::Dense => self.stats.dense_group_bys += 1,
                }
            }
            _ => {}
        }
        if self.trace.enabled() {
            let cells = rows_out * (arity as u64 + 1);
            self.trace.record_op(kind, total_in, rows_out, cells, repr);
        }
    }

    /// Feed one operator's cardinalities to the span collector: fills the
    /// interpreter's open span for this operator, or attaches a leaf span
    /// for ad-hoc operator calls (the inference layer).
    fn trace_op(
        &mut self,
        kind: SpanKind,
        inputs: &[&FunctionalRelation],
        output: &FunctionalRelation,
        repr: OpRepr,
    ) {
        if !self.trace.enabled() {
            return;
        }
        let rows_in: u64 = inputs.iter().map(|r| r.len() as u64).sum();
        let rows_out = output.len() as u64;
        let cells = rows_out * (output.schema().arity() as u64 + 1);
        self.trace.record_op(kind, rows_in, rows_out, cells, repr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_storage::{Catalog, Schema};

    fn rel() -> FunctionalRelation {
        let mut c = Catalog::new();
        let a = c.add_var("a", 2).unwrap();
        FunctionalRelation::from_rows(
            "r",
            Schema::new(vec![a]).unwrap(),
            [(vec![0], 1.0), (vec![1], 2.0)],
        )
        .unwrap()
    }

    #[test]
    fn unlimited_context_has_no_budget() {
        let cx = ExecContext::new(SemiringKind::SumProduct);
        assert!(cx.budget().is_none());
        assert!(ExecContext::with_limits(SemiringKind::SumProduct, ExecLimits::none())
            .budget()
            .is_none());
    }

    #[test]
    fn with_limits_owns_a_budget() {
        let cx = ExecContext::with_limits(
            SemiringKind::SumProduct,
            ExecLimits::none().with_max_total_cells(10),
        );
        assert!(cx.budget().is_some());
    }

    #[test]
    fn repeated_scans_charge_once() {
        let mut cx = ExecContext::with_limits(
            SemiringKind::SumProduct,
            ExecLimits::none().with_max_total_cells(1000),
        );
        let r = rel();
        cx.record_scan("r", &r).unwrap();
        let after_first = cx.budget().unwrap().cells_used();
        assert_eq!(after_first, 4); // 2 rows × (1 var + measure)
        cx.record_scan("r", &r).unwrap();
        assert_eq!(cx.budget().unwrap().cells_used(), after_first);
        // A different relation is charged.
        cx.record_scan("other", &r).unwrap();
        assert_eq!(cx.budget().unwrap().cells_used(), 2 * after_first);
        // Stats still count every scan.
        assert_eq!(cx.stats().rows_scanned, 6);
    }

    #[test]
    fn take_stats_resets() {
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let r = rel();
        cx.record_scan("r", &r).unwrap();
        let stats = cx.take_stats();
        assert_eq!(stats.rows_scanned, 2);
        assert_eq!(cx.stats().rows_scanned, 0);
    }

    #[test]
    fn fork_shares_budget_and_scan_ledger() {
        let mut cx = ExecContext::with_limits(
            SemiringKind::SumProduct,
            ExecLimits::none().with_max_total_cells(1000).with_threads(4),
        );
        let r = rel();
        let mut child = cx.fork();
        child.record_scan("r", &r).unwrap();
        // The child charged the shared budget and the shared ledger.
        assert_eq!(cx.budget().unwrap().cells_used(), 4);
        cx.record_scan("r", &r).unwrap();
        assert_eq!(cx.budget().unwrap().cells_used(), 4, "still charged once");
        // Stats are per-context until absorbed.
        assert_eq!(cx.stats().rows_scanned, 2);
        cx.absorb(child.take_stats());
        assert_eq!(cx.stats().rows_scanned, 4);
    }

    #[test]
    fn worker_tokens_bound_fan_out() {
        let cx = ExecContext::new(SemiringKind::SumProduct).with_threads(3);
        assert_eq!(cx.threads(), 3);
        let child = cx.fork();
        assert!(cx.try_acquire_worker());
        assert!(child.try_acquire_worker(), "pool is shared with forks");
        assert!(!cx.try_acquire_worker(), "threads - 1 tokens total");
        child.release_worker();
        assert!(cx.try_acquire_worker());

        let single = ExecContext::new(SemiringKind::SumProduct).with_threads(1);
        assert!(!single.try_acquire_worker());
    }
}
