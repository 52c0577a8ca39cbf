use std::borrow::Cow;

use mpf_semiring::SemiringKind;
use mpf_storage::FunctionalRelation;

use crate::limits::{ExecBudget, ExecLimits};
use crate::trace::{SpanDesc, SpanKind};
use crate::{
    ops, AlgebraError, ExecContext, ExecStats, PhysicalPlan, Plan, RelationProvider, Result,
};

/// Evaluates plans against a [`RelationProvider`] under a chosen semiring.
///
/// There is exactly one interpreter, and it evaluates [`PhysicalPlan`]s.
/// A logical [`Plan`] handed to [`Executor::execute`] first goes through
/// the lowering pass ([`Executor::lower`]), which picks the default
/// algorithm for every operator (hash join / hash aggregation); callers
/// with a cost model lower the plan themselves (the optimizer's
/// `choose_physical`) and call [`Executor::execute_physical`]. Both paths
/// run the same code, so lowered and hand-built physical plans of the
/// same shape produce identical results *and identical [`ExecStats`]*.
///
/// Execution state — semiring, optional budget, work counters, fault
/// hooks — travels in an [`ExecContext`] threaded through every operator.
/// The executor materializes every operator output (as the paper's
/// modified PostgreSQL does for group-by results inside join trees), but
/// scans *borrow* the stored base relations (`Cow`): a scan costs no copy
/// and the budget charges a relation's cells only on its first scan.
///
/// An executor built with [`Executor::with_limits`] enforces resource
/// budgets ([`ExecLimits`]) on every operator it runs; the wall clock for
/// a configured deadline starts when the executor is created.
///
/// The interpreter walks the plan on the calling thread. With more than
/// one worker thread ([`ExecLimits::threads`] /
/// [`Executor::with_threads`]) a dense elimination step with enough
/// products per worker ([`crate::dense::PARALLEL_MIN_WORK`]) splits its
/// output rows across scoped workers; that is the only parallelism
/// inside one query. The thread count never changes the plan, and every
/// cell folds in one worker, so answers, counters, and typed errors are
/// identical at any thread count.
#[derive(Debug)]
pub struct Executor<'a, P: RelationProvider> {
    provider: &'a P,
    semiring: SemiringKind,
    budget: Option<ExecBudget>,
    threads: usize,
}

impl<'a, P: RelationProvider> Executor<'a, P> {
    /// Create an executor over `provider` with the given semiring, no
    /// resource limits, and the environment-default parallelism
    /// ([`crate::limits::default_threads`]).
    pub fn new(provider: &'a P, semiring: SemiringKind) -> Self {
        Self {
            provider,
            semiring,
            budget: None,
            threads: crate::limits::default_threads(),
        }
    }

    /// Create an executor enforcing `limits`. Unlimited `limits` behave
    /// exactly like [`Executor::new`] (no tracking overhead); the
    /// `threads` knob is honored either way.
    pub fn with_limits(provider: &'a P, semiring: SemiringKind, limits: ExecLimits) -> Self {
        let threads = limits.effective_threads();
        Self {
            provider,
            semiring,
            budget: (!limits.is_unlimited()).then(|| ExecBudget::new(limits)),
            threads,
        }
    }

    /// Override the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The active semiring.
    pub fn semiring(&self) -> SemiringKind {
        self.semiring
    }

    /// The budget tracker, when limits are configured.
    pub fn budget(&self) -> Option<&ExecBudget> {
        self.budget.as_ref()
    }

    /// Lower a logical plan to a physical plan with the default algorithm
    /// (hash) for every operator.
    ///
    /// # Errors
    /// [`AlgebraError::PlanTooDeep`] for plans nested beyond
    /// [`crate::MAX_PLAN_DEPTH`].
    pub fn lower(&self, plan: &Plan) -> Result<PhysicalPlan> {
        plan.check_depth()?;
        Ok(PhysicalPlan::default_hash(plan))
    }

    /// Execute a logical plan (lowering pass + the physical interpreter),
    /// returning the result relation and work counters.
    pub fn execute(&self, plan: &Plan) -> Result<(FunctionalRelation, ExecStats)> {
        let physical = self.lower(plan)?;
        self.execute_physical(&physical)
    }

    /// Execute a physical plan (operator algorithms chosen per node).
    pub fn execute_physical(
        &self,
        plan: &PhysicalPlan,
    ) -> Result<(FunctionalRelation, ExecStats)> {
        let mut cx =
            ExecContext::with_budget(self.semiring, self.budget.as_ref()).with_threads(self.threads);
        let rel = self.execute_physical_in(&mut cx, plan)?;
        Ok((rel, cx.take_stats()))
    }

    /// Execute a physical plan in a caller-supplied context, so the caller
    /// keeps the accumulated [`ExecStats`] (and any budget) even when
    /// execution fails — the engine uses this to report total work across
    /// fallback attempts.
    pub fn execute_physical_in(
        &self,
        cx: &mut ExecContext<'_>,
        plan: &PhysicalPlan,
    ) -> Result<FunctionalRelation> {
        let depth = plan.depth();
        if depth > crate::MAX_PLAN_DEPTH {
            return Err(AlgebraError::PlanTooDeep {
                depth,
                max: crate::MAX_PLAN_DEPTH,
            });
        }
        Ok(self.run(cx, plan)?.into_owned())
    }

    /// Resolve a scan as a borrow of the stored relation.
    fn scan(&self, cx: &mut ExecContext<'_>, relation: &str) -> Result<&'a FunctionalRelation> {
        let rel = self
            .provider
            .relation_of(relation)
            .ok_or_else(|| AlgebraError::UnknownRelation(relation.to_string()))?;
        cx.record_scan(relation, rel)?;
        Ok(rel)
    }

    /// The single plan interpreter. Scans borrow from the provider;
    /// operator outputs are owned. Wraps every node in a trace span when
    /// the context collects them ([`crate::TraceLevel::Spans`]): the
    /// node's `record_*` accounting fills the span's row counts, the
    /// wrapper adds inclusive wall time and the failure, if any.
    fn run(
        &self,
        cx: &mut ExecContext<'_>,
        plan: &PhysicalPlan,
    ) -> Result<Cow<'a, FunctionalRelation>> {
        cx.span_open(|| span_desc(plan));
        let result = self.run_node(cx, plan);
        cx.span_close(|| result.as_ref().err().map(|e| e.to_string()));
        result
    }

    /// [`Executor::run`] body, without the span bracket.
    fn run_node(
        &self,
        cx: &mut ExecContext<'_>,
        plan: &PhysicalPlan,
    ) -> Result<Cow<'a, FunctionalRelation>> {
        match plan {
            PhysicalPlan::Scan { relation } => Ok(Cow::Borrowed(self.scan(cx, relation)?)),
            PhysicalPlan::Select { input, predicates } => {
                let in_rel = self.run(cx, input)?;
                Ok(Cow::Owned(ops::select_eq(cx, &in_rel, predicates)?))
            }
            PhysicalPlan::Step {
                inputs,
                group_vars,
                repr,
            } => {
                let rels = inputs
                    .iter()
                    .map(|i| self.run(cx, i))
                    .collect::<Result<Vec<_>>>()?;
                let rels: Vec<&FunctionalRelation> = rels.iter().map(|r| r.as_ref()).collect();
                Ok(Cow::Owned(ops::step(cx, &rels, group_vars.as_deref(), *repr)?))
            }
        }
    }
}

/// Describe a plan node for its trace span: kind and display label. Only
/// called with tracing on.
fn span_desc(plan: &PhysicalPlan) -> SpanDesc {
    match plan {
        PhysicalPlan::Scan { relation } => {
            SpanDesc::op(SpanKind::Scan, format!("Scan {relation}"))
        }
        PhysicalPlan::Select { .. } => SpanDesc::op(SpanKind::Select, "Select"),
        // `SpanDesc::op` leaves the span `Rows` even for the dense/sparse
        // annotations: the step may fall back at runtime, and
        // record-time merging overwrites the representation only when a
        // kernel actually ran. A fused step accounts through
        // `record_join_agg_ex`, which records under the GroupBy kind (the
        // node's output is the marginal) and tags the span `fused=true`
        // at run time.
        PhysicalPlan::Step {
            inputs,
            group_vars,
            repr,
        } => {
            let algo = crate::physical::algo_label(*repr, inputs.len());
            match (group_vars, inputs.len()) {
                (None, _) => SpanDesc::op(SpanKind::Join, format!("ProductJoin ({algo})")),
                (Some(_), 1) => SpanDesc::op(SpanKind::GroupBy, format!("GroupBy ({algo})")),
                (Some(_), _) => SpanDesc::op(SpanKind::GroupBy, "JoinAgg (Fused)"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpRepr, RelationStore};
    use mpf_semiring::approx_eq;
    use mpf_storage::{Catalog, Schema, VarId};

    fn store() -> (Catalog, RelationStore, VarId, VarId, VarId) {
        let mut c = Catalog::new();
        let a = c.add_var("a", 2).unwrap();
        let b = c.add_var("b", 2).unwrap();
        let d = c.add_var("d", 2).unwrap();
        let mut s = RelationStore::new();
        s.insert(
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
        );
        s.insert(
            FunctionalRelation::from_rows(
                "r2",
                Schema::new(vec![b, d]).unwrap(),
                [
                    (vec![0, 0], 10.0),
                    (vec![0, 1], 20.0),
                    (vec![1, 0], 30.0),
                    (vec![1, 1], 40.0),
                ],
            )
            .unwrap(),
        );
        (c, s, a, b, d)
    }

    #[test]
    fn executes_full_plan() {
        let (_, s, _, _, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let plan = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![d]);
        let (out, stats) = exec.execute(&plan).unwrap();
        assert!(approx_eq(out.lookup(&[0]).unwrap(), 220.0));
        assert!(approx_eq(out.lookup(&[1]).unwrap(), 320.0));
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.group_bys, 1);
        assert_eq!(stats.rows_scanned, 8);
        assert!(stats.rows_processed > 0);
        assert_eq!(stats.max_intermediate_rows, 8);
    }

    #[test]
    fn pushed_down_group_by_same_answer_less_work() {
        let (_, s, _, b, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let root_only = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![d]);
        // Push a group-by onto r1 (eliminate `a` early).
        let pushed = Plan::group_by(
            Plan::join(
                Plan::group_by(Plan::scan("r1"), vec![b]),
                Plan::scan("r2"),
            ),
            vec![d],
        );
        let (out1, st1) = exec.execute(&root_only).unwrap();
        let (out2, st2) = exec.execute(&pushed).unwrap();
        assert!(out1.function_eq(&out2));
        assert!(st2.rows_processed < st1.rows_processed);
    }

    #[test]
    fn select_plan() {
        let (_, s, a, _, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let plan = Plan::group_by(
            Plan::join(
                Plan::select(Plan::scan("r1"), vec![(a, 0)]),
                Plan::scan("r2"),
            ),
            vec![d],
        );
        let (out, stats) = exec.execute(&plan).unwrap();
        // a=0: d=0 -> 1*10 + 2*30 = 70; d=1 -> 1*20 + 2*40 = 100.
        assert!(approx_eq(out.lookup(&[0]).unwrap(), 70.0));
        assert!(approx_eq(out.lookup(&[1]).unwrap(), 100.0));
        assert_eq!(stats.selects, 1);
    }

    #[test]
    fn unknown_relation_errors() {
        let (_, s, _, _, _) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        assert!(matches!(
            exec.execute(&Plan::scan("missing")),
            Err(AlgebraError::UnknownRelation(_))
        ));
    }

    #[test]
    fn lowered_plan_matches_hand_built_physical() {
        // The acceptance check for the single interpreter: executing a
        // logical plan (through lowering) and the equivalent hand-built
        // physical plan must agree on the answer AND on every work counter.
        let (_, s, _, b, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let logical = Plan::group_by(
            Plan::join(
                Plan::group_by(Plan::scan("r1"), vec![b]),
                Plan::scan("r2"),
            ),
            vec![d],
        );
        let step = |inputs, group_vars| PhysicalPlan::Step {
            inputs,
            group_vars,
            repr: OpRepr::Rows,
        };
        let scan = |name: &str| PhysicalPlan::Scan {
            relation: name.into(),
        };
        let hand_built = step(
            vec![step(
                vec![step(vec![scan("r1")], Some(vec![b])), scan("r2")],
                None,
            )],
            Some(vec![d]),
        );
        let (lowered_out, lowered_stats) = exec.execute(&logical).unwrap();
        let (hand_out, hand_stats) = exec.execute_physical(&hand_built).unwrap();
        assert!(lowered_out.function_eq(&hand_out));
        assert_eq!(lowered_stats, hand_stats);
    }

    #[test]
    fn too_deep_plans_error_before_evaluation() {
        let (_, s, _, _, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let mut plan = Plan::scan("r1");
        for _ in 0..crate::MAX_PLAN_DEPTH + 20 {
            plan = Plan::join(plan, Plan::scan("r2"));
        }
        let plan = Plan::group_by(plan, vec![d]);
        assert!(matches!(
            exec.execute(&plan),
            Err(AlgebraError::PlanTooDeep { .. })
        ));
        // The same guard protects a directly-supplied physical plan.
        let mut phys = PhysicalPlan::Scan {
            relation: "r1".into(),
        };
        for _ in 0..crate::MAX_PLAN_DEPTH + 20 {
            phys = PhysicalPlan::Step {
                inputs: vec![
                    phys,
                    PhysicalPlan::Scan {
                        relation: "r2".into(),
                    },
                ],
                group_vars: None,
                repr: OpRepr::Rows,
            };
        }
        assert!(matches!(
            exec.execute_physical(&phys),
            Err(AlgebraError::PlanTooDeep { .. })
        ));
    }

    #[test]
    fn repeated_scans_budget_charged_once() {
        // Joining r1 with itself scans the same stored relation twice;
        // only the first scan charges the budget (there is no clone to
        // pay for), so a budget sized for one copy + the join output
        // suffices.
        let (_, s, a, b, _) = store();
        // One scan charge (4 rows × 3 cells = 12) + join output
        // (r1 ⨝* r1 = 4 rows × 3 = 12) + group-by output (4 rows × 3 =
        // 12) totals 36 cells; charging the second scan too would need
        // 48. A 40-cell budget therefore fits only with single charging.
        let exec = Executor::with_limits(
            &s,
            SemiringKind::SumProduct,
            ExecLimits::none().with_max_total_cells(40),
        );
        let plan = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r1")), vec![a, b]);
        let (out, stats) = exec.execute(&plan).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(stats.rows_scanned, 8, "stats still count both scans");
    }
}
