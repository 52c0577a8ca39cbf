//! Batch what-if evaluation: named [`Scenario`]s evaluated as one set
//! with shared-subplan fan-out.
//!
//! The paper's decision-support workload (Section 3) is comparative —
//! "what happens to each contractor's utility if supplier costs shock by
//! 10%?" — which makes single-`Override` hypothetical queries wasteful:
//! each variant replans and re-executes the entire view even though most
//! of the plan never looks at the overridden relation. Viewing the view
//! product as a tensor contraction (the FAQ line of work) makes the
//! sharing explicit: every plan subtree whose scans are disjoint from a
//! scenario's touched relations is *invariant across the whole set* and
//! can be computed once.
//!
//! [`Database::run_scenarios`] therefore evaluates a [`ScenarioSet`] as:
//!
//! 1. **baseline** — the unmodified query through the normal path (the
//!    transparent [`crate::ViewCache`] serves it when resident);
//! 2. **plan** — each scenario is planned on the overlay
//!    [`scenario_provider`] builds, exactly as a sequential
//!    single-scenario run plans it (measure-only scenarios reuse one
//!    plan per strategy: [`mpf_optimizer::BaseRel`] statistics are
//!    measure-independent, so the optimizer input is identical);
//! 3. **partition** — the physical plan splits into a *shared trunk*
//!    (maximal subtrees scanning only untouched relations, memoized by
//!    structural identity and computed once per batch) and a
//!    *per-scenario frontier* (the residual plan, executed against an
//!    [`Overlay`] holding the scenario's patched relations plus the
//!    memoized trunk outputs under synthetic scan names);
//! 4. **fan-out** — scenarios are chunked across scoped worker threads,
//!    every execution context forked from one root so the whole batch
//!    runs under a single shared budget and scan ledger.
//!
//! Execution is deterministic at any thread count (the PR 3 contract),
//! and a memoized trunk output is bit-identical to what the inline
//! subtree would have produced against the same data, so batch answers
//! are **bit-identical** to a sequential loop of single-scenario runs —
//! the property the `scenario_set` proptest pins. Frontiers are always
//! recomputed rather than ratio-patched: the Section 6 update-semijoin
//! division trick (which the view cache uses for *cache* maintenance,
//! where it is pinned by its own bit-exactness tests) would reassociate
//! floating-point products and break that guarantee here.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpf_algebra::{
    ExecContext, ExecStats, Executor, Overlay, PhysicalPlan, RelationProvider, RelationStore,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{FunctionalRelation, Value};

use crate::database::{view_semiring, Planned};
use crate::snapshot::Snapshot;
use crate::{
    delta, Answer, Database, EngineError, Override, Query, QueryRequest, Result, Strategy,
};

/// A named what-if variant: the single unit of hypothetical evaluation.
///
/// A scenario bundles any number of [`Override`]s (alternate measures,
/// alternate domains) with optional *evidence* assignments (`var = value`
/// conditions, the constrained-domain query form), under a name the
/// report keys results by.
///
/// ```
/// use mpf_engine::Scenario;
///
/// let sc = Scenario::named("t1-offline")
///     .measure("transporters", vec![1, 0], 0.0)
///     .evidence("wid", 2);
/// assert_eq!(sc.name(), "t1-offline");
/// assert_eq!(sc.overrides().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    overrides: Vec<Override>,
    evidence: Vec<(String, Value)>,
}

impl Scenario {
    /// Start an empty scenario with a name (names must be unique within
    /// a set).
    pub fn named(name: impl Into<String>) -> Scenario {
        Scenario {
            name: name.into(),
            overrides: Vec::new(),
            evidence: Vec::new(),
        }
    }

    /// Add an [`Override`] (appends to earlier ones; overrides of one
    /// relation compose in order).
    pub fn with(mut self, ov: Override) -> Scenario {
        self.overrides.push(ov);
        self
    }

    /// Sugar for a measure override: "what if this row of `relation` had
    /// measure `measure`?"
    pub fn measure(self, relation: impl Into<String>, row: Vec<Value>, measure: f64) -> Scenario {
        self.with(Override::Measure {
            relation: relation.into(),
            row,
            measure,
        })
    }

    /// Sugar for a domain override: "what if `var = from` rows of
    /// `relation` moved to `var = to`?"
    pub fn move_domain(
        self,
        relation: impl Into<String>,
        var: impl Into<String>,
        from: Value,
        to: Value,
    ) -> Scenario {
        self.with(Override::Domain {
            relation: relation.into(),
            var: var.into(),
            from,
            to,
        })
    }

    /// Condition this scenario on `var = value` (merged into the query's
    /// equality predicates for this scenario only).
    pub fn evidence(mut self, var: impl Into<String>, value: Value) -> Scenario {
        self.evidence.push((var.into(), value));
        self
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The overrides, in application order.
    pub fn overrides(&self) -> &[Override] {
        &self.overrides
    }

    /// The evidence assignments.
    pub fn evidence_set(&self) -> &[(String, Value)] {
        &self.evidence
    }

    /// Whether this scenario's optimizer input is identical to the
    /// baseline's: measure overrides change neither schema nor
    /// cardinality (the only [`mpf_optimizer::BaseRel`] statistics), and
    /// there is no evidence to fold into the query spec — so one plan
    /// per strategy serves every such scenario.
    fn plan_reusable(&self) -> bool {
        self.evidence.is_empty()
            && self
                .overrides
                .iter()
                .all(|ov| matches!(ov, Override::Measure { .. }))
    }
}

/// An ordered set of [`Scenario`]s submitted as one batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioSet {
    pub(crate) items: Vec<Scenario>,
}

impl ScenarioSet {
    /// An empty set.
    pub fn new() -> ScenarioSet {
        ScenarioSet::default()
    }

    /// Append a scenario.
    pub fn push(&mut self, sc: Scenario) {
        self.items.push(sc);
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate the scenarios in submission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Scenario> {
        self.items.iter()
    }

    /// The scenarios as a slice.
    pub fn as_slice(&self) -> &[Scenario] {
        &self.items
    }
}

impl From<Vec<Scenario>> for ScenarioSet {
    fn from(items: Vec<Scenario>) -> ScenarioSet {
        ScenarioSet { items }
    }
}

impl From<Scenario> for ScenarioSet {
    fn from(sc: Scenario) -> ScenarioSet {
        ScenarioSet { items: vec![sc] }
    }
}

impl FromIterator<Scenario> for ScenarioSet {
    fn from_iter<T: IntoIterator<Item = Scenario>>(iter: T) -> ScenarioSet {
        ScenarioSet {
            items: iter.into_iter().collect(),
        }
    }
}

impl<'s> IntoIterator for &'s ScenarioSet {
    type Item = &'s Scenario;
    type IntoIter = std::slice::Iter<'s, Scenario>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// One output group whose measure moved between the baseline and a
/// scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDelta {
    /// The group's variable values (in the answer schema's order).
    pub row: Vec<Value>,
    /// The baseline measure (`None` when the group only exists under the
    /// scenario).
    pub baseline: Option<f64>,
    /// The scenario measure (`None` when the group vanished under the
    /// scenario).
    pub scenario: Option<f64>,
    /// Ranking key: `|scenario − baseline|` when both exist and the
    /// difference is finite; infinite for groups that appeared,
    /// vanished, or moved between non-finite measures.
    pub shift: f64,
}

/// The invariant-vs-divergent summary of one scenario against the
/// baseline answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Divergence {
    /// Groups that moved, ranked by [`GroupDelta::shift`] descending
    /// (appearances/disappearances first), ties broken by row. Empty for
    /// an invariant scenario.
    pub deltas: Vec<GroupDelta>,
}

impl Divergence {
    /// Compare two answers row-by-row. Measures are compared by bit
    /// pattern: "invariant" means *exactly* the baseline answer.
    pub fn between(baseline: &FunctionalRelation, scenario: &FunctionalRelation) -> Divergence {
        let mut base: HashMap<Vec<Value>, f64> = baseline
            .rows()
            .map(|(row, m)| (row.to_vec(), m))
            .collect();
        let mut deltas = Vec::new();
        for (row, m) in scenario.rows() {
            match base.remove(row) {
                Some(old) if old.to_bits() == m.to_bits() => {}
                Some(old) => deltas.push(GroupDelta {
                    row: row.to_vec(),
                    baseline: Some(old),
                    scenario: Some(m),
                    shift: shift_of(old, m),
                }),
                None => deltas.push(GroupDelta {
                    row: row.to_vec(),
                    baseline: None,
                    scenario: Some(m),
                    shift: f64::INFINITY,
                }),
            }
        }
        for (row, old) in base {
            deltas.push(GroupDelta {
                row,
                baseline: Some(old),
                scenario: None,
                shift: f64::INFINITY,
            });
        }
        deltas.sort_by(|a, b| b.shift.total_cmp(&a.shift).then_with(|| a.row.cmp(&b.row)));
        Divergence { deltas }
    }

    /// Whether the scenario's answer is bit-identical to the baseline.
    pub fn is_invariant(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Number of groups that moved.
    pub fn moved(&self) -> usize {
        self.deltas.len()
    }

    /// The largest shift (0 for an invariant scenario; infinite when a
    /// group appeared or vanished).
    pub fn max_shift(&self) -> f64 {
        self.deltas.first().map_or(0.0, |d| d.shift)
    }
}

fn shift_of(old: f64, new: f64) -> f64 {
    let d = (new - old).abs();
    if d.is_nan() {
        f64::INFINITY
    } else {
        d
    }
}

/// One scenario's result within a [`ScenarioReport`].
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's name.
    pub name: String,
    /// The scenario's full answer (stats include this scenario's share
    /// of trunk work; traces are not recorded on the batch path).
    pub answer: Answer,
    /// How the answer moved relative to the baseline.
    pub divergence: Divergence,
}

/// The result of a batch what-if evaluation
/// ([`Database::run_scenarios`]): the baseline answer, per-scenario
/// answers in submission order, and the batch's sharing counters.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The unmodified query's answer (served through the normal path,
    /// including the transparent view cache).
    pub baseline: Answer,
    /// Per-scenario outcomes, in submission order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Distinct shared-trunk subtrees materialized once for the batch.
    pub trunk_builds: u64,
    /// Frontier executions that reused a memoized trunk output.
    pub trunk_hits: u64,
    /// Wall time for the whole batch (baseline + fan-out).
    pub elapsed: Duration,
}

impl ScenarioReport {
    /// The outcome of a named scenario, if present.
    pub fn outcome(&self, name: &str) -> Option<&ScenarioOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// Outcomes whose answers moved, ranked by their largest group
    /// shift descending (ties: submission order).
    pub fn divergent(&self) -> Vec<&ScenarioOutcome> {
        let mut out: Vec<&ScenarioOutcome> = self
            .outcomes
            .iter()
            .filter(|o| !o.divergence.is_invariant())
            .collect();
        out.sort_by(|a, b| b.divergence.max_shift().total_cmp(&a.divergence.max_shift()));
        out
    }

    /// Scenarios whose answers are bit-identical to the baseline.
    pub fn invariant(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.divergence.is_invariant())
            .collect()
    }
}

/// Per-batch plan memo: measure-only scenarios produce optimizer input
/// identical to the baseline's, so each strategy is planned once.
#[derive(Default)]
struct PlanCache {
    inner: Mutex<Vec<(Strategy, Arc<Planned>)>>,
}

impl PlanCache {
    fn get(&self, strategy: Strategy) -> Option<Arc<Planned>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|(s, _)| *s == strategy)
            .map(|(_, p)| Arc::clone(p))
    }

    fn put(&self, strategy: Strategy, planned: Arc<Planned>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !inner.iter().any(|(s, _)| *s == strategy) {
            inner.push((strategy, planned));
        }
    }
}

/// One shared-trunk subtree: the synthetic scan name the residual plans
/// reference it by, and its compute-once output cell. The first scenario
/// to need the trunk builds it under the cell lock; concurrent scenarios
/// needing the same trunk block until the output (or its error) is
/// available.
struct TrunkSlot {
    scan_name: String,
    cell: Mutex<Option<Result<Arc<FunctionalRelation>>>>,
}

impl TrunkSlot {
    /// Returns the trunk output and whether *this* call built it.
    fn get_or_build(
        &self,
        f: impl FnOnce() -> Result<Arc<FunctionalRelation>>,
    ) -> (Result<Arc<FunctionalRelation>>, bool) {
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        match &*cell {
            Some(r) => (r.clone(), false),
            None => {
                let r = f();
                *cell = Some(r.clone());
                (r, true)
            }
        }
    }
}

/// Batch-wide trunk memo keyed by the subtree's full `Debug` rendering —
/// a faithful structural key (relation names, predicates, algorithms),
/// so structurally identical subtrees across scenarios and strategies
/// share one slot, and evidence-specific subtrees (whose `Select`
/// predicates differ) get their own.
#[derive(Default)]
struct TrunkMemo {
    slots: Mutex<HashMap<String, Arc<TrunkSlot>>>,
}

impl TrunkMemo {
    fn slot(&self, sub: &PhysicalPlan) -> Arc<TrunkSlot> {
        let key = format!("{sub:?}");
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let next = slots.len();
        Arc::clone(slots.entry(key).or_insert_with(|| {
            Arc::new(TrunkSlot {
                scan_name: format!("__trunk:{next}"),
                cell: Mutex::new(None),
            })
        }))
    }
}

impl Database {
    /// Evaluate a [`ScenarioSet`] in one batch and return a
    /// [`ScenarioReport`]: the baseline answer plus, per scenario, the
    /// full answer and an invariant-vs-divergent summary ranked by group
    /// shift.
    ///
    /// Each scenario is evaluated as a one-scenario [`Database::run`]
    /// evaluates it: on an overlay of its patched relations, through the
    /// same strategy-fallback loop. Answers are therefore bit-identical
    /// to running each scenario alone; the batch is faster because plan
    /// subtrees untouched by any scenario's overrides are computed once
    /// and shared, measure-only scenarios share one plan per strategy, and
    /// scenarios fan out across the worker threads the effective
    /// [`mpf_algebra::ExecLimits::threads`] allows — all under one shared
    /// execution budget (a batch that trips a budget mid-way fails where the
    /// equivalent sequential loop might squeak through; budgets bound
    /// *total* work either way).
    ///
    /// # Errors
    /// [`EngineError::DuplicateScenario`] for repeated names;
    /// [`EngineError::BadOverride`] when a request carries
    /// [`QueryRequest::via_cache`]; the first failing scenario's error
    /// (in submission order) otherwise, matching the sequential loop.
    pub fn run_scenarios<'a>(&self, req: impl Into<QueryRequest<'a>>) -> Result<ScenarioReport> {
        let req = req.into();
        let t0 = Instant::now();
        let result = self.run_scenario_set(&req);
        if let Some(m) = self.metrics() {
            m.inc("engine.scenario.batches");
            m.observe("engine.scenario.batch_us", t0.elapsed());
            match &result {
                Ok(report) => {
                    m.add("engine.scenario.evaluated", report.outcomes.len() as u64);
                    m.add("engine.scenario.trunk_builds", report.trunk_builds);
                    m.add("engine.scenario.trunk_hits", report.trunk_hits);
                }
                Err(_) => m.inc("engine.scenario.errors"),
            }
        }
        result
    }

    /// [`Database::run_scenarios`] without the metrics. Scenarios are
    /// independent whole queries, so handing them to worker threads is the
    /// one parallelism above a single elimination step that pays (DESIGN
    /// §9): each worker claims the next scenario and runs it on its own
    /// fork of one root context.
    fn run_scenario_set(&self, req: &QueryRequest<'_>) -> Result<ScenarioReport> {
        let t0 = Instant::now();
        if req.cache.is_some() {
            return Err(EngineError::BadOverride(
                "scenario sets cannot be served from a caller-supplied VeCache; \
                 the batch engine plans against the base relations"
                    .into(),
            ));
        }
        let mut names = HashSet::new();
        for sc in req.scenarios.iter() {
            if !names.insert(sc.name()) {
                return Err(EngineError::DuplicateScenario(sc.name().to_string()));
            }
        }
        // One snapshot for the whole batch: baseline, trunks, and every
        // scenario see the same version.
        let snap = self.snapshot();
        let baseline = self.run_request(&req.baseline())?;

        let (_, sr) = view_semiring(&snap, &req.query.view, req.query.agg)?;
        let limits = self.request_limits(req);
        // One root context: every worker's fork charges its budget and
        // shares its scan ledger, so the whole batch draws from one
        // allowance.
        let root = self.exec_context(sr, limits.clone());
        let memo = TrunkMemo::default();
        let plans = PlanCache::default();

        let scenarios = req.scenarios.as_slice();
        let n = scenarios.len();
        let slots: Vec<Mutex<Option<Result<Answer>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = limits.effective_threads().max(1).min(n.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let worker_cx = root.fork();
                let (slots, next, snap, memo, plans) = (&slots, &next, &snap, &memo, &plans);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let sc = &scenarios[i];
                    let out =
                        scenario_provider(snap, sc, &req.query).and_then(|(p, touched, q)| {
                            let share = BatchShare {
                                cx: &worker_cx,
                                plans,
                                memo,
                                touched: &touched,
                                reusable: sc.plan_reusable(),
                            };
                            self.query_on(snap, req, &q, &p, Some(&share))
                        });
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                });
            }
        });

        let mut outcomes = Vec::with_capacity(n);
        let (mut trunk_builds, mut trunk_hits) = (0u64, 0u64);
        for (i, slot) in slots.into_iter().enumerate() {
            let answer = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every claimed scenario index is filled before its worker exits")?;
            trunk_builds += answer.stats.trunk_builds;
            trunk_hits += answer.stats.trunk_hits;
            let divergence = Divergence::between(&baseline.relation, &answer.relation);
            outcomes.push(ScenarioOutcome {
                name: scenarios[i].name().to_string(),
                answer,
                divergence,
            });
        }
        Ok(ScenarioReport {
            baseline,
            outcomes,
            trunk_builds,
            trunk_hits,
            elapsed: t0.elapsed(),
        })
    }
}

/// A scenario's relation provider: an [`Overlay`] over the snapshot's
/// store in which each relation the scenario's overrides touch is
/// shadowed by its patched copy (overrides of one relation compose in
/// order), the names of those relations, and the query with the
/// scenario's evidence folded into its equality predicates. A
/// one-scenario [`Database::run`], [`Database::describe`] and every
/// batch worker evaluate a scenario through this provider.
pub(crate) fn scenario_provider<'s>(
    snap: &'s Snapshot,
    sc: &Scenario,
    query: &Query,
) -> Result<(Overlay<'s, RelationStore>, HashSet<String>, Query)> {
    let mut overlay = Overlay::new(&snap.store);
    let mut touched = HashSet::new();
    for ov in sc.overrides() {
        let name = ov.relation();
        let patched = {
            let current = overlay
                .relation_of(name)
                .ok_or_else(|| EngineError::BadOverride(format!("no relation `{name}`")))?;
            delta::apply(&snap.catalog, current, ov)?
        };
        overlay.insert_as(name, Arc::new(patched));
        touched.insert(name.to_string());
    }
    let mut q = query.clone();
    for (var, value) in sc.evidence_set() {
        q = q.filter(var.clone(), *value);
    }
    Ok((overlay, touched, q))
}

/// What a scenario batch shares with one of its scenarios: the worker's
/// fork of the batch's root context (one budget, one scan ledger), the
/// plan memo, the trunk memo, and the relations the scenario touches.
/// [`Database::query_on`] takes it; plan reuse and trunk substitution
/// are the only differences it makes, and neither moves a bit.
pub(crate) struct BatchShare<'s> {
    pub(crate) cx: &'s ExecContext<'s>,
    plans: &'s PlanCache,
    memo: &'s TrunkMemo,
    touched: &'s HashSet<String>,
    /// Whether the scenario's optimizer input is the baseline's
    /// ([`Scenario::plan_reusable`]).
    reusable: bool,
}

impl BatchShare<'_> {
    /// The plan for `strategy`: the batch's memoized one when the
    /// scenario's optimizer input is the baseline's, else `plan()`'s
    /// (memoized for the next such scenario).
    pub(crate) fn planned(
        &self,
        strategy: Strategy,
        plan: impl FnOnce() -> Result<Planned>,
    ) -> Result<Arc<Planned>> {
        if !self.reusable {
            return plan().map(Arc::new);
        }
        if let Some(p) = self.plans.get(strategy) {
            return Ok(p);
        }
        let p = Arc::new(plan()?);
        self.plans.put(strategy, Arc::clone(&p));
        Ok(p)
    }

    /// Split `physical` into shared trunks (maximal subtrees scanning no
    /// touched relation) and the residual plan the scenario executes.
    /// Each trunk is materialized once per batch against the pristine
    /// store, and its output shadows `scans` under the synthetic name
    /// the residual scans it by. Trunk work is merged into `total`.
    pub(crate) fn residual<P: RelationProvider>(
        &self,
        snap: &Snapshot,
        sr: SemiringKind,
        physical: &PhysicalPlan,
        scans: &mut Overlay<'_, P>,
        total: &mut ExecStats,
    ) -> Result<PhysicalPlan> {
        let mut pieces: Vec<(Arc<TrunkSlot>, PhysicalPlan)> = Vec::new();
        let residual = physical.extract_shared(&|name| self.touched.contains(name), &mut |sub| {
            let slot = self.memo.slot(sub);
            let name = slot.scan_name.clone();
            pieces.push((slot, sub.clone()));
            name
        });
        for (slot, sub) in pieces {
            let mut build_stats = ExecStats::default();
            let (rel, built) = slot.get_or_build(|| {
                // Trunks scan only untouched relations, so they execute
                // against the pristine base store — once per batch.
                let exec = Executor::new(&snap.store, sr);
                let mut cx = self.cx.fork();
                let out = exec.execute_physical_in(&mut cx, &sub);
                build_stats.merge(cx.stats());
                out.map(Arc::new).map_err(EngineError::from)
            });
            total.merge(&build_stats);
            if built {
                total.trunk_builds += 1;
            } else {
                total.trunk_hits += 1;
            }
            scans.insert_as(slot.scan_name.clone(), rel?);
        }
        Ok(residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builder_accumulates() {
        let sc = Scenario::named("s")
            .measure("r", vec![0, 1], 2.0)
            .move_domain("r", "a", 1, 0)
            .evidence("b", 1);
        assert_eq!(sc.name(), "s");
        assert_eq!(sc.overrides().len(), 2);
        assert_eq!(sc.evidence_set(), &[("b".to_string(), 1)]);
        assert!(!sc.plan_reusable(), "domain moves change cardinality");
        assert!(Scenario::named("m")
            .measure("r", vec![0], 1.0)
            .plan_reusable());
    }

    #[test]
    fn scenario_set_collects() {
        let set: ScenarioSet = (0..3).map(|i| Scenario::named(format!("s{i}"))).collect();
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().count(), 3);
        assert!(!set.is_empty());
        let single: ScenarioSet = Scenario::named("one").into();
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn divergence_ranks_and_detects_invariance() {
        use mpf_storage::{Catalog, Schema};
        let mut catalog = Catalog::new();
        let a = catalog.add_var("a", 4).unwrap();
        let schema = Schema::new(vec![a]).unwrap();
        let base = FunctionalRelation::from_rows(
            "g",
            schema.clone(),
            [(vec![0], 1.0), (vec![1], 2.0), (vec![2], 3.0)],
        )
        .unwrap();
        assert!(Divergence::between(&base, &base).is_invariant());
        // 0 moves a little, 1 moves a lot, 2 vanishes, 3 appears.
        let changed = FunctionalRelation::from_rows(
            "g",
            schema,
            [(vec![0], 1.5), (vec![1], 10.0), (vec![3], 7.0)],
        )
        .unwrap();
        let d = Divergence::between(&base, &changed);
        assert_eq!(d.moved(), 4);
        assert!(d.max_shift().is_infinite());
        // Appear/vanish rank first (row order breaks the tie), then the
        // finite shifts descending.
        assert_eq!(d.deltas[0].row, vec![2]);
        assert_eq!(d.deltas[1].row, vec![3]);
        assert_eq!(d.deltas[2].row, vec![1]);
        assert_eq!(d.deltas[3].row, vec![0]);
        assert_eq!(d.deltas[2].shift, 8.0);
    }
}
