//! The consolidated query-submission API.
//!
//! [`QueryRequest`] bundles everything a query run can carry — the
//! [`Query`] itself, hypothetical [`Scenario`]s, per-request resource
//! limits, a [`TraceLevel`], and an optional [`VeCache`] to serve from —
//! behind one builder, so [`Database::run`](crate::Database::run) replaces
//! the old `query` / `query_hypothetical` / `query_cached` / `explain`
//! method family. A plain [`Query`] converts into a request with
//! database-default limits, no scenarios, and tracing off, so
//! `db.run(&q)` stays as short as the old `db.query(&q)`.
//!
//! The what-if unit is the named [`Scenario`] (any number of
//! [`Override`](crate::Override)s plus optional evidence). A request carrying **one**
//! scenario flows through [`Database::run`](crate::Database::run);
//! a request carrying a whole [`ScenarioSet`] goes to
//! [`Database::run_scenarios`](crate::Database::run_scenarios), which
//! evaluates the set as one batch with shared-subplan fan-out. Either
//! way a scenario is evaluated on the same overlay of its patched
//! relations, through the same query path: the batch adds only plan
//! reuse and shared trunks, neither of which moves a bit.

use mpf_algebra::{ExecLimits, TraceLevel};
use mpf_infer::VeCache;
use mpf_semiring::Aggregate;
use mpf_storage::Value;

use crate::{Query, RangePredicate, Scenario, ScenarioSet, Strategy};

/// A fully-specified query submission: the query plus the run options the
/// old `Database` method family passed as separate arguments.
///
/// ```
/// use mpf_engine::{Query, QueryRequest, Scenario, TraceLevel};
///
/// let req = QueryRequest::on("invest")
///     .group_by(["cid"])
///     .filter("tid", 1)
///     .scenario(Scenario::named("shock").measure("contracts", vec![0, 1], 9.0))
///     .trace(TraceLevel::Spans);
/// assert_eq!(req.query().view, "invest");
/// assert_eq!(req.scenarios().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest<'a> {
    pub(crate) query: Query,
    pub(crate) scenarios: ScenarioSet,
    pub(crate) limits: Option<ExecLimits>,
    pub(crate) trace: TraceLevel,
    pub(crate) cache: Option<&'a VeCache>,
}

impl<'a> QueryRequest<'a> {
    /// Start a request on a view (same defaults as [`Query::on`]).
    pub fn on(view: impl Into<String>) -> QueryRequest<'a> {
        QueryRequest::from(Query::on(view))
    }

    /// The wrapped query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The scenarios attached to this request.
    pub fn scenarios(&self) -> &ScenarioSet {
        &self.scenarios
    }

    /// Set the group-by variables (see [`Query::group_by`]).
    pub fn group_by<S: Into<String>>(mut self, vars: impl IntoIterator<Item = S>) -> Self {
        self.query = self.query.group_by(vars);
        self
    }

    /// Set the aggregate (see [`Query::aggregate`]).
    pub fn aggregate(mut self, agg: Aggregate) -> Self {
        self.query = self.query.aggregate(agg);
        self
    }

    /// Add an equality predicate (see [`Query::filter`]).
    pub fn filter(mut self, var: impl Into<String>, value: Value) -> Self {
        self.query = self.query.filter(var, value);
        self
    }

    /// Add a constrained-range predicate (see [`Query::having`]).
    pub fn having(mut self, cmp: RangePredicate, bound: f64) -> Self {
        self.query = self.query.having(cmp, bound);
        self
    }

    /// Set the evaluation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.query = self.query.strategy(strategy);
        self
    }

    /// Attach one named what-if [`Scenario`] (appends to earlier calls).
    /// A request with exactly one scenario runs through
    /// [`Database::run`](crate::Database::run); with several, through
    /// [`Database::run_scenarios`](crate::Database::run_scenarios).
    pub fn scenario(mut self, sc: Scenario) -> Self {
        self.scenarios.push(sc);
        self
    }

    /// Attach a whole [`ScenarioSet`] (appends to earlier calls).
    pub fn scenario_set(mut self, set: impl Into<ScenarioSet>) -> Self {
        self.scenarios.items.extend(set.into().items);
        self
    }

    /// Run under these resource budgets instead of the database's
    /// defaults.
    pub fn limits(mut self, limits: ExecLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Record per-operator execution traces at this level; the tree is
    /// returned on [`Answer::trace`](crate::Answer::trace).
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Serve the answer from a materialized [`VeCache`] instead of
    /// planning and executing against the base relations. Only plain
    /// group-by queries qualify (no filters, `having`, or scenarios —
    /// condition the cache with [`VeCache::with_evidence`] instead).
    /// The cache must have been built under the semiring the query's
    /// view/aggregate pair resolves to; a mismatch is rejected with
    /// [`crate::EngineError::CacheSemiringMismatch`] rather than
    /// silently aggregating with the wrong operations.
    pub fn via_cache(mut self, cache: &'a VeCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// This request with its scenarios stripped — the baseline the
    /// scenario engine compares every outcome against.
    pub(crate) fn baseline(&self) -> QueryRequest<'a> {
        QueryRequest {
            query: self.query.clone(),
            scenarios: ScenarioSet::new(),
            limits: self.limits.clone(),
            trace: self.trace,
            cache: None,
        }
    }
}

impl<'a> From<Query> for QueryRequest<'a> {
    fn from(query: Query) -> QueryRequest<'a> {
        QueryRequest {
            query,
            scenarios: ScenarioSet::new(),
            limits: None,
            trace: TraceLevel::Off,
            cache: None,
        }
    }
}

impl<'a> From<&Query> for QueryRequest<'a> {
    fn from(query: &Query) -> QueryRequest<'a> {
        QueryRequest::from(query.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_accumulates() {
        let req = QueryRequest::on("v")
            .group_by(["a"])
            .filter("b", 1)
            .strategy(Strategy::Naive)
            .trace(TraceLevel::Spans)
            .limits(ExecLimits::none().with_max_output_rows(10))
            .scenario(Scenario::named("s").measure("r", vec![0], 2.0));
        assert_eq!(req.query().view, "v");
        assert_eq!(req.query().strategy, Strategy::Naive);
        assert_eq!(req.trace, TraceLevel::Spans);
        assert_eq!(req.scenarios().len(), 1);
        assert!(req.limits.is_some());
        assert!(req.cache.is_none());
    }

    #[test]
    fn query_converts_with_defaults() {
        let q = Query::on("v").group_by(["a"]);
        let req: QueryRequest<'_> = (&q).into();
        assert_eq!(req.query(), &q);
        assert_eq!(req.trace, TraceLevel::Off);
        assert!(req.scenarios.is_empty() && req.limits.is_none());
    }
}
