use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mpf_algebra::{
    fault, DenseMode, ExecContext, ExecLimits, ExecStats, Executor, MetricsRegistry, Overlay,
    PhysicalPlan, Plan, RelationProvider, RelationStore, ReprMode, TraceLevel,
};
use mpf_infer::VeCache;
use mpf_optimizer::{
    choose_physical, estimate::annotate_estimates, linearity::linearity_test,
    linearity::LinearityTest, optimize, Algorithm, BaseRel, CostModel, Heuristic, OptContext,
    PhysicalConfig, QuerySpec, MAX_DP_RELATIONS,
};
use mpf_semiring::{resolve_semiring, Aggregate, Combine, SemiringKind};
use mpf_storage::{Catalog, FunctionalRelation, Value, VarId};

use crate::parser::{parse, Statement};
use crate::query::CacheServed;
use crate::scenario::{scenario_provider, BatchShare};
use crate::snapshot::{fresh_version, CatalogRef, RelationRef, Snapshot, StoreRef, ViewRef};
use crate::viewcache::{CacheEvent, CacheKey, ViewCache};
use crate::{Answer, EngineError, Query, QueryRequest, Result, Strategy};

/// An MPF view definition: a product join of named base relations under a
/// combine operation (the `create mpfview` statement of Section 2).
#[derive(Debug, Clone, PartialEq)]
pub struct MpfView {
    /// View name.
    pub name: String,
    /// Base relation names, in definition order.
    pub base: Vec<String>,
    /// The multiplicative operation of the product join.
    pub combine: Combine,
}

/// A hypothetical override for what-if queries (the alternate-measure and
/// alternate-domain forms of Section 3.1).
#[derive(Debug, Clone, PartialEq)]
pub enum Override {
    /// Hypothetically change the measure of one row of a base relation
    /// ("what if part p1 was a different price?").
    Measure {
        /// Base relation name.
        relation: String,
        /// The row's variable values (in the relation's schema order).
        row: Vec<Value>,
        /// The hypothetical measure.
        measure: f64,
    },
    /// Hypothetically move rows of a base relation from one variable value
    /// to another ("transfer c1's deal with t1 to t2"). If the remap merges
    /// rows, the first occurrence wins.
    Domain {
        /// Base relation name.
        relation: String,
        /// The variable being remapped (catalog name).
        var: String,
        /// Rows with this value...
        from: Value,
        /// ...are rewritten to this value.
        to: Value,
    },
}

impl Override {
    /// The base relation this override touches — the key the scenario
    /// engine partitions plans by (subtrees scanning only untouched
    /// relations become shared trunks).
    pub fn relation(&self) -> &str {
        match self {
            Override::Measure { relation, .. } | Override::Domain { relation, .. } => relation,
        }
    }
}

/// The engine's strategy fallback chain.
///
/// When a query attempt fails with an error a different strategy can
/// plausibly cure ([`EngineError::fallback_may_cure`]: a row/cell budget
/// trip, an injected fault, a worker panic, or the optimizer's
/// relation-count limit), the engine retries down this chain, skipping
/// entries equal to strategies already tried. The serving strategy and the
/// failed attempts are recorded in [`Answer::served_by`] and
/// [`Answer::fallback`]. Cancellation and missed wall-clock deadlines are
/// never retried.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackPolicy {
    /// Strategies to try, in order, after the query's requested strategy.
    pub chain: Vec<Strategy>,
}

impl Default for FallbackPolicy {
    /// Progressively simpler strategies: extended Variable Elimination,
    /// then linear CS+, then the join-all naive plan — which performs no
    /// plan search at all, so it survives optimizer-side failures on any
    /// view.
    fn default() -> Self {
        FallbackPolicy {
            chain: vec![
                Strategy::VePlus(Heuristic::Degree),
                Strategy::CsPlusLinear,
                Strategy::Naive,
            ],
        }
    }
}

impl FallbackPolicy {
    /// Disable fallback: the requested strategy's error is returned as-is.
    pub fn none() -> FallbackPolicy {
        FallbackPolicy { chain: Vec::new() }
    }

    /// A custom chain.
    pub fn of(chain: impl IntoIterator<Item = Strategy>) -> FallbackPolicy {
        FallbackPolicy {
            chain: chain.into_iter().collect(),
        }
    }
}

/// Outcome of running a SQL statement.
#[derive(Debug, Clone)]
pub enum SqlOutcome {
    /// A view was created.
    ViewCreated(String),
    /// A query was answered (boxed: `Answer` carries the result relation,
    /// plan, and counters).
    Answer(Box<Answer>),
}

/// The engine facade: catalog + base relations + MPF views, held as an
/// atomically swappable [`Snapshot`] so many queries and writers can
/// share one database concurrently.
///
/// Every read path ([`Database::run`], [`Database::describe`], ...)
/// pins the current snapshot once at entry and uses it for the whole
/// call; every mutator ([`Database::run_sql`], [`Database::add_var`],
/// [`Database::insert_relation`], ...) takes `&self`, builds the next
/// snapshot privately, and installs it with one pointer swap
/// ([`Database::mutate`]). Long queries therefore never block writers,
/// writers never corrupt in-flight queries, and `Arc<Database>` is
/// `Send + Sync` — the shape the `mpf-serve` multi-tenant service runs.
#[derive(Debug)]
pub struct Database {
    /// The current snapshot. Readers hold the read lock only long enough
    /// to clone the `Arc`; writers hold the write lock only for the
    /// pointer swap.
    shared: RwLock<Arc<Snapshot>>,
    /// Serializes writers: the clone-modify-install sequence of
    /// [`Database::mutate`] must not interleave, or one writer's install
    /// would silently discard the other's changes.
    writer: Mutex<()>,
    cost_model: CostModel,
    /// Resource budgets enforced on every query execution.
    limits: ExecLimits,
    /// Strategy fallback chain for recoverable query failures.
    fallback: FallbackPolicy,
    /// Dense-kernel selection mode handed to physical planning
    /// ([`DenseMode::Auto`] by default).
    dense: DenseMode,
    /// Sparse-tensor selection mode handed to physical planning
    /// ([`ReprMode::Auto`] by default).
    repr: ReprMode,
    /// Optional metrics sink fed by every [`Database::run`] call.
    metrics: Option<Arc<MetricsRegistry>>,
    /// The engine-owned view cache ([`crate::ViewCache`]), shared by
    /// clones (and, via [`Database::with_view_cache`], across
    /// databases). `None` or a zero budget disables transparent cache
    /// serving entirely.
    view_cache: Option<Arc<ViewCache>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Database {
    /// The clone shares the current snapshot (cheap `Arc` copy) but has
    /// its own swap cell: subsequent mutations of either database do not
    /// affect the other.
    fn clone(&self) -> Database {
        Database {
            shared: RwLock::new(self.snapshot()),
            writer: Mutex::new(()),
            cost_model: self.cost_model,
            limits: self.limits.clone(),
            fallback: self.fallback.clone(),
            dense: self.dense,
            repr: self.repr,
            metrics: self.metrics.clone(),
            view_cache: self.view_cache.clone(),
        }
    }
}

impl Database {
    /// An empty database (IO cost model, no resource limits, default
    /// fallback chain; the view cache sized leniently from
    /// `MPF_CACHE_BYTES`, disabled when unset or malformed).
    pub fn new() -> Database {
        let cache_bytes = mpf_algebra::config::cache_bytes_from_env();
        Database {
            shared: RwLock::new(Arc::new(Snapshot {
                version: fresh_version(),
                ..Snapshot::default()
            })),
            writer: Mutex::new(()),
            cost_model: CostModel::Io,
            limits: ExecLimits::none(),
            fallback: FallbackPolicy::default(),
            dense: DenseMode::Auto,
            repr: ReprMode::Auto,
            metrics: None,
            view_cache: (cache_bytes > 0).then(|| Arc::new(ViewCache::new(cache_bytes))),
        }
    }

    /// An empty database configured from the environment knobs
    /// (`MPF_THREADS`, `MPF_CACHE_BYTES`) with *strict* parsing: a
    /// malformed value is a typed [`EngineError::Config`] instead of the
    /// silent fallback [`Database::new`] applies. Services should start
    /// here.
    pub fn from_env() -> Result<Database> {
        let knobs = mpf_algebra::config::validate_env().map_err(EngineError::Config)?;
        let mut db = Database::new();
        if let Some(threads) = knobs.threads {
            db.limits = db.limits.clone().with_threads(threads);
        }
        let cache_bytes = knobs.cache_bytes.unwrap_or(0);
        db.view_cache = (cache_bytes > 0).then(|| Arc::new(ViewCache::new(cache_bytes)));
        Ok(db)
    }

    /// The current snapshot, pinned: the returned `Arc` keeps this
    /// version of the catalog and data alive (and consistent) no matter
    /// how many mutations install newer versions after it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Run one atomic mutation: clone the current snapshot, let `f`
    /// modify the private copy, and — only if `f` succeeds — install the
    /// result as the new current snapshot with a single pointer swap.
    /// Writers serialize; readers are never blocked (in-flight queries
    /// keep the snapshot they pinned at entry, so they observe either
    /// entirely the old version or entirely the new one, never a mix).
    ///
    /// The `catalog::install` fault site fires between building and
    /// installing the new snapshot; an injected fault (or any error from
    /// `f`) leaves the current snapshot untouched.
    ///
    /// The closure can rewrite anything, so the view cache treats the
    /// install as [`CacheEvent::Unknown`] and evicts every tree built
    /// against the replaced version. The named mutators
    /// ([`Database::insert_relation`], [`Database::update_measure`], ...)
    /// report precise events and keep more of the cache alive.
    pub fn mutate<T>(&self, f: impl FnOnce(&mut Snapshot) -> Result<T>) -> Result<T> {
        self.mutate_with(CacheEvent::Unknown, f)
    }

    /// [`Database::mutate`] with a caller-supplied [`CacheEvent`]
    /// describing what the closure changed, so the view cache can patch
    /// or carry entries forward instead of evicting them. The event is
    /// applied only after a successful install; a failed mutation leaves
    /// both the snapshot and the cache untouched.
    fn mutate_with<T>(
        &self,
        event: CacheEvent,
        f: impl FnOnce(&mut Snapshot) -> Result<T>,
    ) -> Result<T> {
        self.mutate_with_late_event(|snap| f(snap).map(|out| (out, event)))
    }

    /// Use a different cost model for plan selection.
    pub fn with_cost_model(mut self, cm: CostModel) -> Database {
        self.cost_model = cm;
        self
    }

    /// Enforce resource budgets ([`ExecLimits`]) on every query this
    /// database executes. A configured deadline is measured per attempt,
    /// starting when execution of that attempt begins.
    pub fn with_limits(mut self, limits: ExecLimits) -> Database {
        self.limits = limits;
        self
    }

    /// Replace the strategy fallback chain ([`FallbackPolicy::none`]
    /// disables fallback entirely).
    pub fn with_fallback(mut self, fallback: FallbackPolicy) -> Database {
        self.fallback = fallback;
        self
    }

    /// Set the dense-kernel selection mode for physical planning
    /// ([`DenseMode::Auto`] by default). It picks the kernel, never the
    /// answer: [`DenseMode::Off`] runs the sparse step, which computes
    /// the dense step's bits.
    pub fn with_dense(mut self, mode: DenseMode) -> Database {
        self.dense = mode;
        self
    }

    /// The dense-kernel selection mode physical planning runs under.
    pub fn dense(&self) -> DenseMode {
        self.dense
    }

    /// Set the sparse-tensor selection mode for physical planning
    /// ([`ReprMode::Off`] is the hash-only reference).
    pub fn with_repr(mut self, mode: ReprMode) -> Database {
        self.repr = mode;
        self
    }

    /// The sparse-tensor selection mode physical planning runs under.
    pub fn repr(&self) -> ReprMode {
        self.repr
    }

    /// The resource budgets queries run under.
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// The active fallback chain.
    pub fn fallback(&self) -> &FallbackPolicy {
        &self.fallback
    }

    /// Feed a [`MetricsRegistry`] from every [`Database::run`] call:
    /// query/error/fallback counters and optimize/execute latency
    /// histograms. Share the `Arc` to export with
    /// [`MetricsRegistry::to_json`].
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Database {
        self.metrics = Some(metrics);
        self
    }

    /// The registry passed to [`Database::with_metrics`], if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Attach a fresh [`ViewCache`] with the given byte budget,
    /// replacing whatever `MPF_CACHE_BYTES` configured (`0` detaches the
    /// cache entirely). Clones made *after* this call share the cache.
    pub fn with_cache_bytes(mut self, budget: u64) -> Database {
        self.view_cache = (budget > 0).then(|| Arc::new(ViewCache::new(budget)));
        self
    }

    /// Share an existing [`ViewCache`] — e.g. one cache across several
    /// independent databases, or across services. Snapshot versions are
    /// globally unique, so entries from different databases can never
    /// collide.
    pub fn with_view_cache(mut self, cache: Arc<ViewCache>) -> Database {
        self.view_cache = Some(cache);
        self
    }

    /// The attached view cache, if any (for inspection: counters,
    /// residency).
    pub fn view_cache(&self) -> Option<&Arc<ViewCache>> {
        self.view_cache.as_ref()
    }

    /// Build a database around an existing catalog and relation store (as
    /// produced by the `mpf-datagen` generators).
    pub fn from_parts(catalog: Catalog, store: RelationStore) -> Database {
        let db = Database::new();
        *db.shared.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(Snapshot {
            catalog: Arc::new(catalog),
            store,
            version: fresh_version(),
            ..Snapshot::default()
        });
        db
    }

    /// The variable catalog (of the current snapshot, pinned by the
    /// returned guard).
    pub fn catalog(&self) -> CatalogRef {
        CatalogRef(self.snapshot())
    }

    /// Register a variable with its domain size.
    pub fn add_var(&self, name: &str, domain: u64) -> Result<VarId> {
        // A pure catalog addition: no existing relation or view changes,
        // so cached trees carry forward.
        self.mutate_with(CacheEvent::Touched(Vec::new()), |snap| {
            Ok(Arc::make_mut(&mut snap.catalog).add_var(name, domain)?)
        })
    }

    /// Insert a base relation, validating the functional dependency and the
    /// domain bounds.
    pub fn insert_relation(&self, rel: FunctionalRelation) -> Result<()> {
        let touched = CacheEvent::Touched(vec![rel.name().to_string()]);
        self.mutate_with(touched, |snap| {
            rel.validate_fd()?;
            rel.validate_domains(&snap.catalog)?;
            snap.store.insert(rel);
            Ok(())
        })
    }

    /// Load a base relation from CSV (see [`mpf_storage::csv_io`]): the
    /// header names the variables (trailing column `f` is the measure),
    /// string cells are dictionary-encoded into the catalog, numeric cells
    /// are value indices. Returns the row count.
    pub fn load_csv(&self, name: &str, mut reader: impl std::io::BufRead) -> Result<usize> {
        self.mutate_with(CacheEvent::Touched(vec![name.to_string()]), |snap| {
            let catalog = Arc::make_mut(&mut snap.catalog);
            let rel = mpf_storage::csv_io::read_csv(catalog, name, &mut reader)?;
            let n = rel.len();
            snap.store.insert(rel);
            Ok(n)
        })
    }

    /// Export a base relation as CSV, rendering dictionary labels.
    pub fn dump_csv(&self, name: &str, writer: impl std::io::Write) -> Result<()> {
        let snap = self.snapshot();
        let rel = snap.relation_of(name).ok_or_else(|| {
            EngineError::Storage(mpf_storage::StorageError::UnknownRelation(name.into()))
        })?;
        mpf_storage::csv_io::write_csv(rel, &snap.catalog, writer)
            .map_err(|e| EngineError::BadOverride(format!("csv write failed: {e}")))
    }

    /// Declare a narrow functional dependency `lhs -> f` for a base
    /// relation (e.g. a primary key), after validating it holds on the
    /// data. Declared FDs enable the Proposition 1 elimination pruning in
    /// extended Variable Elimination.
    pub fn declare_fd(&self, relation: &str, lhs: &[&str]) -> Result<()> {
        // Declaring an FD informs the optimizer but changes no data, so
        // cached trees remain valid.
        self.mutate_with(CacheEvent::Touched(Vec::new()), |snap| {
            let rel = snap.relation_of(relation).ok_or_else(|| {
                EngineError::Storage(mpf_storage::StorageError::UnknownRelation(
                    relation.to_string(),
                ))
            })?;
            let ids: Vec<VarId> = lhs
                .iter()
                .map(|n| snap.catalog.var(n).map_err(EngineError::Storage))
                .collect::<Result<_>>()?;
            if !mpf_optimizer::prop1::fd_holds(rel, &ids) {
                return Err(EngineError::Storage(
                    mpf_storage::StorageError::FdViolation {
                        first_row: 0,
                        second_row: 0,
                    },
                ));
            }
            Arc::make_mut(&mut snap.fds).insert(relation.to_string(), ids);
            Ok(())
        })
    }

    /// Look up a base relation (pinned by the returned guard).
    pub fn relation(&self, name: &str) -> Option<RelationRef> {
        let snap = self.snapshot();
        snap.relation_of(name)?;
        Some(RelationRef {
            snap,
            name: name.to_string(),
        })
    }

    /// The relation store (of the current snapshot, pinned by the
    /// returned guard; for direct executor use).
    pub fn store(&self) -> StoreRef {
        StoreRef(self.snapshot())
    }

    /// Define an MPF view over existing base relations.
    pub fn create_view(&self, name: &str, base: &[&str], combine: Combine) -> Result<()> {
        // A new view cannot invalidate trees cached for existing views.
        self.mutate_with(CacheEvent::Touched(Vec::new()), |snap| {
            create_view_in(snap, name, base, combine)
        })
    }

    /// Update the measure of one existing row of a base relation,
    /// returning the previous measure. This is the real (non-
    /// hypothetical) counterpart of [`Override::Measure`]: the change
    /// installs a new snapshot atomically — sharing every other relation
    /// with the old one — and cached view trees over the relation,
    /// conditioned or not, are patched forward by delta propagation
    /// where the semiring admits division (evicted where it does not),
    /// so a warm cache survives point updates.
    ///
    /// # Errors
    /// [`EngineError::InvalidUpdate`] when the relation or row does not
    /// exist, or `measure` is NaN or infinite.
    pub fn update_measure(&self, relation: &str, row: &[Value], measure: f64) -> Result<f64> {
        let t0 = Instant::now();
        if !measure.is_finite() {
            return Err(EngineError::InvalidUpdate(format!(
                "measure {measure} for row {row:?} of `{relation}` is not finite"
            )));
        }
        let old = self.mutate_with_late_event(|snap| {
            let rel = snap.store.relation_of(relation).ok_or_else(|| {
                EngineError::InvalidUpdate(format!("unknown relation `{relation}`"))
            })?;
            let idx = rel.find_row(row).ok_or_else(|| {
                EngineError::InvalidUpdate(format!("no row {row:?} in `{relation}`"))
            })?;
            let old = rel.measure(idx);
            // Copy-on-write: the old snapshot keeps its relation, every
            // other relation stays shared.
            let rel = snap.store.relation_mut(relation).expect("looked up above");
            rel.set_measure(idx, measure);
            Ok((
                old,
                CacheEvent::MeasureUpdate {
                    relation: relation.to_string(),
                    row: row.to_vec(),
                    old,
                    new: measure,
                },
            ))
        })?;
        if let Some(m) = &self.metrics {
            m.observe("engine.update_us", t0.elapsed());
        }
        Ok(old)
    }

    /// [`Database::mutate_with`] for mutators whose event depends on the
    /// snapshot contents (e.g. the old measure of the row being
    /// updated): the closure returns the event along with its output.
    fn mutate_with_late_event<T>(
        &self,
        f: impl FnOnce(&mut Snapshot) -> Result<(T, CacheEvent)>,
    ) -> Result<T> {
        let _serialize = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let held = Instant::now();
        let result = self.install(f);
        if let Some(m) = &self.metrics {
            m.observe("engine.writer_lock_hold_us", held.elapsed());
            if let Some(vc) = &self.view_cache {
                vc.publish(m);
            }
        }
        result
    }

    /// The body of one mutation, run under the writer lock: build the
    /// next snapshot from a pointer copy of the current one, install it,
    /// then bring the view cache forward.
    fn install<T>(&self, f: impl FnOnce(&mut Snapshot) -> Result<(T, CacheEvent)>) -> Result<T> {
        let mut next = (*self.snapshot()).clone();
        let old_version = next.version;
        let (out, event) = f(&mut next)?;
        next.version = fresh_version();
        let new_version = next.version;
        fault::check("catalog::install")?;
        *self.shared.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        if let Some(vc) = &self.view_cache {
            vc.on_mutation(old_version, new_version, &event);
        }
        Ok(out)
    }

    /// Look up a view definition (pinned by the returned guard).
    pub fn view(&self, name: &str) -> Result<ViewRef> {
        let snap = self.snapshot();
        if snap.view_of(name).is_none() {
            return Err(EngineError::UnknownView(name.to_string()));
        }
        Ok(ViewRef {
            snap,
            name: name.to_string(),
        })
    }

    /// Evaluate a query submission (Section 3.1 forms) and return the
    /// answer with plan, cost, counters, timings, and (when requested) a
    /// per-operator trace. This is the single entry point behind which
    /// the old `query` / `query_hypothetical` / `query_cached` method
    /// family is consolidated: a plain [`Query`] converts into a default
    /// [`QueryRequest`], so `db.run(&q)` is the common case.
    pub fn run<'a>(&self, req: impl Into<QueryRequest<'a>>) -> Result<Answer> {
        self.run_request(&req.into())
    }

    pub(crate) fn run_request(&self, req: &QueryRequest<'_>) -> Result<Answer> {
        let t0 = Instant::now();
        // One snapshot for the whole query: every name resolution, plan,
        // and scan below sees this version, no matter what writers
        // install concurrently.
        let snap = self.snapshot();
        let result = if let Some(cache) = req.cache {
            self.serve_from_cache(&snap, req, cache)
        } else if req.scenarios.is_empty() {
            self.run_with_view_cache(&snap, req)
        } else if req.scenarios.len() > 1 {
            // A multi-scenario set has no single Answer; it is a batch.
            Err(EngineError::ScenarioBatch {
                count: req.scenarios.len(),
            })
        } else {
            // One scenario: the provider a batch worker would build for
            // it, queried without the batch's shared state.
            scenario_provider(&snap, &req.scenarios.items[0], &req.query)
                .and_then(|(overlay, _, q)| self.query_on(&snap, req, &q, &overlay, None))
        };
        if let Some(m) = &self.metrics {
            m.inc("engine.queries");
            m.observe("engine.query_us", t0.elapsed());
            match &result {
                Ok(a) => {
                    m.inc(&format!("engine.served_by.{}", a.served_by.label()));
                    m.add("engine.fallback_attempts", a.fallback.len() as u64);
                    m.add("engine.rows_out", a.relation.len() as u64);
                    m.add("engine.repr.sparse_ops", a.stats.sparse_joins + a.stats.sparse_group_bys);
                    m.add("engine.repr.dense_ops", a.stats.dense_joins + a.stats.dense_group_bys);
                    m.add("engine.repr.sparse_converts", a.stats.sparse_converts);
                    m.add("engine.repr.dense_converts", a.stats.dense_converts);
                    m.add("engine.fused_join_aggs", a.stats.fused_join_aggs);
                    m.add("engine.repr.keyed_memo_hits", a.stats.keyed_memo_hits);
                    m.add("engine.repr.keyed_memo_builds", a.stats.keyed_memo_builds);
                    m.observe("engine.optimize_us", a.optimize_time);
                    m.observe("engine.execute_us", a.execute_time);
                }
                Err(_) => m.inc("engine.errors"),
            }
            if let Some(vc) = &self.view_cache {
                vc.publish(m);
            }
        }
        result
    }

    /// Normal execution behind the transparent view cache: serve from a
    /// resident covering tree when one exists, derive a conditioned tree
    /// from a resident base tree for evidence queries, and otherwise run
    /// the query normally — recording the miss and building the view's
    /// tree once accumulated demand justifies the build.
    ///
    /// Error discipline: an injected fault consumed anywhere in cache
    /// work (serving, deriving, building) surfaces as *this* request's
    /// error, preserving the service's 1:1 fault accounting; a budget
    /// trip while serving falls back to normal execution (mirroring the
    /// strategy-fallback philosophy), and a failed admission build is
    /// skipped silently — the request already has its answer.
    fn run_with_view_cache(&self, snap: &Arc<Snapshot>, req: &QueryRequest<'_>) -> Result<Answer> {
        let Some(plan) = self.cache_plan(snap, req) else {
            return self.query_on(snap, req, &req.query, &snap.store, None);
        };
        // `cache_plan` returned Some, so the cache is attached and enabled.
        let vc = Arc::clone(self.view_cache.as_ref().expect("cache plan implies cache"));
        let labels = ("viewcache::answer", "<view-cache>");
        if let Some(tree) = vc.lookup(&plan.key) {
            if tree.covering_table(&plan.vars).is_ok() {
                match self.answer_from_tree(req, &tree, &plan.vars, labels) {
                    Ok(a) => return Ok(a),
                    Err(e) if is_fault(&e) || !e.fallback_may_cure() => return Err(e),
                    Err(_) => {} // budget trip: the normal path's fallback chain takes over
                }
            } else {
                vc.note_uncovered();
            }
        } else if !plan.key.evidence.is_empty() {
            if let Some(base_tree) = vc.lookup(&plan.key.base()) {
                match base_tree
                    .with_evidence_set(&plan.key.evidence)
                    .map_err(EngineError::from)
                {
                    Ok(derived) => {
                        if derived.covering_table(&plan.vars).is_ok() {
                            let derived = Arc::new(derived);
                            vc.note_derived();
                            vc.admit(plan.key.clone(), plan.base.clone(), Arc::clone(&derived));
                            match self.answer_from_tree(req, &derived, &plan.vars, labels) {
                                Ok(a) => return Ok(a),
                                Err(e) if is_fault(&e) || !e.fallback_may_cure() => return Err(e),
                                Err(_) => {}
                            }
                        } else {
                            vc.note_uncovered();
                        }
                    }
                    Err(e) if is_fault(&e) => return Err(e),
                    Err(_) => {} // e.g. a budget trip mid-derivation: recompute instead
                }
            }
        }
        // Miss: answer normally, then let demand decide whether to pay
        // for the (unconditioned) tree build.
        let t0 = Instant::now();
        let result = self.query_on(snap, req, &req.query, &snap.store, None);
        if result.is_ok() {
            let cost_us = t0.elapsed().as_secs_f64() * 1e6;
            let base_key = plan.key.base();
            if vc.record_miss(&base_key, cost_us) {
                match self.build_tree(snap, &plan.base, plan.key.semiring, None) {
                    Ok(tree) => {
                        vc.admit(base_key, plan.base, Arc::new(tree));
                    }
                    // The build consumed an injected fault: it must
                    // surface to exactly one request — this one.
                    Err(e) if is_fault(&e) => return Err(e),
                    Err(_) => {} // infeasible build (budget, no division): skip admission
                }
            }
        }
        result
    }

    /// Whether the transparent view cache can participate in a request,
    /// and under what identity. `None` means "run normally": cache
    /// detached/disabled, a `having` range predicate (post-filtered on
    /// the answer, not expressible as evidence), or any name that does
    /// not resolve (the normal path then produces the canonical error).
    fn cache_plan(&self, snap: &Snapshot, req: &QueryRequest<'_>) -> Option<CachePlan> {
        let vc = self.view_cache.as_ref()?;
        if !vc.enabled() {
            return None;
        }
        let q = &req.query;
        if q.having.is_some() {
            return None;
        }
        let (view, sr) = view_semiring(snap, &q.view, q.agg).ok()?;
        let vars: Vec<VarId> = q
            .group_vars
            .iter()
            .map(|n| resolve_var(&snap.catalog, n).ok())
            .collect::<Option<_>>()?;
        let mut evidence: Vec<(VarId, Value)> = Vec::with_capacity(q.filters.len());
        for (n, v) in &q.filters {
            evidence.push((resolve_var(&snap.catalog, n).ok()?, *v));
        }
        evidence.sort_unstable();
        Some(CachePlan {
            key: CacheKey {
                version: snap.version,
                view: q.view.clone(),
                semiring: sr,
                evidence,
            },
            vars,
            base: view.base.clone(),
        })
    }

    /// Build the unconditioned elimination tree over a view's base
    /// relations, under the database's own limits (a cache entry is
    /// shared, so one request's per-query limits must not shape it).
    fn build_tree(
        &self,
        snap: &Snapshot,
        base: &[String],
        sr: SemiringKind,
        order: Option<&[VarId]>,
    ) -> Result<VeCache> {
        let rels: Vec<&FunctionalRelation> = base
            .iter()
            .map(|n| {
                snap.relation_of(n).ok_or_else(|| {
                    EngineError::Algebra(mpf_algebra::AlgebraError::UnknownRelation(n.clone()))
                })
            })
            .collect::<Result<_>>()?;
        let mut cx = self.exec_context(sr, self.limits.clone());
        Ok(VeCache::build_in(&mut cx, &rels, order)?)
    }

    /// An execution context under `limits` with this database's kernel
    /// selection modes: every context the engine runs a query, a tree
    /// build or a scenario batch in starts here.
    pub(crate) fn exec_context(
        &self,
        sr: SemiringKind,
        limits: ExecLimits,
    ) -> ExecContext<'static> {
        ExecContext::with_limits(sr, limits)
            .with_dense(self.dense)
            .with_repr(self.repr)
    }

    /// The budgets a request runs under: its own, else the database's.
    pub(crate) fn request_limits<'s>(&'s self, req: &'s QueryRequest<'_>) -> &'s ExecLimits {
        req.limits.as_ref().unwrap_or(&self.limits)
    }

    /// Answer a plain group-by by marginalizing the smallest table of an
    /// elimination tree that covers `vars`: a tree resident in the view
    /// cache, or one the caller supplied with
    /// [`QueryRequest::via_cache`]. `span` labels the traced phase and
    /// `scan` names the one scan of the synthesized plan, which records
    /// the scan + group-by actually run; [`Answer::cache`] records the
    /// clique that answered.
    fn answer_from_tree(
        &self,
        req: &QueryRequest<'_>,
        tree: &VeCache,
        vars: &[VarId],
        (span, scan): (&str, &str),
    ) -> Result<Answer> {
        let mut cx = self
            .exec_context(tree.semiring(), self.request_limits(req).clone())
            .with_trace(req.trace);
        let t1 = Instant::now();
        cx.span_phase(span);
        let result = tree.answer_set_in(&mut cx, vars);
        cx.span_close(|| result.as_ref().err().map(|e| e.to_string()));
        let execute_time = t1.elapsed();
        let stats = *cx.stats();
        let trace = (req.trace != TraceLevel::Off).then(|| cx.take_trace());
        let relation = result?;
        let served = tree.covering_table(vars).ok().map(|idx| {
            let table = &tree.tables()[idx];
            CacheServed {
                clique: table.schema().vars().to_vec(),
                rows: table.len() as u64,
            }
        });
        let plan = Plan::group_by(Plan::scan(scan), vars.to_vec());
        Ok(Answer {
            relation,
            served_by: req.query.strategy,
            fallback: Vec::new(),
            physical: PhysicalPlan::default_hash(&plan),
            plan,
            est_cost: f64::NAN,
            stats,
            optimize_time: Duration::ZERO,
            execute_time,
            trace,
            cache: served,
        })
    }

    /// Serve a [`QueryRequest::via_cache`] request: a plain group-by
    /// answered from the caller's tree.
    fn serve_from_cache(
        &self,
        snap: &Snapshot,
        req: &QueryRequest<'_>,
        cache: &VeCache,
    ) -> Result<Answer> {
        let q = &req.query;
        if !req.scenarios.is_empty() {
            return Err(EngineError::BadOverride(
                "hypothetical scenarios cannot be served from a VeCache; \
                 use VeCache::with_measure_update or rebuild the cache"
                    .into(),
            ));
        }
        if !q.filters.is_empty() || q.having.is_some() {
            return Err(EngineError::BadOverride(
                "cache-served queries support only plain group-by; \
                 condition the cache with VeCache::with_evidence instead"
                    .into(),
            ));
        }
        // The cache was built under one semiring; serving a query that
        // resolves to another would aggregate with the wrong operations.
        let (_, sr) = view_semiring(snap, &q.view, q.agg)?;
        if sr != cache.semiring() {
            return Err(EngineError::CacheSemiringMismatch {
                expected: sr,
                cached: cache.semiring(),
            });
        }
        let vars: Vec<VarId> = q
            .group_vars
            .iter()
            .map(|n| resolve_var(&snap.catalog, n))
            .collect::<Result<_>>()?;
        self.answer_from_tree(req, cache, &vars, ("cache::answer", "<ve-cache>"))
    }

    /// Answer `q` from `provider` (the snapshot's store, or a scenario's
    /// overlay) through the strategy fallback chain: the requested
    /// strategy first, then the chain's entries not tried yet. `req`
    /// supplies the limits and trace level. `share` carries a scenario
    /// batch's shared state to one of its scenarios; plain and
    /// one-scenario runs pass `None`.
    pub(crate) fn query_on<P: RelationProvider>(
        &self,
        snap: &Snapshot,
        req: &QueryRequest<'_>,
        q: &Query,
        provider: &P,
        share: Option<&BatchShare<'_>>,
    ) -> Result<Answer> {
        let (_, sr, ctx) = self.plan_input(snap, q, provider)?;

        // The requested strategy first, then the fallback chain, with
        // already-tried entries skipped.
        let mut attempts = vec![q.strategy];
        for s in &self.fallback.chain {
            if !attempts.contains(s) {
                attempts.push(*s);
            }
        }

        let mut failed: Vec<(Strategy, EngineError)> = Vec::new();
        // Work done by failed attempts still counts: the accumulator is
        // threaded through every attempt so the answer's stats report the
        // query's *total* cost, not just the winning strategy's.
        let mut total = ExecStats::default();
        let last = attempts.len() - 1;
        for (i, &strategy) in attempts.iter().enumerate() {
            match self.attempt(
                snap, req, q, provider, &ctx, sr, strategy, share, &mut total,
            ) {
                Ok(mut answer) => {
                    answer.fallback = failed;
                    return Ok(answer);
                }
                Err(e) if i < last && e.fallback_may_cure() => failed.push((strategy, e)),
                Err(e) => return Err(e),
            }
        }
        // `attempts` is non-empty, so the loop always returns.
        Err(EngineError::EmptyView(q.view.clone()))
    }

    /// One plan-and-execute attempt with a single strategy. The work it
    /// does — even when it fails — is merged into `total`. Under a batch
    /// `share` the plan may come from the batch's plan memo, shared
    /// trunks are read from its trunk memo, and the execution context is
    /// a fork of the batch's root; neither substitution moves a bit.
    #[allow(clippy::too_many_arguments)]
    fn attempt<P: RelationProvider>(
        &self,
        snap: &Snapshot,
        req: &QueryRequest<'_>,
        q: &Query,
        provider: &P,
        ctx: &OptContext<'_>,
        sr: SemiringKind,
        strategy: Strategy,
        share: Option<&BatchShare<'_>>,
        total: &mut ExecStats,
    ) -> Result<Answer> {
        let t0 = Instant::now();
        let planned = match share {
            Some(s) => s.planned(strategy, || self.plan_physical(&q.view, ctx, strategy))?,
            None => Arc::new(self.plan_physical(&q.view, ctx, strategy)?),
        };
        let optimize_time = t0.elapsed();

        // Trunk outputs shadow the provider under their synthetic scan
        // names.
        let mut scans = Overlay::new(provider);
        let (residual, mut cx) = match share {
            Some(s) => {
                let residual = s.residual(snap, sr, &planned.physical, &mut scans, total)?;
                (Some(residual), s.cx.fork())
            }
            None => {
                let cx = self.exec_context(sr, self.request_limits(req).clone());
                (None, cx.with_trace(req.trace))
            }
        };
        let exec = Executor::new(&scans, sr);
        let t1 = Instant::now();
        let result =
            exec.execute_physical_in(&mut cx, residual.as_ref().unwrap_or(&planned.physical));
        let execute_time = t1.elapsed();
        total.merge(cx.stats());
        // Annotate the executed-plan spans with the optimizer's estimated
        // rows, so EXPLAIN ANALYZE prints est-vs-actual per node.
        let trace = (cx.trace_level() != TraceLevel::Off).then(|| {
            let mut tree = cx.take_trace();
            if let Some(root) = tree.roots.first_mut() {
                annotate_estimates(ctx, &planned.physical, root);
            }
            tree
        });
        let mut relation = result?;

        // Constrained-range (`having f ⋈ c`) post-filter.
        if let Some((cmp, bound)) = q.having {
            let mut filtered =
                FunctionalRelation::new(relation.name().to_string(), relation.schema().clone());
            for (row, m) in relation.rows() {
                if cmp.matches(m, bound) {
                    filtered.push_row(row, m)?;
                }
            }
            relation = filtered;
        }

        // A memoized plan is shared with the batch's other scenarios.
        let Planned {
            plan,
            est_cost,
            physical,
        } = Arc::unwrap_or_clone(planned);
        Ok(Answer {
            relation,
            served_by: strategy,
            fallback: Vec::new(),
            plan,
            physical,
            est_cost,
            stats: *total,
            optimize_time,
            execute_time,
            trace,
            cache: None,
        })
    }

    /// What planning `q` against `provider` starts from: the view, the
    /// semiring its combine operation forms with `q`'s aggregate, and
    /// the optimizer's context.
    fn plan_input<'s, P: RelationProvider>(
        &self,
        snap: &'s Snapshot,
        q: &Query,
        provider: &P,
    ) -> Result<(&'s MpfView, SemiringKind, OptContext<'s>)> {
        let (view, sr) = view_semiring(snap, &q.view, q.agg)?;
        let spec = resolve_spec(snap, q)?;
        let ctx = self.opt_context(snap, view, provider, spec)?;
        Ok((view, sr, ctx))
    }

    /// Plan a query with one strategy and lower the plan to the physical
    /// plan that runs, under this database's kernel selection modes.
    fn plan_physical(
        &self,
        view_name: &str,
        ctx: &OptContext<'_>,
        strategy: Strategy,
    ) -> Result<Planned> {
        let (plan, est_cost) = self.plan_for(view_name, ctx, strategy)?;
        let physical = choose_physical(
            ctx,
            &plan,
            PhysicalConfig::default()
                .with_dense(self.dense)
                .with_repr(self.repr),
        );
        Ok(Planned {
            plan,
            est_cost,
            physical,
        })
    }

    /// Render the plan a strategy would choose, without executing it
    /// (the `EXPLAIN` half of the request API; overrides and per-request
    /// limits are honored, tracing is irrelevant). A request [`Database::run`]
    /// would reject before planning, such as an aggregate the view's
    /// combine operation forms no semiring with, is rejected the same way.
    pub fn describe<'a>(&self, req: impl Into<QueryRequest<'a>>) -> Result<String> {
        let req = req.into();
        if req.scenarios.len() > 1 {
            return Err(EngineError::ScenarioBatch {
                count: req.scenarios.len(),
            });
        }
        let snap = self.snapshot();
        // A scenario plans against the provider `run` evaluates it on:
        // overrides can change cardinalities (a domain move merges rows),
        // and its evidence folds into the query.
        let (provider, q) = match req.scenarios.items.first() {
            Some(sc) => {
                let (overlay, _, q) = scenario_provider(&snap, sc, &req.query)?;
                (overlay, q)
            }
            None => (Overlay::new(&snap.store), req.query.clone()),
        };
        let (view, _, ctx) = self.plan_input(&snap, &q, &provider)?;
        let planned = self.plan_physical(&q.view, &ctx, q.strategy)?;
        let catalog = &snap.catalog;
        // Exact base-relation densities (rows over the schema's domain
        // grid) — the statistic the dense-path selection rule keys on.
        let densities: Vec<String> = view
            .base
            .iter()
            .filter_map(|n| provider.relation_of(n).map(|rel| (n, rel)))
            .map(|(n, rel)| {
                let d = mpf_storage::density_of(
                    rel.len() as u64,
                    catalog.domain_product(rel.schema().iter()),
                );
                format!("{n}={d:.2}")
            })
            .collect();
        Ok(format!(
            "-- estimated cost: {:.2}\n-- base density: {}\n{}",
            planned.est_cost,
            densities.join(", "),
            planned.physical.render(&|v| catalog.name(v).to_string())
        ))
    }

    /// Execute a request with span tracing forced on and render the
    /// executed plan with per-operator actuals (rows, cells, wall time,
    /// representation) next to the optimizer's estimated rows —
    /// the paper's strategies differ exactly in these per-operator sizes,
    /// so this is where cost-model drift becomes visible.
    pub fn explain_analyze<'a>(&self, req: impl Into<QueryRequest<'a>>) -> Result<String> {
        let mut req = req.into();
        req.trace = TraceLevel::Spans;
        let answer = self.run_request(&req)?;
        let mut out = String::new();
        if answer.served_by == req.query.strategy {
            out.push_str(&format!("-- strategy: {}\n", answer.served_by.label()));
        } else {
            out.push_str(&format!(
                "-- strategy: {} (requested {})\n",
                answer.served_by.label(),
                req.query.strategy.label()
            ));
        }
        for (s, e) in &answer.fallback {
            out.push_str(&format!("-- failed attempt: {} ({e})\n", s.label()));
        }
        if let Some(cs) = &answer.cache {
            let snap = self.snapshot();
            let clique: Vec<&str> = cs.clique.iter().map(|&v| snap.catalog.name(v)).collect();
            out.push_str(&format!(
                "-- served from cache: clique {{{}}} ({} rows)\n",
                clique.join(", "),
                cs.rows
            ));
        }
        out.push_str(&format!("-- estimated cost: {:.2}\n", answer.est_cost));
        let limits = self.request_limits(&req);
        out.push_str(&format!("-- workers: {}\n", limits.effective_threads()));
        let st = &answer.stats;
        out.push_str(&format!(
            "-- rows scanned={}, processed={}, peak intermediate={}\n",
            st.rows_scanned, st.rows_processed, st.max_intermediate_rows
        ));
        out.push_str(&format!(
            "-- optimize: {:.1?}, execute: {:.1?}\n",
            answer.optimize_time, answer.execute_time
        ));
        match &answer.trace {
            Some(tree) if !tree.is_empty() => {
                let snap = self.snapshot();
                out.push_str(&tree.render_with(&|v| snap.catalog.name(v).to_string()));
            }
            _ => {
                // Nothing traced (shouldn't happen with Spans forced on);
                // fall back to the physical plan without actuals.
                let snap = self.snapshot();
                out.push_str(
                    &answer
                        .physical
                        .render(&|v| snap.catalog.name(v).to_string()),
                );
            }
        }
        Ok(out)
    }

    /// Build the optimizer's context over a relation provider: the
    /// snapshot's store, or a scenario's [`Overlay`] of patched
    /// relations. [`BaseRel::of`] captures only measure-independent
    /// statistics (schema, cardinality), so measure-only scenarios yield
    /// the exact baseline context.
    pub(crate) fn opt_context<'a>(
        &self,
        snap: &'a Snapshot,
        view: &MpfView,
        provider: &impl RelationProvider,
        spec: QuerySpec,
    ) -> Result<OptContext<'a>> {
        let base: Vec<BaseRel> = view
            .base
            .iter()
            .map(|n| {
                provider
                    .relation_of(n)
                    .map(|rel| {
                        let mut b = BaseRel::of(rel);
                        b.fd_lhs = snap.fds.get(n).cloned();
                        b
                    })
                    .ok_or_else(|| {
                        EngineError::Algebra(mpf_algebra::AlgebraError::UnknownRelation(n.clone()))
                    })
            })
            .collect::<Result<_>>()?;
        // Every query variable must occur in some base relation; the
        // optimizer's linearity test and plan search assume it.
        for &v in spec
            .group_vars
            .iter()
            .chain(spec.predicates.iter().map(|(v, _)| v))
        {
            if !base.iter().any(|b| b.schema.contains(v)) {
                return Err(EngineError::UnknownVariable(format!(
                    "{} (not in any base relation of view `{}`)",
                    snap.catalog.name(v),
                    view.name
                )));
            }
        }
        Ok(OptContext::new(&snap.catalog, base, spec, self.cost_model))
    }

    pub(crate) fn plan_for(
        &self,
        view_name: &str,
        ctx: &OptContext<'_>,
        strategy: Strategy,
    ) -> Result<(Plan, f64)> {
        let algorithm = match strategy {
            Strategy::Naive => {
                // Join in definition order, selections pushed to scans,
                // single root group-by (Figure 3 shape). No plan search,
                // so this works on views `optimize` would reject.
                fault::check("optimize::naive")?;
                let mut iter = 0..ctx.rels.len();
                let Some(first) = iter.next() else {
                    return Err(EngineError::EmptyView(view_name.to_string()));
                };
                let mut plan = leaf_plan(ctx, first);
                for i in iter {
                    plan = Plan::join(plan, leaf_plan(ctx, i));
                }
                return Ok((
                    Plan::group_by(plan, ctx.query.group_vars.clone()),
                    f64::NAN,
                ));
            }
            Strategy::Cs => Algorithm::Cs,
            Strategy::CsPlusLinear => Algorithm::CsPlusLinear,
            Strategy::CsPlusNonlinear => Algorithm::CsPlusNonlinear,
            Strategy::Ve(h) => Algorithm::Ve(h),
            Strategy::VePlus(h) => Algorithm::VePlus(h),
            Strategy::Auto => {
                // Section 5.1: if Eq. 1 admits linear plans for every query
                // variable, linear CS+ suffices; otherwise search bushy.
                let linear_ok = ctx
                    .query
                    .group_vars
                    .iter()
                    .all(|&v| linearity_test(ctx, v).linear_admissible);
                if linear_ok {
                    Algorithm::CsPlusLinear
                } else {
                    Algorithm::CsPlusNonlinear
                }
            }
        };
        // `optimize` panics on these inputs; turn both into typed errors
        // (the second is curable by falling back to `Strategy::Naive`).
        if ctx.rels.is_empty() {
            return Err(EngineError::EmptyView(view_name.to_string()));
        }
        if ctx.rels.len() > MAX_DP_RELATIONS {
            return Err(EngineError::TooManyRelations {
                count: ctx.rels.len(),
                limit: MAX_DP_RELATIONS,
            });
        }
        fault::check(&format!("optimize::{}", algorithm.label()))?;
        let opt = optimize(ctx, algorithm);
        Ok((opt.plan, opt.est_cost))
    }

    /// Parse and run one SQL statement (view creation or query). Takes
    /// `&self`: a view creation installs a new snapshot atomically, a
    /// query runs against the snapshot current at call time — neither
    /// blocks concurrent queries.
    pub fn run_sql(&self, sql: &str) -> Result<SqlOutcome> {
        match parse(sql)? {
            Statement::CreateView {
                name,
                tables,
                combine,
                vars,
            } => {
                self.mutate_with(CacheEvent::Touched(Vec::new()), |snap| {
                    for v in &vars {
                        resolve_var(&snap.catalog, v)?;
                    }
                    let refs: Vec<&str> = tables.iter().map(String::as_str).collect();
                    create_view_in(snap, &name, &refs, combine)
                })?;
                Ok(SqlOutcome::ViewCreated(name))
            }
            Statement::Select(q) => Ok(SqlOutcome::Answer(Box::new(self.run(&q)?))),
        }
    }

    /// Materialize a [`VeCache`] for a view's workload (Section 6). `agg`
    /// picks the semiring together with the view's combine operation.
    pub fn build_cache(
        &self,
        view_name: &str,
        agg: Aggregate,
        order: Option<&[VarId]>,
    ) -> Result<VeCache> {
        let snap = self.snapshot();
        let (view, sr) = view_semiring(&snap, view_name, agg)?;
        self.build_tree(&snap, &view.base, sr, order)
    }

    /// Run the Section 5.1 plan-linearity test for a query variable of a
    /// view.
    pub fn linearity(&self, view_name: &str, var: &str) -> Result<LinearityTest> {
        let snap = self.snapshot();
        let view = snap
            .view_of(view_name)
            .ok_or_else(|| EngineError::UnknownView(view_name.to_string()))?;
        let ctx = self.opt_context(&snap, view, &snap.store, QuerySpec::default())?;
        Ok(linearity_test(&ctx, resolve_var(&snap.catalog, var)?))
    }

    /// The semiring a `(view, aggregate)` pair evaluates in.
    pub fn semiring_for(&self, view_name: &str, agg: Aggregate) -> Result<SemiringKind> {
        view_semiring(&self.snapshot(), view_name, agg).map(|(_, sr)| sr)
    }
}

/// The identity under which the transparent view cache participates in a
/// request: the entry key plus the resolved query variables and the
/// view's base relations (needed for admission bookkeeping and builds).
struct CachePlan {
    key: CacheKey,
    vars: Vec<VarId>,
    base: Vec<String>,
}

/// A strategy's plan, its estimated cost, and the physical plan it
/// lowers to ([`Database::plan_physical`]).
#[derive(Clone)]
pub(crate) struct Planned {
    plan: Plan,
    est_cost: f64,
    physical: PhysicalPlan,
}

/// Whether an error is an injected fault (which must propagate to exactly
/// one request so the chaos suite's fault accounting stays 1:1), at
/// either of the layers cache work can consume one.
fn is_fault(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Algebra(mpf_algebra::AlgebraError::FaultInjected(_))
            | EngineError::Infer(mpf_infer::InferError::Algebra(
                mpf_algebra::AlgebraError::FaultInjected(_)
            ))
    )
}

/// Resolve a view and the semiring its combine operation forms with
/// `agg`.
pub(crate) fn view_semiring<'s>(
    snap: &'s Snapshot,
    view: &str,
    agg: Aggregate,
) -> Result<(&'s MpfView, SemiringKind)> {
    let view = snap
        .view_of(view)
        .ok_or_else(|| EngineError::UnknownView(view.to_string()))?;
    let sr = resolve_semiring(view.combine, agg).ok_or(EngineError::IncompatibleAggregate {
        combine: view.combine,
        aggregate: agg,
    })?;
    Ok((view, sr))
}

/// Resolve a variable name against a catalog.
fn resolve_var(catalog: &Catalog, name: &str) -> Result<VarId> {
    catalog
        .var(name)
        .map_err(|_| EngineError::UnknownVariable(name.to_string()))
}

/// Resolve a query's group-by/filter names into a [`QuerySpec`].
fn resolve_spec(snap: &Snapshot, q: &Query) -> Result<QuerySpec> {
    let mut spec = QuerySpec::group_by(
        q.group_vars
            .iter()
            .map(|n| resolve_var(&snap.catalog, n))
            .collect::<Result<Vec<_>>>()?,
    );
    for (n, v) in &q.filters {
        spec = spec.filter(resolve_var(&snap.catalog, n)?, *v);
    }
    Ok(spec)
}

/// Snapshot-level view creation, shared by [`Database::create_view`] and
/// the SQL path (which must not nest [`Database::mutate`] calls).
fn create_view_in(snap: &mut Snapshot, name: &str, base: &[&str], combine: Combine) -> Result<()> {
    if snap.views.contains_key(name) {
        return Err(EngineError::DuplicateView(name.to_string()));
    }
    if base.is_empty() {
        return Err(EngineError::EmptyView(name.to_string()));
    }
    for b in base {
        if !snap.store.contains(b) {
            return Err(EngineError::Storage(
                mpf_storage::StorageError::UnknownRelation(b.to_string()),
            ));
        }
    }
    Arc::make_mut(&mut snap.views).insert(
        name.to_string(),
        MpfView {
            name: name.to_string(),
            base: base.iter().map(|s| s.to_string()).collect(),
            combine,
        },
    );
    Ok(())
}

fn leaf_plan(ctx: &OptContext<'_>, rel_idx: usize) -> Plan {
    let rel = &ctx.rels[rel_idx];
    let preds = ctx.applicable_predicates(&rel.schema);
    Plan::select(Plan::scan(rel.name.clone()), preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_semiring::approx_eq;
    use mpf_storage::Schema;

    /// A tiny two-relation database: r1(a, b), r2(b, c).
    fn tiny_db() -> Database {
        let db = Database::new();
        let a = db.add_var("a", 2).unwrap();
        let b = db.add_var("b", 2).unwrap();
        let c = db.add_var("c", 2).unwrap();
        db.insert_relation(
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
        )
        .unwrap();
        db.insert_relation(
            FunctionalRelation::from_rows(
                "r2",
                Schema::new(vec![b, c]).unwrap(),
                [
                    (vec![0, 0], 10.0),
                    (vec![0, 1], 20.0),
                    (vec![1, 0], 30.0),
                    (vec![1, 1], 40.0),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_view("v", &["r1", "r2"], Combine::Product).unwrap();
        db
    }

    #[test]
    fn query_all_strategies_agree() {
        let db = tiny_db();
        let strategies = [
            Strategy::Naive,
            Strategy::Cs,
            Strategy::CsPlusLinear,
            Strategy::CsPlusNonlinear,
            Strategy::Ve(mpf_optimizer::Heuristic::Degree),
            Strategy::VePlus(mpf_optimizer::Heuristic::Width),
            Strategy::Auto,
        ];
        let reference = db
            .run(Query::on("v").group_by(["c"]).strategy(Strategy::Naive))
            .unwrap();
        for s in strategies {
            let ans = db
                .run(Query::on("v").group_by(["c"]).strategy(s))
                .unwrap();
            assert!(
                reference.relation.function_eq(&ans.relation),
                "strategy {s:?} diverged"
            );
        }
        assert!(approx_eq(reference.relation.lookup(&[0]).unwrap(), 220.0));
        assert!(approx_eq(reference.relation.lookup(&[1]).unwrap(), 320.0));
    }

    #[test]
    fn sql_round_trip() {
        let db = tiny_db();
        let out = db
            .run_sql("select c, sum(f) from v where a = 0 group by c using ve(degree)")
            .unwrap();
        match out {
            SqlOutcome::Answer(ans) => {
                // a=0: c=0 -> 1*10+2*30=70; c=1 -> 1*20+2*40=100.
                assert!(approx_eq(ans.relation.lookup(&[0]).unwrap(), 70.0));
                assert!(approx_eq(ans.relation.lookup(&[1]).unwrap(), 100.0));
            }
            _ => panic!("expected answer"),
        }
    }

    #[test]
    fn sql_view_creation() {
        let db = tiny_db();
        let out = db
            .run_sql("create mpfview w as select a, c, measure = (* r1.f, r2.f) from r1, r2")
            .unwrap();
        assert!(matches!(out, SqlOutcome::ViewCreated(n) if n == "w"));
        let ans = db.run(Query::on("w").group_by(["a"])).unwrap();
        assert_eq!(ans.relation.len(), 2);
    }

    #[test]
    fn min_aggregate_resolves_min_product() {
        let db = tiny_db();
        assert_eq!(
            db.semiring_for("v", Aggregate::Min).unwrap(),
            SemiringKind::MinProduct
        );
        let ans = db
            .run(Query::on("v").group_by(["a"]).aggregate(Aggregate::Min))
            .unwrap();
        // min over b,c of r1(a,b)*r2(b,c): a=0 -> min(10,20,60,80)=10.
        assert!(approx_eq(ans.relation.lookup(&[0]).unwrap(), 10.0));
    }

    #[test]
    fn incompatible_aggregate_is_rejected() {
        let db = tiny_db();
        db.create_view("s", &["r1", "r2"], Combine::Sum).unwrap();
        let e = db
            .run(Query::on("s").group_by(["a"]).aggregate(Aggregate::Sum))
            .unwrap_err();
        assert!(matches!(e, EngineError::IncompatibleAggregate { .. }));
        // `describe` plans only what `run` would run.
        let e = db
            .describe(Query::on("s").group_by(["a"]).aggregate(Aggregate::Sum))
            .unwrap_err();
        assert!(matches!(e, EngineError::IncompatibleAggregate { .. }));
        // But MIN over SUM-combine is the min-sum semiring.
        let ans = db
            .run(Query::on("s").group_by(["a"]).aggregate(Aggregate::Min))
            .unwrap();
        // min over b,c of r1(a,b)+r2(b,c): a=0 -> min(11,21,32,42)=11.
        assert!(approx_eq(ans.relation.lookup(&[0]).unwrap(), 11.0));
    }

    #[test]
    fn having_filters_results() {
        let db = tiny_db();
        let ans = db
            .run(
                Query::on("v")
                    .group_by(["c"])
                    .having(crate::RangePredicate::Greater, 250.0),
            )
            .unwrap();
        assert_eq!(ans.relation.len(), 1);
        assert!(approx_eq(ans.relation.lookup(&[1]).unwrap(), 320.0));
    }

    #[test]
    fn hypothetical_measure_override() {
        let db = tiny_db();
        let q = Query::on("v").group_by(["c"]);
        let base = db.run(&q).unwrap();
        let hyp = db
            .run(QueryRequest::from(&q).scenario(
                crate::Scenario::named("shock").measure("r1", vec![0, 0], 100.0),
            ))
            .unwrap();
        // c=0 changes from 220 to (100+3)*10 + (2+4)*30 = 1030+... recompute:
        // c=0: b=0 (r1: a0=100, a1=3)*10 = 1030; b=1: (2+4)*30 = 180 -> 1210.
        assert!(approx_eq(hyp.relation.lookup(&[0]).unwrap(), 1210.0));
        // Original database untouched.
        assert!(base
            .relation
            .function_eq(&db.run(&q).unwrap().relation));
    }

    #[test]
    fn hypothetical_domain_override() {
        let db = tiny_db();
        // Remap r2's b=1 rows to b=0 (first occurrence wins on collision).
        let hyp = db
            .run(
                QueryRequest::on("v")
                    .group_by(["c"])
                    .scenario(crate::Scenario::named("remap").move_domain("r2", "b", 1, 0)),
            )
            .unwrap();
        // r2 now has only b=0 rows (10, 20 kept); r1's b=1 rows join them.
        // c=0: (1+3)*10 ... wait all four r1 rows join b=0: but r1 b=1 rows
        // need r2 b=1 rows -> none. So c=0: (1+3)*10 = 40, c=1: (1+3)*20 = 80.
        assert!(approx_eq(hyp.relation.lookup(&[0]).unwrap(), 40.0));
        assert!(approx_eq(hyp.relation.lookup(&[1]).unwrap(), 80.0));
    }

    #[test]
    fn cache_answers_match_queries() {
        let db = tiny_db();
        let cache = db.build_cache("v", Aggregate::Sum, None).unwrap();
        let cached = db
            .run(QueryRequest::on("v").group_by(["c"]).via_cache(&cache))
            .unwrap();
        let direct = db.run(Query::on("v").group_by(["c"])).unwrap();
        assert!(direct.relation.function_eq(&cached.relation));
        // The cache path synthesizes the plan it actually ran.
        assert!(matches!(
            &cached.physical,
            PhysicalPlan::Step { inputs, group_vars: Some(_), .. } if inputs.len() == 1
        ));
    }

    #[test]
    fn cache_rejects_filters_and_overrides() {
        let db = tiny_db();
        let cache = db.build_cache("v", Aggregate::Sum, None).unwrap();
        let e = db
            .run(QueryRequest::on("v")
                .group_by(["c"])
                .filter("a", 0)
                .via_cache(&cache))
            .unwrap_err();
        assert!(matches!(e, EngineError::BadOverride(_)));
        let e = db
            .run(QueryRequest::on("v")
                .group_by(["c"])
                .via_cache(&cache)
                .scenario(crate::Scenario::named("shock").measure("r1", vec![0, 0], 9.0)))
            .unwrap_err();
        assert!(matches!(e, EngineError::BadOverride(_)));
    }

    #[test]
    fn run_traces_when_asked() {
        let db = tiny_db();
        let q = Query::on("v").group_by(["c"]);
        let plain = db.run(&q).unwrap();
        assert!(plain.trace.is_none());
        let traced = db
            .run(QueryRequest::from(&q).trace(TraceLevel::Spans))
            .unwrap();
        let tree = traced.trace.expect("trace requested");
        assert!(!tree.is_empty());
        // The root span mirrors the executed plan's root operator and
        // carries both an actual row count and an optimizer estimate.
        let root = &tree.roots[0];
        assert_eq!(root.rows_out, traced.relation.len() as u64);
        assert!(root.est_rows.is_some());
        assert_eq!(tree.span_count(), plan_nodes(&traced.physical));
    }

    fn plan_nodes(p: &PhysicalPlan) -> usize {
        match p {
            PhysicalPlan::Scan { .. } => 1,
            PhysicalPlan::Select { input, .. } => 1 + plan_nodes(input),
            PhysicalPlan::Step { inputs, .. } => 1 + inputs.iter().map(plan_nodes).sum::<usize>(),
        }
    }

    #[test]
    fn explain_analyze_reports_actuals() {
        let db = tiny_db();
        let text = db
            .explain_analyze(QueryRequest::on("v").group_by(["c"]).strategy(Strategy::Cs))
            .unwrap();
        assert!(text.contains("-- strategy: cs"));
        assert!(text.contains("est rows="));
        assert!(text.contains("rows="));
        assert!(text.contains("Scan r1"));
        assert!(text.contains("time="));
    }

    #[test]
    fn metrics_registry_is_fed() {
        let metrics = Arc::new(MetricsRegistry::new());
        let db = tiny_db().with_metrics(Arc::clone(&metrics));
        db.run(Query::on("v").group_by(["c"])).unwrap();
        db.run(Query::on("nope").group_by(["c"])).unwrap_err();
        assert_eq!(metrics.counter("engine.queries"), 2);
        assert_eq!(metrics.counter("engine.errors"), 1);
        let json = metrics.to_json();
        assert!(json.contains("engine.query_us"));
    }

    #[test]
    fn errors_are_informative() {
        let db = tiny_db();
        assert!(matches!(
            db.run(Query::on("nope").group_by(["a"])),
            Err(EngineError::UnknownView(_))
        ));
        assert!(matches!(
            db.run(Query::on("v").group_by(["zz"])),
            Err(EngineError::UnknownVariable(_))
        ));
        let db2 = tiny_db();
        assert!(matches!(
            db2.run_sql("create mpfview v as select a, measure = (* r1.f) from r1"),
            Err(EngineError::DuplicateView(_))
        ));
    }

    #[test]
    fn declared_fds_validate_and_feed_prop1() {
        let db = Database::new();
        let a = db.add_var("a", 4).unwrap();
        let y = db.add_var("y", 4).unwrap();
        // y = f(a): the FD a -> f holds with y outside the key.
        db.insert_relation(
            FunctionalRelation::from_rows(
                "r",
                Schema::new(vec![a, y]).unwrap(),
                (0..4u32).map(|x| (vec![x, x % 2], (x + 1) as f64)),
            )
            .unwrap(),
        )
        .unwrap();
        db.create_view("w", &["r"], Combine::Product).unwrap();
        // A valid declaration is accepted; an invalid one is rejected.
        db.declare_fd("r", &["a"]).unwrap();
        assert!(db.declare_fd("r", &["y"]).is_err());
        assert!(db.declare_fd("missing", &["a"]).is_err());
        // Queries still answer correctly with the declaration in place
        // (Proposition 1 prunes y from VE+'s elimination candidates).
        let naive = db
            .run(Query::on("w").group_by(["a"]).strategy(Strategy::Naive))
            .unwrap();
        let vep = db
            .run(
                Query::on("w")
                    .group_by(["a"])
                    .strategy(Strategy::VePlus(mpf_optimizer::Heuristic::Degree)),
            )
            .unwrap();
        assert!(naive.relation.function_eq(&vep.relation));
    }

    #[test]
    fn sparse_tensor_auto_agrees_and_is_counted() {
        let reference = tiny_db()
            .with_dense(DenseMode::Off)
            .with_repr(ReprMode::Off)
            .run(Query::on("v").group_by(["c"]))
            .unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        let db = tiny_db()
            .with_dense(DenseMode::Off)
            .with_repr(ReprMode::Auto)
            .with_metrics(Arc::clone(&metrics));
        let ans = db.run(Query::on("v").group_by(["c"])).unwrap();
        assert!(reference.relation.function_eq(&ans.relation));
        assert!(
            ans.physical.sparse_operator_count() > 0,
            "auto annotates sparse operators"
        );
        assert!(ans.stats.sparse_joins + ans.stats.sparse_group_bys > 0);
        assert!(metrics.counter("engine.repr.sparse_ops") > 0);
    }

    #[test]
    fn fused_dense_kernels_agree_and_are_counted() {
        let reference = tiny_db()
            .with_dense(DenseMode::Off)
            .with_repr(ReprMode::Off)
            .run(Query::on("v").group_by(["c"]))
            .unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        // tiny_db's relations are complete grids: the default mode plans
        // them dense.
        let db = tiny_db()
            .with_repr(ReprMode::Off)
            .with_metrics(Arc::clone(&metrics));
        let ans = db.run(Query::on("v").group_by(["c"])).unwrap();
        assert!(reference.relation.function_eq(&ans.relation));
        assert!(ans.stats.dense_joins > 0, "the default mode planned dense");
        assert!(
            ans.stats.fused_join_aggs > 0,
            "dense join feeding dense agg runs the fused operator"
        );
        assert!(metrics.counter("engine.fused_join_aggs") > 0);
    }

    #[test]
    fn explain_analyze_shows_repr() {
        let db = tiny_db().with_dense(DenseMode::Off).with_repr(ReprMode::Auto);
        let text = db
            .explain_analyze(QueryRequest::on("v").group_by(["c"]).strategy(Strategy::Cs))
            .unwrap();
        assert!(
            text.contains("repr=sparse"),
            "EXPLAIN ANALYZE reports the representation each operator ran on:\n{text}"
        );
    }

    #[test]
    fn explain_renders_plan() {
        let db = tiny_db();
        // tiny_db's relations are complete grids, so the dense operators
        // apply and the planner fuses the final join into the group-by.
        let text = db
            .describe(Query::on("v").group_by(["c"]).strategy(Strategy::CsPlusLinear))
            .unwrap();
        assert!(
            text.contains("JoinAgg [c] (Fused Dense)"),
            "fused elimination step renders:\n{text}"
        );
        assert!(text.contains("Scan r1"));
        assert!(text.contains("estimated cost"));
        // With the dense kernels off the unfused pair renders as before.
        let unfused = tiny_db()
            .with_dense(DenseMode::Off)
            .with_repr(ReprMode::Off)
            .describe(Query::on("v").group_by(["c"]).strategy(Strategy::CsPlusLinear))
            .unwrap();
        assert!(unfused.contains("GroupBy [c]"), "{unfused}");
    }
}
