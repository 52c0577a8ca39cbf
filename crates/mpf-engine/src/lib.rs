#![warn(missing_docs)]
//! High-level MPF query engine: database facade, query API, and the
//! paper's SQL extension.
//!
//! This crate ties the storage, algebra, optimizer, and inference layers
//! into the interface a user of the paper's modified PostgreSQL would see:
//!
//! * [`Database`] — named relations + MPF view definitions
//!   (`create mpfview r as select ..., measure = (* s1.f, ..., sn.f) from ...`);
//! * [`Query`] / [`Answer`] — the three optimizable MPF query forms of
//!   Section 3.1 (basic, restricted answer, constrained domain), plus the
//!   constrained-range (`having`) form, evaluated under a selectable
//!   [`Strategy`] (the paper's PostgreSQL patch exposes the same knob as a
//!   language extension "that specifies the evaluation strategy");
//! * [`QueryRequest`] — the builder every execution entry point accepts
//!   ([`Database::run`] / [`Database::describe`] /
//!   [`Database::explain_analyze`]): strategy, per-request
//!   [`mpf_algebra::ExecLimits`], hypothetical [`Scenario`]s (named
//!   bundles of alternate-measure / alternate-domain overrides plus
//!   evidence, the Section 3.1 future-work forms), span tracing
//!   ([`TraceLevel`]), and answering from a materialized
//!   [`mpf_infer::VeCache`]
//!   ([`Database::build_cache`] + [`QueryRequest::via_cache`]);
//! * batch what-if evaluation: [`Database::run_scenarios`] takes a
//!   [`ScenarioSet`] (hundreds of named variants in one call), computes
//!   plan subtrees untouched by any override once as a *shared trunk*,
//!   fans per-scenario frontiers across the worker pool under one
//!   budget, and returns a [`ScenarioReport`] — per-scenario answers
//!   (bit-identical to sequential runs) plus an invariant-vs-divergent
//!   summary ([`Divergence`]) ranked by group shift;
//! * [`parser`] — a lexer + recursive-descent parser for the SQL extension,
//!   so the paper's example statements run verbatim;
//! * observability: [`Answer::trace`] carries a per-operator span tree
//!   (row counts, cells, wall time, representation),
//!   [`Database::explain_analyze`] renders it next to the optimizer's
//!   estimates, and [`Database::with_metrics`] feeds a process-wide
//!   [`MetricsRegistry`] (counters + latency histograms, JSON export);
//! * execution guardrails: [`Database::with_limits`] enforces
//!   [`mpf_algebra::ExecLimits`] resource budgets on every query, and
//!   [`Database::with_fallback`] configures the [`FallbackPolicy`] strategy
//!   chain retried when an attempt trips a budget or the optimizer fails
//!   ([`Answer::served_by`] records which strategy answered);
//! * a transparent, engine-owned [`ViewCache`]: cached elimination trees
//!   keyed by snapshot version × view × semiring × evidence, with
//!   byte-accurate residency accounting under an `MPF_CACHE_BYTES`
//!   budget, cost-based admission, LRU/cost hybrid eviction, and
//!   snapshot-keyed invalidation ([`CacheEvent`]) that patches point
//!   measure updates forward — the paper's Section 6 update semijoin,
//!   restricted to the separator keys the update reaches.
//!   [`Database::run`] serves from it automatically; [`Answer::cache`]
//!   ([`CacheServed`]) records when it did.

mod database;
mod delta;
mod error;
pub mod parser;
mod query;
mod request;
mod scenario;
mod snapshot;
mod viewcache;

pub use database::{Database, FallbackPolicy, MpfView, Override, SqlOutcome};
pub use error::EngineError;
pub use parser::{Statement, StrategySpec};
pub use query::{Answer, CacheServed, Query, RangePredicate, Strategy};
pub use request::QueryRequest;
pub use scenario::{
    Divergence, GroupDelta, Scenario, ScenarioOutcome, ScenarioReport, ScenarioSet,
};
pub use snapshot::{CatalogRef, RelationRef, Snapshot, StoreRef, ViewRef};
pub use viewcache::{CacheEvent, CacheKey, ViewCache, MAX_PATCHES};
// `Strategy::Ve`/`VePlus` take a heuristic, so consumers of this crate
// alone must be able to name it; likewise the trace/metrics/config types
// a `QueryRequest`, `Database::with_metrics`, and `Database::from_env`
// speak in.
pub use mpf_algebra::{
    ConfigError, DenseMode, MetricsRegistry, ReprMode, SpanKind, TraceLevel, TraceSpan, TraceTree,
};
// `EngineError::Infer` wraps it, so consumers matching engine errors
// (e.g. the service's wire classification) must be able to name it.
pub use mpf_infer::InferError;
pub use mpf_optimizer::Heuristic;

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
