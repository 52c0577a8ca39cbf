use mpf_algebra::{AlgebraError, ConfigError, ResourceKind};
use mpf_infer::InferError;
use mpf_semiring::{Aggregate, Combine, SemiringKind};
use mpf_storage::StorageError;

/// Errors raised by the query engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Underlying storage error.
    Storage(StorageError),
    /// Underlying algebra error.
    Algebra(AlgebraError),
    /// Underlying inference error.
    Infer(InferError),
    /// Unknown MPF view.
    UnknownView(String),
    /// A view of this name already exists.
    DuplicateView(String),
    /// Unknown variable name in a query.
    UnknownVariable(String),
    /// The aggregate does not distribute over the view's combine operation
    /// (no commutative semiring pairs them).
    IncompatibleAggregate {
        /// The view's multiplicative operation.
        combine: Combine,
        /// The requested aggregate.
        aggregate: Aggregate,
    },
    /// SQL parse error with position and message.
    Parse {
        /// Byte offset of the offending token.
        position: usize,
        /// Human-readable message.
        message: String,
    },
    /// A hypothetical override referenced a missing relation or row.
    BadOverride(String),
    /// An MPF view with no base relations (rejected at creation, and again
    /// defensively at planning time).
    EmptyView(String),
    /// An environment knob (`MPF_THREADS`, `MPF_CACHE_BYTES`) held a value
    /// that does not parse; raised by the strict startup paths
    /// ([`crate::Database::from_env`], the `mpf_serve` binary) instead of
    /// silently falling back to a default.
    Config(ConfigError),
    /// The view has more base relations than the optimizer's bitmask
    /// dynamic-programming search can enumerate. [`crate::Strategy::Naive`]
    /// still evaluates such views (no plan search), so a fallback chain
    /// ending in it serves the query.
    TooManyRelations {
        /// Base relations in the view.
        count: usize,
        /// The optimizer's limit.
        limit: usize,
    },
    /// A [`mpf_infer::VeCache`] handed to
    /// [`crate::QueryRequest::via_cache`] was built under a different
    /// semiring than the query resolves to. Marginalizing its tables
    /// would silently aggregate with the wrong operations, so the
    /// mismatch is a typed error instead of a wrong answer.
    CacheSemiringMismatch {
        /// The semiring the query's view/aggregate pair resolves to.
        expected: SemiringKind,
        /// The semiring the supplied cache was built under.
        cached: SemiringKind,
    },
    /// A point measure update named a relation, row, or old measure that
    /// does not match the current snapshot.
    InvalidUpdate(String),
    /// A multi-scenario request was submitted to a single-answer entry
    /// point ([`crate::Database::run`] / [`crate::Database::describe`]);
    /// batches go through [`crate::Database::run_scenarios`].
    ScenarioBatch {
        /// Scenarios in the rejected request.
        count: usize,
    },
    /// Two scenarios in one set share a name; the report keys outcomes
    /// by name, so names must be unique.
    DuplicateScenario(String),
}

impl EngineError {
    /// Whether retrying the query with a different evaluation strategy can
    /// plausibly cure this error.
    ///
    /// A row or cell budget trip may be caused by the chosen plan's
    /// intermediates (a cheaper-memory strategy can fit); an injected
    /// fault, a worker-thread panic, and the optimizer's relation-count
    /// limit are likewise strategy-specific. A missed wall-clock deadline
    /// is not — the deadline has already passed and every further attempt
    /// starts from zero — and cancellation, name-resolution, parse, and
    /// data errors are strategy-independent.
    pub fn fallback_may_cure(&self) -> bool {
        match self {
            EngineError::Algebra(AlgebraError::ResourceExhausted { resource, .. }) => {
                *resource != ResourceKind::WallClock
            }
            EngineError::Algebra(AlgebraError::FaultInjected(_))
            | EngineError::Algebra(AlgebraError::Internal(_))
            | EngineError::TooManyRelations { .. } => true,
            _ => false,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<AlgebraError> for EngineError {
    fn from(e: AlgebraError) -> Self {
        EngineError::Algebra(e)
    }
}

impl From<InferError> for EngineError {
    fn from(e: InferError) -> Self {
        EngineError::Infer(e)
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Algebra(e) => write!(f, "algebra error: {e}"),
            EngineError::Infer(e) => write!(f, "inference error: {e}"),
            EngineError::UnknownView(n) => write!(f, "unknown mpf view `{n}`"),
            EngineError::DuplicateView(n) => write!(f, "mpf view `{n}` already exists"),
            EngineError::UnknownVariable(n) => write!(f, "unknown variable `{n}`"),
            EngineError::IncompatibleAggregate { combine, aggregate } => write!(
                f,
                "aggregate {aggregate:?} does not distribute over combine {combine:?}: \
                 no commutative semiring pairs them"
            ),
            EngineError::Parse { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            EngineError::BadOverride(m) => write!(f, "bad hypothetical override: {m}"),
            EngineError::Config(e) => write!(f, "configuration error: {e}"),
            EngineError::EmptyView(n) => {
                write!(f, "mpf view `{n}` has no base relations")
            }
            EngineError::TooManyRelations { count, limit } => write!(
                f,
                "view has {count} base relations, beyond the optimizer's \
                 {limit}-relation search limit (the naive strategy still applies)"
            ),
            EngineError::CacheSemiringMismatch { expected, cached } => write!(
                f,
                "the supplied VeCache was built under semiring {cached:?}, but the \
                 query resolves to {expected:?}: rebuild the cache for this \
                 view/aggregate pair"
            ),
            EngineError::InvalidUpdate(m) => write!(f, "invalid measure update: {m}"),
            EngineError::ScenarioBatch { count } => write!(
                f,
                "request carries {count} scenarios but this entry point returns a \
                 single answer: use Database::run_scenarios for scenario sets"
            ),
            EngineError::DuplicateScenario(n) => {
                write!(f, "duplicate scenario name `{n}` in one scenario set")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Algebra(e) => Some(e),
            EngineError::Infer(e) => Some(e),
            _ => None,
        }
    }
}
