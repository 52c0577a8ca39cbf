//! The engine-owned, cross-query materialized-view cache.
//!
//! [`crate::Database::run`] recomputes a view's elimination tree on every
//! request, even when consecutive queries differ only in their group-by
//! variable — exactly the recomputation the paper's VE-cache scheme
//! (Section 6, Algorithm 3) exists to remove. A [`ViewCache`] promotes
//! that scheme from a caller-managed object
//! ([`crate::QueryRequest::via_cache`]) to an engine-owned, cross-query,
//! cross-tenant layer: entries are whole [`VeCache`] trees keyed by
//! [`CacheKey`] (snapshot version, view, semiring, sorted evidence), and
//! `Database::run` serves a query transparently whenever a resident tree
//! covers it.
//!
//! **Admission** is demand- and cost-based: the first miss of a key only
//! records the observed recompute cost; a tree is built (and its build
//! cost paid, once, by the triggering request) when the accumulated
//! observed cost reaches [`ADMIT_FACTOR`] recomputes — the point where
//! expected savings amortize the build, which is itself about one
//! no-query-variable recompute of the view. An entry whose
//! [`VeCache::heap_bytes`] exceed the byte budget, or whose cost/byte
//! utility cannot beat the worst resident entry it would displace, is
//! discarded instead of admitted.
//!
//! **Eviction** is an LRU/cost hybrid: under byte pressure the entry with
//! the lowest `(1 + hits) × observed_cost / bytes` score goes first,
//! least-recently-used breaking ties. The byte accounting is capacity-
//! accurate ([`VeCache::heap_bytes`]: every cached table, name, schema,
//! and bookkeeping vector at allocator capacity), so the resident total
//! tracks real heap, not row counts.
//!
//! **Invalidation** is snapshot-keyed: entries carry the version of the
//! snapshot they were built against, and
//! [`crate::Database::mutate`] reports every install as a
//! [`CacheEvent`]. A point measure update patches affected trees forward
//! — unconditioned and evidence-conditioned alike, the update commutes
//! with selection — by propagating the delta along separators
//! ([`VeCache::update_measure`]) where the semiring admits division,
//! re-keys untouched trees to the new version, and evicts what it cannot
//! patch (or has patched [`MAX_PATCHES`] times); a mutation of unknown
//! shape evicts everything built against the old version. A query can
//! therefore never observe a stale tree: it looks up under its pinned
//! snapshot's version, and no mutation path leaves an entry behind under
//! a version it did not verify.
//!
//! **Patching** runs outside the cache lock. The lock is taken once to
//! move the trees a measure update reaches out of the map, and once to
//! re-insert them under the new version. While a tree is out, nothing in
//! the cache holds it, so the patch rewrites it in place through
//! `Arc::make_mut`. Only a tree a reader still holds is copied, and then
//! only the tables the patch rewrites (counter `patch_copies`); the
//! reader keeps the whole old tree. A tree the update does not rewrite
//! goes back as the very same `Arc`. Queries that look a tree up while
//! it is out miss and run uncached, whichever snapshot they pinned.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpf_algebra::MetricsRegistry;
use mpf_infer::VeCache;
use mpf_semiring::SemiringKind;
use mpf_storage::{Value, VarId};

/// Misses (weighted by observed recompute cost) before a key's tree is
/// built: admission requires the accumulated cost of cache misses to
/// reach this many mean recomputes, so one-off queries never pay a
/// build. With steady per-query cost this is simply the second miss.
pub const ADMIT_FACTOR: f64 = 2.0;

/// Point updates one resident tree absorbs before it is evicted and
/// rebuilt from the base relations on demand. A patch is exact when its
/// ratios are exact in `f64`; otherwise every rewritten measure picks up
/// a handful of roundings (≈1e-16 relative each). The drift suite
/// (`mpf-infer/tests/maintenance_drift.rs`) holds patched trees to 1e-9
/// relative agreement with a cold rebuild — as a property over up to 256
/// patches (observed ≈3e-15) and once at exactly this many (observed
/// ≈8e-15) — so a tree at the bound is still five orders of magnitude
/// inside the tolerance.
pub const MAX_PATCHES: u32 = 4096;

/// Identity of one cached elimination tree. Equal keys guarantee equal
/// answers: the snapshot version pins catalog + data + view definitions
/// (versions are globally unique and reassigned on every install), the
/// view name and semiring pin the algebra, and the evidence list
/// (sorted) pins any conditioning applied via the Theorem 5 protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The snapshot version the tree was built against.
    pub version: u64,
    /// The MPF view the tree materializes.
    pub view: String,
    /// The semiring the tree was built under.
    pub semiring: SemiringKind,
    /// Equality evidence conditioned into the tree, sorted by variable
    /// then value (empty for an unconditioned tree).
    pub evidence: Vec<(VarId, Value)>,
}

impl CacheKey {
    /// The same key without evidence — the unconditioned base tree a
    /// conditioned entry derives from.
    pub fn base(&self) -> CacheKey {
        CacheKey {
            version: self.version,
            view: self.view.clone(),
            semiring: self.semiring,
            evidence: Vec::new(),
        }
    }
}

/// What a [`crate::Database::mutate`] install did, as far as the cache
/// is concerned. Precise events keep more of the cache alive; the
/// conservative default ([`CacheEvent::Unknown`]) is always safe.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheEvent {
    /// One row of one base relation changed its measure from `old` to
    /// `new`. Trees over views containing the relation — conditioned
    /// ones included — are patched forward by delta propagation when
    /// the semiring admits division and `old` is not the additive
    /// identity; trees over other views, and conditioned trees whose
    /// evidence excludes the row, are carried forward untouched.
    MeasureUpdate {
        /// The mutated base relation.
        relation: String,
        /// The row's variable values, in the relation's schema order.
        row: Vec<Value>,
        /// The measure before the update.
        old: f64,
        /// The measure after the update.
        new: f64,
    },
    /// The named base relations changed in an unspecified way (insert,
    /// replace, load); everything else — other relations, the catalog's
    /// variable set, view definitions — is unchanged. Trees whose view
    /// reads none of the named relations are carried forward; the rest
    /// are evicted. An empty list (a pure catalog/view/FD addition)
    /// carries every tree forward.
    Touched(Vec<String>),
    /// Arbitrary mutation: every tree built against the old version is
    /// evicted. The raw [`crate::Database::mutate`] entry point reports
    /// this, since its closure can rewrite anything.
    Unknown,
}

/// One resident tree with its accounting.
struct Entry {
    tree: Arc<VeCache>,
    /// Base relation names of the entry's view (for `Touched` precision).
    base: Vec<String>,
    /// Capacity-accurate heap bytes ([`VeCache::heap_bytes`]) at
    /// admission/patch time.
    bytes: usize,
    /// Times this entry served a query.
    hits: u64,
    /// Accumulated observed recompute cost (µs) the entry stands in for.
    cost_us: f64,
    /// Logical clock of the last lookup (LRU tiebreak).
    last_used: u64,
    /// Point updates patched into the tree since it was built or derived
    /// (bounded by [`MAX_PATCHES`]).
    patches: u32,
}

/// What a mutation does to a resident entry it does not patch.
enum Fate {
    /// Still valid as is: re-key to the new version.
    Carry,
    /// Cannot be brought forward.
    Evict,
}

impl Entry {
    /// Eviction score: cheap-to-rebuild, rarely-hit, byte-hungry entries
    /// score lowest and go first.
    fn score(&self) -> f64 {
        (1 + self.hits) as f64 * self.cost_us.max(1.0) / self.bytes.max(1) as f64
    }
}

/// Per-key demand recorded before admission.
#[derive(Default)]
struct Demand {
    misses: u64,
    cost_us: f64,
}

/// Demand entries kept before the map is cleared wholesale (a runaway
/// workload of never-repeating keys must not grow the map unboundedly).
const MAX_DEMAND_KEYS: usize = 4096;

#[derive(Default)]
struct Inner {
    entries: HashMap<CacheKey, Entry>,
    demand: HashMap<CacheKey, Demand>,
    bytes: usize,
    clock: u64,
}

/// Cumulative counters, exported as `engine.cache.*` metrics.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    admits: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    patched: AtomicU64,
    patched_conditioned: AtomicU64,
    patched_rows: AtomicU64,
    patch_copies: AtomicU64,
    /// Summed in nanoseconds, published in microseconds, so that short
    /// in-place patches do not each truncate to a whole microsecond.
    patch_ns: AtomicU64,
    carried: AtomicU64,
    derived: AtomicU64,
    uncovered: AtomicU64,
    build_discarded: AtomicU64,
}

/// The engine-owned view cache: byte-budgeted, cost-admitted,
/// snapshot-invalidated storage of [`VeCache`] trees, shared across
/// queries, `Database` clones, and tenants (see the module docs for the
/// policies). All methods take `&self`; share with an `Arc` via
/// [`crate::Database::with_view_cache`].
pub struct ViewCache {
    /// Byte budget; `0` disables the cache entirely.
    budget: u64,
    inner: Mutex<Inner>,
    counters: Counters,
}

impl std::fmt::Debug for ViewCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewCache")
            .field("budget", &self.budget)
            .field("bytes", &self.bytes_resident())
            .field("entries", &self.len())
            .finish()
    }
}

impl ViewCache {
    /// A cache with the given byte budget (`0` disables it: every lookup
    /// misses, nothing is recorded or admitted).
    pub fn new(budget: u64) -> ViewCache {
        ViewCache {
            budget,
            inner: Mutex::new(Inner::default()),
            counters: Counters::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether the cache is enabled (a nonzero budget).
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Capacity-accurate resident bytes across all entries.
    pub fn bytes_resident(&self) -> u64 {
        lock(&self.inner).bytes as u64
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a tree by key, bumping its hit count and recency. The
    /// returned `Arc` is served outside the cache lock; a concurrent
    /// eviction only drops the cache's own reference.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<VeCache>> {
        if !self.enabled() {
            return None;
        }
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(key) {
            Some(e) => {
                e.hits += 1;
                e.last_used = clock;
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.tree))
            }
            None => None,
        }
    }

    /// Record a miss that cost `cost_us` microseconds to answer without
    /// the cache. Returns `true` when the accumulated demand for `key`
    /// justifies building its tree now (see `ADMIT_FACTOR`).
    pub fn record_miss(&self, key: &CacheKey, cost_us: f64) -> bool {
        if !self.enabled() {
            return false;
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = lock(&self.inner);
        if inner.demand.len() >= MAX_DEMAND_KEYS && !inner.demand.contains_key(key) {
            inner.demand.clear();
        }
        let d = inner.demand.entry(key.clone()).or_default();
        d.misses += 1;
        d.cost_us += cost_us.max(0.0);
        d.misses > 1 && d.cost_us >= ADMIT_FACTOR * (d.cost_us / d.misses as f64)
    }

    /// Offer a freshly built (or derived) tree for admission. The entry
    /// is discarded — and `false` returned — when its key is already
    /// resident, when it alone exceeds the byte budget, or when making
    /// room would evict resident entries of higher cost/byte utility than
    /// the candidate's. On admission the key's recorded demand transfers
    /// to the entry's cost.
    ///
    /// A resident key wins because it is what a reader that missed while
    /// a writer was still patching races against: the patched tree
    /// answers for the same version, and it keeps the sorted-run indexes
    /// its earlier patches built. Replacing it with the fresh build would
    /// make the next update rebuild them, widening the window in which
    /// readers miss and rebuild again.
    pub fn admit(&self, key: CacheKey, base: Vec<String>, tree: Arc<VeCache>) -> bool {
        if !self.enabled() {
            return false;
        }
        let bytes = tree.heap_bytes();
        let mut inner = lock(&self.inner);
        let cost_us = inner
            .demand
            .remove(&key)
            .map(|d| d.cost_us)
            .unwrap_or(0.0);
        if inner.entries.contains_key(&key) {
            self.counters.build_discarded.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        inner.clock += 1;
        let candidate = Entry {
            tree,
            base,
            bytes,
            hits: 0,
            cost_us,
            last_used: inner.clock,
            patches: 0,
        };
        if !self.make_room(&mut inner, &candidate) {
            self.counters.build_discarded.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        inner.entries.insert(key, candidate);
        inner.bytes += bytes;
        self.counters.admits.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Evict lowest-score entries until `candidate` fits. Returns `false`
    /// (leaving residents untouched beyond what was already evicted) when
    /// the candidate cannot fit or does not beat the cheapest resident.
    fn make_room(&self, inner: &mut Inner, candidate: &Entry) -> bool {
        if candidate.bytes as u64 > self.budget {
            return false;
        }
        while inner.bytes + candidate.bytes > self.budget as usize {
            let victim = inner
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    (a.score(), a.last_used)
                        .partial_cmp(&(b.score(), b.last_used))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(k, e)| (k.clone(), e.score()));
            match victim {
                Some((_, s)) if s > candidate.score() => return false,
                Some((k, _)) => {
                    if let Some(e) = inner.entries.remove(&k) {
                        inner.bytes -= e.bytes;
                        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => return false, // empty cache yet still over budget: impossible
            }
        }
        true
    }

    /// Apply one catalog mutation: rewrite every entry keyed by
    /// `old_version` according to `event` — patch forward
    /// ([`VeCache::update_measure`]) under a measure update, re-key
    /// untouched entries to `new_version`, evict the rest. Entries at
    /// other versions belong to other databases sharing this cache and
    /// are left alone. Demand recorded against `old_version` is dropped.
    ///
    /// Patch failures (no division in the semiring, a zero old measure, a
    /// ratio outside the carrier, an injected fault) and trees that have
    /// absorbed [`MAX_PATCHES`] updates degrade to eviction — correctness
    /// never depends on a patch landing. The trees a measure update
    /// reaches are taken out of the map under the lock and patched with
    /// the cache unlocked, in place unless a reader still holds them
    /// (then copy-on-write, counted as `patch_copies`); queries looking
    /// them up miss until they are re-inserted under `new_version`, and
    /// run uncached. Every other stale entry keeps serving readers pinned
    /// to `old_version` until it is re-keyed or evicted under the second
    /// lock.
    pub fn on_mutation(&self, old_version: u64, new_version: u64, event: &CacheEvent) {
        if !self.enabled() || old_version == new_version {
            return;
        }
        let reads = |entry: &Entry, name: &String| entry.base.contains(name);
        // Under the lock: the fate of each stale entry left in the map,
        // and the entries a measure update reaches, taken out to patch.
        let mut taken: Vec<(CacheKey, Entry)> = Vec::new();
        let mut fates: Vec<(CacheKey, Fate)> = Vec::new();
        {
            let mut inner = lock(&self.inner);
            inner.demand.retain(|k, _| k.version != old_version);
            let stale: Vec<CacheKey> = inner
                .entries
                .keys()
                .filter(|k| k.version == old_version)
                .cloned()
                .collect();
            for key in stale {
                let entry = &inner.entries[&key];
                let fate = match event {
                    CacheEvent::Unknown => Fate::Evict,
                    CacheEvent::Touched(names) if names.iter().any(|n| reads(entry, n)) => {
                        Fate::Evict
                    }
                    CacheEvent::Touched(_) => Fate::Carry,
                    CacheEvent::MeasureUpdate { relation, .. } if !reads(entry, relation) => {
                        Fate::Carry
                    }
                    CacheEvent::MeasureUpdate { .. } if entry.patches < MAX_PATCHES => {
                        let entry = inner.entries.remove(&key).expect("listed above");
                        inner.bytes -= entry.bytes;
                        taken.push((key, entry));
                        continue;
                    }
                    CacheEvent::MeasureUpdate { .. } => Fate::Evict,
                };
                fates.push((key, fate));
            }
        }

        // Unlocked: patching a tree is the only real work of an install.
        let mut forward: Vec<(CacheKey, Entry)> = Vec::with_capacity(taken.len());
        if let CacheEvent::MeasureUpdate {
            relation,
            row,
            old,
            new,
        } = event
        {
            let c = &self.counters;
            for (key, mut entry) in taken {
                let t0 = Instant::now();
                let held = Arc::as_ptr(&entry.tree);
                let outcome = entry.tree.update_measure(relation, row, *old, *new);
                c.patch_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                c.invalidations.fetch_add(1, Ordering::Relaxed);
                match outcome {
                    // The tree's evidence excludes the row (or the measure
                    // did not move): the same tree, nothing rewritten.
                    Ok(0) => {
                        c.carried.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(rows) => {
                        c.patched.fetch_add(1, Ordering::Relaxed);
                        if !key.evidence.is_empty() {
                            c.patched_conditioned.fetch_add(1, Ordering::Relaxed);
                        }
                        if !std::ptr::eq(held, Arc::as_ptr(&entry.tree)) {
                            c.patch_copies.fetch_add(1, Ordering::Relaxed);
                        }
                        c.patched_rows.fetch_add(rows as u64, Ordering::Relaxed);
                        entry.patches += 1;
                    }
                    Err(_) => {
                        c.evictions.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                forward.push((key, entry));
            }
            // Charge bytes once every tree is patched: a patch builds the
            // indexes it needs (a carried tree its base-row index too), and
            // a tree derived from another shares them, so a later patch can
            // raise an earlier tree's bytes.
            for (_, entry) in &mut forward {
                entry.bytes = entry.tree.heap_bytes();
            }
        }

        let mut inner = lock(&self.inner);
        for (key, fate) in fates {
            // An admission may have evicted the entry meanwhile.
            let Some(entry) = inner.entries.remove(&key) else {
                continue;
            };
            inner.bytes -= entry.bytes;
            self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
            match fate {
                Fate::Evict => {
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                Fate::Carry => {
                    self.counters.carried.fetch_add(1, Ordering::Relaxed);
                    forward.push((key, entry));
                }
            }
        }
        for (mut key, entry) in forward {
            key.version = new_version;
            inner.bytes += entry.bytes;
            // A reader that missed meanwhile may have admitted a fresh
            // build under the new version; the patched tree replaces it.
            if let Some(old) = inner.entries.insert(key, entry) {
                inner.bytes -= old.bytes;
            }
        }
        // The first patches of a tree add its sorted-run indexes; shed by
        // score if that crosses the budget.
        self.shed_over_budget(&mut inner);
    }

    /// Evict lowest-score entries until the resident total fits the
    /// budget again.
    fn shed_over_budget(&self, inner: &mut Inner) {
        while inner.bytes as u64 > self.budget {
            let victim = inner
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    (a.score(), a.last_used)
                        .partial_cmp(&(b.score(), b.last_used))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            if let Some(e) = inner.entries.remove(&k) {
                inner.bytes -= e.bytes;
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Count a conditioned tree derived from a resident base tree.
    pub(crate) fn note_derived(&self) {
        self.counters.derived.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a hit whose tree had no table covering the query's
    /// variables (the query fell through to normal execution).
    pub(crate) fn note_uncovered(&self) {
        self.counters.uncovered.fetch_add(1, Ordering::Relaxed);
    }

    /// Export the cache's counters and residency gauges into a
    /// [`MetricsRegistry`] under `engine.cache.*`. Values are absolute
    /// (the cache owns the counters), so re-publishing is idempotent and
    /// safe from every `Database` clone sharing the registry.
    pub fn publish(&self, m: &MetricsRegistry) {
        let c = &self.counters;
        m.set("engine.cache.hits", c.hits.load(Ordering::Relaxed));
        m.set("engine.cache.misses", c.misses.load(Ordering::Relaxed));
        m.set("engine.cache.admits", c.admits.load(Ordering::Relaxed));
        m.set("engine.cache.evictions", c.evictions.load(Ordering::Relaxed));
        m.set(
            "engine.cache.invalidations",
            c.invalidations.load(Ordering::Relaxed),
        );
        m.set("engine.cache.patched", c.patched.load(Ordering::Relaxed));
        m.set(
            "engine.cache.patched_conditioned",
            c.patched_conditioned.load(Ordering::Relaxed),
        );
        m.set(
            "engine.cache.patched_rows",
            c.patched_rows.load(Ordering::Relaxed),
        );
        m.set(
            "engine.cache.patch_copies",
            c.patch_copies.load(Ordering::Relaxed),
        );
        m.set(
            "engine.cache.patch_us",
            c.patch_ns.load(Ordering::Relaxed) / 1000,
        );
        m.set("engine.cache.carried", c.carried.load(Ordering::Relaxed));
        m.set("engine.cache.derived", c.derived.load(Ordering::Relaxed));
        m.set("engine.cache.uncovered", c.uncovered.load(Ordering::Relaxed));
        m.set(
            "engine.cache.build_discarded",
            c.build_discarded.load(Ordering::Relaxed),
        );
        m.set("engine.cache.bytes_resident", self.bytes_resident());
        m.set("engine.cache.entries", self.len() as u64);
    }

    /// A named cumulative counter, for tests and diagnostics: one of
    /// `hits`, `misses`, `admits`, `evictions`, `invalidations`,
    /// `patched`, `patched_conditioned`, `patched_rows`, `patch_copies`
    /// (patches that copied their tree because a reader still held it),
    /// `patch_us`, `carried`, `derived`, `uncovered`, `build_discarded`.
    pub fn counter(&self, name: &str) -> u64 {
        let c = &self.counters;
        match name {
            "hits" => c.hits.load(Ordering::Relaxed),
            "misses" => c.misses.load(Ordering::Relaxed),
            "admits" => c.admits.load(Ordering::Relaxed),
            "evictions" => c.evictions.load(Ordering::Relaxed),
            "invalidations" => c.invalidations.load(Ordering::Relaxed),
            "patched" => c.patched.load(Ordering::Relaxed),
            "patched_conditioned" => c.patched_conditioned.load(Ordering::Relaxed),
            "patched_rows" => c.patched_rows.load(Ordering::Relaxed),
            "patch_copies" => c.patch_copies.load(Ordering::Relaxed),
            "patch_us" => c.patch_ns.load(Ordering::Relaxed) / 1000,
            "carried" => c.carried.load(Ordering::Relaxed),
            "derived" => c.derived.load(Ordering::Relaxed),
            "uncovered" => c.uncovered.load(Ordering::Relaxed),
            "build_discarded" => c.build_discarded.load(Ordering::Relaxed),
            _ => 0,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
