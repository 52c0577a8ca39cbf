//! The VE-cache workload optimization scheme (Section 6, Algorithm 3).
//!
//! Given an MPF view and a workload of single-variable queries, VE-cache
//! materializes a set `S` of tables satisfying the Definition 5 correctness
//! invariant: a query on variable `X` can be answered from *any* cached
//! table containing `X`, with the same result as evaluating it against the
//! full view.
//!
//! The construction follows Algorithm 3 literally:
//!
//! 1. execute a **no-query-variable** Variable Elimination plan, caching
//!    every table that precedes a `GroupBy` node (these are exactly the
//!    cliques of the triangulation induced by the elimination order —
//!    Theorem 10);
//! 2. run the backward pass: for each cached table `t_j` (newest first) and
//!    each earlier `t_i` whose `GroupBy` fed `t_j`'s join, compute
//!    `t_i ⋉ t_j` (update semijoin).
//!
//! The producer/consumer edges recorded in step 1 form a join tree over the
//! cache (verified by [`VeCache::verify_tree_rip`] in tests), which is what
//! makes the restricted-range evidence protocol of Theorem 5 work: apply
//! the selection to one cached table, then propagate update-semijoin
//! reductions outward along the tree.
//!
//! **Maintenance.** Evidence conditioning ([`VeCache::with_evidence`]) and
//! point measure updates ([`VeCache::update_measure`]) share one routine:
//! change the rows of one table, then walk the tree outward and, per edge,
//! apply the update semijoin's ratio `marg_parent(U) / marg_child(U)` on
//! the separator keys `U` that a changed row carries — nowhere else, since
//! a calibrated tree already agrees on every other key. A point update
//! therefore rewrites only the rows whose measure really changes; evidence
//! is the same walk with every row of the source in the change set.
//! Tables sit behind `Arc`s: a derived tree shares every table the walk
//! did not touch with the tree it came from. A point update patches its
//! tree in place through `Arc::make_mut`, so it copies a table only while
//! someone else still holds it: a reader holding the old tree keeps it
//! whole and never observes a partial patch, and a tree nobody else holds
//! is rewritten without copying. An update that rewrites nothing (the
//! tree's evidence excludes the row, or the ratio is one) is settled
//! before anything is copied and leaves the very same `Arc`.
//!
//! Rows are found by key, never by a scan: each table keeps sorted-run
//! indexes (keys ascending, the rows of each key ascending) on the
//! separator of each incident edge and on the variables of each base
//! relation it consumed. An index is built the first time an update
//! needs it and lives in a cell shared by every tree that holds the
//! same rows: patched trees (updates change measures, never keys or row
//! order) and derived trees whose evidence kept the table whole.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use mpf_algebra::{fault, ops, ExecContext, OpRepr, ReprMode};
use mpf_semiring::SemiringKind;
use mpf_storage::{FunctionalRelation, Key, Value, VarId};

use crate::triangulate::min_fill_order;
use crate::{InferError, JoinTree, Result, VariableGraph};

/// A single-variable workload query with an occurrence probability
/// (the workload model of Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadQuery {
    /// The query variable.
    pub var: VarId,
    /// Optional equality predicates (restricted-answer form).
    pub predicates: Vec<(VarId, Value)>,
    /// Likelihood of a user posing this query.
    pub probability: f64,
}

/// A materialized cache of reduced tables satisfying the workload
/// correctness invariant (Definition 5).
#[derive(Debug, Clone)]
pub struct VeCache {
    semiring: SemiringKind,
    /// The cached tables; table `i` is always named `t{i}`.
    tables: Vec<Arc<FunctionalRelation>>,
    /// Producer edges `(i, j)`: `GroupBy(tables[i])` was an input of the
    /// join that created `tables[j]`.
    edges: Vec<(usize, usize)>,
    /// The elimination order used.
    order: Vec<VarId>,
    /// Base relation names, in build order.
    base_names: Vec<String>,
    /// Base relation schemas, parallel to `base_names`.
    base_schemas: Vec<mpf_storage::Schema>,
    /// For each base relation, the cached table whose join consumed it
    /// (`None` for zero-arity bases that never join).
    base_consumer: Vec<Option<usize>>,
    /// Per cached table, the sorted-run indexes a point update looks its
    /// rows up by. Each is built on first use and — updates change
    /// measures, never keys or row order — shared by every tree patched
    /// from this one, and by every derived tree that kept the table's rows.
    index: Vec<Arc<TableIndex>>,
}

/// The rows of one cached table grouped by the key they carry on some of
/// its columns, as sorted runs: what lets a point update reach the rows
/// sharing a key without scanning the table.
#[derive(Debug)]
struct Runs {
    /// The distinct keys, ascending.
    keys: Vec<Key>,
    /// Run `k` is `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// Row ids ordered by key, ascending within a run, so walking a run
    /// folds measures in table row order.
    rows: Vec<u32>,
}

impl Runs {
    fn build(table: &FunctionalRelation, positions: &[usize]) -> Runs {
        let key = |i: u32| Key::extract(table.row(i as usize), positions);
        // A stable sort of the ascending row ids keeps each run ascending.
        // Packed keys are extracted per comparison without allocating;
        // `Key::Big` allocates, so once per row.
        let mut rows: Vec<u32> = (0..table.len() as u32).collect();
        if positions.len() <= 4 {
            rows.sort_by_key(|&i| key(i));
        } else {
            rows.sort_by_cached_key(|&i| key(i));
        }
        let mut keys: Vec<Key> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        for (at, &i) in (0u32..).zip(&rows) {
            let k = key(i);
            if keys.last() != Some(&k) {
                keys.push(k);
                starts.push(at);
            }
        }
        starts.push(rows.len() as u32);
        keys.shrink_to_fit();
        starts.shrink_to_fit();
        Runs { keys, starts, rows }
    }

    /// The rows carrying `key`, ascending (empty when none does).
    fn rows_of(&self, key: &Key) -> &[u32] {
        match self.keys.binary_search(key) {
            Ok(k) => &self.rows[self.starts[k] as usize..self.starts[k + 1] as usize],
            Err(_) => &[],
        }
    }

    fn heap_bytes(&self) -> usize {
        // Every key has the same width; only `Key::Big` owns heap.
        let wide = match self.keys.first() {
            Some(Key::Big(values)) => self.keys.len() * std::mem::size_of_val(&**values),
            _ => 0,
        };
        self.keys.capacity() * std::mem::size_of::<Key>()
            + wide
            + (self.starts.capacity() + self.rows.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The [`Runs`] of one cached table, one per column set a point update
/// looks its rows up by: the separator of each incident tree edge and the
/// variables of each base relation the table consumed. Each is built on
/// first use.
#[derive(Debug)]
struct TableIndex {
    runs: Vec<(Box<[usize]>, OnceLock<Runs>)>,
}

impl TableIndex {
    /// An index over the same column sets with nothing built, for a table
    /// whose rows changed.
    fn unbuilt(&self) -> TableIndex {
        TableIndex {
            runs: self
                .runs
                .iter()
                .map(|(positions, _)| (positions.clone(), OnceLock::new()))
                .collect(),
        }
    }

    /// The runs of `table` (the table this index describes) on
    /// `positions`, built on first use.
    fn runs(&self, table: &FunctionalRelation, positions: &[usize]) -> &Runs {
        let (_, cell) = self
            .runs
            .iter()
            .find(|(p, _)| **p == *positions)
            .expect("an indexed column set of the table");
        cell.get_or_init(|| Runs::build(table, positions))
    }

    /// The column sets and the runs built so far.
    fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(Box<[usize]>, OnceLock<Runs>)>()
            + self
                .runs
                .iter()
                .map(|(positions, cell)| {
                    std::mem::size_of_val(&**positions) + cell.get().map_or(0, Runs::heap_bytes)
                })
                .sum::<usize>()
    }
}

/// What a propagation step knows about the rows of one table.
#[derive(Debug)]
enum Changed {
    /// Any row may have changed and rows may be gone (an evidence
    /// selection): a neighbour is rescaled on every separator key and
    /// loses the rows whose key this table no longer carries.
    All,
    /// Exactly these rows changed their measure; none was added or
    /// removed.
    Rows(Vec<u32>),
}

impl Changed {
    /// How many rows of `table` the change set covers.
    fn count(&self, table: &FunctionalRelation) -> usize {
        match self {
            Changed::All => table.len(),
            Changed::Rows(rows) => rows.len(),
        }
    }
}

/// Fold measures with the semiring's additive operation, first value
/// first — the accumulation order of `GroupBy`.
fn fold(sr: SemiringKind, mut measures: impl Iterator<Item = f64>) -> f64 {
    match measures.next() {
        Some(first) => measures.fold(first, |acc, m| sr.add(acc, m)),
        None => sr.zero(),
    }
}

/// Where a live VE factor came from during the forward pass.
enum Origin {
    /// The `i`th input base relation.
    Base(usize),
    /// The group-by output of cached table `i`.
    Cached(usize),
}

impl VeCache {
    /// Build the cache from the view's base relations (Algorithm 3) inside
    /// a caller-owned [`ExecContext`], so budgets, deadlines, cancellation,
    /// fault hooks, and tracing cover the whole construction and its work
    /// lands in the caller's stats. With `order = None` a min-fill order
    /// over the variable graph is used.
    ///
    /// # Errors
    /// [`InferError::Algebra`] if the semiring lacks division (the backward
    /// pass needs the update semijoin).
    pub fn build_in(
        cx: &mut ExecContext<'_>,
        rels: &[&FunctionalRelation],
        order: Option<&[VarId]>,
    ) -> Result<VeCache> {
        cx.span_phase("vecache::build");
        let result = VeCache::build_inner(cx, rels, order);
        cx.span_close(|| result.as_ref().err().map(|e| e.to_string()));
        result
    }

    fn build_inner(
        cx: &mut ExecContext<'_>,
        rels: &[&FunctionalRelation],
        order: Option<&[VarId]>,
    ) -> Result<VeCache> {
        cx.fault("vecache::build")?;
        let sr = cx.semiring();
        if !sr.has_division() {
            return Err(InferError::Algebra(mpf_algebra::AlgebraError::NoDivision));
        }
        let graph = VariableGraph::from_schemas(rels.iter().map(|r| r.schema()));
        let mut full_order: Vec<VarId> = match order {
            Some(o) => o.to_vec(),
            None => min_fill_order(&graph),
        };
        for v in graph.vertices() {
            if !full_order.contains(&v) {
                full_order.push(v);
            }
        }

        // Forward pass: VE with *all* variables as elimination candidates.
        // `factors` carries each live factor's origin (input base relation
        // or group-by output of a cached table).
        let mut factors: Vec<(FunctionalRelation, Origin)> = rels
            .iter()
            .enumerate()
            .map(|(i, r)| ((*r).clone(), Origin::Base(i)))
            .collect();
        let mut tables: Vec<Arc<FunctionalRelation>> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut base_consumer: Vec<Option<usize>> = vec![None; rels.len()];
        let mut leftover_scalars: Vec<(f64, Option<usize>)> = Vec::new();

        for &v in &full_order {
            let (group, rest): (Vec<_>, Vec<_>) = factors
                .drain(..)
                .partition(|(f, _)| f.schema().contains(v));
            factors = rest;
            if group.is_empty() {
                continue;
            }
            // Join rels(v), smallest first. Under `ReprMode::Auto` every
            // join starts its chain at the sparse kernel (a dense-first
            // chain would change the tables' column layout and the
            // elimination's fold order), so the intermediates stay in
            // coordinate form between joins and expand into rows once, for
            // the cached table; under `Off` the chain starts dense, and
            // the dense kernel or the hash join runs.
            let mut group = group;
            group.sort_by_key(|(f, _)| f.len());
            let j = tables.len();
            let mut iter = group.into_iter();
            let (mut joined, first_origin) = iter.next().expect("nonempty");
            let mut origins = vec![first_origin];
            for (f, origin) in iter {
                let start = match cx.repr_mode() {
                    ReprMode::Auto => OpRepr::Sparse,
                    ReprMode::Off => OpRepr::Dense,
                };
                joined = ops::step(cx, &[&joined, &f], None, start)?;
                origins.push(origin);
            }
            for origin in origins {
                match origin {
                    Origin::Cached(i) => edges.push((i, j)),
                    Origin::Base(b) => base_consumer[b] = Some(j),
                }
            }
            // Cache the pre-GroupBy table as explicit rows, the form the
            // backward pass and the semijoins read (a lone base relation's
            // clone leaves the base's keyed-order memo behind).
            let joined = joined.without_coords();
            tables.push(Arc::new(
                joined.clone().with_name(format!("t{j}")).without_keyed_memo(),
            ));
            // Eliminate v.
            let keep: Vec<VarId> = joined.schema().iter().filter(|&u| u != v).collect();
            let p = ops::step(cx, &[&joined], Some(&keep), OpRepr::Dense)?;
            if p.schema().is_empty() {
                // Component fully eliminated; remember its total.
                let total = if p.is_empty() { sr.zero() } else { p.measure(0) };
                leftover_scalars.push((total, Some(j)));
            } else {
                factors.push((p, Origin::Cached(j)));
            }
        }
        // Base relations with empty schemas never join anything.
        for (f, origin) in factors {
            debug_assert!(f.schema().is_empty());
            let total = if f.is_empty() { sr.zero() } else { f.measure(0) };
            let root = match origin {
                Origin::Cached(i) => Some(i),
                Origin::Base(_) => None,
            };
            leftover_scalars.push((total, root));
        }

        let mut cache = VeCache {
            semiring: sr,
            tables,
            edges,
            order: full_order,
            base_names: rels.iter().map(|r| r.name().to_string()).collect(),
            base_schemas: rels.iter().map(|r| r.schema().clone()).collect(),
            base_consumer,
            index: Vec::new(),
        };

        // Backward pass (lines 3–7 of Algorithm 3).
        for j in (0..cache.tables.len()).rev() {
            let children: Vec<usize> = cache
                .edges
                .iter()
                .filter(|&&(_, cj)| cj == j)
                .map(|&(i, _)| i)
                .collect();
            for i in children {
                cache.tables[i] = Arc::new(
                    mpf_algebra::ops::update_semijoin(cx, &cache.tables[i], &cache.tables[j])?
                        .with_name(format!("t{i}")),
                );
            }
        }

        // Cross-component scaling, so Definition 5 holds against the *full*
        // (cross-product) view even when the schema is disconnected.
        cache.apply_component_scaling(&leftover_scalars)?;
        cache.index = cache.unbuilt_index();
        Ok(cache)
    }

    /// Build caches for several candidate elimination orders and keep the
    /// one minimizing the Section 6 workload objective
    /// `C(S) + E[cost(Q(q, S))]`.
    ///
    /// With `candidate_orders` empty, the min-fill and min-degree orders of
    /// the variable graph are tried. This is the cost-based instantiation
    /// of the paper's "MPF Workload Problem": the invariant guarantees any
    /// order is *correct*, so order choice is purely an optimization.
    pub fn build_for_workload(
        sr: SemiringKind,
        rels: &[&FunctionalRelation],
        workload: &[WorkloadQuery],
        candidate_orders: &[Vec<VarId>],
    ) -> Result<VeCache> {
        let defaults: Vec<Vec<VarId>>;
        let candidates: &[Vec<VarId>] = if candidate_orders.is_empty() {
            let graph = VariableGraph::from_schemas(rels.iter().map(|r| r.schema()));
            defaults = vec![
                min_fill_order(&graph),
                crate::triangulate::min_degree_order(&graph),
            ];
            &defaults
        } else {
            candidate_orders
        };
        let mut best: Option<(f64, VeCache)> = None;
        for order in candidates {
            let cache = VeCache::build_in(&mut ExecContext::new(sr), rels, Some(order))?;
            let cost = cache.expected_cost(workload);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, cache));
            }
        }
        Ok(best.expect("at least one candidate order").1)
    }

    /// Scale every component's tables by the product of the *other*
    /// components' totals.
    fn apply_component_scaling(&mut self, scalars: &[(f64, Option<usize>)]) -> Result<()> {
        // Components keyed by root cache index (producer of the final
        // scalar); scalar factors from measure-only base relations have no
        // cached tables but still contribute their total.
        if scalars.len() <= 1 {
            return Ok(());
        }
        let comps = self.components();
        let comp_of = |table: usize| comps.iter().position(|c| c.contains(&table));
        for (k, &(_, root_k)) in scalars.iter().enumerate() {
            let other: f64 = self.semiring.product(
                scalars
                    .iter()
                    .enumerate()
                    .filter(|&(k2, _)| k2 != k)
                    .map(|(_, &(t, _))| t),
            );
            if let Some(root) = root_k {
                if let Some(ci) = comp_of(root) {
                    for &t in &comps[ci] {
                        crate::bp::scale(self.semiring, Arc::make_mut(&mut self.tables[t]), other);
                    }
                }
            }
        }
        Ok(())
    }

    /// The cached tables (table `i` is named `t{i}`). The `Arc`s tell
    /// what a derived or patched tree shares with its origin.
    pub fn tables(&self) -> &[Arc<FunctionalRelation>] {
        &self.tables
    }

    /// The semiring the cache was built in.
    pub fn semiring(&self) -> SemiringKind {
        self.semiring
    }

    /// The elimination order used to build the cache.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// Producer/consumer edges of the cache tree.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Total cached rows — the `C(S)` materialization-size term of the
    /// workload objective.
    pub fn total_cached_rows(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64).sum()
    }

    /// Heap bytes reachable from the cache: every cached table, the
    /// sorted-run indexes point updates have built so far, and the tree
    /// bookkeeping (edges, order, base-relation names/schemas/consumer
    /// map), all charged at vector *capacity*. This is what a residency
    /// budget (the engine's `MPF_CACHE_BYTES` view cache) accounts per
    /// entry; tables and indexes shared with another tree are charged to
    /// each holder in full, and an index that a sharing tree builds
    /// raises the bytes of every holder.
    pub fn heap_bytes(&self) -> usize {
        let tables: usize = self.tables.iter().map(|t| t.heap_bytes()).sum();
        let index: usize = self.index.iter().map(|t| t.heap_bytes()).sum();
        tables
            + self.tables.capacity() * std::mem::size_of::<Arc<FunctionalRelation>>()
            + index
            + self.index.capacity() * std::mem::size_of::<Arc<TableIndex>>()
            + self.edges.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.order.capacity() * std::mem::size_of::<VarId>()
            + self
                .base_names
                .iter()
                .map(String::capacity)
                .sum::<usize>()
            + self.base_names.capacity() * std::mem::size_of::<String>()
            + self
                .base_schemas
                .iter()
                .map(mpf_storage::Schema::heap_bytes)
                .sum::<usize>()
            + self.base_schemas.capacity() * std::mem::size_of::<mpf_storage::Schema>()
            + self.base_consumer.capacity() * std::mem::size_of::<Option<usize>>()
    }

    /// Index of the smallest cached table covering every variable in
    /// `vars` — the table [`VeCache::answer_set_in`] would marginalize —
    /// or [`InferError::VariableNotCovered`] when no single table does.
    /// Lets a caller test coverage (and size the marginalization) without
    /// running it.
    pub fn covering_table(&self, vars: &[VarId]) -> Result<usize> {
        self.best_table_for(vars)
    }

    /// Answer a single-variable MPF query from the cache: marginalize the
    /// smallest cached table containing `var`.
    pub fn answer(&self, var: VarId) -> Result<FunctionalRelation> {
        self.answer_in(&mut ExecContext::new(self.semiring), var)
    }

    /// [`VeCache::answer`] inside a caller-owned [`ExecContext`] (budgets,
    /// stats, and tracing apply).
    pub fn answer_in(
        &self,
        cx: &mut ExecContext<'_>,
        var: VarId,
    ) -> Result<FunctionalRelation> {
        self.answer_set_in(cx, &[var])
    }

    /// Answer a query on a variable *set* — succeeds when some cached table
    /// covers every requested variable.
    pub fn answer_set(&self, vars: &[VarId]) -> Result<FunctionalRelation> {
        self.answer_set_in(&mut ExecContext::new(self.semiring), vars)
    }

    /// [`VeCache::answer_set`] inside a caller-owned [`ExecContext`]
    /// (budgets, stats, and tracing apply).
    pub fn answer_set_in(
        &self,
        cx: &mut ExecContext<'_>,
        vars: &[VarId],
    ) -> Result<FunctionalRelation> {
        let idx = self.best_table_for(vars)?;
        Ok(ops::step(cx, &[&self.tables[idx]], Some(vars), OpRepr::Dense)?)
    }

    fn best_table_for(&self, vars: &[VarId]) -> Result<usize> {
        (0..self.tables.len())
            .filter(|&i| vars.iter().all(|&v| self.tables[i].schema().contains(v)))
            .min_by_key(|&i| self.tables[i].len())
            .ok_or(InferError::VariableNotCovered(
                vars.first().copied().unwrap_or(VarId(u32::MAX)),
            ))
    }

    /// The restricted-range / constrained-domain protocol (Theorem 5):
    /// return a new cache conditioned on `var = value`. The selection is
    /// applied to one cached table containing `var`, then update-semijoin
    /// reductions are propagated outward along the cache tree.
    pub fn with_evidence(&self, var: VarId, value: Value) -> Result<VeCache> {
        let source = self.best_table_for(&[var])?;
        let sr = self.semiring;
        let mut out = self.clone();
        out.change_and_propagate(source, |table| {
            let selected =
                mpf_algebra::ops::select_eq(&mut ExecContext::new(sr), table, &[(var, value)])?
                    .with_name(table.name().to_string());
            *table = Arc::new(selected);
            Ok(Changed::All)
        })?;
        // Selection only ever removes rows, in order: a table of unchanged
        // length kept its key column and shares its indexes with `self`; a
        // filtered one starts over.
        for ((index, kept), was) in out.index.iter_mut().zip(&out.tables).zip(&self.tables) {
            if kept.len() == was.len() {
                debug_assert_eq!(kept.values_col(), was.values_col());
            } else {
                *index = Arc::new(index.unbuilt());
            }
        }
        Ok(out)
    }

    /// [`VeCache::with_evidence`] chained over an evidence set: condition
    /// on every `(var, value)` pair in order. One conditioned tree is
    /// derived per pair; callers batching many scenarios with shared
    /// evidence should sort pairs so equal sets hit equal derivations.
    ///
    /// # Errors
    /// [`InferError::EmptyEvidence`] on an empty set; otherwise whatever
    /// [`VeCache::with_evidence`] raises for some pair.
    pub fn with_evidence_set(&self, evidence: &[(VarId, Value)]) -> Result<VeCache> {
        let mut iter = evidence.iter();
        let &(var, value) = iter.next().ok_or(InferError::EmptyEvidence)?;
        let mut out = self.with_evidence(var, value)?;
        for &(var, value) in iter {
            out = out.with_evidence(var, value)?;
        }
        Ok(out)
    }

    /// Incremental view maintenance: patch the tree in place to reflect a
    /// changed measure of one row of a base relation (the
    /// materialize-and-maintain option the paper's introduction raises),
    /// without rebuilding, and return the number of cached rows the change
    /// rewrote.
    ///
    /// The base row's measure enters the view product exactly once — inside
    /// the cached table whose join consumed the base relation — so the
    /// update multiplies the matching rows of that table by `new / old`
    /// and carries the change outward along the cache tree, rescaling on
    /// each edge only the rows whose separator key a changed row carries
    /// (the same walk as evidence conditioning, with a smaller change
    /// set).
    ///
    /// The rows of the consuming table that match `row` are one run of its
    /// sorted-run index on the base relation's variables (built by the
    /// first update of that relation, here or in any tree sharing the
    /// table), looked up before anything is copied. When there are none
    /// (the tree's evidence excludes `row`), or the ratio is one, the tree
    /// is left as the very same `Arc` and `0` returned. Otherwise the
    /// patch goes through [`Arc::make_mut`], on the tree and on each table
    /// it rewrites: in place where nothing else holds them, copied where
    /// something does. A caller that keeps the old tree patches an
    /// [`Arc::clone`] of it; the patched tree then shares rows, row order,
    /// indexes and every untouched table with the old one, and the old one
    /// never observes a partial patch.
    ///
    /// The result equals a rebuild bit for bit when every ratio involved
    /// is exact in `f64`; otherwise each rewritten measure picks up a few
    /// roundings per patch.
    ///
    /// # Errors
    /// [`InferError::InvalidUpdate`] if the relation is unknown, `row` does
    /// not have one value per variable of it, the old measure is the
    /// additive identity (a `0 → x` change alters the view's support and
    /// needs a rebuild), a separator ratio leaves the carrier (a marginal
    /// collapsed to the additive identity), or the semiring cannot express
    /// the ratio. The first three leave the tree untouched;
    /// after the others (and after an injected fault) the tree may be
    /// partly patched and must be dropped.
    pub fn update_measure(
        self: &mut Arc<Self>,
        relation: &str,
        row: &[Value],
        old: f64,
        new: f64,
    ) -> Result<usize> {
        let sr = self.semiring;
        let base = self
            .base_names
            .iter()
            .position(|n| n == relation)
            .ok_or_else(|| {
                InferError::InvalidUpdate(format!("unknown base relation `{relation}`"))
            })?;
        let base_vars = self.base_schemas[base].vars();
        if row.len() != base_vars.len() {
            return Err(InferError::InvalidUpdate(format!(
                "row {row:?} does not match the {} variables of `{relation}`",
                base_vars.len()
            )));
        }
        if old == sr.zero() {
            return Err(InferError::InvalidUpdate(
                "old measure is the additive identity; the update changes the view's \
                 support — rebuild the cache"
                    .into(),
            ));
        }
        let ratio = sr.div(new, old);
        let Some(source) = self.base_consumer[base] else {
            return Err(InferError::InvalidUpdate(format!(
                "base relation `{relation}` has no variables; rebuild the cache"
            )));
        };
        if ratio == sr.one() {
            return Ok(0);
        }
        // The consuming table's rows matching the base row, in ascending
        // row order: the table carries the base relation's variables in
        // the base's order at `positions`.
        let table = &self.tables[source];
        let positions = table
            .schema()
            .positions(base_vars)
            .expect("base variables are inside the consuming clique");
        let hits = self.index[source]
            .runs(table, &positions)
            .rows_of(&Key::of_row(row))
            .to_vec();
        if hits.is_empty() {
            return Ok(0);
        }

        Arc::make_mut(self).change_and_propagate(source, |table| {
            let table = Arc::make_mut(table);
            for &i in &hits {
                let m = table.measure(i as usize);
                table.set_measure(i as usize, sr.mul(m, ratio));
            }
            Ok(Changed::Rows(hits))
        })
    }

    /// Column positions of the separator between tables `a` and `b`, in
    /// `a` and in `b`. Both follow one variable order, so keys extracted
    /// on either side compare equal.
    fn separator(&self, a: usize, b: usize) -> (Vec<usize>, Vec<usize>) {
        let (lo, hi) = (a.min(b), a.max(b));
        let shared = self.tables[lo]
            .schema()
            .intersect(self.tables[hi].schema());
        let positions = |t: usize| {
            self.tables[t]
                .schema()
                .positions(shared.vars())
                .expect("separator variables lie in both tables")
        };
        (positions(a), positions(b))
    }

    /// Every table's index, nothing built yet: one column set per
    /// incident edge's separator and per base relation the table consumed.
    fn unbuilt_index(&self) -> Vec<Arc<TableIndex>> {
        let mut sets: Vec<Vec<Box<[usize]>>> = vec![Vec::new(); self.tables.len()];
        let mut add = |t: usize, positions: Vec<usize>| {
            if !sets[t].iter().any(|p| **p == *positions) {
                sets[t].push(positions.into());
            }
        };
        for &(i, j) in &self.edges {
            let (in_i, in_j) = self.separator(i, j);
            add(i, in_i);
            add(j, in_j);
        }
        for (schema, consumer) in self.base_schemas.iter().zip(&self.base_consumer) {
            if let Some(t) = *consumer {
                let positions = self.tables[t].schema().positions(schema.vars());
                add(
                    t,
                    positions.expect("base variables are inside the consuming clique"),
                );
            }
        }
        sets.into_iter()
            .map(|runs| {
                let runs = runs.into_iter().map(|p| (p, OnceLock::new())).collect();
                Arc::new(TableIndex { runs })
            })
            .collect()
    }

    /// The one maintenance routine: let `change` rewrite `tables[source]`
    /// and say which rows it changed, then restore Definition 5 by pushing
    /// the change outward along the cache tree ([`VeCache::push_across`]
    /// per edge, parents before children) and rescaling the tables of
    /// other components by the change of the view's total. Returns the
    /// number of rows rewritten, the source's included.
    ///
    /// `vecache::propagate` is the routine's fault site.
    fn change_and_propagate(
        &mut self,
        source: usize,
        change: impl FnOnce(&mut Arc<FunctionalRelation>) -> Result<Changed>,
    ) -> Result<usize> {
        fault::check("vecache::propagate")?;
        let sr = self.semiring;
        let walk = self.as_join_tree().bfs_from(source);
        // Tables of other components carry the view's total as a factor.
        let total = |t: &FunctionalRelation| fold(sr, t.measures().iter().copied());
        let old_total = (walk.len() < self.tables.len()).then(|| total(&self.tables[source]));

        let changed = change(&mut self.tables[source])?;
        let mut rewritten = changed.count(&self.tables[source]);
        let mut state: Vec<Option<Changed>> = (0..self.tables.len()).map(|_| None).collect();
        state[source] = Some(changed);
        for &(node, parent) in &walk {
            let Some(parent) = parent else { continue };
            let from = state[parent]
                .as_ref()
                .expect("the walk visits a parent before its children");
            let next = self.push_across(parent, node, from)?;
            rewritten += next.count(&self.tables[node]);
            state[node] = Some(next);
        }

        if let Some(old_total) = old_total {
            let new_total = total(&self.tables[source]);
            if new_total != old_total {
                let ratio = sr.div(new_total, old_total);
                if !sr.is_valid_accumulation(ratio) {
                    return Err(InferError::InvalidUpdate(format!(
                        "the view's total changed by {ratio}; rebuild the cache"
                    )));
                }
                for i in 0..self.tables.len() {
                    if walk.iter().all(|&(n, _)| n != i) {
                        crate::bp::scale(sr, Arc::make_mut(&mut self.tables[i]), ratio);
                        rewritten += self.tables[i].len();
                    }
                }
            }
        }
        Ok(rewritten)
    }

    /// One edge of the maintenance walk: the update semijoin
    /// `node ⋉ parent`, restricted to the separator keys that a changed
    /// row of `parent` carries. For each such key the parent's and the
    /// node's marginals are folded over *all* their rows with that key, in
    /// row order — the `GroupBy`s of the full semijoin on those keys — and
    /// the node's rows with that key are multiplied by the quotient where
    /// they sit. A calibrated tree agrees on every other key (quotient
    /// one), so those rows are not read at all.
    fn push_across(&mut self, parent: usize, node: usize, from: &Changed) -> Result<Changed> {
        let sr = self.semiring;
        let (in_parent, in_node) = self.separator(parent, node);
        let above = Arc::clone(&self.tables[parent]);
        let below = Arc::clone(&self.tables[node]);
        let quotient = |above: f64, below: f64| {
            let q = sr.div(above, below);
            if sr.is_valid_accumulation(q) {
                Ok(q)
            } else {
                Err(InferError::InvalidUpdate(format!(
                    "separator ratio {q} between t{parent} and t{node} is outside the \
                     semiring's carrier; rebuild the cache"
                )))
            }
        };
        // The node's rows whose quotient is not one, with their new measures.
        let mut rescaled: Vec<(u32, f64)> = Vec::new();
        let one = sr.one();
        let scaled = |i: u32, q: f64| (i, sr.mul(below.measure(i as usize), q));

        match from {
            Changed::Rows(rows) if rows.is_empty() => {}
            Changed::Rows(rows) => {
                // Key by key through both sides' runs: no row outside them
                // is read, none of them is hashed.
                let same_above = self.index[parent].runs(&above, &in_parent);
                let same_below = self.index[node].runs(&below, &in_node);
                let mut keys: Vec<Key> = rows
                    .iter()
                    .map(|&r| Key::extract(above.row(r as usize), &in_parent))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for key in &keys {
                    let members = same_below.rows_of(key);
                    if members.is_empty() {
                        continue;
                    }
                    let marginal = |t: &FunctionalRelation, rows: &[u32]| {
                        fold(sr, rows.iter().map(|&i| t.measure(i as usize)))
                    };
                    let q = quotient(
                        marginal(&above, same_above.rows_of(key)),
                        marginal(&below, members),
                    )?;
                    if q != one {
                        rescaled.extend(members.iter().map(|&i| scaled(i, q)));
                    }
                }
            }
            Changed::All => {
                // The whole semijoin, including its loss of the node's
                // rows whose key the parent no longer carries.
                let by_key = |t: &FunctionalRelation, positions: &[usize]| {
                    let mut marginals: HashMap<Key, f64> = HashMap::new();
                    for (row, m) in t.rows() {
                        marginals
                            .entry(Key::extract(row, positions))
                            .and_modify(|acc| *acc = sr.add(*acc, m))
                            .or_insert(m);
                    }
                    marginals
                };
                let mut quotients = by_key(&above, &in_parent);
                for (key, own) in by_key(&below, &in_node) {
                    if let Some(q) = quotients.get_mut(&key) {
                        *q = quotient(*q, own)?;
                    }
                }
                let key_of = |i: u32| Key::extract(below.row(i as usize), &in_node);
                let rows = 0..below.len() as u32;
                if rows.clone().all(|i| quotients.contains_key(&key_of(i))) {
                    let moved = rows.filter(|&i| quotients[&key_of(i)] != one);
                    rescaled.extend(moved.map(|i| scaled(i, quotients[&key_of(i)])));
                } else {
                    let mut kept =
                        FunctionalRelation::new(below.name().to_string(), below.schema().clone());
                    for (row, m) in below.rows() {
                        if let Some(&q) = quotients.get(&Key::extract(row, &in_node)) {
                            kept.push_row_unchecked(row, sr.mul(m, q));
                        }
                    }
                    self.tables[node] = Arc::new(kept);
                    return Ok(Changed::All);
                }
            }
        }

        drop(below);
        if !rescaled.is_empty() {
            let table = Arc::make_mut(&mut self.tables[node]);
            for &(i, m) in &rescaled {
                table.set_measure(i as usize, m);
            }
        }
        Ok(match from {
            Changed::All => Changed::All,
            Changed::Rows(_) => Changed::Rows(rescaled.into_iter().map(|(i, _)| i).collect()),
        })
    }

    /// Expected workload cost `C(S) + E[cost(Q(q, S))]` of Section 6, with
    /// per-query cost modeled as the rows of the cached table that answers
    /// it (a scan + group-by is linear in that size).
    pub fn expected_cost(&self, workload: &[WorkloadQuery]) -> f64 {
        let c_s = self.total_cached_rows() as f64;
        let e_cost: f64 = workload
            .iter()
            .map(|q| {
                let per = self
                    .best_table_for(&[q.var])
                    .map(|i| self.tables[i].len() as f64)
                    .unwrap_or(f64::INFINITY);
                q.probability * per
            })
            .sum();
        c_s + e_cost
    }

    /// View the producer edges as a [`JoinTree`] over the cached tables.
    pub fn as_join_tree(&self) -> JoinTree {
        JoinTree {
            n: self.tables.len(),
            edges: self.edges.clone(),
        }
    }

    /// Verify that the cache tree satisfies the running-intersection
    /// property over the cached table schemas (the Theorem 10 structure).
    pub fn verify_tree_rip(&self) -> bool {
        let sets: Vec<BTreeSet<VarId>> = self
            .tables
            .iter()
            .map(|t| t.schema().iter().collect())
            .collect();
        self.as_join_tree().verify_rip(&sets)
    }

    fn components(&self) -> Vec<Vec<usize>> {
        self.as_join_tree().components()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::satisfies_invariant;
    use mpf_semiring::approx_eq;
    use mpf_storage::{Catalog, Schema};

    /// The paper's running-example shape: a chain of 5 relations
    /// contracts(pid,sid) — location(pid,wid) — warehouses(wid,cid) —
    /// ctdeals(cid,tid) — transporters(tid), at toy scale.
    fn supply_chain(cat: &mut Catalog) -> Vec<FunctionalRelation> {
        let pid = cat.add_var("pid", 3).unwrap();
        let sid = cat.add_var("sid", 2).unwrap();
        let wid = cat.add_var("wid", 3).unwrap();
        let cid = cat.add_var("cid", 2).unwrap();
        let tid = cat.add_var("tid", 2).unwrap();
        let mk = |name: &str, vars: Vec<VarId>, salt: u32| {
            FunctionalRelation::complete(name, Schema::new(vars).unwrap(), cat, move |row| {
                ((row.iter().sum::<u32>() + salt) % 4 + 1) as f64 / 2.0
            })
        };
        vec![
            mk("contracts", vec![pid, sid], 0),
            mk("location", vec![pid, wid], 1),
            mk("warehouses", vec![wid, cid], 2),
            mk("ctdeals", vec![cid, tid], 3),
            mk("transporters", vec![tid], 4),
        ]
    }

    #[test]
    fn cache_satisfies_definition_5() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs, cache.tables()).unwrap());
        assert!(cache.verify_tree_rip());
    }

    /// A table that is a lone base relation's clone does not carry the
    /// base's keyed-order memo: its bytes are those of a memo-less build
    /// and stay put when the base's memo grows afterwards.
    #[test]
    fn cached_tables_leave_the_keyed_memo_behind() {
        let mut cat = Catalog::new();
        // `transporters(tid)` alone: its one table is the base's clone,
        // and no backward-pass semijoin replaces it.
        let base = supply_chain(&mut cat).pop().unwrap();
        let plain = FunctionalRelation::from_rows(
            base.name(),
            base.schema().clone(),
            base.rows().map(|(row, m)| (row.to_vec(), m)),
        )
        .unwrap();
        let mut stored = plain.clone();
        stored.enable_keyed_memo();
        let build = |rel: &FunctionalRelation| {
            VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &[rel], None).unwrap()
        };
        let (cache, want) = (build(&stored), build(&plain));
        assert_eq!(cache.tables().len(), 1);
        let bytes = cache.heap_bytes();
        assert_eq!(bytes, want.heap_bytes());
        let dom = stored.inferred_domains()[0];
        stored.keyed_order(&[(0, dom)]).unwrap();
        assert_eq!(cache.heap_bytes(), bytes);
    }

    #[test]
    fn paper_order_yields_three_main_tables() {
        // Figure 5's order tid, pid, cid (then sid, wid) gives cached tables
        // covering (cid,tid), (sid,pid,wid), (wid,cid) — the paper's
        // t3, t1, t2.
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let tid = cat.var("tid").unwrap();
        let pid = cat.var("pid").unwrap();
        let cid = cat.var("cid").unwrap();
        let cache =
            VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, Some(&[tid, pid, cid])).unwrap();
        let schemas: Vec<BTreeSet<VarId>> = cache
            .tables()
            .iter()
            .map(|t| t.schema().iter().collect())
            .collect();
        let sid = cat.var("sid").unwrap();
        let wid = cat.var("wid").unwrap();
        assert!(schemas.contains(&[cid, tid].into_iter().collect()));
        assert!(schemas.contains(&[sid, pid, wid].into_iter().collect()));
        assert!(schemas.contains(&[wid, cid].into_iter().collect()));
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs, cache.tables()).unwrap());
    }

    #[test]
    fn answers_match_view_for_every_variable() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        // Full view for reference.
        let mut cx = ExecContext::new(sr);
        let mut view = rels[0].clone();
        for r in &rels[1..] {
            view = mpf_algebra::ops::product_join(&mut cx, &view, r).unwrap();
        }
        for name in ["pid", "sid", "wid", "cid", "tid"] {
            let v = cat.var(name).unwrap();
            let want = mpf_algebra::ops::group_by(&mut cx, &view, &[v]).unwrap();
            let got = cache.answer(v).unwrap();
            assert!(want.function_eq(&got), "cache answer diverges on {name}");
        }
    }

    #[test]
    fn evidence_protocol_matches_conditioned_view() {
        // The paper's example: `select wid, agg(inv) ... where tid = 1`.
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        let tid = cat.var("tid").unwrap();
        let conditioned = cache.with_evidence(tid, 1).unwrap();

        let mut cx = ExecContext::new(sr);
        let mut view = rels[0].clone();
        for r in &rels[1..] {
            view = mpf_algebra::ops::product_join(&mut cx, &view, r).unwrap();
        }
        let view = mpf_algebra::ops::select_eq(&mut cx, &view, &[(tid, 1)]).unwrap();
        for name in ["pid", "sid", "wid", "cid"] {
            let v = cat.var(name).unwrap();
            let want = mpf_algebra::ops::group_by(&mut cx, &view, &[v]).unwrap();
            let got = conditioned.answer(v).unwrap();
            assert!(
                want.function_eq(&got),
                "conditioned cache diverges on {name}"
            );
        }
    }

    #[test]
    fn min_aggregate_workload() {
        // The same machinery in the min-sum semiring: `min` queries with
        // additive combination.
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::MinSum;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        assert!(satisfies_invariant(sr, &refs, cache.tables()).unwrap());
    }

    #[test]
    fn uncovered_variable_is_an_error() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let ghost = cat.add_var("ghost", 7).unwrap();
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        assert!(matches!(
            cache.answer(ghost),
            Err(InferError::VariableNotCovered(_))
        ));
    }

    #[test]
    fn expected_cost_weights_queries() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        let tid = cat.var("tid").unwrap();
        let pid = cat.var("pid").unwrap();
        let wl = vec![
            WorkloadQuery {
                var: tid,
                predicates: vec![],
                probability: 0.5,
            },
            WorkloadQuery {
                var: pid,
                predicates: vec![],
                probability: 0.5,
            },
        ];
        let cost = cache.expected_cost(&wl);
        assert!(cost > cache.total_cached_rows() as f64);
        assert!(cost.is_finite());
    }

    #[test]
    fn incremental_update_matches_rebuild() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let mut maintained =
            Arc::new(VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap());

        // Change one row of `warehouses` and maintain incrementally.
        let wh_idx = rels.iter().position(|r| r.name() == "warehouses").unwrap();
        let row = rels[wh_idx].row(0).to_vec();
        let old = rels[wh_idx].measure(0);
        let new = old * 3.5;
        maintained
            .update_measure("warehouses", &row, old, new)
            .unwrap();

        // Reference: rebuild from the modified base relations.
        let mut modified = rels.clone();
        modified[wh_idx].set_measure(0, new);
        let mod_refs: Vec<&FunctionalRelation> = modified.iter().collect();
        let rebuilt = VeCache::build_in(&mut ExecContext::new(sr), &mod_refs, None).unwrap();

        for name in ["pid", "sid", "wid", "cid", "tid"] {
            let v = cat.var(name).unwrap();
            let want = rebuilt.answer(v).unwrap();
            let got = maintained.answer(v).unwrap();
            assert!(want.function_eq_in(&got, sr), "maintenance diverged on {name}");
        }
        // And the maintained cache satisfies Definition 5 directly.
        assert!(satisfies_invariant(sr, &mod_refs, maintained.tables()).unwrap());
    }

    #[test]
    fn incremental_update_rejects_support_changes() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let mut cache = Arc::new(
            VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None)
                .unwrap(),
        );
        assert!(matches!(
            cache.update_measure("warehouses", &[0, 0], 0.0, 1.0),
            Err(InferError::InvalidUpdate(_))
        ));
        assert!(matches!(
            cache.update_measure("missing", &[0, 0], 1.0, 2.0),
            Err(InferError::InvalidUpdate(_))
        ));
    }

    /// r0(a,b) — r1(b,c) — r2(c): eliminating a, b, c in that order caches
    /// exactly t0(a,b), t1(b,c), t2(c), a three-table chain.
    fn sparse_chain(cat: &mut Catalog) -> (Vec<FunctionalRelation>, [VarId; 3]) {
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 3).unwrap();
        let c = cat.add_var("c", 3).unwrap();
        let r0 = FunctionalRelation::complete("r0", Schema::new(vec![a, b]).unwrap(), cat, |r| {
            1.0 + (r[0] * 3 + r[1]) as f64 / 4.0
        });
        let r1 = FunctionalRelation::from_rows(
            "r1",
            Schema::new(vec![b, c]).unwrap(),
            [
                (vec![0, 0], 0.5),
                (vec![1, 1], 1.5),
                (vec![1, 2], 2.5),
                (vec![2, 0], 3.5),
            ],
        )
        .unwrap();
        let r2 = FunctionalRelation::complete("r2", Schema::new(vec![c]).unwrap(), cat, |r| {
            2.0 + r[0] as f64
        });
        (vec![r0, r1, r2], [a, b, c])
    }

    /// Row indices whose measure bits differ between two same-shaped tables.
    fn rewritten_rows(before: &FunctionalRelation, after: &FunctionalRelation) -> Vec<usize> {
        assert_eq!(before.values_col(), after.values_col(), "keys or row order moved");
        (0..before.len())
            .filter(|&i| before.measure(i).to_bits() != after.measure(i).to_bits())
            .collect()
    }

    #[test]
    fn point_update_rewrites_exactly_the_changed_key_closure() {
        let mut cat = Catalog::new();
        let (rels, order) = sparse_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let cache =
            Arc::new(VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order)).unwrap());
        assert_eq!(cache.edges(), &[(0, 1), (1, 2)]);
        let rows: Vec<usize> = cache.tables().iter().map(|t| t.len()).collect();
        assert_eq!(rows, [6, 4, 3]);

        // r0(a=0, b=1) × 3: one row of t0; b = 1 reaches the two rows
        // (1,1), (1,2) of t1; their c ∈ {1, 2} reaches two rows of t2.
        let mut patched = Arc::clone(&cache);
        let n = patched.update_measure("r0", &[0, 1], 1.25, 3.75).unwrap();
        assert_eq!(n, 1 + 2 + 2);
        let changed: Vec<Vec<usize>> = (0..3)
            .map(|i| rewritten_rows(&cache.tables()[i], &patched.tables()[i]))
            .collect();
        assert_eq!(changed, [vec![1], vec![1, 2], vec![1, 2]]);

        // From the other end: r2(c=0) reaches t1's (0,0), (2,0), whose
        // b ∈ {0, 2} reaches four rows of t0.
        let n = patched.update_measure("r2", &[0], 2.0, 5.0).unwrap();
        assert_eq!(n, 1 + 2 + 4);

        let mut modified = rels.clone();
        modified[0].set_measure(1, 3.75);
        modified[2].set_measure(0, 5.0);
        let mod_refs: Vec<&FunctionalRelation> = modified.iter().collect();
        assert!(satisfies_invariant(sr, &mod_refs, patched.tables()).unwrap());
    }

    #[test]
    fn an_unshared_tree_is_patched_in_place_and_a_carry_copies_nothing() {
        let mut cat = Catalog::new();
        let (rels, order) = sparse_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let mut tree =
            Arc::new(VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order)).unwrap());
        let addresses = |t: &Arc<VeCache>| {
            let tables: Vec<_> = t.tables().iter().map(Arc::as_ptr).collect();
            (Arc::as_ptr(t), tables)
        };
        let before = addresses(&tree);
        assert_eq!(
            tree.update_measure("r0", &[0, 1], 1.25, 3.75).unwrap(),
            1 + 2 + 2
        );
        assert_eq!(addresses(&tree), before, "an unshared tree was copied");

        // Held elsewhere, a tree that the update does not rewrite is left
        // as the same allocation: a ratio of one, or evidence that
        // excludes the row.
        let held = Arc::clone(&tree);
        assert_eq!(tree.update_measure("r0", &[0, 1], 3.75, 3.75).unwrap(), 0);
        assert!(Arc::ptr_eq(&tree, &held));
        let a = order[0];
        let mut conditioned = Arc::new(tree.with_evidence(a, 1).unwrap());
        let held = Arc::clone(&conditioned);
        let n = conditioned.update_measure("r0", &[0, 1], 3.75, 7.5).unwrap();
        assert_eq!(n, 0);
        assert!(Arc::ptr_eq(&conditioned, &held));
    }

    #[test]
    fn update_that_moves_no_marginal_shares_downstream_tables() {
        // In max-product a row below its group's maximum does not move the
        // max-marginal, so the quotient is exactly one and the walk stops.
        let mut cat = Catalog::new();
        let (rels, order) = sparse_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::MaxProduct;
        let cache =
            Arc::new(VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order)).unwrap());
        // r0(a=0,b=1) = 1.25 < r0(a=1,b=1) = 2.0; raising it to 1.5 keeps
        // the max over a at b = 1.
        let before = cache.tables()[0].measure(1);
        let mut patched = Arc::clone(&cache);
        let n = patched.update_measure("r0", &[0, 1], 1.25, 1.5).unwrap();
        assert_eq!(n, 1);
        assert!(!Arc::ptr_eq(&cache.tables()[0], &patched.tables()[0]));
        assert!(Arc::ptr_eq(&cache.tables()[1], &patched.tables()[1]));
        assert!(Arc::ptr_eq(&cache.tables()[2], &patched.tables()[2]));
        // The origin tree is untouched.
        assert_eq!(cache.tables()[0].measure(1).to_bits(), before.to_bits());
        assert_ne!(patched.tables()[0].measure(1).to_bits(), before.to_bits());
        let mut modified = rels.clone();
        modified[0].set_measure(1, 1.5);
        let mod_refs: Vec<&FunctionalRelation> = modified.iter().collect();
        assert!(satisfies_invariant(sr, &mod_refs, patched.tables()).unwrap());
    }

    #[test]
    fn two_hundred_patches_leave_names_bytes_and_rows_unchanged() {
        let mut cat = Catalog::new();
        let mut rels = supply_chain(&mut cat);
        let sr = SemiringKind::SumProduct;
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let tid = cat.var("tid").unwrap();
        let built = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        let mut trees = [built.clone(), built.with_evidence(tid, 1).unwrap()].map(Arc::new);
        let shape = |t: &Arc<VeCache>| -> Vec<(String, usize)> {
            t.tables()
                .iter()
                .map(|t| (t.name().to_string(), t.len()))
                .collect()
        };
        let table_bytes =
            |t: &Arc<VeCache>| t.tables().iter().map(|t| t.heap_bytes()).sum::<usize>();
        let shapes = trees.each_ref().map(shape);
        let built_bytes = trees.each_ref().map(table_bytes);
        for (i, names) in shapes.iter().enumerate() {
            for (j, (name, _)) in names.iter().enumerate() {
                assert_eq!(name, &format!("t{j}"), "tree {i}");
            }
        }

        let mut bytes = trees.each_ref().map(|t| t.heap_bytes());
        for step in 0..200usize {
            let r = step % rels.len();
            let i = (step * 7) % rels[r].len();
            let (row, old) = (rels[r].row(i).to_vec(), rels[r].measure(i));
            let new = if step % 2 == 0 { old * 1.7 } else { old / 1.3 };
            rels[r].set_measure(i, new);
            for tree in &mut trees {
                tree.update_measure(rels[r].name(), &row, old, new).unwrap();
            }
            // Bytes move only at the first patch of each base relation
            // (steps 0 to 4): it builds that relation's base-row index, the
            // separator indexes its walk needs, and copies the tables it
            // touches to exact capacity. Later patches build nothing.
            let now = trees.each_ref().map(|t| t.heap_bytes());
            if step >= rels.len() {
                assert_eq!(now, bytes, "step {step}");
            }
            bytes = now;
        }
        assert_eq!(trees.each_ref().map(shape), shapes);
        for (after, built) in trees.each_ref().map(table_bytes).iter().zip(built_bytes) {
            assert!(*after <= built, "tables grew: {built} -> {after}");
        }
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        assert!(satisfies_invariant(sr, &refs, trees[0].tables()).unwrap());
    }

    /// Measure bits of every table, in row order.
    fn table_bits(tree: &VeCache) -> Vec<Vec<u64>> {
        tree.tables()
            .iter()
            .map(|t| t.measures().iter().map(|m| m.to_bits()).collect())
            .collect()
    }

    #[test]
    fn derived_trees_share_the_indexes_of_the_tables_they_kept() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let tid = cat.var("tid").unwrap();
        let built = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        let conditioned = built.with_evidence(tid, 1).unwrap();
        let kept: Vec<bool> = (0..built.tables().len())
            .map(|i| conditioned.tables()[i].len() == built.tables()[i].len())
            .collect();
        assert!(kept.contains(&true) && kept.contains(&false), "{kept:?}");
        let shared = |a: &VeCache, b: &VeCache| -> Vec<bool> {
            a.index
                .iter()
                .zip(&b.index)
                .map(|(x, y)| Arc::ptr_eq(x, y))
                .collect()
        };
        assert_eq!(shared(&built, &conditioned), kept);

        // The first update builds indexes through both trees; the kept
        // tables' indexes are still one allocation, each built once.
        let mut trees = [built, conditioned].map(Arc::new);
        let (row, old) = (rels[0].row(0).to_vec(), rels[0].measure(0));
        for tree in &mut trees {
            tree.update_measure(rels[0].name(), &row, old, old * 2.0)
                .unwrap();
        }
        assert_eq!(shared(&trees[0], &trees[1]), kept);
        let mut built_runs = 0;
        for tree in &trees {
            for index in &tree.index {
                for runs in index.runs.iter().filter_map(|(_, cell)| cell.get()) {
                    built_runs += 1;
                    let bound = 4 * runs.rows.len() + 40 * runs.keys.len();
                    assert!(
                        runs.heap_bytes() <= bound,
                        "{} > {bound}",
                        runs.heap_bytes()
                    );
                }
            }
        }
        assert!(built_runs > 0);
    }

    /// r0(a,b,c,d,e) — r1(c,d,e,f) — r2(f) under the order a, b, c, d, e,
    /// f: the base-row index of r0 has five-column keys (`Key::Big`), the
    /// t0–t1 separator four and the t1–t2 separator three. Unit measures
    /// and power-of-two update ratios keep the folds and quotients the
    /// test meets exact in `f64`, so a patch must match a rebuild bit for
    /// bit.
    fn wide_chain(cat: &mut Catalog) -> (Vec<FunctionalRelation>, Vec<VarId>) {
        let vars: Vec<VarId> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|v| cat.add_var(v, 2).unwrap())
            .collect();
        let unit = |name: &str, vs: &[VarId]| {
            FunctionalRelation::complete(name, Schema::new(vs.to_vec()).unwrap(), cat, |_| 1.0)
        };
        let rels = vec![
            unit("r0", &vars[..5]),
            unit("r1", &vars[2..]),
            unit("r2", &vars[5..]),
        ];
        (rels, vars)
    }

    #[test]
    fn wide_keys_patch_bit_identically_to_a_rebuild() {
        let mut cat = Catalog::new();
        let (mut rels, order) = wide_chain(&mut cat);
        let sr = SemiringKind::SumProduct;
        let build = |rels: &[FunctionalRelation]| {
            let refs: Vec<&FunctionalRelation> = rels.iter().collect();
            VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order)).unwrap()
        };
        let built = build(&rels);
        let widths: Vec<usize> = built
            .edges()
            .iter()
            .map(|&(i, j)| built.separator(i, j).0.len())
            .collect();
        assert!(widths.contains(&3) && widths.contains(&4), "{widths:?}");
        let e = order[4];
        let mut trees = [built.clone(), built.with_evidence(e, 1).unwrap()].map(Arc::new);

        let updates = [
            (0, 27, 2.0),
            (1, 6, 0.5),
            (0, 5, 4.0),
            (2, 1, 0.5),
            (0, 27, 0.5),
            (1, 13, 2.0),
            (0, 30, 0.25),
            (2, 0, 8.0),
        ];
        for (step, (r, i, ratio)) in updates.into_iter().enumerate() {
            let (row, old) = (rels[r].row(i).to_vec(), rels[r].measure(i));
            rels[r].set_measure(i, old * ratio);
            for tree in &mut trees {
                tree.update_measure(rels[r].name(), &row, old, old * ratio)
                    .unwrap();
            }
            let cold = build(&rels);
            let cold_conditioned = cold.with_evidence(e, 1).unwrap();
            assert_eq!(table_bits(&trees[0]), table_bits(&cold), "step {step}");
            assert_eq!(
                table_bits(&trees[1]),
                table_bits(&cold_conditioned),
                "step {step}"
            );
        }
        let big = trees[0].index[trees[0].base_consumer[0].unwrap()]
            .runs
            .iter()
            .filter_map(|(_, cell)| cell.get())
            .any(|runs| matches!(runs.keys[0], Key::Big(_)));
        assert!(big, "r0's base-row index has five-column keys");
    }

    #[test]
    fn evidence_keeps_table_names() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache =
            VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        let tid = cat.var("tid").unwrap();
        let sid = cat.var("sid").unwrap();
        let conditioned = cache.with_evidence_set(&[(tid, 1), (sid, 0)]).unwrap();
        for (i, t) in conditioned.tables().iter().enumerate() {
            assert_eq!(t.name(), format!("t{i}"));
        }
    }

    #[test]
    fn workload_order_selection_picks_cheaper_cache() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let tid = cat.var("tid").unwrap();
        let wl = vec![WorkloadQuery {
            var: tid,
            predicates: vec![],
            probability: 1.0,
        }];
        // Candidate orders: the default min-fill vs an adversarial order
        // that eliminates tid first (forcing its info into a larger table).
        let graph = VariableGraph::from_schemas(refs.iter().map(|r| r.schema()));
        let order_a = min_fill_order(&graph);
        let mut order_b = vec![tid];
        order_b.extend(graph.vertices().into_iter().filter(|&v| v != tid));
        let chosen = VeCache::build_for_workload(
            sr,
            &refs,
            &wl,
            &[order_a.clone(), order_b.clone()],
        )
        .unwrap();
        let a = VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order_a)).unwrap();
        let b = VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order_b)).unwrap();
        let best = a.expected_cost(&wl).min(b.expected_cost(&wl));
        assert!((chosen.expected_cost(&wl) - best).abs() < 1e-9);
        // And the chosen cache still answers correctly.
        assert!(satisfies_invariant(sr, &refs, chosen.tables()).unwrap());
    }

    #[test]
    fn disconnected_view_scaling() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 2).unwrap();
        let c = cat.add_var("c", 2).unwrap();
        let d = cat.add_var("d", 2).unwrap();
        let r1 = FunctionalRelation::complete(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            &cat,
            |row| (row[0] + row[1] + 1) as f64,
        );
        let r2 = FunctionalRelation::complete(
            "r2",
            Schema::new(vec![c, d]).unwrap(),
            &cat,
            |row| (2 * row[0] + row[1] + 1) as f64,
        );
        let refs = vec![&r1, &r2];
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        assert!(
            satisfies_invariant(SemiringKind::SumProduct, &refs, cache.tables()).unwrap()
        );
        // Sanity: marginal on `a` includes r2's total as a factor.
        let view_total_r2: f64 = r2.measures().iter().sum();
        let ans = cache.answer(a).unwrap();
        let direct = mpf_algebra::ops::group_by(
            &mut ExecContext::new(SemiringKind::SumProduct),
            &r1,
            &[a],
        )
        .unwrap();
        for (row, m) in ans.rows() {
            let want = direct.lookup(row).unwrap() * view_total_r2;
            assert!(approx_eq(m, want));
        }
    }
}
