use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use mpf_semiring::approx_eq;

use crate::keyed::{KeyedMemo, KeyedOrder, KeyedSource};
use crate::{layout, Catalog, Key, Result, Schema, StorageError, Value, VarId};

/// The key column of a [`FunctionalRelation`]: either explicit packed
/// rows, or — for grid-complete relations in odometer order — just the
/// domain vector, with row `i`'s values *implied* as the odometer
/// decomposition of `i`. The grid form is what
/// [`FunctionalRelation::complete`] and `DenseFactor::into_relation`
/// produce; it certifies odometer order in O(1) (so dense kernels skip
/// the verification scan entirely) and defers materializing the packed
/// keys until a row consumer actually asks, which on a dense→dense
/// pipeline is never.
#[derive(Debug, Clone)]
enum KeyCol {
    /// Explicit row-major packed keys (`len() * arity()` values).
    Rows(Vec<Value>),
    /// Implicit odometer sequence over `domains`; `cache` holds the
    /// packed materialization once some consumer needs real key slices.
    Grid {
        domains: Vec<u64>,
        cache: OnceLock<Vec<Value>>,
    },
}

/// Materialize the odometer key sequence of a grid: runs of the last
/// (fastest) column under a prefix that advances once per run, so the
/// hot per-row loop never branches.
fn odometer_keys(domains: &[u64], total: usize) -> Vec<Value> {
    let arity = domains.len();
    let mut values = vec![0 as Value; total * arity];
    if arity > 0 && total > 0 {
        let dlast = domains[arity - 1];
        let mut prefix = vec![0 as Value; arity - 1];
        let mut w = 0usize;
        for _ in 0..total as u64 / dlast {
            for j in 0..dlast {
                values[w..w + arity - 1].copy_from_slice(&prefix);
                values[w + arity - 1] = j as Value;
                w += arity;
            }
            for c in (0..arity - 1).rev() {
                prefix[c] += 1;
                if (prefix[c] as u64) < domains[c] {
                    break;
                }
                prefix[c] = 0;
            }
        }
    }
    values
}

/// A functional relation (Definition 1): rows of discrete variable values
/// plus a measure column functionally determined by them.
///
/// Storage is row-major: the key column holds `len() * arity()` packed
/// `u32`s (explicitly, or implied by an odometer grid — see `KeyCol`)
/// and `measures` holds one `f64` per row. The FD `A1..Am -> f` is
/// validated on demand ([`FunctionalRelation::validate_fd`]) rather than
/// on every insert, so bulk loads stay cheap.
///
/// A stored relation also carries a memo of facts derived from its key
/// column alone — inferred domains and sorted keyed orders
/// ([`FunctionalRelation::keyed_order`]). Clones share it; a key
/// mutation drops it; measure updates leave it valid.
#[derive(Debug, Clone)]
pub struct FunctionalRelation {
    name: String,
    schema: Schema,
    keys: KeyCol,
    measures: Vec<f64>,
    memo: Option<Arc<KeyedMemo>>,
}

impl PartialEq for FunctionalRelation {
    /// Structural equality: same name, schema, and row sequence, with
    /// measures compared under the crate-wide [`approx_eq`] tolerance.
    /// The kernels accumulate floating point in different (but fixed)
    /// orders per representation, so bit-exact measure comparison would
    /// make "same rows, same function" results compare unequal; the
    /// tolerance here is the same one [`FunctionalRelation::function_eq`]
    /// already applies.
    fn eq(&self, other: &Self) -> bool {
        // Two grid key columns with equal domains imply identical row
        // sequences without materializing either side.
        let keys_eq = match (&self.keys, &other.keys) {
            (KeyCol::Grid { domains: a, .. }, KeyCol::Grid { domains: b, .. }) => a == b,
            _ => self.values_col() == other.values_col(),
        };
        self.name == other.name
            && self.schema == other.schema
            && keys_eq
            && self.measures.len() == other.measures.len()
            && self
                .measures
                .iter()
                .zip(&other.measures)
                .all(|(&a, &b)| approx_eq(a, b))
    }
}

impl FunctionalRelation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self {
            name: name.into(),
            schema,
            keys: KeyCol::Rows(Vec::new()),
            measures: Vec::new(),
            memo: None,
        }
    }

    /// Create a relation from `(row, measure)` pairs.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: impl IntoIterator<Item = (Vec<Value>, f64)>,
    ) -> Result<Self> {
        let mut rel = Self::new(name, schema);
        for (row, m) in rows {
            rel.push_row(&row, m)?;
        }
        Ok(rel)
    }

    /// Create a *complete* relation (Section 2): one row for every point of
    /// the cross product of the schema variables' domains, with the measure
    /// given by `measure_fn` applied to the row.
    ///
    /// Complete relations are required in principle for probability
    /// functions, and the paper's synthetic star/linear/multistar experiment
    /// schemas are all complete.
    pub fn complete(
        name: impl Into<String>,
        schema: Schema,
        catalog: &Catalog,
        mut measure_fn: impl FnMut(&[Value]) -> f64,
    ) -> Self {
        let arity = schema.arity();
        let domains: Vec<u64> = schema.iter().map(|v| catalog.domain_size(v)).collect();
        let total = domains.iter().product::<u64>() as usize;
        // Only the measure column is materialized; the keys are the grid's
        // odometer sequence and stay implicit ([`KeyCol::Grid`]) until a
        // row consumer asks for them.
        let mut measures = Vec::with_capacity(total);
        let mut row = vec![0u32; arity];
        for _ in 0..total {
            measures.push(measure_fn(&row));
            // Odometer increment.
            for c in (0..arity).rev() {
                row[c] += 1;
                if (row[c] as u64) < domains[c] {
                    break;
                }
                row[c] = 0;
            }
        }
        Self::from_grid(name, schema, domains, measures)
    }

    /// Assemble a relation from pre-built packed columns (crate-internal:
    /// the dense⇄sparse converters fill `values`/`measures` directly).
    pub(crate) fn from_parts(
        name: impl Into<String>,
        schema: Schema,
        values: Vec<Value>,
        measures: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(values.len(), measures.len() * schema.arity());
        Self {
            name: name.into(),
            schema,
            keys: KeyCol::Rows(values),
            measures,
            memo: None,
        }
    }

    /// Assemble a grid-complete relation in odometer order from its
    /// domain vector and cell measures alone (crate-internal: what
    /// [`FunctionalRelation::complete`] and `DenseFactor::into_relation`
    /// build). The packed keys stay implicit — O(1) here — and the grid
    /// form doubles as a proof of odometer order, so densification never
    /// re-verifies it.
    pub(crate) fn from_grid(
        name: impl Into<String>,
        schema: Schema,
        domains: Vec<u64>,
        measures: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(domains.len(), schema.arity());
        debug_assert_eq!(domains.iter().product::<u64>(), measures.len() as u64);
        Self {
            name: name.into(),
            schema,
            keys: KeyCol::Grid {
                domains,
                cache: OnceLock::new(),
            },
            measures,
            memo: None,
        }
    }

    /// For a grid-complete relation in odometer order, the domain vector
    /// its rows enumerate — the O(1) certificate the dense kernels use to
    /// skip the odometer-order verification scan. `None` for explicit-row
    /// relations (which may still *be* odometer-ordered; callers fall
    /// back to the scanning check).
    pub fn grid_domains(&self) -> Option<&[u64]> {
        match &self.keys {
            KeyCol::Rows(_) => None,
            KeyCol::Grid { domains, .. } => Some(domains),
        }
    }

    /// The packed key column, materializing a grid's odometer sequence on
    /// first access.
    fn keys(&self) -> &[Value] {
        match &self.keys {
            KeyCol::Rows(v) => v,
            KeyCol::Grid { domains, cache } => {
                cache.get_or_init(|| odometer_keys(domains, self.measures.len()))
            }
        }
    }

    /// The key column as an owned, mutable vector, demoting a grid to
    /// explicit rows first (mutation invalidates the odometer
    /// certificate) and dropping whatever the memo derived from the old
    /// keys.
    fn keys_mut(&mut self) -> &mut Vec<Value> {
        if let Some(memo) = &mut self.memo {
            match Arc::get_mut(memo) {
                Some(own) => *own = KeyedMemo::default(),
                None => *memo = Arc::default(),
            }
        }
        if let KeyCol::Grid { domains, cache } = &mut self.keys {
            let v = match cache.take() {
                Some(v) => v,
                None => odometer_keys(domains, self.measures.len()),
            };
            self.keys = KeyCol::Rows(v);
        }
        match &mut self.keys {
            KeyCol::Rows(v) => v,
            KeyCol::Grid { .. } => unreachable!("demoted above"),
        }
    }

    /// Append a row.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] if `row.len() != arity()`.
    pub fn push_row(&mut self, row: &[Value], measure: f64) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.keys_mut().extend_from_slice(row);
        self.measures.push(measure);
        Ok(())
    }

    /// Append a row without the arity check.
    ///
    /// The partitioning fast paths use this when rows are copied from a
    /// relation that already has the destination schema, so re-validating
    /// every row through [`FunctionalRelation::push_row`] is pure
    /// overhead. The caller guarantees `row.len() == arity()`; this is
    /// asserted in debug builds only.
    #[inline]
    pub fn push_row_unchecked(&mut self, row: &[Value], measure: f64) {
        debug_assert_eq!(row.len(), self.schema.arity());
        self.keys_mut().extend_from_slice(row);
        self.measures.push(measure);
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the relation (consuming builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The relation's variable schema (`Var(s)`).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (the relation's cardinality).
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// Heap bytes owned by this relation: name + schema + value and
    /// measure columns, each charged at vector *capacity* rather than
    /// length so the figure matches what the allocator handed out (a
    /// relation grown row-by-row can hold nearly 2x its length in
    /// capacity). Used by residency accounting (the engine's view
    /// cache) but meaningful for any memory budgeting.
    pub fn heap_bytes(&self) -> usize {
        // A grid key column is charged as if materialized: its cache may
        // fill at any time after a consumer asks for packed keys, and
        // residency accounting must not go stale when it does.
        let key_bytes = match &self.keys {
            KeyCol::Rows(v) => v.capacity() * std::mem::size_of::<Value>(),
            KeyCol::Grid { domains, .. } => {
                domains.capacity() * std::mem::size_of::<u64>()
                    + self.measures.len() * self.schema.arity() * std::mem::size_of::<Value>()
            }
        };
        self.name.capacity()
            + self.schema.heap_bytes()
            + key_bytes
            + self.measures.capacity() * std::mem::size_of::<f64>()
            + self.memo.as_ref().map_or(0, |m| m.heap_bytes())
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Number of variable columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The `i`th row's variable values.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.schema.arity();
        &self.keys()[i * a..(i + 1) * a]
    }

    /// The `i`th row's measure.
    #[inline]
    pub fn measure(&self, i: usize) -> f64 {
        self.measures[i]
    }

    /// All measures.
    pub fn measures(&self) -> &[f64] {
        &self.measures
    }

    /// The flat value storage (row-major, `len() * arity()` packed
    /// values) as one zero-copy slice — for kernels and conversions that
    /// scan all rows without per-row slice bookkeeping. On a grid key
    /// column this materializes the odometer sequence (once, cached);
    /// consumers that only need to *prove* odometer order should check
    /// [`FunctionalRelation::grid_domains`] first.
    pub fn values_col(&self) -> &[Value] {
        self.keys()
    }

    /// Overwrite the `i`th row's measure (used by aggregation operators to
    /// fold into an accumulator row in place).
    #[inline]
    pub fn set_measure(&mut self, i: usize, m: f64) {
        self.measures[i] = m;
    }

    /// Iterate `(row, measure)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (&[Value], f64)> + '_ {
        (0..self.len()).map(|i| (self.row(i), self.measures[i]))
    }

    /// Value of variable `var` in row `i`.
    pub fn value(&self, i: usize, var: VarId) -> Result<Value> {
        Ok(self.row(i)[self.schema.position(var)?])
    }

    /// Verify the functional dependency `A1..Am -> f` (Definition 1): no two
    /// rows may share variable values. (Two rows with equal values and equal
    /// measures are still duplicates and rejected — a functional relation is
    /// a set.)
    pub fn validate_fd(&self) -> Result<()> {
        let mut seen: HashMap<Key, usize> = HashMap::with_capacity(self.len());
        for i in 0..self.len() {
            let k = Key::of_row(self.row(i));
            if let Some(&first) = seen.get(&k) {
                return Err(StorageError::FdViolation {
                    first_row: first,
                    second_row: i,
                });
            }
            seen.insert(k, i);
        }
        Ok(())
    }

    /// Verify every value is within its variable's catalog domain.
    pub fn validate_domains(&self, catalog: &Catalog) -> Result<()> {
        let domains: Vec<u64> = self.schema.iter().map(|v| catalog.domain_size(v)).collect();
        let vars: Vec<VarId> = self.schema.iter().collect();
        for i in 0..self.len() {
            for (c, &v) in self.row(i).iter().enumerate() {
                if (v as u64) >= domains[c] {
                    return Err(StorageError::ValueOutOfDomain {
                        var: vars[c],
                        value: v,
                        domain: domains[c],
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether the relation is complete: it holds exactly one row per point
    /// of its variables' domain cross product.
    pub fn is_complete(&self, catalog: &Catalog) -> bool {
        let total = catalog.domain_product(self.schema.iter());
        self.len() as u64 == total && self.validate_fd().is_ok()
    }

    /// Per-column domain sizes inferred from the data (`max value + 1`;
    /// 0 for an empty relation). For a complete relation this equals the
    /// catalog domains; for any relation it is the tightest odometer grid
    /// that still covers every row, which is what the dense kernels index
    /// over when no catalog is in scope.
    pub fn inferred_domains(&self) -> Vec<u64> {
        let arity = self.schema.arity();
        if self.is_empty() || arity == 0 {
            return vec![0; arity];
        }
        // A non-empty grid enumerates every value of every axis.
        if let Some(domains) = self.grid_domains() {
            return domains.to_vec();
        }
        if let Some(domains) = self.memo.as_ref().and_then(|m| m.domains()) {
            return domains;
        }
        let mut max = vec![0 as Value; arity];
        for row in self.keys().chunks_exact(arity) {
            for (m, &v) in max.iter_mut().zip(row) {
                *m = (*m).max(v);
            }
        }
        let domains: Vec<u64> = max.into_iter().map(|m| m as u64 + 1).collect();
        if let Some(memo) = &self.memo {
            memo.set_domains(&domains);
        }
        domains
    }

    /// Give the relation a memo for [`FunctionalRelation::inferred_domains`]
    /// and [`FunctionalRelation::keyed_order`] (a no-op when it has one).
    /// Meant for stored base relations, which every query re-reads
    /// unchanged; derived relations are read once and stay without one.
    pub fn enable_keyed_memo(&mut self) {
        self.memo.get_or_insert_with(Arc::default);
    }

    /// The relation without its memo, for a copy that takes a derived
    /// role (a cached table): clones share the memo, and a derived copy
    /// must neither pin it nor have its byte count move when the stored
    /// relation's memo grows.
    pub fn without_keyed_memo(mut self) -> Self {
        self.memo = None;
        self
    }

    /// The rows linearized over `axes` — `(schema position, domain)` per
    /// axis, slowest first, one per column — and sorted ascending. `None`
    /// when a value falls outside its axis domain, the grid exceeds
    /// [`layout::MAX_SPARSE_COORD_CELLS`], or two rows share a key (the
    /// rows are not functional).
    ///
    /// A grid keyed in its own odometer order is `0..len` and is produced
    /// without materializing its key column. Otherwise, when the relation
    /// has a memo and every axis domain is the column's own inferred
    /// domain, the order is built once and shared from then on; any other
    /// request builds a fresh order.
    pub fn keyed_order(&self, axes: &[(usize, u64)]) -> Option<(Arc<KeyedOrder>, KeyedSource)> {
        debug_assert_eq!(axes.len(), self.arity());
        layout::grid_cells_wide(&axes.iter().map(|a| a.1).collect::<Vec<u64>>())?;
        if let Some(grid) = self.grid_domains() {
            if axes.iter().enumerate().all(|(k, &(p, d))| p == k && d == grid[k]) {
                return Some((Arc::new(KeyedOrder::identity(self.len())), KeyedSource::Fresh));
            }
        }
        let memo = self.memo.as_ref().filter(|_| {
            let own = self.inferred_domains();
            axes.iter().all(|&(p, d)| own[p] == d)
        });
        let Some(memo) = memo else {
            return Some((Arc::new(self.build_keyed_order(axes)?), KeyedSource::Fresh));
        };
        let positions: Vec<usize> = axes.iter().map(|a| a.0).collect();
        if let Some(order) = memo.order(&positions) {
            return Some((order, KeyedSource::Memo));
        }
        let order = self.build_keyed_order(axes)?;
        Some((memo.insert(&positions, order), KeyedSource::Built))
    }

    /// [`FunctionalRelation::keyed_order`]'s build: one linearization pass
    /// over the key column, then the sort.
    fn build_keyed_order(&self, axes: &[(usize, u64)]) -> Option<KeyedOrder> {
        let (arity, vals) = (self.arity(), self.keys());
        let mut doms_by_pos = vec![0u64; arity];
        for &(p, d) in axes {
            doms_by_pos[p] = d;
        }
        let mult = layout::permuted_multipliers(arity, axes);
        let keys = (0..self.len())
            .map(|i| layout::permute_row(&vals[i * arity..(i + 1) * arity], &mult, &doms_by_pos))
            .collect::<Option<Vec<u64>>>()?;
        KeyedOrder::from_keys(keys)
    }

    /// Convert to a [`crate::DenseFactor`] over the catalog's domain grid,
    /// with absent rows taking the measure `fill` (the caller passes the
    /// semiring's additive identity: under MPF semantics a missing row *is*
    /// the additive zero). Returns `None` when the grid does not fit
    /// ([`crate::dense::MAX_DENSE_CELLS`]), a value falls outside its
    /// catalog domain, or a duplicate argument tuple makes the relation
    /// non-functional.
    pub fn try_to_dense(&self, catalog: &Catalog, fill: f64) -> Option<crate::DenseFactor> {
        let domains: Vec<u64> = self.schema.iter().map(|v| catalog.domain_size(v)).collect();
        crate::DenseFactor::from_relation(self, &domains, fill)
    }

    /// Build a hash index from key columns to row indices. `positions` are
    /// column positions (see [`Schema::positions`]).
    pub fn build_index(&self, positions: &[usize]) -> HashMap<Key, Vec<u32>> {
        let mut index: HashMap<Key, Vec<u32>> = HashMap::with_capacity(self.len());
        for i in 0..self.len() {
            index
                .entry(Key::extract(self.row(i), positions))
                .or_default()
                .push(i as u32);
        }
        index
    }

    /// Look up the measure of an exact variable-value row (linear in the
    /// relation size; intended for tests and small relations).
    pub fn lookup(&self, row: &[Value]) -> Option<f64> {
        (0..self.len()).find_map(|i| (self.row(i) == row).then(|| self.measures[i]))
    }

    /// Bytes per row (values + measure), used to size partitions.
    pub fn row_bytes(&self) -> u64 {
        (self.schema.arity() * std::mem::size_of::<Value>() + std::mem::size_of::<f64>()) as u64
    }

    /// A canonical copy with rows sorted lexicographically by variable
    /// values. Two functional relations over the same schema are equal as
    /// functions iff their canonicalized row/measure sequences match.
    pub fn canonicalized(&self) -> Self {
        // A grid's odometer sequence is already lexicographically sorted.
        if self.grid_domains().is_some() {
            return self.clone();
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| self.row(a).cmp(self.row(b)));
        let mut values = Vec::with_capacity(self.len() * self.schema.arity());
        let mut measures = Vec::with_capacity(self.measures.len());
        for i in order {
            values.extend_from_slice(self.row(i));
            measures.push(self.measures[i]);
        }
        Self::from_parts(self.name.clone(), self.schema.clone(), values, measures)
    }

    /// A copy without rows whose measure is the semiring's additive
    /// identity. Under the MPF semantics a missing row *is* the additive
    /// identity, so explicit-zero rows (which arise e.g. when a calibrated
    /// table is scaled by an empty component's total) and absent rows
    /// represent the same function.
    pub fn without_zeros(&self, sr: mpf_semiring::SemiringKind) -> Self {
        let zero = sr.zero();
        let mut out = Self::new(self.name.clone(), self.schema.clone());
        for (row, m) in self.rows() {
            if m != zero {
                out.push_row(row, m).expect("same schema");
            }
        }
        out
    }

    /// [`FunctionalRelation::function_eq`] modulo explicit additive-zero
    /// rows: the semantically-correct equality for MPF results.
    pub fn function_eq_in(&self, other: &FunctionalRelation, sr: mpf_semiring::SemiringKind) -> bool {
        self.without_zeros(sr).function_eq(&other.without_zeros(sr))
    }

    /// Compare two relations as *functions*: same variable set, and the same
    /// measure for every point of the domain, up to floating-point tolerance
    /// and column/row order. Rows whose measure is `zero` are *not* treated
    /// specially — both sides must materialize the same support.
    pub fn function_eq(&self, other: &FunctionalRelation) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let self_set: std::collections::BTreeSet<VarId> = self.schema.iter().collect();
        let other_set: std::collections::BTreeSet<VarId> = other.schema.iter().collect();
        if self_set != other_set {
            return false;
        }
        // Reorder other's columns to match ours, then compare canonical forms.
        let perm: Vec<usize> = match self
            .schema
            .iter()
            .map(|v| other.schema.position(v))
            .collect::<Result<Vec<_>>>()
        {
            Ok(p) => p,
            Err(_) => return false,
        };
        let a = self.canonicalized();
        let mut permuted = Self::new("", self.schema.clone());
        for (row, m) in other.rows() {
            let reordered: Vec<Value> = perm.iter().map(|&i| row[i]).collect();
            permuted.keys_mut().extend_from_slice(&reordered);
            permuted.measures.push(m);
        }
        let b = permuted.canonicalized();
        (0..a.len()).all(|i| a.row(i) == b.row(i) && approx_eq(a.measure(i), b.measure(i)))
    }
}

impl FunctionalRelation {
    /// Render as an ASCII table with variable names resolved through a
    /// catalog (the `Display` impl falls back to raw variable ids).
    pub fn to_table_string(&self, catalog: &Catalog) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{} ({} rows)", self.name, self.len());
        let header: Vec<&str> = self.schema.iter().map(|v| catalog.name(v)).collect();
        let _ = writeln!(out, "  {} | f", header.join(" "));
        for i in 0..self.len().min(20) {
            let row: Vec<String> = self.row(i).iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "  {} | {}", row.join(" "), self.measures[i]);
        }
        if self.len() > 20 {
            let _ = writeln!(out, "  ... ({} more rows)", self.len() - 20);
        }
        out
    }
}

impl std::fmt::Display for FunctionalRelation {
    /// Render as a small ASCII table (intended for examples and docs; large
    /// relations are truncated to 20 rows).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} ({} rows)", self.name, self.len())?;
        let header: Vec<String> = self.schema.iter().map(|v| format!("{v}")).collect();
        writeln!(f, "  {} | f", header.join(" "))?;
        for i in 0..self.len().min(20) {
            let row: Vec<String> = self.row(i).iter().map(|v| v.to_string()).collect();
            writeln!(f, "  {} | {}", row.join(" "), self.measures[i])?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more rows)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog3() -> (Catalog, VarId, VarId, VarId) {
        let mut c = Catalog::new();
        let a = c.add_var("a", 2).unwrap();
        let b = c.add_var("b", 3).unwrap();
        let d = c.add_var("d", 2).unwrap();
        (c, a, b, d)
    }

    #[test]
    fn push_and_access() {
        let (_, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let mut r = FunctionalRelation::new("r", schema);
        r.push_row(&[0, 1], 2.5).unwrap();
        r.push_row(&[1, 2], 3.5).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), &[1, 2]);
        assert_eq!(r.measure(0), 2.5);
        assert_eq!(r.value(1, b).unwrap(), 2);
        assert!(r.push_row(&[1], 0.0).is_err());
    }

    #[test]
    fn fd_validation() {
        let (_, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let mut r = FunctionalRelation::new("r", schema);
        r.push_row(&[0, 1], 2.5).unwrap();
        r.push_row(&[0, 1], 9.0).unwrap();
        assert!(matches!(
            r.validate_fd(),
            Err(StorageError::FdViolation {
                first_row: 0,
                second_row: 1
            })
        ));
    }

    #[test]
    fn complete_relation() {
        let (c, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let r = FunctionalRelation::complete("r", schema, &c, |row| (row[0] * 10 + row[1]) as f64);
        assert_eq!(r.len(), 6);
        assert!(r.is_complete(&c));
        assert_eq!(r.lookup(&[1, 2]), Some(12.0));
        assert_eq!(r.lookup(&[0, 0]), Some(0.0));
        r.validate_fd().unwrap();
        r.validate_domains(&c).unwrap();
    }

    #[test]
    fn domain_validation() {
        let (c, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let mut r = FunctionalRelation::new("r", schema);
        r.push_row(&[0, 5], 1.0).unwrap();
        assert!(matches!(
            r.validate_domains(&c),
            Err(StorageError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn function_equality_ignores_order() {
        let (_, a, b, _) = catalog3();
        let s1 = Schema::new(vec![a, b]).unwrap();
        let s2 = Schema::new(vec![b, a]).unwrap();
        let r1 =
            FunctionalRelation::from_rows("x", s1, [(vec![0, 1], 2.0), (vec![1, 2], 3.0)]).unwrap();
        let r2 =
            FunctionalRelation::from_rows("y", s2, [(vec![2, 1], 3.0), (vec![1, 0], 2.0)]).unwrap();
        assert!(r1.function_eq(&r2));
        let r3 =
            FunctionalRelation::from_rows("z", r1.schema().clone(), [(vec![0, 1], 2.0)]).unwrap();
        assert!(!r1.function_eq(&r3));
    }

    #[test]
    fn index_groups_rows() {
        let (_, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let r = FunctionalRelation::from_rows(
            "r",
            schema,
            [(vec![0, 1], 1.0), (vec![0, 2], 2.0), (vec![1, 1], 3.0)],
        )
        .unwrap();
        let idx = r.build_index(&[0]);
        assert_eq!(idx[&Key::P1(0)], vec![0, 1]);
        assert_eq!(idx[&Key::P1(1)], vec![2]);
    }

    #[test]
    fn row_bytes_counts_values_and_measure() {
        let (_, a, b, _) = catalog3();
        let r = FunctionalRelation::new("r", Schema::new(vec![a, b]).unwrap());
        assert_eq!(r.row_bytes(), 16);
    }

    #[test]
    fn complete_relations_carry_the_grid_certificate_lazily() {
        let (c, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let r = FunctionalRelation::complete("r", schema, &c, |row| (row[0] * 10 + row[1]) as f64);
        // The grid certificate is available without materializing keys.
        assert_eq!(r.grid_domains(), Some(&[2u64, 3][..]));
        // Row access still sees the odometer sequence, identical to a
        // push-built copy.
        assert_eq!(r.row(0), &[0, 0]);
        assert_eq!(r.row(4), &[1, 1]);
        let explicit = FunctionalRelation::from_rows(
            "r",
            r.schema().clone(),
            r.rows().map(|(row, m)| (row.to_vec(), m)),
        )
        .unwrap();
        assert_eq!(r, explicit);
        assert!(explicit.grid_domains().is_none());
        // Equality also holds grid-vs-grid without any materialization.
        let r2 = FunctionalRelation::complete(
            "r",
            r.schema().clone(),
            &c,
            |row| (row[0] * 10 + row[1]) as f64,
        );
        assert_eq!(r, r2);
        // Canonicalization is the identity on a grid (odometer order is
        // lexicographic order).
        assert_eq!(r.canonicalized(), r);
    }

    #[test]
    fn mutating_a_grid_relation_demotes_its_certificate() {
        let (c, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let mut r =
            FunctionalRelation::complete("r", schema, &c, |row| (row[0] * 10 + row[1]) as f64);
        assert!(r.grid_domains().is_some());
        // Pushing a row invalidates odometer order; the certificate must
        // disappear while the existing rows stay intact.
        r.push_row(&[0, 0], 99.0).unwrap();
        assert!(r.grid_domains().is_none());
        assert_eq!(r.len(), 7);
        assert_eq!(r.row(0), &[0, 0]);
        assert_eq!(r.row(6), &[0, 0]);
        assert_eq!(r.measure(6), 99.0);
    }

    #[test]
    fn heap_bytes_is_capacity_accurate() {
        let (_, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let mut r = FunctionalRelation::new("rel", schema);
        let expect = |r: &FunctionalRelation| {
            let key_bytes = match &r.keys {
                KeyCol::Rows(v) => v.capacity() * std::mem::size_of::<Value>(),
                KeyCol::Grid { .. } => unreachable!("push-built relation"),
            };
            r.name.capacity()
                + r.schema().heap_bytes()
                + key_bytes
                + r.measures.capacity() * std::mem::size_of::<f64>()
        };
        assert_eq!(r.heap_bytes(), expect(&r));
        for i in 0..1000 {
            r.push_row(&[i % 2, i % 3], 1.0).unwrap();
        }
        // Capacity, not length: push-grown vectors over-allocate, and the
        // accounting must see that slack.
        assert!(r.measures.capacity() > r.len());
        assert_eq!(r.heap_bytes(), expect(&r));
        assert!(
            r.heap_bytes()
                > r.len() * (2 * std::mem::size_of::<Value>() + std::mem::size_of::<f64>())
        );

        // A stored relation's memo is charged too: its domain vector, its
        // order slots at capacity, and each order's keys, permutation and
        // axis list.
        let mut r = FunctionalRelation::new("stored", r.schema().clone());
        for i in (0..600).rev() {
            r.push_row(&[i / 3, i % 3], 1.0).unwrap();
        }
        let unmemoized = r.heap_bytes();
        r.enable_keyed_memo();
        assert_eq!(r.heap_bytes(), unmemoized, "an empty memo holds nothing");
        let doms = r.inferred_domains();
        let (by_ab, _) = r.keyed_order(&[(0, doms[0]), (1, doms[1])]).unwrap();
        let (by_ba, _) = r.keyed_order(&[(1, doms[1]), (0, doms[0])]).unwrap();
        let memo = r.memo.as_ref().unwrap();
        let slot = std::mem::size_of::<(Box<[usize]>, Arc<KeyedOrder>)>();
        let order = |o: &KeyedOrder| {
            2 * std::mem::size_of::<usize>() + std::mem::size_of::<KeyedOrder>() + o.heap_bytes()
        };
        let memo_bytes = 2 * std::mem::size_of::<u64>()
            + memo.orders_capacity() * slot
            + order(&by_ab)
            + order(&by_ba);
        assert_eq!(r.heap_bytes(), unmemoized + memo_bytes);
        assert!(by_ba.heap_bytes() >= r.len() * (8 + 4), "keys and permutation");
    }
}
