use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use mpf_semiring::approx_eq;

use crate::keyed::{KeyedMemo, KeyedOrder, KeyedSource};
use crate::{layout, Catalog, Key, Result, Schema, StorageError, Value, VarId};

/// The key column of a [`FunctionalRelation`]: explicit packed rows, or
/// one of two lazily materialized forms whose rows are *implied* —
///
/// * `Grid`: a grid-complete relation in odometer order keeps only its
///   domain vector and per-axis origins, row `i` being the odometer
///   decomposition of `i` plus the origins.
///   [`FunctionalRelation::complete`] and the dense kernels' outputs
///   build it with zero origins; it certifies odometer order in O(1), so
///   dense kernels skip the verification scan. A pinned slice
///   ([`FunctionalRelation::pinned_slice`]) is a grid whose pinned axes
///   are one cell wide with the pinned value as origin.
/// * `Coords`: any functional relation as strictly ascending coordinates
///   linearized over `domains` in the schema's own odometer order (so the
///   rows ascend lexicographically). Every sparse kernel emits it; the
///   next sparse kernel keys it without reading a row.
///
/// Either form materializes packed keys into `cache` only when a row
/// consumer asks, and demotes to `Rows` on mutation.
#[derive(Debug, Clone)]
enum KeyCol {
    /// Explicit row-major packed keys (`len() * arity()` values).
    Rows(Vec<Value>),
    /// Implicit odometer sequence over `domains`, shifted by `origins`
    /// (one per axis).
    Grid {
        domains: Vec<u64>,
        origins: Vec<Value>,
        cache: OnceLock<Vec<Value>>,
    },
    /// One linearized coordinate per row over `domains`, ascending.
    Coords {
        domains: Vec<u64>,
        coords: Vec<u64>,
        cache: OnceLock<Vec<Value>>,
    },
}

impl KeyCol {
    /// The packed keys of an implicit column by value (its cache when a
    /// consumer already filled it); `None` for explicit rows.
    fn take_rows(&mut self, len: usize) -> Option<Vec<Value>> {
        match self {
            KeyCol::Rows(_) => None,
            KeyCol::Grid {
                domains,
                origins,
                cache,
            } => Some(
                cache
                    .take()
                    .unwrap_or_else(|| odometer_keys(domains, origins, len)),
            ),
            KeyCol::Coords {
                domains,
                coords,
                cache,
            } => Some(cache.take().unwrap_or_else(|| coord_keys(domains, coords))),
        }
    }
}

/// Materialize the odometer key sequence of a grid whose axes start at
/// `origins`: runs of the last (fastest) column under a prefix that
/// advances once per run, so the hot per-row loop never branches.
fn odometer_keys(domains: &[u64], origins: &[Value], total: usize) -> Vec<Value> {
    let arity = domains.len();
    let mut values = vec![0 as Value; total * arity];
    if arity > 0 && total > 0 {
        let dlast = domains[arity - 1];
        let olast = origins[arity - 1];
        let mut prefix = origins[..arity - 1].to_vec();
        let mut w = 0usize;
        for _ in 0..total as u64 / dlast {
            for j in 0..dlast {
                values[w..w + arity - 1].copy_from_slice(&prefix);
                values[w + arity - 1] = olast + j as Value;
                w += arity;
            }
            for c in (0..arity - 1).rev() {
                prefix[c] += 1;
                if ((prefix[c] - origins[c]) as u64) < domains[c] {
                    break;
                }
                prefix[c] = origins[c];
            }
        }
    }
    values
}

/// Append the cells of `src` at `base` plus every odometer combination of
/// `axes` — `(domain, stride)` per axis, slowest first — in odometer
/// order; a trailing unit-stride axis is copied as one run.
fn gather(src: &[f64], base: usize, axes: &[(usize, usize)], out: &mut Vec<f64>) {
    match axes {
        [] => out.push(src[base]),
        [(d, 1)] => out.extend_from_slice(&src[base..base + d]),
        [(d, s), rest @ ..] => {
            for i in 0..*d {
                gather(src, base + i * s, rest, out);
            }
        }
    }
}

/// Materialize the rows of ascending coordinates over `domains`.
fn coord_keys(domains: &[u64], coords: &[u64]) -> Vec<Value> {
    let arity = domains.len();
    let strides = layout::strides_of(domains);
    let mut values = vec![0 as Value; coords.len() * arity];
    for (i, &c) in coords.iter().enumerate() {
        layout::delinearize(c, &strides, &mut values[i * arity..(i + 1) * arity]);
    }
    values
}

/// A functional relation (Definition 1): rows of discrete variable values
/// plus a measure column functionally determined by them.
///
/// Storage is row-major: the key column holds `len() * arity()` packed
/// `u32`s — explicitly, or implied by an odometer grid or by ascending
/// linearized coordinates and materialized on first row access (see
/// `KeyCol`) — and `measures` holds one `f64` per row. The FD
/// `A1..Am -> f` is validated on demand
/// ([`FunctionalRelation::validate_fd`]) rather than on every insert, so
/// bulk loads stay cheap.
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
        // Two grid key columns with equal domains and origins imply
        // identical row sequences without materializing either side.
        let keys_eq = match (self.grid(), other.grid()) {
            (Some(a), Some(b)) => a == b,
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
    /// [`FunctionalRelation::canonicalized`] fills `values`/`measures`
    /// directly).
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
    /// [`FunctionalRelation::complete`] builds). The packed keys stay
    /// implicit — O(1) here — and the grid form doubles as a proof of
    /// odometer order, so a dense kernel never re-verifies it.
    pub(crate) fn from_grid(
        name: impl Into<String>,
        schema: Schema,
        domains: Vec<u64>,
        measures: Vec<f64>,
    ) -> Self {
        let origins = vec![0; domains.len()];
        Self::from_grid_at(name, schema, domains, origins, measures)
    }

    /// Assemble a grid relation in O(1) from its domain vector, per-axis
    /// origins and cell measures: row `i` is the odometer decomposition
    /// of `i` over `domains` (schema order, last variable fastest), plus
    /// `origins`. This is what the dense kernels emit — their output
    /// array moves in as the measure column, and the next dense kernel
    /// reads it in place. One cell per grid point (`measures.len()` is
    /// the product of `domains`) is asserted in debug builds only.
    pub fn from_grid_at(
        name: impl Into<String>,
        schema: Schema,
        domains: Vec<u64>,
        origins: Vec<Value>,
        measures: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(domains.len(), schema.arity());
        debug_assert_eq!(origins.len(), schema.arity());
        debug_assert_eq!(domains.iter().product::<u64>(), measures.len() as u64);
        Self {
            name: name.into(),
            schema,
            keys: KeyCol::Grid {
                domains,
                origins,
                cache: OnceLock::new(),
            },
            measures,
            memo: None,
        }
    }

    /// Assemble a relation in coordinate form, in O(1): one linearized
    /// coordinate per row over `domains` (schema order, last variable
    /// fastest), strictly ascending, with the measures parallel to them.
    /// This is what the sparse kernels emit — the next sparse kernel keys
    /// the coordinates directly, and packed rows materialize only when a
    /// row consumer asks. Sortedness, uniqueness and the coordinate range
    /// are asserted in debug builds only.
    pub fn from_coords(
        name: impl Into<String>,
        schema: Schema,
        domains: Vec<u64>,
        coords: Vec<u64>,
        measures: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(domains.len(), schema.arity());
        debug_assert_eq!(coords.len(), measures.len());
        debug_assert!(coords.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(coords
            .last()
            .is_none_or(|&c| layout::grid_cells_wide(&domains).is_some_and(|n| c < n)));
        Self {
            name: name.into(),
            schema,
            keys: KeyCol::Coords {
                domains,
                coords,
                cache: OnceLock::new(),
            },
            measures,
            memo: None,
        }
    }

    /// For a grid-complete relation in odometer order, the domain vector
    /// its rows enumerate — the O(1) certificate the dense kernels use to
    /// skip the odometer-order verification scan. `None` for explicit-row
    /// and coordinate relations (which may still *be* odometer-ordered;
    /// callers fall back to the checking path), and for a grid with an
    /// axis that does not start at 0 (see [`FunctionalRelation::grid`]).
    pub fn grid_domains(&self) -> Option<&[u64]> {
        self.grid()
            .filter(|(_, origins)| origins.iter().all(|&o| o == 0))
            .map(|(domains, _)| domains)
    }

    /// For a grid key column, its domain vector and per-axis origins: the
    /// rows are the odometer sequence of the domains, each shifted by the
    /// origins. A pinned slice ([`FunctionalRelation::pinned_slice`]) has
    /// a one-cell axis whose origin is the pinned value. `None` for
    /// explicit-row and coordinate relations.
    pub fn grid(&self) -> Option<(&[u64], &[Value])> {
        match &self.keys {
            KeyCol::Grid {
                domains, origins, ..
            } => Some((domains, origins)),
            _ => None,
        }
    }

    /// The rows of a grid relation whose value at schema position `p`
    /// equals `c` for every `(p, c)` in `pins` (the selection
    /// `σ_{v=c ∧ …}`), as a pinned slice in O(output): each pinned axis
    /// becomes one cell wide with `c` as its origin, and only the slice's
    /// own measures are gathered, in the grid's row order. A constant
    /// outside its axis, or two different constants on one axis, give an
    /// empty relation. `None` when the key column is not a grid; the
    /// caller then filters rows.
    pub fn pinned_slice(&self, name: impl Into<String>, pins: &[(usize, Value)]) -> Option<Self> {
        let (domains, origins) = self.grid()?;
        let mut pinned: Vec<Option<Value>> = vec![None; domains.len()];
        for &(p, c) in pins {
            let in_axis = c >= origins[p] && u64::from(c - origins[p]) < domains[p];
            if !in_axis || pinned[p].is_some_and(|q| q != c) {
                return Some(Self::new(name, self.schema.clone()));
            }
            pinned[p] = Some(c);
        }
        let strides = layout::strides_of(domains);
        let mut base = 0usize;
        let mut free: Vec<(usize, usize)> = Vec::new();
        for (p, pin) in pinned.iter().enumerate() {
            match pin {
                Some(c) => base += (c - origins[p]) as usize * strides[p] as usize,
                None => free.push((domains[p] as usize, strides[p] as usize)),
            }
        }
        let total = free.iter().map(|&(d, _)| d).product();
        let mut measures = Vec::with_capacity(total);
        gather(&self.measures, base, &free, &mut measures);
        let slice_domains = pinned
            .iter()
            .zip(domains)
            .map(|(pin, &d)| if pin.is_some() { 1 } else { d })
            .collect();
        let slice_origins = pinned
            .iter()
            .zip(origins)
            .map(|(pin, &o)| pin.unwrap_or(o))
            .collect();
        Some(Self::from_grid_at(
            name,
            self.schema.clone(),
            slice_domains,
            slice_origins,
            measures,
        ))
    }

    /// For a relation in coordinate form ([`FunctionalRelation::from_coords`]),
    /// its domain vector and its ascending coordinates; `None` for any
    /// other key column.
    pub fn coords(&self) -> Option<(&[u64], &[u64])> {
        match &self.keys {
            KeyCol::Coords {
                domains, coords, ..
            } => Some((domains, coords)),
            _ => None,
        }
    }

    /// The packed key column, materializing an implicit one on first
    /// access. Inlined so per-row callers in other crates ([`Self::row`])
    /// pay one branch for explicit rows, not a call.
    #[inline]
    fn keys(&self) -> &[Value] {
        match &self.keys {
            KeyCol::Rows(v) => v,
            _ => self.implicit_keys(),
        }
    }

    /// [`FunctionalRelation::keys`] for a grid or coordinate column.
    fn implicit_keys(&self) -> &[Value] {
        match &self.keys {
            KeyCol::Rows(v) => v,
            KeyCol::Grid {
                domains,
                origins,
                cache,
            } => cache.get_or_init(|| odometer_keys(domains, origins, self.measures.len())),
            KeyCol::Coords {
                domains,
                coords,
                cache,
            } => cache.get_or_init(|| coord_keys(domains, coords)),
        }
    }

    /// The key column as an owned, mutable vector, demoting an implicit
    /// column to explicit rows first (mutation invalidates its order) and
    /// dropping whatever the memo derived from the old keys.
    fn keys_mut(&mut self) -> &mut Vec<Value> {
        if let Some(memo) = &mut self.memo {
            match Arc::get_mut(memo) {
                Some(own) => *own = KeyedMemo::default(),
                None => *memo = Arc::default(),
            }
        }
        if let Some(v) = self.keys.take_rows(self.measures.len()) {
            self.keys = KeyCol::Rows(v);
        }
        match &mut self.keys {
            KeyCol::Rows(v) => v,
            _ => unreachable!("demoted above"),
        }
    }

    /// Call `f` on every row in order, stopping at the first `false`; a
    /// coordinate key column is decoded row by row rather than
    /// materialized.
    fn each_row(&self, mut f: impl FnMut(&[Value]) -> bool) -> bool {
        let arity = self.arity();
        if let Some((domains, coords)) = self.coords() {
            let strides = layout::strides_of(domains);
            let mut row = vec![0 as Value; arity];
            return coords.iter().all(|&c| {
                layout::delinearize(c, &strides, &mut row);
                f(&row)
            });
        }
        let vals = self.keys();
        (0..self.len()).all(|i| f(&vals[i * arity..(i + 1) * arity]))
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
    /// For copying rows out of a relation that already has the
    /// destination schema (the VE-cache's incremental rescaling), where
    /// re-validating every row through [`FunctionalRelation::push_row`] is
    /// pure overhead. The caller guarantees `row.len() == arity()`; this is
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
        // An implicit key column is charged as if materialized: its cache
        // may fill at any time after a consumer asks for packed keys, and
        // residency accounting must not go stale when it does.
        let rows_bytes = self.measures.len() * self.schema.arity() * std::mem::size_of::<Value>();
        let key_bytes = match &self.keys {
            KeyCol::Rows(v) => v.capacity() * std::mem::size_of::<Value>(),
            KeyCol::Grid {
                domains, origins, ..
            } => {
                domains.capacity() * std::mem::size_of::<u64>()
                    + origins.capacity() * std::mem::size_of::<Value>()
                    + rows_bytes
            }
            KeyCol::Coords {
                domains, coords, ..
            } => (domains.capacity() + coords.capacity()) * std::mem::size_of::<u64>() + rows_bytes,
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
    /// scan all rows without per-row slice bookkeeping. On a grid or
    /// coordinate key column this materializes the rows (once, cached);
    /// consumers that only need to *prove* odometer order should check
    /// [`FunctionalRelation::grid_domains`] first, and sparse consumers
    /// read [`FunctionalRelation::linearized_keys`].
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
        // A non-empty grid enumerates every value of every axis, from
        // its origin on.
        if let Some((domains, origins)) = self.grid() {
            return domains
                .iter()
                .zip(origins)
                .map(|(&d, &o)| d + u64::from(o))
                .collect();
        }
        if let Some(domains) = self.memo.as_ref().and_then(|m| m.domains()) {
            return domains;
        }
        let mut max = vec![0 as Value; arity];
        self.each_row(|row| {
            for (m, &v) in max.iter_mut().zip(row) {
                *m = (*m).max(v);
            }
            true
        });
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

    /// Release the slack capacity of the key and measure columns (a
    /// relation grown row by row holds up to twice its rows), for a
    /// relation about to be stored and read unchanged.
    pub fn shrink_to_fit(&mut self) {
        self.name.shrink_to_fit();
        match &mut self.keys {
            KeyCol::Rows(v) => v.shrink_to_fit(),
            KeyCol::Grid {
                domains, origins, ..
            } => {
                domains.shrink_to_fit();
                origins.shrink_to_fit();
            }
            KeyCol::Coords {
                domains, coords, ..
            } => {
                domains.shrink_to_fit();
                coords.shrink_to_fit();
            }
        }
        self.measures.shrink_to_fit();
    }

    /// The relation with a coordinate key column expanded into explicit
    /// rows (any other key column is kept), for a copy that outlives the
    /// query and is read row by row — a cached table — so it does not hold
    /// both forms once its rows are read.
    pub fn without_coords(mut self) -> Self {
        if matches!(self.keys, KeyCol::Coords { .. }) {
            let rows = self
                .keys
                .take_rows(self.measures.len())
                .expect("implicit keys");
            self.keys = KeyCol::Rows(rows);
        }
        self
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
    /// axis, slowest first, one per column — and sorted ascending, with
    /// the order's trie levels ([`KeyedOrder::runs`],
    /// [`KeyedOrder::digits`]) built on first read. `None`
    /// when a value falls outside its axis domain, the grid exceeds
    /// [`layout::MAX_SPARSE_COORD_CELLS`], two rows share a key (the
    /// rows are not functional), or there are more than `u32::MAX` rows.
    ///
    /// A grid keyed in its own odometer order is `0..len`, and a
    /// coordinate column keyed in its own order is its coordinates; both
    /// are produced without a sort and without materializing rows.
    /// Otherwise, when the relation has a memo and every axis domain is
    /// the column's own inferred domain, the order is built once and
    /// shared from then on — levels included; any other request builds a
    /// fresh order.
    pub fn keyed_order(&self, axes: &[(usize, u64)]) -> Option<(Arc<KeyedOrder>, KeyedSource)> {
        debug_assert_eq!(axes.len(), self.arity());
        let doms: Vec<u64> = axes.iter().map(|a| a.1).collect();
        layout::grid_cells_wide(&doms)?;
        // An order indexes its rows and runs with `u32`.
        u32::try_from(self.len()).ok()?;
        let own_order = |own: &[u64]| {
            axes.iter()
                .enumerate()
                .all(|(k, &(p, d))| p == k && d == own[k])
        };
        let ascending = match &self.keys {
            KeyCol::Grid { .. } if self.grid_domains().is_some_and(own_order) => {
                Some((0..self.len() as u64).collect())
            }
            KeyCol::Coords {
                domains, coords, ..
            } if own_order(domains) => Some(coords.clone()),
            _ => None,
        };
        if let Some(keys) = ascending {
            let order = KeyedOrder::ascending(keys, &doms);
            return Some((Arc::new(order), KeyedSource::Fresh));
        }
        let memo = self.memo.as_ref().filter(|_| {
            let own = self.inferred_domains();
            axes.iter().all(|&(p, d)| own[p] == d)
        });
        let build = || KeyedOrder::from_keys(self.linearized_keys(axes)?, &doms);
        let Some(memo) = memo else {
            return Some((Arc::new(build()?), KeyedSource::Fresh));
        };
        let positions: Vec<usize> = axes.iter().map(|a| a.0).collect();
        if let Some(order) = memo.order(&positions) {
            return Some((order, KeyedSource::Memo));
        }
        Some((memo.insert(&positions, build()?), KeyedSource::Built))
    }

    /// Every row linearized over `axes` — `(schema position, domain)` per
    /// axis, slowest first — in row order, unsorted. Positions `axes`
    /// leaves out contribute nothing and are not range-checked. `None`
    /// when a value reaches its axis domain. A coordinate key column is
    /// decoded row by row, never materialized.
    pub fn linearized_keys(&self, axes: &[(usize, u64)]) -> Option<Vec<u64>> {
        let arity = self.arity();
        let mut doms_by_pos = vec![u64::MAX; arity];
        for &(p, d) in axes {
            doms_by_pos[p] = d;
        }
        let mult = layout::permuted_multipliers(arity, axes);
        let mut keys = Vec::with_capacity(self.len());
        self.each_row(|row| match layout::permute_row(row, &mult, &doms_by_pos) {
            Some(k) => {
                keys.push(k);
                true
            }
            None => false,
        })
        .then_some(keys)
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

    /// Index of the first row equal to `row`, or `None` when no row is
    /// (a row of another arity, or with a value outside a grid's or a
    /// coordinate column's domain, matches nothing). A grid answers in
    /// O(arity) by the row's odometer index, pinned-slice origins
    /// honoured, and a coordinate column by binary search on the row's
    /// linearized coordinate: neither materializes its packed keys.
    /// Explicit rows are scanned in order, so the first of duplicate
    /// rows wins.
    pub fn find_row(&self, row: &[Value]) -> Option<usize> {
        let arity = self.arity();
        if row.len() != arity {
            return None;
        }
        // The row's cell index over `domains` after subtracting
        // `origins`, if every value lies on its axis.
        let cell = |domains: &[u64], origins: Option<&[Value]>| {
            row.iter().enumerate().try_fold(0u64, |idx, (p, &v)| {
                let v = u64::from(v.checked_sub(origins.map_or(0, |o| o[p]))?);
                (v < domains[p]).then(|| idx * domains[p] + v)
            })
        };
        match &self.keys {
            KeyCol::Rows(_) if arity == 0 => (!self.measures.is_empty()).then_some(0),
            KeyCol::Rows(keys) => keys.chunks_exact(arity).position(|r| r == row),
            KeyCol::Grid {
                domains, origins, ..
            } => cell(domains, Some(origins)).map(|i| i as usize),
            KeyCol::Coords {
                domains, coords, ..
            } => coords.binary_search(&cell(domains, None)?).ok(),
        }
    }

    /// The measure of the row equal to `row` ([`Self::find_row`]).
    pub fn lookup(&self, row: &[Value]) -> Option<f64> {
        self.find_row(row).map(|i| self.measures[i])
    }

    /// A canonical copy with rows sorted lexicographically by variable
    /// values. Two functional relations over the same schema are equal as
    /// functions iff their canonicalized row/measure sequences match.
    pub fn canonicalized(&self) -> Self {
        // A grid's odometer sequence and ascending coordinates are already
        // lexicographically sorted.
        if !matches!(self.keys, KeyCol::Rows(_)) {
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
    fn inferred_domains_cover_data() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 3).unwrap();
        let schema = Schema::new(vec![a, b]).unwrap();
        let rel =
            FunctionalRelation::from_rows("r", schema.clone(), [(vec![1, 0], 1.0), (vec![0, 2], 2.0)])
                .unwrap();
        assert_eq!(rel.inferred_domains(), vec![2, 3]);
        // A grid answers from its domain vector, as its rows would.
        let grid = FunctionalRelation::complete("g", schema.clone(), &cat, |_| 1.0);
        assert_eq!(grid.inferred_domains(), vec![cat.domain_size(a), cat.domain_size(b)]);
        let rows = FunctionalRelation::from_rows("g", schema.clone(), grid.rows().map(|(r, m)| (r.to_vec(), m)))
            .unwrap();
        assert_eq!(rows.inferred_domains(), grid.inferred_domains());
        assert_eq!(FunctionalRelation::new("e", schema).inferred_domains(), vec![0, 0]);
        let scalar = FunctionalRelation::from_rows("s", Schema::empty(), [(vec![], 2.0)]).unwrap();
        assert_eq!(scalar.inferred_domains(), Vec::<u64>::new());
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

    /// `find_row` in every key form, a pinned slice's shifted grid
    /// included, answers exactly what a first-match row scan answers —
    /// for present, absent and out-of-domain rows and rows of the wrong
    /// arity — and the implicit forms never materialize their keys.
    #[test]
    fn find_row_matches_a_row_scan_in_every_key_form() {
        let (c, a, b, d) = catalog3();
        let schema = Schema::new(vec![a, b, d]).unwrap();
        let grid = FunctionalRelation::complete("g", schema.clone(), &c, |row| {
            (row[0] * 100 + row[1] * 10 + row[2]) as f64
        });
        let slice = grid.pinned_slice("s", &[(1, 2)]).unwrap();
        let coords = FunctionalRelation::from_coords(
            "c",
            schema.clone(),
            vec![2, 3, 2],
            vec![1, 4, 5, 10],
            vec![1.0; 4],
        );
        // Explicit rows, out of order and with a duplicate argument tuple.
        let rows = FunctionalRelation::from_rows(
            "r",
            schema,
            [(vec![1, 2, 1], 1.0), (vec![0, 0, 1], 2.0), (vec![1, 2, 1], 3.0)],
        )
        .unwrap();
        let keys_cached = |r: &FunctionalRelation| match &r.keys {
            KeyCol::Rows(_) => false,
            KeyCol::Grid { cache, .. } | KeyCol::Coords { cache, .. } => cache.get().is_some(),
        };
        for rel in [&grid, &slice, &coords, &rows] {
            let mut probes: Vec<Vec<Value>> = vec![vec![], vec![0, 0], vec![0, 0, 0, 0]];
            for i in 0..3 * 4 * 3 {
                probes.push(vec![i / 12, i / 3 % 4, i % 3]);
            }
            let got: Vec<Option<usize>> = probes.iter().map(|p| rel.find_row(p)).collect();
            assert!(!keys_cached(rel), "{} materialized its keys", rel.name());
            let want: Vec<Option<usize>> = probes
                .iter()
                .map(|p| (0..rel.len()).find(|&i| rel.row(i) == p.as_slice()))
                .collect();
            assert_eq!(got, want, "{}", rel.name());
            // The probes reach every stored row (a duplicate through its
            // first occurrence).
            let dups = usize::from(rel.name() == "r");
            assert_eq!(want.iter().flatten().count(), rel.len() - dups, "{}", rel.name());
        }
        assert_eq!(rows.lookup(&[1, 2, 1]), Some(1.0), "the first duplicate wins");
        assert_eq!(slice.lookup(&[1, 2, 0]), Some(120.0));
        assert_eq!(slice.lookup(&[1, 1, 0]), None, "off the pinned axis");
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

    /// The rows of `r` with `row[p] == c` for every pin, pushed.
    fn filtered(r: &FunctionalRelation, pins: &[(usize, Value)]) -> FunctionalRelation {
        let rows = r
            .rows()
            .filter(|(row, _)| pins.iter().all(|&(p, c)| row[p] == c))
            .map(|(row, m)| (row.to_vec(), m));
        FunctionalRelation::from_rows("s", r.schema().clone(), rows).unwrap()
    }

    #[test]
    fn pinned_slices_are_the_filtered_rows_as_a_grid() {
        let (c, a, b, d) = catalog3();
        let schema = Schema::new(vec![a, b, d]).unwrap();
        let r = FunctionalRelation::complete("r", schema, &c, |row| {
            (row[0] * 100 + row[1] * 10 + row[2]) as f64
        });
        for pins in [
            vec![(1, 2)],
            vec![(0, 1)],
            vec![(2, 0)],
            vec![(0, 1), (2, 1)],
            vec![(1, 1), (1, 1)],
            vec![(0, 1), (1, 0), (2, 1)],
        ] {
            let slice = r.pinned_slice("s", &pins).expect("grid");
            let want = filtered(&r, &pins);
            assert_eq!(slice, want, "pins {pins:?}");
            let bits = |x: &FunctionalRelation| -> Vec<u64> {
                x.measures().iter().map(|m| m.to_bits()).collect()
            };
            assert_eq!(bits(&slice), bits(&want));
            let (domains, origins) = slice.grid().expect("a slice is a grid");
            for &(p, v) in &pins {
                assert_eq!((domains[p], origins[p]), (1, v));
            }
            // The inferred domains reach past the origin; only an all-zero
            // origin keeps the plain-grid certificate.
            assert_eq!(slice.inferred_domains(), want.inferred_domains());
            assert_eq!(
                slice.grid_domains().is_some(),
                pins.iter().all(|&(_, v)| v == 0)
            );
            // A slice of a slice pins further, still a grid.
            let again = slice.pinned_slice("s", &[(0, 1)]).expect("grid");
            let mut more = pins.clone();
            more.push((0, 1));
            assert_eq!(again, filtered(&r, &more));
        }
        // Out-of-range and contradictory constants select nothing.
        for pins in [vec![(1, 3)], vec![(1, 300)], vec![(1, 1), (1, 2)]] {
            let slice = r.pinned_slice("s", &pins).expect("grid");
            assert!(slice.is_empty(), "pins {pins:?}");
            assert_eq!(slice.schema(), r.schema());
        }
        // Only a grid key column slices.
        assert!(filtered(&r, &[]).pinned_slice("s", &[(0, 1)]).is_none());
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

    /// Four rows over `[a, b, d]` as coordinates on the grid `[3, 5, 2]`,
    /// wider than the data's own `[2, 4, 2]`, and the same rows pushed.
    fn coords_fixture() -> (FunctionalRelation, FunctionalRelation) {
        let (_, a, b, d) = catalog3();
        let schema = Schema::new(vec![a, b, d]).unwrap();
        let rows = [
            (vec![0, 1, 1], 1.5),
            (vec![0, 3, 0], 2.5),
            (vec![1, 0, 1], 3.5),
            (vec![1, 2, 0], 4.5),
        ];
        let coords = FunctionalRelation::from_coords(
            "c",
            schema.clone(),
            vec![3, 5, 2],
            vec![3, 6, 11, 14],
            rows.iter().map(|r| r.1).collect(),
        );
        let explicit = FunctionalRelation::from_rows("c", schema, rows).unwrap();
        (coords, explicit)
    }

    fn rows_materialized(r: &FunctionalRelation) -> bool {
        match &r.keys {
            KeyCol::Coords { cache, .. } => cache.get().is_some(),
            _ => true,
        }
    }

    #[test]
    fn coords_rows_are_the_delinearized_rows() {
        let (c, explicit) = coords_fixture();
        assert_eq!(
            c.coords(),
            Some((&[3u64, 5, 2][..], &[3u64, 6, 11, 14][..]))
        );
        assert!(c.grid_domains().is_none());
        assert_eq!(c.len(), 4);
        assert!(!rows_materialized(&c), "O(1) wrap");
        assert_eq!(c.row(2), &[1, 0, 1]);
        assert_eq!(c, explicit);
        assert!(rows_materialized(&c), "rows fill the cache on first access");
        assert_eq!(c.coords().unwrap().1, &[3, 6, 11, 14], "coordinates stay");
    }

    #[test]
    fn coords_infer_domains_without_materializing() {
        let (c, explicit) = coords_fixture();
        assert_eq!(c.inferred_domains(), vec![2, 4, 2]);
        assert_eq!(c.inferred_domains(), explicit.inferred_domains());
        assert!(!rows_materialized(&c));
        let empty =
            FunctionalRelation::from_coords("e", c.schema().clone(), vec![3, 5, 2], vec![], vec![]);
        assert_eq!(empty.inferred_domains(), vec![0, 0, 0]);
    }

    #[test]
    fn coords_key_like_their_materialized_rows() {
        let (c, explicit) = coords_fixture();
        let mut memoized = c.clone();
        memoized.enable_keyed_memo();
        let axes_sets: [&[(usize, u64)]; 4] = [
            &[(0, 2), (1, 4), (2, 2)], // own order, inferred domains
            &[(0, 3), (1, 5), (2, 2)], // own order, own domains: the coordinates
            &[(2, 2), (0, 2), (1, 4)], // permuted
            &[(1, 5), (2, 3), (0, 4)], // permuted, wider domains
        ];
        for axes in axes_sets {
            let want = explicit.keyed_order(axes).unwrap().0;
            for rel in [&c, &memoized] {
                let (got, _) = rel.keyed_order(axes).unwrap();
                assert_eq!(
                    (got.keys(), got.perm()),
                    (want.keys(), want.perm()),
                    "{axes:?}"
                );
            }
            assert_eq!(
                c.linearized_keys(axes),
                explicit.linearized_keys(axes),
                "{axes:?}"
            );
        }
        // Own order over own domains is the coordinate column itself.
        let (own, source) = c.keyed_order(&[(0, 3), (1, 5), (2, 2)]).unwrap();
        assert_eq!(
            (own.keys(), own.perm(), source),
            (&[3u64, 6, 11, 14][..], None, KeyedSource::Fresh)
        );
        // The loop memoized the orders over the inferred domains only.
        assert_eq!(
            memoized.keyed_order(&[(2, 2), (0, 2), (1, 4)]).unwrap().1,
            KeyedSource::Memo
        );
        assert_eq!(
            memoized.keyed_order(&[(1, 5), (2, 3), (0, 4)]).unwrap().1,
            KeyedSource::Fresh
        );
        // A partial axis list leaves the other positions out, unchecked.
        assert_eq!(c.linearized_keys(&[(1, 4)]), Some(vec![1, 3, 0, 2]));
        assert_eq!(
            c.linearized_keys(&[(1, 3)]),
            None,
            "b = 3 is outside a 3-value axis"
        );
        assert!(!rows_materialized(&c) && !rows_materialized(&memoized));
    }

    #[test]
    fn pushing_a_row_demotes_coords_and_drops_the_memo() {
        let (mut c, _) = coords_fixture();
        c.enable_keyed_memo();
        let axes = [(2, 2), (0, 2), (1, 4)];
        c.keyed_order(&axes).unwrap();
        assert_eq!(c.keyed_order(&axes).unwrap().1, KeyedSource::Memo);
        c.push_row(&[0, 0, 0], 9.0).unwrap();
        assert!(c.coords().is_none());
        assert!(matches!(c.keys, KeyCol::Rows(_)));
        assert_eq!(
            (c.len(), c.row(0), c.row(4)),
            (5, &[0, 1, 1][..], &[0, 0, 0][..])
        );
        assert_eq!(
            c.keyed_order(&axes).unwrap().1,
            KeyedSource::Built,
            "memo emptied"
        );
    }

    #[test]
    fn coords_charge_their_rows_before_and_after_the_cache_fills() {
        let (c, _) = coords_fixture();
        let before = c.heap_bytes();
        let _ = c.values_col();
        assert!(rows_materialized(&c));
        assert_eq!(c.heap_bytes(), before);
        // Dropping the coordinates for explicit rows keeps the rows only.
        let rows = c.clone().without_coords();
        assert!(rows.coords().is_none() && matches!(rows.keys, KeyCol::Rows(_)));
        assert_eq!(rows, c);
        assert_eq!(
            before - rows.heap_bytes(),
            (3 + 4) * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn canonicalizing_coords_is_the_identity() {
        let (c, explicit) = coords_fixture();
        let canon = c.canonicalized();
        assert_eq!(canon.coords(), c.coords());
        assert_eq!(canon, explicit.canonicalized());
    }

    #[test]
    fn wide_grids_key_beyond_the_dense_cap() {
        // A 2^13 × 2^13 grid is beyond MAX_DENSE_CELLS but trivially keyed.
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 1 << 13).unwrap();
        let y = cat.add_var("y", 1 << 13).unwrap();
        let schema = Schema::new(vec![x, y]).unwrap();
        let mut rel = FunctionalRelation::new("w", schema.clone());
        rel.push_row(&[(1 << 13) - 1, (1 << 13) - 1], 7.0).unwrap();
        let axes = [(0, 1 << 13), (1, 1 << 13)];
        let (order, _) = rel.keyed_order(&axes).expect("wide grid keys");
        assert_eq!(order.keys(), &[(1u64 << 26) - 1]);
        let back = FunctionalRelation::from_coords(
            "w",
            schema,
            vec![1 << 13, 1 << 13],
            order.keys().to_vec(),
            vec![7.0],
        );
        assert_eq!(back, rel);
    }

    #[test]
    fn keyed_order_sorts_and_refuses_bad_rows() {
        let (_, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let unsorted = FunctionalRelation::from_rows(
            "r",
            schema.clone(),
            [(vec![2, 3], 5.0), (vec![0, 1], 2.0), (vec![1, 0], 3.0)],
        )
        .unwrap();
        let (order, _) = unsorted.keyed_order(&[(0, 3), (1, 4)]).unwrap();
        assert_eq!(
            (order.keys(), order.perm()),
            (&[1u64, 4, 11][..], Some(&[1u32, 2, 0][..]))
        );
        assert_eq!(&*order.gather(unsorted.measures()), &[2.0, 3.0, 5.0]);
        // A value outside its axis domain.
        let mut out = FunctionalRelation::new("o", schema.clone());
        out.push_row(&[0, 9], 1.0).unwrap();
        assert!(out.keyed_order(&[(0, 3), (1, 4)]).is_none());
        // A duplicate argument tuple: not functional.
        let mut dup = FunctionalRelation::new("d", schema);
        dup.push_row(&[1, 1], 1.0).unwrap();
        dup.push_row(&[1, 1], 2.0).unwrap();
        assert!(dup.keyed_order(&[(0, 3), (1, 4)]).is_none());
    }

    #[test]
    fn shrink_to_fit_drops_only_slack() {
        let (_, a, b, _) = catalog3();
        let mut r = FunctionalRelation::new("grown", Schema::new(vec![a, b]).unwrap());
        for i in 0..1000 {
            r.push_row(&[i % 2, i % 3], f64::from(i)).unwrap();
        }
        let before = r.clone();
        assert!(r.measures.capacity() > r.len());
        r.shrink_to_fit();
        assert_eq!(r.measures.capacity(), r.len());
        assert_eq!(
            r.heap_bytes(),
            r.name.capacity()
                + r.schema().heap_bytes()
                + r.len() * (2 * std::mem::size_of::<Value>() + std::mem::size_of::<f64>())
        );
        assert_eq!(r, before);
    }

    #[test]
    fn heap_bytes_is_capacity_accurate() {
        let (_, a, b, _) = catalog3();
        let schema = Schema::new(vec![a, b]).unwrap();
        let mut r = FunctionalRelation::new("rel", schema);
        let expect = |r: &FunctionalRelation| {
            let key_bytes = match &r.keys {
                KeyCol::Rows(v) => v.capacity() * std::mem::size_of::<Value>(),
                _ => unreachable!("push-built relation"),
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
        assert!(
            by_ba.heap_bytes() >= r.len() * (8 + 4),
            "keys and permutation"
        );
        // Trie levels read through a memoized order are charged to the
        // relation from then on, at capacity: one digit per key, and a
        // prefix and a start per run plus the closing start (levels are
        // built without slack).
        let runs = by_ba.runs(1);
        assert_eq!(runs.len(), doms[1] as usize, "one run per `b` value");
        let run_bytes = runs.len() * (8 + 4) + 4;
        assert_eq!(by_ab.digits(1).len(), r.len());
        let digit_bytes = r.len() * 4;
        assert_eq!(
            r.heap_bytes(),
            unmemoized + memo_bytes + run_bytes + digit_bytes
        );

        // A coordinate column is charged at capacity too, plus its rows as
        // if materialized.
        let mut coords = Vec::with_capacity(1024);
        coords.extend([1u64, 4, 11]);
        let c = FunctionalRelation::from_coords(
            "c",
            r.schema().clone(),
            vec![3, 4],
            coords,
            vec![1.0; 3],
        );
        let expect = c.name.capacity()
            + c.schema().heap_bytes()
            + (2 + 1024) * std::mem::size_of::<u64>()
            + 3 * 2 * std::mem::size_of::<Value>()
            + c.measures.capacity() * std::mem::size_of::<f64>();
        assert_eq!(c.heap_bytes(), expect);
    }
}
