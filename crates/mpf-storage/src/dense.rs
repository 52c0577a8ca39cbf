//! Dense factor storage: a functional relation over a complete (or
//! zero-filled) domain grid, stored as one row-major `f64` array.
//!
//! The paper's probabilistic-inference workloads run over *complete*
//! relations — one row per point of the schema's domain cross product —
//! where hash-based operators pay key extraction and probing for
//! structure the odometer already encodes. A [`DenseFactor`] drops the
//! keys entirely: cell `i` holds the measure of the row whose variable
//! values are the odometer decomposition of `i` under precomputed
//! strides (last schema variable fastest, matching
//! [`FunctionalRelation::complete`] row order). Any cell of the grid
//! that the source relation did not populate takes a caller-supplied
//! `fill` measure — the semiring's additive identity, which is exactly
//! what a missing row denotes under MPF semantics.

use crate::{FunctionalRelation, Schema, Value};

// The shared grid math lives in [`crate::layout`]; these re-exports keep
// the historical `mpf_storage::dense::*` paths working for the algebra
// and optimizer layers.
pub use crate::layout::{grid_cells, is_odometer_ordered, strides_of, MAX_DENSE_CELLS};

/// A dense, row-major factor over a domain grid.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseFactor {
    name: String,
    schema: Schema,
    /// Per-variable domain sizes, in schema order.
    domains: Vec<u64>,
    /// Row-major strides, in schema order (`strides[last] == 1`).
    strides: Vec<u64>,
    /// One measure per grid cell; `len == domains.iter().product()`.
    values: Vec<f64>,
}

impl DenseFactor {
    /// A factor with every cell set to `fill`. Returns `None` when the
    /// grid exceeds [`MAX_DENSE_CELLS`] or `domains.len()` does not match
    /// the schema arity.
    pub fn filled(
        name: impl Into<String>,
        schema: Schema,
        domains: Vec<u64>,
        fill: f64,
    ) -> Option<DenseFactor> {
        if domains.len() != schema.arity() {
            return None;
        }
        let total = grid_cells(&domains)?;
        let strides = strides_of(&domains);
        Some(DenseFactor {
            name: name.into(),
            schema,
            domains,
            strides,
            values: vec![fill; total as usize],
        })
    }

    /// Densify a relation onto the given grid. Absent cells take `fill`;
    /// returns `None` when the grid is too large, a row falls outside it,
    /// or two rows share an argument tuple (a functional relation is a
    /// set, so a duplicate means the caller's data is invalid — fall back
    /// to the sparse path rather than pick a winner).
    ///
    /// A relation that is complete over the grid *in odometer order* (the
    /// order [`FunctionalRelation::complete`] and
    /// [`DenseFactor::into_relation`] emit — every dense-kernel round
    /// trip) takes a fast path: verify the order with one sequential
    /// scan and move the measures wholesale, skipping the fill pass, the
    /// duplicate bitmap, and the scattered writes.
    pub fn from_relation(
        rel: &FunctionalRelation,
        domains: &[u64],
        fill: f64,
    ) -> Option<DenseFactor> {
        if domains.len() != rel.schema().arity() {
            return None;
        }
        let total = grid_cells(domains)?;
        if rel.len() as u64 == total {
            if let Some(out) = DenseFactor::from_odometer_ordered(rel, domains) {
                return Some(out);
            }
        }
        let mut out = DenseFactor::filled(
            rel.name().to_string(),
            rel.schema().clone(),
            domains.to_vec(),
            fill,
        )?;
        let mut written = vec![false; out.values.len()];
        for (row, m) in rel.rows() {
            let idx = out.checked_index_of(row)?;
            if written[idx] {
                return None;
            }
            written[idx] = true;
            out.values[idx] = m;
        }
        Some(out)
    }

    /// The fast conversion: if `rel`'s rows are exactly the grid's
    /// odometer sequence (which also proves completeness, uniqueness, and
    /// bounds), the measure column *is* the dense value array.
    fn from_odometer_ordered(rel: &FunctionalRelation, domains: &[u64]) -> Option<DenseFactor> {
        if !is_odometer_ordered(rel, domains) {
            return None;
        }
        Some(DenseFactor {
            name: rel.name().to_string(),
            schema: rel.schema().clone(),
            domains: domains.to_vec(),
            strides: strides_of(domains),
            values: rel.measures().to_vec(),
        })
    }

    /// The factor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The factor's variable schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Per-variable domain sizes, in schema order.
    pub fn domains(&self) -> &[u64] {
        &self.domains
    }

    /// Row-major strides, in schema order.
    pub fn strides(&self) -> &[u64] {
        &self.strides
    }

    /// Total grid cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the grid is empty (some domain is 0).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Heap bytes owned by this factor: name, schema, domain/stride
    /// vectors, and the cell grid, all charged at vector *capacity* so
    /// the figure matches the allocation.
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.schema.heap_bytes()
            + self.domains.capacity() * std::mem::size_of::<u64>()
            + self.strides.capacity() * std::mem::size_of::<u64>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// The cell measures, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable cell measures (for in-place kernels).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The grid index of a variable-value row (row-major odometer).
    #[inline]
    pub fn index_of(&self, row: &[Value]) -> usize {
        crate::layout::linearize(row, &self.strides) as usize
    }

    /// [`DenseFactor::index_of`] with bounds checking; `None` when a value
    /// falls outside its domain.
    pub fn checked_index_of(&self, row: &[Value]) -> Option<usize> {
        if row.len() != self.strides.len() {
            return None;
        }
        let mut idx: u64 = 0;
        for ((&v, &d), &s) in row.iter().zip(&self.domains).zip(&self.strides) {
            if (v as u64) >= d {
                return None;
            }
            idx += v as u64 * s;
        }
        Some(idx as usize)
    }

    /// Decompose a grid index into the variable values of its row,
    /// written into `row` (schema order).
    #[inline]
    pub fn row_of(&self, idx: usize, row: &mut [Value]) {
        crate::layout::delinearize(idx as u64, &self.strides, row);
    }

    /// Materialize back into a sparse [`FunctionalRelation`], emitting
    /// every grid cell in odometer order (the same row order
    /// [`FunctionalRelation::complete`] produces).
    pub fn to_relation(&self) -> FunctionalRelation {
        self.clone().into_relation()
    }

    /// [`DenseFactor::to_relation`], consuming the factor so the cell
    /// measures move into the relation without a copy. The key column
    /// stays *implicit* (the relation records the grid's domain vector;
    /// packed keys materialize lazily on first row access), so on a
    /// dense→dense pipeline this conversion is O(1) in the grid size and
    /// the next densification proves odometer order without a scan.
    pub fn into_relation(self) -> FunctionalRelation {
        FunctionalRelation::from_grid(self.name, self.schema, self.domains, self.values)
    }

    /// [`DenseFactor::into_relation`] with axis `k` of the grid standing
    /// for the values `origins[k]..origins[k] + domains[k]` — the output
    /// of a kernel over pinned slices, whose one-cell axes keep their
    /// pinned value.
    pub fn into_relation_at(self, origins: Vec<Value>) -> FunctionalRelation {
        FunctionalRelation::from_grid_at(self.name, self.schema, self.domains, origins, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, VarId};

    fn fixture() -> (Catalog, VarId, VarId) {
        let mut c = Catalog::new();
        let a = c.add_var("a", 2).unwrap();
        let b = c.add_var("b", 3).unwrap();
        (c, a, b)
    }

    #[test]
    fn complete_relation_round_trips() {
        let (cat, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        let rel =
            FunctionalRelation::complete("r", schema, &cat, |row| (row[0] * 10 + row[1]) as f64);
        let dense = rel.try_to_dense(&cat, 0.0).expect("complete fits");
        assert_eq!(dense.len(), 6);
        assert_eq!(dense.index_of(&[1, 2]), 5);
        assert_eq!(dense.values()[dense.index_of(&[1, 2])], 12.0);
        let mut row = [0, 0];
        dense.row_of(5, &mut row);
        assert_eq!(row, [1, 2]);
        let back = dense.to_relation();
        assert!(back.function_eq(&rel));
        // `to_relation` emits odometer order: bit-identical to `complete`.
        assert_eq!(back, rel);
    }

    #[test]
    fn sparse_rows_fill_with_identity() {
        let (cat, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        let rel =
            FunctionalRelation::from_rows("r", schema, [(vec![0, 1], 2.0), (vec![1, 2], 3.0)])
                .unwrap();
        let dense = rel.try_to_dense(&cat, 0.0).expect("grid fits");
        assert_eq!(dense.len(), 6);
        assert_eq!(dense.values()[dense.index_of(&[0, 1])], 2.0);
        assert_eq!(dense.values()[dense.index_of(&[0, 0])], 0.0);
        let back = dense.to_relation();
        assert_eq!(back.len(), 6);
        assert_eq!(back.lookup(&[1, 2]), Some(3.0));
        assert_eq!(back.lookup(&[1, 0]), Some(0.0));
    }

    #[test]
    fn conversion_refuses_bad_input() {
        let (cat, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        // A value outside the grid.
        let mut rel = FunctionalRelation::new("r", schema.clone());
        rel.push_row(&[0, 7], 1.0).unwrap();
        assert!(rel.try_to_dense(&cat, 0.0).is_none());
        // A duplicate argument tuple.
        let mut dup = FunctionalRelation::new("d", schema.clone());
        dup.push_row(&[0, 1], 1.0).unwrap();
        dup.push_row(&[0, 1], 2.0).unwrap();
        assert!(dup.try_to_dense(&cat, 0.0).is_none());
        // A grid beyond MAX_DENSE_CELLS.
        let mut big = Catalog::new();
        let x = big.add_var("x", 1 << 13).unwrap();
        let y = big.add_var("y", 1 << 13).unwrap();
        let wide = FunctionalRelation::new("w", Schema::new(vec![x, y]).unwrap());
        assert!(wide.try_to_dense(&big, 0.0).is_none());
    }

    #[test]
    fn inferred_domains_cover_data() {
        let (cat, a, b) = fixture();
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
    fn heap_bytes_charges_every_column() {
        let (_, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        let d = DenseFactor::filled("d", schema, vec![3, 4], 0.0).unwrap();
        let expect = d.name.capacity()
            + d.schema.heap_bytes()
            + d.domains.capacity() * std::mem::size_of::<u64>()
            + d.strides.capacity() * std::mem::size_of::<u64>()
            + d.values.capacity() * std::mem::size_of::<f64>();
        assert_eq!(d.heap_bytes(), expect);
        // At minimum the 12-cell grid itself.
        assert!(d.heap_bytes() >= 12 * std::mem::size_of::<f64>());
    }
}
