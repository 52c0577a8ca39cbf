//! CSR-like sparse tensor storage: sorted linearized coordinates plus a
//! parallel columnar measure vector.
//!
//! The mid-density representation between the row-major hash path and
//! the dense grid: a [`SparseFactor`] stores each present cell of a
//! domain grid as one linearized odometer coordinate
//! ([`crate::layout::linearize`]) in a `u64` column sorted ascending,
//! with the measures in a parallel `f64` column. Nothing is allocated
//! for absent cells, so the grid may be far larger than
//! [`crate::layout::MAX_DENSE_CELLS`] (the coordinate space is only
//! bounded by [`crate::layout::MAX_SPARSE_COORD_CELLS`], an overflow
//! guard rather than an allocation cap). Sorted coordinates make the
//! operators streaming scans: join is a sorted merge on shared-variable
//! coordinate prefixes, marginalization is a single coordinate-collapse
//! pass, and both read the measure column as contiguous slices — no
//! per-row key extraction, no hash probes.

use crate::layout::{delinearize, grid_cells_wide, linearize, strides_of};
use crate::{DenseFactor, FunctionalRelation, Schema, Value};

/// A sparse tensor over a domain grid: present cells only, sorted by
/// linearized coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFactor {
    name: String,
    schema: Schema,
    /// Per-variable domain sizes, in schema order.
    domains: Vec<u64>,
    /// Row-major strides, in schema order (`strides[last] == 1`).
    strides: Vec<u64>,
    /// Linearized cell coordinates, sorted ascending, no duplicates.
    coords: Vec<u64>,
    /// One measure per present cell, parallel to `coords`.
    values: Vec<f64>,
}

impl SparseFactor {
    /// Sparsify a relation onto the given grid. Returns `None` when the
    /// domain vector does not match the schema arity, the coordinate
    /// space overflows, a value falls outside its domain, or two rows
    /// share an argument tuple (a duplicate coordinate means the
    /// caller's data is not functional — fall back to the hash path
    /// rather than pick a winner). Rows already in ascending coordinate
    /// order — every sparse-kernel output, and anything odometer-ordered
    /// — skip the sort.
    pub fn from_relation(rel: &FunctionalRelation, domains: &[u64]) -> Option<SparseFactor> {
        let arity = rel.schema().arity();
        if domains.len() != arity {
            return None;
        }
        grid_cells_wide(domains)?;
        let strides = strides_of(domains);
        let vals = rel.values_col();
        let mut coords = Vec::with_capacity(rel.len());
        let mut sorted = true;
        for i in 0..rel.len() {
            let row = &vals[i * arity..(i + 1) * arity];
            for (c, &v) in row.iter().enumerate() {
                if (v as u64) >= domains[c] {
                    return None;
                }
            }
            let coord = linearize(row, &strides);
            if let Some(&prev) = coords.last() {
                sorted &= prev < coord;
            }
            coords.push(coord);
        }
        let values = if sorted {
            rel.measures().to_vec()
        } else {
            let mut order: Vec<u32> = (0..coords.len() as u32).collect();
            order.sort_unstable_by_key(|&i| coords[i as usize]);
            let sorted_coords: Vec<u64> = order.iter().map(|&i| coords[i as usize]).collect();
            let values: Vec<f64> = order.iter().map(|&i| rel.measure(i as usize)).collect();
            coords = sorted_coords;
            values
        };
        if coords.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(SparseFactor {
            name: rel.name().to_string(),
            schema: rel.schema().clone(),
            domains: domains.to_vec(),
            strides,
            coords,
            values,
        })
    }

    /// Assemble a sparse factor from pre-sorted columns (kernel outputs
    /// emit coordinates in ascending order by construction). Sortedness
    /// and uniqueness are asserted in debug builds only.
    pub fn from_sorted_parts(
        name: impl Into<String>,
        schema: Schema,
        domains: Vec<u64>,
        coords: Vec<u64>,
        values: Vec<f64>,
    ) -> SparseFactor {
        debug_assert_eq!(domains.len(), schema.arity());
        debug_assert_eq!(coords.len(), values.len());
        debug_assert!(coords.windows(2).all(|w| w[0] < w[1]));
        let strides = strides_of(&domains);
        SparseFactor {
            name: name.into(),
            schema,
            domains,
            strides,
            coords,
            values,
        }
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

    /// Number of present cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no cells are present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Heap bytes owned by this factor: name, schema, domain/stride
    /// vectors, and the coordinate + measure columns, all charged at
    /// vector *capacity* so the figure matches the allocation.
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.schema.heap_bytes()
            + self.domains.capacity() * std::mem::size_of::<u64>()
            + self.strides.capacity() * std::mem::size_of::<u64>()
            + self.coords.capacity() * std::mem::size_of::<u64>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// The sorted linearized coordinates.
    pub fn coords(&self) -> &[u64] {
        &self.coords
    }

    /// The cell measures, parallel to [`SparseFactor::coords`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Materialize back into a row-major [`FunctionalRelation`], rows in
    /// ascending coordinate (odometer) order.
    pub fn to_relation(&self) -> FunctionalRelation {
        self.clone().into_relation()
    }

    /// [`SparseFactor::to_relation`], consuming the factor so the
    /// measure column moves without a copy.
    pub fn into_relation(self) -> FunctionalRelation {
        let arity = self.schema.arity();
        let mut values = vec![0 as Value; self.coords.len() * arity];
        for (i, &coord) in self.coords.iter().enumerate() {
            delinearize(coord, &self.strides, &mut values[i * arity..(i + 1) * arity]);
        }
        FunctionalRelation::from_parts(self.name, self.schema, values, self.values)
    }
}

/// A factor in one of the engine's three storage representations.
///
/// `Rows` is the general row-major hash path, `Sparse` the sorted
/// coordinate tensor for the mid-density regime, `Dense` the complete
/// odometer grid. Measures are columnar in all three; operators pick a
/// representation per input from density estimates and convert at the
/// boundaries, and the inference layer chains factors through the
/// algebra without forcing everything back to `Rows` between steps.
#[derive(Debug, Clone, PartialEq)]
pub enum Factor {
    /// Row-major relation — the hash operators' native form.
    Rows(FunctionalRelation),
    /// Sorted-coordinate sparse tensor.
    Sparse(SparseFactor),
    /// Complete dense grid.
    Dense(DenseFactor),
}

impl Factor {
    /// The factor's name.
    pub fn name(&self) -> &str {
        match self {
            Factor::Rows(r) => r.name(),
            Factor::Sparse(s) => s.name(),
            Factor::Dense(d) => d.name(),
        }
    }

    /// The factor's variable schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Factor::Rows(r) => r.schema(),
            Factor::Sparse(s) => s.schema(),
            Factor::Dense(d) => d.schema(),
        }
    }

    /// Number of materialized rows/cells (present cells for `Sparse`,
    /// every grid cell for `Dense`).
    pub fn len(&self) -> usize {
        match self {
            Factor::Rows(r) => r.len(),
            Factor::Sparse(s) => s.len(),
            Factor::Dense(d) => d.len(),
        }
    }

    /// Whether the factor holds no rows/cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes owned by the factor in its current representation
    /// (capacity-based, see the per-representation `heap_bytes`
    /// methods).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Factor::Rows(r) => r.heap_bytes(),
            Factor::Sparse(s) => s.heap_bytes(),
            Factor::Dense(d) => d.heap_bytes(),
        }
    }

    /// The representation tag used in traces and `explain_analyze`
    /// output (`rows`/`sparse`/`dense`).
    pub fn repr_name(&self) -> &'static str {
        match self {
            Factor::Rows(_) => "rows",
            Factor::Sparse(_) => "sparse",
            Factor::Dense(_) => "dense",
        }
    }

    /// Materialize into a row-major relation, consuming the factor (a
    /// move for `Rows`, a conversion otherwise).
    pub fn into_relation(self) -> FunctionalRelation {
        match self {
            Factor::Rows(r) => r,
            Factor::Sparse(s) => s.into_relation(),
            Factor::Dense(d) => d.into_relation(),
        }
    }
}

impl From<FunctionalRelation> for Factor {
    fn from(r: FunctionalRelation) -> Factor {
        Factor::Rows(r)
    }
}

impl From<SparseFactor> for Factor {
    fn from(s: SparseFactor) -> Factor {
        Factor::Sparse(s)
    }
}

impl From<DenseFactor> for Factor {
    fn from(d: DenseFactor) -> Factor {
        Factor::Dense(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, VarId};

    fn fixture() -> (Catalog, VarId, VarId) {
        let mut c = Catalog::new();
        let a = c.add_var("a", 3).unwrap();
        let b = c.add_var("b", 4).unwrap();
        (c, a, b)
    }

    #[test]
    fn unsorted_rows_sort_and_round_trip() {
        let (_, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        let rel = FunctionalRelation::from_rows(
            "r",
            schema,
            [(vec![2, 3], 5.0), (vec![0, 1], 2.0), (vec![1, 0], 3.0)],
        )
        .unwrap();
        let sp = SparseFactor::from_relation(&rel, &[3, 4]).expect("fits");
        assert_eq!(sp.coords(), &[1, 4, 11]);
        assert_eq!(sp.values(), &[2.0, 3.0, 5.0]);
        let back = sp.into_relation();
        assert!(back.function_eq(&rel));
        assert_eq!(back.row(0), &[0, 1]);
    }

    #[test]
    fn odometer_ordered_input_skips_the_sort() {
        let (cat, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        let rel = FunctionalRelation::complete("r", schema, &cat, |row| {
            (row[0] * 4 + row[1]) as f64
        });
        let sp = SparseFactor::from_relation(&rel, &[3, 4]).expect("fits");
        assert_eq!(sp.len(), 12);
        assert_eq!(sp.coords()[11], 11);
        assert_eq!(sp.to_relation(), rel);
    }

    #[test]
    fn conversion_refuses_bad_input() {
        let (_, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        // Value outside the grid.
        let mut out = FunctionalRelation::new("r", schema.clone());
        out.push_row(&[0, 9], 1.0).unwrap();
        assert!(SparseFactor::from_relation(&out, &[3, 4]).is_none());
        // Duplicate argument tuple.
        let mut dup = FunctionalRelation::new("d", schema.clone());
        dup.push_row(&[1, 1], 1.0).unwrap();
        dup.push_row(&[1, 1], 2.0).unwrap();
        assert!(SparseFactor::from_relation(&dup, &[3, 4]).is_none());
        // Arity mismatch.
        let empty = FunctionalRelation::new("e", schema);
        assert!(SparseFactor::from_relation(&empty, &[3]).is_none());
    }

    #[test]
    fn wide_grids_are_fine_sparse() {
        // A 2^13 × 2^13 grid is beyond MAX_DENSE_CELLS but trivially
        // sparse-representable.
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 1 << 13).unwrap();
        let y = cat.add_var("y", 1 << 13).unwrap();
        let schema = Schema::new(vec![x, y]).unwrap();
        let mut rel = FunctionalRelation::new("w", schema);
        rel.push_row(&[(1 << 13) - 1, (1 << 13) - 1], 7.0).unwrap();
        let sp = SparseFactor::from_relation(&rel, &[1 << 13, 1 << 13]).expect("sparse fits");
        assert_eq!(sp.coords(), &[(1u64 << 26) - 1]);
        assert!(sp.to_relation().function_eq(&rel));
    }

    #[test]
    fn factor_accessors_dispatch() {
        let (cat, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        let rel = FunctionalRelation::complete("r", schema, &cat, |row| {
            1.0 + (row[0] + row[1]) as f64
        });
        let sp = SparseFactor::from_relation(&rel, &[3, 4]).unwrap();
        let de = rel.try_to_dense(&cat, 0.0).unwrap();
        let fr = Factor::from(rel.clone());
        let fs = Factor::from(sp);
        let fd = Factor::from(de);
        assert_eq!(fr.repr_name(), "rows");
        assert_eq!(fs.repr_name(), "sparse");
        assert_eq!(fd.repr_name(), "dense");
        for f in [fr, fs, fd] {
            assert_eq!(f.name(), "r");
            assert_eq!(f.len(), 12);
            assert!(f.clone().into_relation().function_eq(&rel));
        }
    }

    #[test]
    fn heap_bytes_tracks_capacity_in_every_repr() {
        let (cat, a, b) = fixture();
        let schema = Schema::new(vec![a, b]).unwrap();
        let rel = FunctionalRelation::complete("r", schema, &cat, |row| {
            1.0 + (row[0] + row[1]) as f64
        });
        let sp = SparseFactor::from_relation(&rel, &[3, 4]).unwrap();
        let expect = sp.name.capacity()
            + sp.schema.heap_bytes()
            + (sp.domains.capacity() + sp.strides.capacity() + sp.coords.capacity())
                * std::mem::size_of::<u64>()
            + sp.values.capacity() * std::mem::size_of::<f64>();
        assert_eq!(sp.heap_bytes(), expect);

        // The Factor dispatcher reports whichever representation it
        // wraps, and shrinking/growing a column moves the number.
        let de = rel.try_to_dense(&cat, 0.0).unwrap();
        assert_eq!(Factor::from(rel.clone()).heap_bytes(), rel.heap_bytes());
        assert_eq!(Factor::from(sp.clone()).heap_bytes(), sp.heap_bytes());
        assert_eq!(Factor::from(de.clone()).heap_bytes(), de.heap_bytes());

        let mut grown = sp.clone();
        grown.coords.reserve(1024);
        grown.values.reserve(1024);
        // Same length, larger capacity: accounting must grow with it.
        assert_eq!(grown.len(), sp.len());
        assert!(grown.heap_bytes() >= sp.heap_bytes() + 2048 * 8);
    }
}
