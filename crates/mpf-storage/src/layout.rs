//! Shared odometer/stride/linearization math for grid-shaped factors.
//!
//! Every factor representation that indexes a domain grid — the dense
//! row-major array ([`crate::DenseFactor`]), the CSR-like sparse tensor
//! ([`crate::SparseFactor`]), and the dense kernels in the algebra layer
//! — needs the same primitives: row-major strides for a domain vector,
//! grid-size computation with overflow guards, linearization of a
//! variable-value row into a cell index (and back), and the
//! odometer-order check that proves a relation's measure column *is* a
//! grid's value array. They used to be duplicated between
//! `mpf-storage/src/dense.rs` and `mpf-algebra/src/dense.rs`; this
//! module is the single home, re-exported from [`crate::dense`] for
//! compatibility.

use crate::{FunctionalRelation, Value};

/// Hard cap on dense-grid cells (2^24 = 16M cells ≈ 128 MiB of `f64`).
/// Conversions refuse grids beyond this, so a mis-estimated density can
/// cost a refused fast path but never an absurd allocation.
pub const MAX_DENSE_CELLS: u64 = 1 << 24;

/// Cap on *coordinate-space* cells for the sparse tensor (2^62). Sparse
/// factors never allocate per cell — only per present row — so the cap
/// exists solely to keep linearized `u64` coordinates from overflowing
/// in intermediate products (an output coordinate is `a * bc + b` with
/// both factors below the cap).
pub const MAX_SPARSE_COORD_CELLS: u64 = 1 << 62;

/// Row-major strides for a domain vector: `strides[i]` is the product of
/// all domains after position `i`.
pub fn strides_of(domains: &[u64]) -> Vec<u64> {
    let mut strides = vec![1u64; domains.len()];
    for i in (0..domains.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * domains[i + 1];
    }
    strides
}

/// The grid size for a domain vector, or `None` when it overflows
/// [`MAX_DENSE_CELLS`] (or `u64`).
pub fn grid_cells(domains: &[u64]) -> Option<u64> {
    let mut total: u64 = 1;
    for &d in domains {
        total = total.checked_mul(d)?;
        if total > MAX_DENSE_CELLS {
            return None;
        }
    }
    Some(total)
}

/// The coordinate-space size for a domain vector under the much wider
/// sparse cap ([`MAX_SPARSE_COORD_CELLS`]): sparse tensors only store
/// present cells, so the grid itself is never allocated and only
/// coordinate overflow matters.
pub fn grid_cells_wide(domains: &[u64]) -> Option<u64> {
    let mut total: u64 = 1;
    for &d in domains {
        total = total.checked_mul(d)?;
        if total > MAX_SPARSE_COORD_CELLS {
            return None;
        }
    }
    Some(total)
}

/// Linearize a variable-value row into its grid cell index under
/// row-major `strides` (no bounds checking: callers validate domains
/// once per relation, not per row).
#[inline]
pub fn linearize(row: &[Value], strides: &[u64]) -> u64 {
    debug_assert_eq!(row.len(), strides.len());
    row.iter()
        .zip(strides)
        .map(|(&v, &s)| v as u64 * s)
        .sum::<u64>()
}

/// Per-position multipliers realizing a permuted axis order: `axes` is
/// `(position in the schema, domain)` in the *target* axis order
/// (slowest first); the result maps each schema position to its stride
/// in the permuted grid (0 for a position `axes` leaves out). Callers
/// check the grid against [`grid_cells_wide`] first.
pub fn permuted_multipliers(arity: usize, axes: &[(usize, u64)]) -> Vec<u64> {
    let doms: Vec<u64> = axes.iter().map(|a| a.1).collect();
    let strides = strides_of(&doms);
    let mut mult = vec![0u64; arity];
    for (k, &(p, _)) in axes.iter().enumerate() {
        mult[p] = strides[k];
    }
    mult
}

/// Linearize one row under [`permuted_multipliers`]; `None` when a value
/// reaches its domain in `doms_by_pos` (one per schema position).
#[inline]
pub fn permute_row(row: &[Value], mult: &[u64], doms_by_pos: &[u64]) -> Option<u64> {
    let mut key = 0u64;
    for (p, &v) in row.iter().enumerate() {
        if (v as u64) >= doms_by_pos[p] {
            return None;
        }
        key += v as u64 * mult[p];
    }
    Some(key)
}

/// Decompose a grid cell index into the variable values of its row,
/// written into `row` (schema order).
#[inline]
pub fn delinearize(idx: u64, strides: &[u64], row: &mut [Value]) {
    debug_assert_eq!(row.len(), strides.len());
    let mut rem = idx;
    for (c, &s) in strides.iter().enumerate() {
        row[c] = (rem / s) as Value;
        rem %= s;
    }
}

/// Whether `rel`'s rows are exactly the odometer sequence of the grid
/// `domains` — the row order [`FunctionalRelation::complete`] and
/// [`crate::DenseFactor::into_relation`] emit. A `true` result proves
/// the relation is complete on the grid (right row count, every point
/// once, nothing out of bounds), so its measure column *is* the grid's
/// dense value array and kernels may read it in place with no
/// conversion copy. One sequential scan: runs of the last (fastest)
/// column are compared against a prefix that only advances once per
/// run.
pub fn is_odometer_ordered(rel: &FunctionalRelation, domains: &[u64]) -> bool {
    let arity = rel.schema().arity();
    if domains.len() != arity || grid_cells(domains) != Some(rel.len() as u64) {
        return false;
    }
    if arity == 0 || rel.is_empty() {
        return true;
    }
    // A grid-certified relation proves its order in O(arity): its rows
    // are the odometer sequence of `g`, and one sequence is the odometer
    // of exactly one domain vector (per-column max + 1), so it matches
    // `domains` iff the vectors are equal — no scan, and no key
    // materialization.
    if let Some(g) = rel.grid_domains() {
        return g == domains;
    }
    let vals = rel.values_col();
    let dlast = domains[arity - 1];
    if dlast == 0 {
        return false;
    }
    let mut prefix = vec![0 as Value; arity - 1];
    let mut i = 0usize;
    for _ in 0..rel.len() as u64 / dlast {
        // Accumulate mismatches branchlessly within a run; one test per
        // run keeps the hot loop a straight compare.
        let mut ok = true;
        for j in 0..dlast as Value {
            for (c, &p) in prefix.iter().enumerate() {
                ok &= vals[i + c] == p;
            }
            ok &= vals[i + arity - 1] == j;
            i += arity;
        }
        if !ok {
            return false;
        }
        for c in (0..arity - 1).rev() {
            prefix[c] += 1;
            if (prefix[c] as u64) < domains[c] {
                break;
            }
            prefix[c] = 0;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides_of(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_of(&[5]), vec![1]);
        assert_eq!(strides_of(&[]), Vec::<u64>::new());
    }

    #[test]
    fn grid_cells_guards_overflow() {
        assert_eq!(grid_cells(&[2, 3]), Some(6));
        assert_eq!(grid_cells(&[1 << 20, 1 << 20]), None);
        assert_eq!(grid_cells(&[u64::MAX, u64::MAX]), None);
        assert_eq!(grid_cells(&[]), Some(1));
    }

    #[test]
    fn wide_cells_admit_grids_the_dense_cap_refuses() {
        // 2^40 cells: far beyond the dense allocation cap, fine as a
        // sparse coordinate space.
        assert_eq!(grid_cells(&[1 << 20, 1 << 20]), None);
        assert_eq!(grid_cells_wide(&[1 << 20, 1 << 20]), Some(1 << 40));
        assert_eq!(grid_cells_wide(&[1 << 40, 1 << 40]), None);
        assert_eq!(grid_cells_wide(&[u64::MAX, 2]), None);
    }

    #[test]
    fn linearize_round_trips() {
        let domains = [2u64, 3, 4];
        let strides = strides_of(&domains);
        let mut row = [0 as Value; 3];
        for idx in 0..24u64 {
            delinearize(idx, &strides, &mut row);
            assert_eq!(linearize(&row, &strides), idx);
        }
        assert_eq!(linearize(&[1, 2, 3], &strides), 23);
    }
}
