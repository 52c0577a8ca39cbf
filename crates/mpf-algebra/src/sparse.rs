//! Sparse-tensor operators: every operand the dense kernels decline.
//!
//! The dense odometer kernels touch every grid cell and win only near
//! completeness; below that, the operators here run on
//! [`SparseFactor`]s: present cells only, as linearized odometer
//! coordinates sorted ascending with a parallel columnar measure vector.
//! Sorting and merging integer coordinates beats the hash operators'
//! per-row key extraction and probing at every density measured (down
//! to 0.5 %), so under [`ReprMode::Auto`] the choice is by feasibility
//! alone: these kernels run whenever they accept the input.
//!
//! * [`join`] relinearizes both sides to a `[shared vars, own vars]` axis
//!   order, so rows joining on the shared variables form contiguous runs
//!   of equal coordinate *prefix* (`key / own_cells`); a two-pointer
//!   sorted merge pairs the runs and emits each output coordinate as
//!   `a_key * b_own_cells + b_own_index` — ascending by construction, so
//!   the output needs no sort. No hash table, no per-row key allocation.
//! * [`agg`] relinearizes to `[group vars, eliminated vars]` order and
//!   collapses runs of equal `key / elim_cells` in one pass, folding the
//!   measure column with the semiring's additive operation.
//!
//! Both kernels are monomorphized per semiring through
//! [`mpf_semiring::for_each_semiring`]: the inner loops see statically
//! known [`SemiringOps`] rather than a `match` per cell, so the simple
//! semirings compile to vectorizable straight-line code.
//!
//! Like the dense module, infeasibility is a fallback, never an error:
//! when the coordinate space overflows
//! [`mpf_storage::layout::MAX_SPARSE_COORD_CELLS`], a value falls outside
//! its inferred domain, or a side holds duplicate argument tuples (the
//! data is not functional — the hash operators define the semantics
//! then), the public operators run the hash implementations instead.
//! Unlike the dense kernels there is no support-exactness precondition:
//! the sparse join emits exactly the matching pairs and the sparse
//! marginalization collapses exactly the present coordinates, so the
//! output *rows* equal the hash operators' at any density (modulo row
//! and column order, which [`FunctionalRelation::function_eq`] ignores).
//!
//! The [`Factor`]-carrying entry points ([`join_factor`],
//! [`agg_factor`], [`materialize`]) let the inference layer chain
//! operators in sparse representation without materializing rows between
//! steps; conversions poll cancellation/deadline and count in
//! [`crate::ExecStats::sparse_converts`].

use std::borrow::Cow;

use mpf_semiring::{for_each_semiring, kernel::SemiringOps};
use mpf_storage::layout::grid_cells_wide;
use mpf_storage::sparse::{Factor, SparseFactor};
use mpf_storage::{FunctionalRelation, Schema, Value, VarId};

use crate::dense::{self, KernelMode, KERNEL_BLOCK};
use crate::limits::{ExecBudget, OpGuard};
use crate::trace::{OpRepr, SpanKind};
use crate::{ops, AlgebraError, ExecContext, Result};

/// Whether the sparse-tensor operators may be dispatched to, carried by
/// the planner config and the execution context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReprMode {
    /// Never use the sparse kernels: the hash operators' reference path.
    Off,
    /// Use the sparse kernels whenever the dense path does not apply and
    /// they accept the input (coordinate space within
    /// [`mpf_storage::layout::MAX_SPARSE_COORD_CELLS`], functional
    /// rows); the hash operators otherwise.
    #[default]
    Auto,
}

/// A borrowed operand in either non-dense representation. The kernels
/// only need schema, cardinality, per-variable domains, and a way to
/// emit `(permuted key, measure)` columns — both forms provide them
/// without materializing the other.
enum SideRef<'a> {
    Rows(&'a FunctionalRelation),
    Sparse(&'a SparseFactor),
}

impl<'a> SideRef<'a> {
    fn schema(&self) -> &Schema {
        match self {
            SideRef::Rows(r) => r.schema(),
            SideRef::Sparse(s) => s.schema(),
        }
    }

    fn len(&self) -> usize {
        match self {
            SideRef::Rows(r) => r.len(),
            SideRef::Sparse(s) => s.len(),
        }
    }

    /// Per-variable domain sizes in schema order: stored for a sparse
    /// factor, inferred (per-column max + 1) for a relation.
    fn domains(&self) -> Vec<u64> {
        match self {
            SideRef::Rows(r) => r.inferred_domains(),
            SideRef::Sparse(s) => s.domains().to_vec(),
        }
    }

    /// Linearize every row under a permuted axis order given by
    /// per-position multipliers, validating values against
    /// `doms_by_pos`. Returns keys (unsorted) parallel to the side's
    /// measure column, or `None` when a value falls outside its domain.
    fn permuted_keys(&self, mult: &[u64], doms_by_pos: &[u64]) -> Option<Vec<u64>> {
        let arity = self.schema().arity();
        let mut keys = Vec::with_capacity(self.len());
        let mut row_buf = vec![0 as Value; arity];
        match self {
            SideRef::Rows(rel) => {
                let vals = rel.values_col();
                for i in 0..rel.len() {
                    let row = &vals[i * arity..(i + 1) * arity];
                    keys.push(permute_row(row, mult, doms_by_pos)?);
                }
            }
            SideRef::Sparse(sp) => {
                for &coord in sp.coords() {
                    mpf_storage::layout::delinearize(coord, sp.strides(), &mut row_buf);
                    keys.push(permute_row(&row_buf, mult, doms_by_pos)?);
                }
            }
        }
        Some(keys)
    }

    fn measures(&self) -> &'a [f64] {
        match self {
            SideRef::Rows(r) => r.measures(),
            SideRef::Sparse(s) => s.values(),
        }
    }
}

/// Linearize one row under permuted-axis multipliers; `None` when a
/// value escapes its (possibly widened) domain.
#[inline]
fn permute_row(row: &[Value], mult: &[u64], doms_by_pos: &[u64]) -> Option<u64> {
    let mut key = 0u64;
    for (p, &v) in row.iter().enumerate() {
        if (v as u64) >= doms_by_pos[p] {
            return None;
        }
        key += v as u64 * mult[p];
    }
    Some(key)
}

/// Per-position multipliers realizing a permuted axis order: `axes` is
/// `(position in the side schema, domain)` in the *target* axis order;
/// the returned vector maps each schema position to its stride in the
/// permuted grid.
fn permuted_multipliers(arity: usize, axes: &[(usize, u64)]) -> Vec<u64> {
    let doms: Vec<u64> = axes.iter().map(|a| a.1).collect();
    let strides = mpf_storage::layout::strides_of(&doms);
    let mut mult = vec![0u64; arity];
    for (k, &(p, _)) in axes.iter().enumerate() {
        mult[p] = strides[k];
    }
    mult
}

/// Sort a keyed measure column by key (skipping the sort when the keys
/// are already ascending — every sparse-kernel output whose axis order
/// survives the permutation, and every odometer-ordered relation).
/// Returns `None` on duplicate keys: the side holds two rows with the
/// same argument tuple, so the data is not functional and the hash
/// operators define the semantics.
fn sort_keyed(keys: Vec<u64>, vals: &[f64]) -> Option<(Vec<u64>, Vec<f64>)> {
    if keys.windows(2).all(|w| w[0] < w[1]) {
        return Some((keys, vals.to_vec()));
    }
    // Sort (key, measure) pairs directly rather than through an index
    // permutation: one cache-friendly pass instead of two gathers.
    let mut pairs: Vec<(u64, f64)> = keys.into_iter().zip(vals.iter().copied()).collect();
    pairs.sort_unstable_by_key(|p| p.0);
    if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
        return None;
    }
    Some(pairs.into_iter().unzip())
}

/// [`ops::product_join`] dispatched three ways through the context's
/// [`DenseMode`](crate::DenseMode) and [`ReprMode`]: the dense odometer
/// kernel when the inputs are support-exact complete grids, else the
/// sparse sorted-merge kernel (which itself falls back to the hash join
/// on inputs it cannot take). This is the entry point for callers
/// outside the planner (the inference layer), whose operator calls never
/// pass through `choose_physical`.
pub fn join_auto(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
) -> Result<FunctionalRelation> {
    if dense::dense_join_applies(cx.dense_mode(), l, r) {
        return dense::join(cx, l, r);
    }
    match cx.repr_mode() {
        ReprMode::Auto => join(cx, l, r),
        ReprMode::Off => ops::product_join(cx, l, r),
    }
}

/// [`ops::group_by`] dispatched three ways through the context's
/// [`DenseMode`](crate::DenseMode) and [`ReprMode`].
pub fn agg_auto(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    if dense::dense_agg_applies(cx.dense_mode(), input) {
        return dense::agg(cx, input, group_vars);
    }
    match cx.repr_mode() {
        ReprMode::Auto => agg(cx, input, group_vars),
        ReprMode::Off => ops::group_by(cx, input, group_vars),
    }
}

/// Sparse product join: relinearize both sides to a shared-prefix axis
/// order and sorted-merge the runs. Function-identical to
/// [`ops::product_join`] (verified by `tests/repr_parity.rs`); falls
/// back to it when the coordinate space is infeasible or a side is not
/// functional. The output column order is `[shared, l-only, r-only]` —
/// a permutation of the hash join's union order; every operator is
/// schema-aware, so only the raw column layout differs.
pub fn join(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
) -> Result<FunctionalRelation> {
    cx.fault("sparse::join")?;
    match join_impl(cx, &SideRef::Rows(l), &SideRef::Rows(r))? {
        Some(sp) => {
            let rel = from_sparse(cx, sp)?;
            cx.record_join_ex(&[l, r], &rel, OpRepr::Sparse);
            cx.note_kernel_op(cx.kernel_mode());
            Ok(rel)
        }
        None => ops::product_join(cx, l, r),
    }
}

/// Sparse marginalization: relinearize to `[group, eliminated]` axis
/// order and collapse runs of equal group prefix. Function-identical to
/// [`ops::group_by`]; falls back to it on infeasibility.
pub fn agg(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    cx.fault("sparse::agg")?;
    for &v in group_vars {
        if !input.schema().contains(v) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    match agg_impl(cx, &SideRef::Rows(input), group_vars)? {
        Some(sp) => {
            let rel = from_sparse(cx, sp)?;
            cx.record_group_by_ex(&[input], &rel, OpRepr::Sparse);
            Ok(rel)
        }
        None => ops::group_by(cx, input, group_vars),
    }
}

/// Materialize a factor into a row-major relation, counting the
/// conversion (a move for [`Factor::Rows`]).
pub fn materialize(cx: &mut ExecContext<'_>, f: Factor) -> Result<FunctionalRelation> {
    match f {
        Factor::Rows(r) => Ok(r),
        Factor::Sparse(s) => {
            cx.fault("sparse::convert")?;
            cx.checkpoint()?;
            cx.note_sparse_convert();
            Ok(s.into_relation())
        }
        Factor::Dense(d) => {
            cx.fault("dense::convert")?;
            cx.checkpoint()?;
            cx.note_dense_convert();
            Ok(d.into_relation())
        }
    }
}

/// Borrow a factor as a row-major relation, converting (and counting)
/// when it is not already one.
fn as_relation<'a>(
    cx: &mut ExecContext<'_>,
    f: &'a Factor,
) -> Result<Cow<'a, FunctionalRelation>> {
    match f {
        Factor::Rows(r) => Ok(Cow::Borrowed(r)),
        Factor::Sparse(s) => {
            cx.fault("sparse::convert")?;
            cx.checkpoint()?;
            cx.note_sparse_convert();
            Ok(Cow::Owned(s.to_relation()))
        }
        Factor::Dense(d) => {
            cx.fault("dense::convert")?;
            cx.checkpoint()?;
            cx.note_dense_convert();
            Ok(Cow::Owned(d.to_relation()))
        }
    }
}

fn side_of(f: &Factor) -> Option<SideRef<'_>> {
    match f {
        Factor::Rows(r) => Some(SideRef::Rows(r)),
        Factor::Sparse(s) => Some(SideRef::Sparse(s)),
        Factor::Dense(_) => None,
    }
}

/// Product join over factors, staying in sparse representation when
/// both sides qualify (so inference chains pay no per-step
/// materialization); otherwise materializes and dispatches dense/hash.
pub fn join_factor(cx: &mut ExecContext<'_>, l: &Factor, r: &Factor) -> Result<Factor> {
    cx.fault("sparse::join")?;
    if let (Some(ls), Some(rs), ReprMode::Auto) = (side_of(l), side_of(r), cx.repr_mode()) {
        if let Some(sp) = join_impl(cx, &ls, &rs)? {
            cx.record_factor_op(
                SpanKind::Join,
                &[l.len() as u64, r.len() as u64],
                sp.len() as u64,
                sp.schema().arity(),
                OpRepr::Sparse,
            );
            cx.note_kernel_op(cx.kernel_mode());
            return Ok(Factor::Sparse(sp));
        }
    }
    let lr = as_relation(cx, l)?;
    let rr = as_relation(cx, r)?;
    let rel = if dense::dense_join_applies(cx.dense_mode(), &lr, &rr) {
        dense::join(cx, &lr, &rr)?
    } else {
        ops::product_join(cx, &lr, &rr)?
    };
    Ok(Factor::Rows(rel))
}

/// Marginalization over a factor, staying in sparse representation when
/// the input qualifies.
pub fn agg_factor(
    cx: &mut ExecContext<'_>,
    f: &Factor,
    group_vars: &[VarId],
) -> Result<Factor> {
    cx.fault("sparse::agg")?;
    for &v in group_vars {
        if !f.schema().contains(v) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    if let (Some(side), ReprMode::Auto) = (side_of(f), cx.repr_mode()) {
        if let Some(sp) = agg_impl(cx, &side, group_vars)? {
            cx.record_factor_op(
                SpanKind::GroupBy,
                &[f.len() as u64],
                sp.len() as u64,
                sp.schema().arity(),
                OpRepr::Sparse,
            );
            return Ok(Factor::Sparse(sp));
        }
    }
    let fr = as_relation(cx, f)?;
    let rel = if dense::dense_agg_applies(cx.dense_mode(), &fr) {
        dense::agg(cx, &fr, group_vars)?
    } else {
        ops::group_by(cx, &fr, group_vars)?
    };
    Ok(Factor::Rows(rel))
}

/// Materialize a sparse kernel output back into rows (ascending
/// coordinate order), counting the conversion.
fn from_sparse(cx: &mut ExecContext<'_>, sp: SparseFactor) -> Result<FunctionalRelation> {
    cx.fault("sparse::convert")?;
    cx.checkpoint()?;
    cx.note_sparse_convert();
    Ok(sp.into_relation())
}

/// Build one side's sorted `(key, value)` columns for a `[shared, own]`
/// permuted axis order; counts a conversion when the side was row-major.
/// `None` on out-of-domain values or duplicate argument tuples.
#[allow(clippy::type_complexity)]
fn keyed_side(
    cx: &mut ExecContext<'_>,
    side: &SideRef<'_>,
    axes: &[(usize, u64)],
    doms_by_pos: &[u64],
) -> Result<Option<(Vec<u64>, Vec<f64>)>> {
    cx.fault("sparse::convert")?;
    cx.checkpoint()?;
    let arity = side.schema().arity();
    let mult = permuted_multipliers(arity, axes);
    let Some(keys) = side.permuted_keys(&mult, doms_by_pos) else {
        return Ok(None);
    };
    if matches!(side, SideRef::Rows(_)) {
        cx.note_sparse_convert();
    }
    Ok(sort_keyed(keys, side.measures()))
}

fn join_impl(
    cx: &mut ExecContext<'_>,
    l: &SideRef<'_>,
    r: &SideRef<'_>,
) -> Result<Option<SparseFactor>> {
    let shared_schema = l.schema().intersect(r.schema());
    let shared: &[VarId] = shared_schema.vars();
    let l_own = l.schema().difference(shared);
    let r_own = r.schema().difference(shared);
    let (ld, rd) = (l.domains(), r.domains());
    let dom_of = |s: &SideRef<'_>, d: &[u64], v: VarId| -> u64 {
        s.schema().position(v).ok().map_or(0, |p| d[p])
    };
    // A shared variable indexes through the wider of the two sides'
    // domains, so the prefix coordinates agree across sides.
    let shared_doms: Vec<u64> = shared
        .iter()
        .map(|&v| dom_of(l, &ld, v).max(dom_of(r, &rd, v)))
        .collect();
    let l_own_doms: Vec<u64> = l_own.iter().map(|v| dom_of(l, &ld, v)).collect();
    let r_own_doms: Vec<u64> = r_own.iter().map(|v| dom_of(r, &rd, v)).collect();

    let out_vars: Vec<VarId> = shared
        .iter()
        .copied()
        .chain(l_own.iter())
        .chain(r_own.iter())
        .collect();
    let out_doms: Vec<u64> = shared_doms
        .iter()
        .chain(&l_own_doms)
        .chain(&r_own_doms)
        .copied()
        .collect();
    if grid_cells_wide(&out_doms).is_none() {
        return Ok(None);
    }
    let a_own_cells = grid_cells_wide(&l_own_doms).expect("subproduct of feasible grid");
    let b_own_cells = grid_cells_wide(&r_own_doms).expect("subproduct of feasible grid");

    // Axis order per side: shared variables first (in the shared
    // schema's order on both sides), then the side's own variables.
    let side_axes = |s: &SideRef<'_>, own: &Schema, own_doms: &[u64]| -> Vec<(usize, u64)> {
        shared
            .iter()
            .zip(&shared_doms)
            .map(|(&v, &d)| (s.schema().position(v).expect("shared var"), d))
            .chain(
                own.iter()
                    .zip(own_doms)
                    .map(|(v, &d)| (s.schema().position(v).expect("own var"), d)),
            )
            .collect()
    };
    let doms_by_pos = |s: &SideRef<'_>, axes: &[(usize, u64)]| -> Vec<u64> {
        let mut doms = vec![0u64; s.schema().arity()];
        for &(p, d) in axes {
            doms[p] = d;
        }
        doms
    };
    let la = side_axes(l, &l_own, &l_own_doms);
    let Some((a_keys, a_vals)) = keyed_side(cx, l, &la, &doms_by_pos(l, &la))? else {
        return Ok(None);
    };
    let ra = side_axes(r, &r_own, &r_own_doms);
    let Some((b_keys, b_vals)) = keyed_side(cx, r, &ra, &doms_by_pos(r, &ra))? else {
        return Ok(None);
    };

    let out_schema = Schema::new(out_vars)?;
    let sr = cx.semiring();
    let budget = cx.budget();
    let arity = out_schema.arity();
    let mode = cx.kernel_mode();
    let (coords, values) = for_each_semiring!(
        sr,
        join_kernel(
            &a_keys,
            &a_vals,
            &b_keys,
            &b_vals,
            a_own_cells,
            b_own_cells,
            budget,
            arity,
            mode,
        )
    )?;
    let name = format!("({}⨝*{})", l_name(l), l_name(r));
    Ok(Some(SparseFactor::from_sorted_parts(
        name, out_schema, out_doms, coords, values,
    )))
}

fn l_name<'a>(s: &SideRef<'a>) -> &'a str {
    match s {
        SideRef::Rows(r) => r.name(),
        SideRef::Sparse(sp) => sp.name(),
    }
}

fn agg_impl(
    cx: &mut ExecContext<'_>,
    input: &SideRef<'_>,
    group_vars: &[VarId],
) -> Result<Option<SparseFactor>> {
    let doms = input.domains();
    let schema = input.schema();
    let gpos: Vec<usize> = group_vars
        .iter()
        .map(|&v| schema.position(v).expect("validated"))
        .collect();
    let group_doms: Vec<u64> = gpos.iter().map(|&p| doms[p]).collect();
    let elim: Vec<(usize, u64)> = schema
        .iter()
        .enumerate()
        .filter(|(_, v)| !group_vars.contains(v))
        .map(|(p, _)| (p, doms[p]))
        .collect();
    let all_doms: Vec<u64> = group_doms
        .iter()
        .copied()
        .chain(elim.iter().map(|e| e.1))
        .collect();
    if grid_cells_wide(&all_doms).is_none() {
        return Ok(None);
    }
    let elim_doms: Vec<u64> = elim.iter().map(|e| e.1).collect();
    let elim_cells = grid_cells_wide(&elim_doms).expect("subproduct of feasible grid");

    let axes: Vec<(usize, u64)> = gpos
        .iter()
        .zip(&group_doms)
        .map(|(&p, &d)| (p, d))
        .chain(elim.iter().copied())
        .collect();
    let doms_by_pos = {
        let mut d = vec![0u64; schema.arity()];
        for &(p, dom) in &axes {
            d[p] = dom;
        }
        d
    };
    let out_schema = Schema::new(group_vars.to_vec())?;
    let sr = cx.semiring();
    let name = format!("γ({})", l_name(input));

    // Scatter fast path: when the group grid is small enough for a direct
    // accumulator array, fold each input cell straight into its group
    // slot. No full permuted key, no sort of the eliminated axes, no
    // per-element division — the dominant costs of the merge path when
    // the group order disagrees with the input's axis order.
    let group_cells = grid_cells_wide(&group_doms).expect("subproduct of feasible grid");
    if scatter_agg_applies(group_cells, input.len()) {
        cx.fault("sparse::convert")?;
        cx.checkpoint()?;
        let gaxes: Vec<(usize, u64)> = gpos.iter().zip(&group_doms).map(|(&p, &d)| (p, d)).collect();
        let gmult = permuted_multipliers(schema.arity(), &gaxes);
        let Some(gkeys) = input.permuted_keys(&gmult, &doms_by_pos) else {
            return Ok(None);
        };
        if matches!(input, SideRef::Rows(_)) {
            cx.note_sparse_convert();
        }
        let budget = cx.budget();
        let arity = out_schema.arity();
        let (coords, values) = for_each_semiring!(
            sr,
            agg_scatter_kernel(&gkeys, input.measures(), group_cells, budget, arity)
        )?;
        return Ok(Some(SparseFactor::from_sorted_parts(
            name, out_schema, group_doms, coords, values,
        )));
    }

    let Some((keys, vals)) = keyed_side(cx, input, &axes, &doms_by_pos)? else {
        return Ok(None);
    };
    let budget = cx.budget();
    let arity = out_schema.arity();
    let (coords, values) =
        for_each_semiring!(sr, agg_kernel(&keys, &vals, elim_cells, budget, arity))?;
    Ok(Some(SparseFactor::from_sorted_parts(
        name, out_schema, group_doms, coords, values,
    )))
}

/// Sorted-merge join kernel over permuted key columns. Runs of equal
/// shared prefix (`key / own_cells`) pair up; each output coordinate is
/// `a_key * b_own_cells + b_own_index`, ascending by construction.
/// Monomorphized per semiring so the inner multiply is a static op.
///
/// [`KernelMode::Chunked`] emits each `(a row × b run)` value column in
/// [`KERNEL_BLOCK`]-sized `extend` strides — a straight-line multiply of
/// the b value column by a scalar, which autovectorizes — charging the
/// budget once per block via [`OpGuard::produced_many`]. The multiply is
/// elementwise, so scalar and chunked outputs are bit-identical.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn join_kernel<S: SemiringOps>(
    a_keys: &[u64],
    a_vals: &[f64],
    b_keys: &[u64],
    b_vals: &[f64],
    a_own_cells: u64,
    b_own_cells: u64,
    budget: Option<&ExecBudget>,
    arity: usize,
    mode: KernelMode,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let mut out_keys: Vec<u64> = Vec::with_capacity(a_keys.len().max(b_keys.len()));
    let mut out_vals: Vec<f64> = Vec::with_capacity(out_keys.capacity());
    // Hoist the per-element divisions: the b side's within-run offsets
    // (the merge then only adds) and both sides' shared prefixes (the
    // run-detection loops then compare precomputed integers).
    let b_own: Vec<u64> = b_keys.iter().map(|&k| k % b_own_cells).collect();
    let a_shared: Vec<u64> = a_keys.iter().map(|&k| k / a_own_cells).collect();
    let b_shared: Vec<u64> = b_keys.iter().map(|&k| k / b_own_cells).collect();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a_keys.len() && j < b_keys.len() {
        guard.poll()?;
        let sa = a_shared[i];
        let sb = b_shared[j];
        if sa < sb {
            i += 1;
            continue;
        }
        if sb < sa {
            j += 1;
            continue;
        }
        let mut ia = i + 1;
        while ia < a_keys.len() && a_shared[ia] == sa {
            ia += 1;
        }
        let mut jb = j + 1;
        while jb < b_keys.len() && b_shared[jb] == sb {
            jb += 1;
        }
        for ai in i..ia {
            let base = a_keys[ai] * b_own_cells;
            let va = a_vals[ai];
            match mode {
                KernelMode::Scalar => {
                    for bj in j..jb {
                        guard.poll()?;
                        out_keys.push(base + b_own[bj]);
                        out_vals.push(S::mul(va, b_vals[bj]));
                        guard.produced()?;
                    }
                }
                KernelMode::Chunked => {
                    let mut t = j;
                    while t < jb {
                        guard.poll()?;
                        let blk = (jb - t).min(KERNEL_BLOCK);
                        out_keys.extend(b_own[t..t + blk].iter().map(|&o| base + o));
                        out_vals.extend(b_vals[t..t + blk].iter().map(|&vb| S::mul(va, vb)));
                        guard.produced_many(blk as u64)?;
                        t += blk;
                    }
                }
            }
        }
        i = ia;
        j = jb;
    }
    guard.finish()?;
    Ok((out_keys, out_vals))
}

/// Coordinate-collapse marginalization kernel: one pass over the sorted
/// permuted keys, folding each run of equal group prefix
/// (`key / elim_cells`) with the static additive op. The accumulator is
/// validated once per output cell, like the dense kernel (an invalid
/// intermediate can only end in an invalid final value).
fn agg_kernel<S: SemiringOps>(
    keys: &[u64],
    vals: &[f64],
    elim_cells: u64,
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let mut out_keys: Vec<u64> = Vec::new();
    let mut out_vals: Vec<f64> = Vec::new();
    let mut i = 0usize;
    while i < keys.len() {
        guard.poll()?;
        let g = keys[i] / elim_cells;
        let mut acc = vals[i];
        let mut j = i + 1;
        while j < keys.len() && keys[j] / elim_cells == g {
            acc = S::add(acc, vals[j]);
            j += 1;
        }
        if !S::KIND.is_valid_accumulation(acc) {
            return Err(AlgebraError::NonFiniteMeasure {
                op: "sparse::agg",
                value: acc,
            });
        }
        out_keys.push(g);
        out_vals.push(acc);
        guard.produced()?;
        i = j;
    }
    guard.finish()?;
    Ok((out_keys, out_vals))
}

/// Accumulator-array cap for the scatter marginalization: past this the
/// zero-fill and cache misses of the array outweigh the sort it avoids.
const SCATTER_MAX_CELLS: u64 = 1 << 22;

/// Whether the scatter path's accumulator array is worth allocating:
/// the group grid must fit the cap and not dwarf the input (zeroing a
/// grid much larger than the data costs more than sorting the data).
fn scatter_agg_applies(group_cells: u64, input_len: usize) -> bool {
    group_cells <= SCATTER_MAX_CELLS && group_cells <= 8 * (input_len as u64).max(512)
}

/// Scatter marginalization kernel: each input cell folds directly into
/// its group coordinate's accumulator slot; touched coordinates are
/// collected and sorted at the end (at most `min(group_cells, n)` of
/// them — far fewer than the `n` full keys the merge path sorts).
/// Duplicate argument tuples fold together here, exactly as the hash
/// aggregate treats them (the merge path instead refuses and falls
/// back — either way the answer is the hash operators').
fn agg_scatter_kernel<S: SemiringOps>(
    gkeys: &[u64],
    vals: &[f64],
    group_cells: u64,
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let mut acc = vec![0.0f64; group_cells as usize];
    let mut seen = vec![false; group_cells as usize];
    let mut touched: Vec<u64> = Vec::new();
    for (&g, &v) in gkeys.iter().zip(vals) {
        guard.poll()?;
        let gi = g as usize;
        if seen[gi] {
            acc[gi] = S::add(acc[gi], v);
        } else {
            seen[gi] = true;
            acc[gi] = v;
            touched.push(g);
        }
    }
    touched.sort_unstable();
    let mut out_vals = Vec::with_capacity(touched.len());
    for &g in &touched {
        let v = acc[g as usize];
        if !S::KIND.is_valid_accumulation(v) {
            return Err(AlgebraError::NonFiniteMeasure {
                op: "sparse::agg",
                value: v,
            });
        }
        out_vals.push(v);
        guard.produced()?;
    }
    guard.finish()?;
    Ok((touched, out_vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_semiring::SemiringKind;
    use mpf_storage::Catalog;

    fn fixtures() -> (Catalog, FunctionalRelation, FunctionalRelation) {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 6).unwrap();
        let b = cat.add_var("b", 5).unwrap();
        let c = cat.add_var("c", 4).unwrap();
        // Partial relations (~40% density) with interleaved support so
        // the merge hits both matching and non-matching runs.
        let l = FunctionalRelation::from_rows(
            "l",
            Schema::new(vec![a, b]).unwrap(),
            (0..30u32)
                .filter(|i| i % 5 != 1 && i % 7 != 2)
                .map(|i| (vec![i / 5, i % 5], 1.0 + i as f64)),
        )
        .unwrap();
        let r = FunctionalRelation::from_rows(
            "r",
            Schema::new(vec![b, c]).unwrap(),
            (0..20u32)
                .filter(|i| i % 3 != 0)
                .map(|i| (vec![i / 4, i % 4], 0.5 + i as f64)),
        )
        .unwrap();
        (cat, l, r)
    }

    #[test]
    fn sparse_join_matches_hash_join() {
        let (_, l, r) = fixtures();
        for sr in SemiringKind::ALL {
            let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
            let mut cx = ExecContext::new(sr);
            let got = join(&mut cx, &l, &r).unwrap();
            assert_eq!(cx.stats().sparse_joins, 1, "{sr:?} took the sparse path");
            assert!(want.function_eq(&got), "{sr:?}");
        }
    }

    #[test]
    fn sparse_agg_matches_group_by() {
        let (cat, l, _) = fixtures();
        let a = cat.var("a").unwrap();
        let b = cat.var("b").unwrap();
        for sr in SemiringKind::ALL {
            for gv in [vec![a], vec![b, a], vec![]] {
                let want = ops::group_by(&mut ExecContext::new(sr), &l, &gv).unwrap();
                let mut cx = ExecContext::new(sr);
                let got = agg(&mut cx, &l, &gv).unwrap();
                assert_eq!(cx.stats().sparse_group_bys, 1, "{sr:?} {gv:?}");
                assert!(want.function_eq(&got), "{sr:?} {gv:?}");
            }
        }
    }

    #[test]
    fn disjoint_schemas_cross_product() {
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 3).unwrap();
        let y = cat.add_var("y", 3).unwrap();
        let l = FunctionalRelation::from_rows(
            "l",
            Schema::new(vec![x]).unwrap(),
            [(vec![0], 2.0), (vec![2], 3.0)],
        )
        .unwrap();
        let r = FunctionalRelation::from_rows(
            "r",
            Schema::new(vec![y]).unwrap(),
            [(vec![1], 5.0), (vec![2], 7.0)],
        )
        .unwrap();
        let sr = SemiringKind::SumProduct;
        let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
        let got = join(&mut ExecContext::new(sr), &l, &r).unwrap();
        assert_eq!(got.len(), 4);
        assert!(want.function_eq(&got));
    }

    #[test]
    fn non_functional_input_falls_back_to_hash() {
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 3).unwrap();
        let schema = Schema::new(vec![x]).unwrap();
        let mut dup = FunctionalRelation::new("d", schema.clone());
        dup.push_row(&[1], 1.0).unwrap();
        dup.push_row(&[1], 2.0).unwrap();
        let mut other = FunctionalRelation::new("o", schema);
        other.push_row(&[1], 10.0).unwrap();
        let sr = SemiringKind::SumProduct;
        let want = ops::product_join(&mut ExecContext::new(sr), &dup, &other).unwrap();
        let mut cx = ExecContext::new(sr);
        let got = join(&mut cx, &dup, &other).unwrap();
        assert_eq!(cx.stats().sparse_joins, 0, "fell back");
        assert_eq!(cx.stats().joins, 1);
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn wide_grids_join_sparse_where_dense_cannot() {
        // A 2^13 × 2^13 coordinate space is beyond MAX_DENSE_CELLS but
        // fine for the sparse kernels.
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 1 << 13).unwrap();
        let y = cat.add_var("y", 1 << 13).unwrap();
        let mut l = FunctionalRelation::new("l", Schema::new(vec![x]).unwrap());
        l.push_row(&[(1 << 13) - 1], 2.0).unwrap();
        let mut r = FunctionalRelation::new("r", Schema::new(vec![x, y]).unwrap());
        r.push_row(&[(1 << 13) - 1, (1 << 13) - 1], 3.0).unwrap();
        r.push_row(&[0, 5], 11.0).unwrap();
        let sr = SemiringKind::SumProduct;
        let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
        let mut cx = ExecContext::new(sr);
        let got = join(&mut cx, &l, &r).unwrap();
        assert_eq!(cx.stats().sparse_joins, 1);
        assert!(want.function_eq(&got));
    }

    #[test]
    fn factor_chain_stays_sparse() {
        let (cat, l, r) = fixtures();
        let b = cat.var("b").unwrap();
        let c = cat.var("c").unwrap();
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::new(sr).with_repr(ReprMode::Auto);
        let lf = Factor::from(l.clone());
        let rf = Factor::from(r.clone());
        let joined = join_factor(&mut cx, &lf, &rf).unwrap();
        assert_eq!(joined.repr_name(), "sparse");
        let marg = agg_factor(&mut cx, &joined, &[b, c]).unwrap();
        assert_eq!(marg.repr_name(), "sparse");
        assert_eq!(cx.stats().sparse_joins, 1);
        assert_eq!(cx.stats().sparse_group_bys, 1);
        let got = materialize(&mut cx, marg).unwrap();
        let wj = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
        let want = ops::group_by(&mut ExecContext::new(sr), &wj, &[b, c]).unwrap();
        assert!(want.function_eq(&got));
    }

    #[test]
    fn auto_dispatch_takes_sparse_whenever_feasible() {
        // One present row in a 2^20-cell grid (density ~1e-6): Auto runs
        // the sparse kernel, Off the hash operator.
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 1 << 10).unwrap();
        let y = cat.add_var("y", 1 << 10).unwrap();
        let mut thin = FunctionalRelation::new("t", Schema::new(vec![x, y]).unwrap());
        thin.push_row(&[1023, 1023], 1.0).unwrap();
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::new(sr);
        let got = agg_auto(&mut cx, &thin, &[x]).unwrap();
        assert_eq!(cx.stats().sparse_group_bys, 1, "sparse path at any density");
        assert_eq!(got.len(), 1);
        let mut off = ExecContext::new(sr).with_repr(ReprMode::Off);
        let want = agg_auto(&mut off, &thin, &[x]).unwrap();
        assert_eq!(off.stats().sparse_group_bys, 0, "Off stays on hash");
        assert!(want.function_eq(&got));
    }

    #[test]
    fn budget_trips_like_hash() {
        let (_, l, r) = fixtures();
        let sr = SemiringKind::SumProduct;
        let limits = crate::ExecLimits::none().with_max_output_rows(10);
        let err = join(&mut ExecContext::with_limits(sr, limits.clone()), &l, &r).unwrap_err();
        let hash_err =
            ops::product_join(&mut ExecContext::with_limits(sr, limits), &l, &r).unwrap_err();
        assert_eq!(err, hash_err);
    }

    #[test]
    fn agg_rejects_invalid_accumulation() {
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 2).unwrap();
        let y = cat.add_var("y", 2).unwrap();
        let rel = FunctionalRelation::from_rows(
            "r",
            Schema::new(vec![x, y]).unwrap(),
            [
                (vec![0, 0], f64::MAX),
                (vec![0, 1], f64::MAX),
                (vec![1, 0], 1.0),
            ],
        )
        .unwrap();
        let err = agg(&mut ExecContext::new(SemiringKind::SumProduct), &rel, &[x]).unwrap_err();
        assert!(matches!(err, AlgebraError::NonFiniteMeasure { op: "sparse::agg", .. }));
    }

    #[test]
    fn mode_defaults_to_auto() {
        assert_eq!(ReprMode::default(), ReprMode::Auto);
    }
}
