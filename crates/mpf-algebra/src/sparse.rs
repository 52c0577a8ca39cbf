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
//! * [`join_agg`] is the two as one elimination step: it walks
//!   [`join`]'s merge but folds each pair straight into its group
//!   (streaming when the group variables can lead the merge order,
//!   through a direct-address accumulator otherwise), so the join is
//!   never materialized — bit-identical to [`join`] then [`agg`].
//!
//! The kernels are monomorphized per semiring through
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
use std::sync::Arc;

use mpf_semiring::{for_each_semiring, kernel::SemiringOps};
use mpf_storage::layout::{grid_cells_wide, permute_row, permuted_multipliers};
use mpf_storage::sparse::{Factor, SparseFactor};
use mpf_storage::{FunctionalRelation, KeyedOrder, Schema, Value, VarId};

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
    let mark = cx.keyed_mark();
    match join_impl(cx, &SideRef::Rows(l), &SideRef::Rows(r))? {
        Some(sp) => {
            let rel = from_sparse(cx, sp)?;
            cx.record_join_ex(&[l, r], &rel, OpRepr::Sparse);
            cx.note_kernel_op(cx.kernel_mode());
            cx.tag_keyed_since(mark);
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
    let mark = cx.keyed_mark();
    match agg_impl(cx, &SideRef::Rows(input), group_vars)? {
        Some(sp) => {
            let rel = from_sparse(cx, sp)?;
            cx.record_group_by_ex(&[input], &rel, OpRepr::Sparse);
            cx.tag_keyed_since(mark);
            Ok(rel)
        }
        None => ops::group_by(cx, input, group_vars),
    }
}

/// Fused sparse join→marginalize: `GroupBy_X(l ⨝* r)` as one
/// elimination step. Both sides are keyed exactly as [`join`] keys them
/// and walked by the same run merge, but each join pair folds straight
/// into its group instead of being emitted:
///
/// * **stream** — when the group variables can lead the merge order
///   (each block `shared`, `l-own`, `r-own` may be permuted, the blocks
///   may not), the pairs of one group are contiguous and collapse inside
///   the merge loop in O(output) memory;
/// * **scatter** — else, when the group grid is small next to the
///   pre-counted join size (the rule [`agg`] scatters by), every pair
///   folds into the direct-address accumulator at `ga[i] + gb[j]`;
/// * **staged** — else the join factor is materialized and marginalized
///   in sparse form (the unfused pipeline minus its row round trip).
///
/// Every form folds each group's terms in ascending merge coordinate.
/// The eliminated variables keep their relative order in it, so that is
/// the order the unfused [`join`] → [`agg`] pipeline folds them on both
/// of its paths: the result is bit-identical to it, row order included.
/// Only the output is charged to the budget (and accounted as an
/// intermediate) unless the staged form runs. Falls back to the fused
/// hash operator ([`ops::join_group_by`]) on inputs [`join`] refuses.
pub fn join_agg(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    cx.fault("sparse::join_agg")?;
    for &v in group_vars {
        if !l.schema().contains(v) && !r.schema().contains(v) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    let mark = cx.keyed_mark();
    match join_agg_impl(cx, l, r, group_vars)? {
        Some((sp, form, staged_rows)) => {
            let rel = from_sparse(cx, sp)?;
            cx.record_join_agg_ex(&[l, r], &rel, OpRepr::Sparse);
            cx.note_intermediate(staged_rows);
            cx.note_fused_nest(form);
            cx.tag_keyed_since(mark);
            Ok(rel)
        }
        None => ops::join_group_by(cx, l, r, group_vars),
    }
}

/// Where the fused operators go when their own kernel declines: the
/// fused sparse kernel under [`ReprMode::Auto`], the fused hash operator
/// under [`ReprMode::Off`].
pub(crate) fn join_agg_fallback(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    match cx.repr_mode() {
        ReprMode::Auto => join_agg(cx, l, r, group_vars),
        ReprMode::Off => ops::join_group_by(cx, l, r, group_vars),
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
        let mark = cx.keyed_mark();
        if let Some(sp) = join_impl(cx, &ls, &rs)? {
            cx.record_factor_op(
                SpanKind::Join,
                &[l.len() as u64, r.len() as u64],
                sp.len() as u64,
                sp.schema().arity(),
                OpRepr::Sparse,
            );
            cx.note_kernel_op(cx.kernel_mode());
            cx.tag_keyed_since(mark);
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
        let mark = cx.keyed_mark();
        if let Some(sp) = agg_impl(cx, &side, group_vars)? {
            cx.record_factor_op(
                SpanKind::GroupBy,
                &[f.len() as u64],
                sp.len() as u64,
                sp.schema().arity(),
                OpRepr::Sparse,
            );
            cx.tag_keyed_since(mark);
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

/// One operand keyed for a kernel: its sorted keys under the requested
/// axis order and its measures in that order (borrowed when the rows
/// already ascend).
struct KeyedSide<'a> {
    order: Arc<KeyedOrder>,
    vals: Cow<'a, [f64]>,
}

impl KeyedSide<'_> {
    fn keys(&self) -> &[u64] {
        self.order.keys()
    }
}

/// Key one side over `axes` (`(schema position, domain)`, slowest
/// first); counts a conversion when the side was row-major. A relation
/// answers through [`FunctionalRelation::keyed_order`], so a stored one
/// is linearized and sorted once, not per query. `None` on out-of-domain
/// values or duplicate argument tuples.
fn keyed_side<'a>(
    cx: &mut ExecContext<'_>,
    side: &SideRef<'a>,
    axes: &[(usize, u64)],
) -> Result<Option<KeyedSide<'a>>> {
    cx.fault("sparse::convert")?;
    cx.checkpoint()?;
    let order = match side {
        SideRef::Rows(rel) => {
            cx.note_sparse_convert();
            let Some((order, source)) = rel.keyed_order(axes) else {
                return Ok(None);
            };
            cx.note_keyed(source);
            order
        }
        SideRef::Sparse(_) => {
            let arity = side.schema().arity();
            let mut doms_by_pos = vec![0u64; arity];
            for &(p, d) in axes {
                doms_by_pos[p] = d;
            }
            let mult = permuted_multipliers(arity, axes);
            match side
                .permuted_keys(&mult, &doms_by_pos)
                .and_then(KeyedOrder::from_keys)
            {
                Some(order) => Arc::new(order),
                None => return Ok(None),
            }
        }
    };
    let vals = order.gather(side.measures());
    Ok(Some(KeyedSide { order, vals }))
}

/// Both join operands keyed for the sorted merge: the merge axis order is
/// `[shared, l-own, r-own]`, side `a` (left) is keyed on `[shared,
/// l-own]` and side `b` (right) on `[shared, r-own]`, each sorted
/// ascending. Rows agreeing on every shared variable form runs of equal
/// `key / own_cells`, and `a_key * b_own_cells + b_key % b_own_cells` is
/// the pair's coordinate in the merge grid.
struct KeyedPair<'a> {
    /// Merge-order variables and their domains (shared variables index
    /// through the wider of the two sides' inferred domains).
    vars: Vec<VarId>,
    doms: Vec<u64>,
    /// How many leading merge axes are shared / belong to side `a`.
    n_shared: usize,
    n_a: usize,
    a: KeyedSide<'a>,
    b: KeyedSide<'a>,
    a_own_cells: u64,
    b_own_cells: u64,
}

/// One matching pair of shared-prefix runs: rows `a.0..a.1` of the left
/// keyed column and `b.0..b.1` of the right agree on every shared
/// variable, so each of their cross pairs is one join row.
type RunPair = ((usize, usize), (usize, usize));

impl KeyedPair<'_> {
    /// The matching runs, in ascending shared-prefix order — the merge
    /// both join forms walk. A key's shared prefix `s` is `key /
    /// own_cells`, so its run ends at the first key `>= (s + 1) *
    /// own_cells`: one division per step of the merge, none per row.
    fn runs(&self) -> Vec<RunPair> {
        let (a, b) = (self.a.keys(), self.b.keys());
        let (ca, cb) = (self.a_own_cells, self.b_own_cells);
        // The first index at or after `i` whose key reaches `bound`.
        let skip = |keys: &[u64], i: usize, bound: u64| {
            i + keys[i..].iter().take_while(|&&k| k < bound).count()
        };
        let mut runs = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (sa, sb) = (a[i] / ca, b[j] / cb);
            if sa < sb {
                i = skip(a, i, sb * ca);
            } else if sb < sa {
                j = skip(b, j, sa * cb);
            } else {
                let (ia, jb) = (skip(a, i, (sa + 1) * ca), skip(b, j, (sb + 1) * cb));
                runs.push(((i, ia), (j, jb)));
                (i, j) = (ia, jb);
            }
        }
        runs
    }

    /// The domains of `group_vars`, in that order.
    fn group_doms(&self, group_vars: &[VarId]) -> Vec<u64> {
        group_vars
            .iter()
            .map(|v| self.doms[self.vars.iter().position(|w| w == v).expect("group var in join")])
            .collect()
    }
}

/// Key both sides for the sorted merge. With `group_vars` (an
/// elimination step), the group variables lead each block (`shared`,
/// `l-own`, `r-own`) in output order while the eliminated ones keep
/// their schema order; the blocks themselves always stay in that order. `None`
/// when the coordinate space overflows, a value escapes its domain, or a
/// side holds duplicate argument tuples.
fn keyed_pair<'a>(
    cx: &mut ExecContext<'_>,
    l: &SideRef<'a>,
    r: &SideRef<'a>,
    group_vars: Option<&[VarId]>,
) -> Result<Option<KeyedPair<'a>>> {
    let rank = |v: VarId| group_vars.and_then(|gv| gv.iter().position(|&g| g == v));
    // A stable sort: eliminated variables keep their relative order,
    // which is what keeps an elimination step's fold order the unfused
    // pipeline's.
    let order = |mut vars: Vec<VarId>| {
        vars.sort_by_key(|&v| rank(v).unwrap_or(usize::MAX));
        vars
    };
    let shared_schema = l.schema().intersect(r.schema());
    let shared = order(shared_schema.vars().to_vec());
    let l_own = order(l.schema().difference(&shared).vars().to_vec());
    let r_own = order(r.schema().difference(&shared).vars().to_vec());
    let (ld, rd) = (l.domains(), r.domains());
    let dom_of = |s: &SideRef<'_>, d: &[u64], v: VarId| -> u64 {
        s.schema().position(v).ok().map_or(0, |p| d[p])
    };
    // A shared variable indexes through the wider of the two sides'
    // domains, so the prefix coordinates agree across sides.
    let doms: Vec<u64> = shared
        .iter()
        .map(|&v| dom_of(l, &ld, v).max(dom_of(r, &rd, v)))
        .chain(l_own.iter().map(|&v| dom_of(l, &ld, v)))
        .chain(r_own.iter().map(|&v| dom_of(r, &rd, v)))
        .collect();
    if grid_cells_wide(&doms).is_none() {
        return Ok(None);
    }
    let (n_shared, n_a) = (shared.len(), shared.len() + l_own.len());
    let a_own_cells = grid_cells_wide(&doms[n_shared..n_a]).expect("subproduct of feasible grid");
    let b_own_cells = grid_cells_wide(&doms[n_a..]).expect("subproduct of feasible grid");
    let vars: Vec<VarId> = shared.into_iter().chain(l_own).chain(r_own).collect();

    // Axis order per side: the shared block, then the side's own block.
    let side_axes = |s: &SideRef<'_>, own: std::ops::Range<usize>| -> Vec<(usize, u64)> {
        (0..n_shared)
            .chain(own)
            .map(|k| (s.schema().position(vars[k]).expect("side var"), doms[k]))
            .collect()
    };
    let Some(a) = keyed_side(cx, l, &side_axes(l, n_shared..n_a))? else {
        return Ok(None);
    };
    let Some(b) = keyed_side(cx, r, &side_axes(r, n_a..vars.len()))? else {
        return Ok(None);
    };
    Ok(Some(KeyedPair {
        vars,
        doms,
        n_shared,
        n_a,
        a,
        b,
        a_own_cells,
        b_own_cells,
    }))
}

fn join_impl(
    cx: &mut ExecContext<'_>,
    l: &SideRef<'_>,
    r: &SideRef<'_>,
) -> Result<Option<SparseFactor>> {
    let Some(kp) = keyed_pair(cx, l, r, None)? else {
        return Ok(None);
    };
    let name = format!("({}⨝*{})", l_name(l), l_name(r));
    join_keyed(cx, name, kp).map(Some)
}

/// Run the sorted-merge join kernel over a keyed pair: the join factor
/// in merge axis order.
fn join_keyed(cx: &ExecContext<'_>, name: String, kp: KeyedPair<'_>) -> Result<SparseFactor> {
    let out_schema = Schema::new(kp.vars.clone())?;
    let runs = kp.runs();
    let (coords, values) = for_each_semiring!(
        cx.semiring(),
        join_kernel(&kp, &runs, cx.budget(), out_schema.arity(), cx.kernel_mode())
    )?;
    Ok(SparseFactor::from_sorted_parts(
        name, out_schema, kp.doms, coords, values,
    ))
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
        let Some(gkeys) = input.permuted_keys(&gmult, &doms) else {
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

    let Some(side) = keyed_side(cx, input, &axes)? else {
        return Ok(None);
    };
    let budget = cx.budget();
    let arity = out_schema.arity();
    let (coords, values) =
        for_each_semiring!(sr, agg_kernel(side.keys(), &side.vals, elim_cells, budget, arity))?;
    Ok(Some(SparseFactor::from_sorted_parts(
        name, out_schema, group_doms, coords, values,
    )))
}

/// [`join_agg`] body: the marginal, the form that ran (`stream`,
/// `scatter` or `staged`), and the join rows the staged form
/// materialized (0 otherwise). `None` where [`join`] would fall back.
fn join_agg_impl(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<Option<(SparseFactor, &'static str, u64)>> {
    let Some(kp) = keyed_pair(cx, &SideRef::Rows(l), &SideRef::Rows(r), Some(group_vars))? else {
        return Ok(None);
    };
    let name = format!("γ(({}⨝*{}))", l.name(), r.name());
    let out_schema = Schema::new(group_vars.to_vec())?;
    let group_doms = kp.group_doms(group_vars);
    let group_cells = grid_cells_wide(&group_doms).expect("subproduct of feasible grid");
    let runs = kp.runs();

    // Each pair's output coordinate splits into a left part (shared and
    // left-own group axes) and a right part (right-own group axes).
    let group_strides = mpf_storage::layout::strides_of(&group_doms);
    let rank = |v: &VarId| group_vars.iter().position(|g| g == v);
    let axis = |k: usize| (kp.doms[k], rank(&kp.vars[k]).map_or(0, |g| group_strides[g]));
    let a_axes: Vec<(u64, u64)> = (0..kp.n_a).map(axis).collect();
    let b_axes: Vec<(u64, u64)> = (0..kp.n_shared)
        .map(|k| (kp.doms[k], 0))
        .chain((kp.n_a..kp.vars.len()).map(axis))
        .collect();
    let ga = regroup(kp.a.keys(), &a_axes);
    let gb = regroup(kp.b.keys(), &b_axes);

    let join_len: usize = runs.iter().map(|&((i, ia), (j, jb))| (ia - i) * (jb - j)).sum();
    let streams = kp.vars[..group_vars.len()].iter().all(|v| group_vars.contains(v));
    let (sr, budget, arity) = (cx.semiring(), cx.budget(), out_schema.arity());
    let (form, (coords, values)) = if streams {
        let (coords, values) =
            for_each_semiring!(sr, join_agg_stream_kernel(&kp, &runs, &ga, &gb, budget, arity))?;
        // Ascending already when the output order is the merge order.
        let order = KeyedOrder::from_keys(coords).expect("one run per group");
        let values = order.gather(&values).into_owned();
        ("stream", (order.into_keys(), values))
    } else if scatter_agg_applies(group_cells, join_len) {
        let parts = for_each_semiring!(
            sr,
            join_agg_scatter_kernel(&kp, &runs, &ga, &gb, group_cells, budget, arity)
        )?;
        ("scatter", parts)
    } else {
        let joined = join_keyed(cx, format!("({}⨝*{})", l.name(), r.name()), kp)?;
        return Ok(agg_impl(cx, &SideRef::Sparse(&joined), group_vars)?
            .map(|sp| (sp, "staged", joined.len() as u64)));
    };
    Ok(Some((
        SparseFactor::from_sorted_parts(name, out_schema, group_doms, coords, values),
        form,
        0,
    )))
}

/// Re-linearize keys onto another grid: the digit of each key on axis
/// `k` (of `axes[k].0` values, last axis fastest) contributes
/// `digit * axes[k].1`. Axes outside the weighted span cost nothing.
fn regroup(keys: &[u64], axes: &[(u64, u64)]) -> Vec<u64> {
    let (Some(lo), Some(hi)) = (
        axes.iter().position(|a| a.1 != 0),
        axes.iter().rposition(|a| a.1 != 0),
    ) else {
        return vec![0; keys.len()];
    };
    let tail: u64 = axes[hi + 1..].iter().map(|a| a.0).product();
    let span = &axes[lo..=hi];
    keys.iter()
        .map(|&key| {
            let mut rest = key / tail;
            let mut g = 0;
            for &(dom, weight) in span.iter().rev() {
                g += rest % dom * weight;
                rest /= dom;
            }
            g
        })
        .collect()
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
fn join_kernel<S: SemiringOps>(
    kp: &KeyedPair<'_>,
    runs: &[RunPair],
    budget: Option<&ExecBudget>,
    arity: usize,
    mode: KernelMode,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let (a_keys, b_keys) = (kp.a.keys(), kp.b.keys());
    let mut out_keys: Vec<u64> = Vec::with_capacity(a_keys.len().max(b_keys.len()));
    let mut out_vals: Vec<f64> = Vec::with_capacity(out_keys.capacity());
    // Hoist the per-element division: the b side's within-run offsets
    // (the merge then only adds).
    let b_own: Vec<u64> = b_keys.iter().map(|&k| k % kp.b_own_cells).collect();
    for &((i, ia), (j, jb)) in runs {
        for (&ak, &va) in a_keys[i..ia].iter().zip(&kp.a.vals[i..ia]) {
            let base = ak * kp.b_own_cells;
            match mode {
                KernelMode::Scalar => {
                    for (&o, &vb) in b_own[j..jb].iter().zip(&kp.b.vals[j..jb]) {
                        guard.poll()?;
                        out_keys.push(base + o);
                        out_vals.push(S::mul(va, vb));
                        guard.produced()?;
                    }
                }
                KernelMode::Chunked => {
                    let mut t = j;
                    while t < jb {
                        guard.poll()?;
                        let blk = (jb - t).min(KERNEL_BLOCK);
                        out_keys.extend(b_own[t..t + blk].iter().map(|&o| base + o));
                        out_vals.extend(kp.b.vals[t..t + blk].iter().map(|&vb| S::mul(va, vb)));
                        guard.produced_many(blk as u64)?;
                        t += blk;
                    }
                }
            }
        }
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

/// A fused group's final fold, or its typed failure.
fn checked_fold<S: SemiringOps>(acc: f64) -> Result<f64> {
    if S::KIND.is_valid_accumulation(acc) {
        Ok(acc)
    } else {
        Err(AlgebraError::NonFiniteMeasure {
            op: "sparse::join_agg",
            value: acc,
        })
    }
}

/// Streaming fused kernel: the group variables lead the merge order, so
/// one group's pairs are contiguous in the merge; fold them as they come
/// and emit the group when the next one starts. Coordinates are
/// `ga[i] + gb[j]` in output order — ascending when that is the merge
/// order, each group exactly once either way. Polls once per `(a row ×
/// b run)`, charges once per emitted group.
fn join_agg_stream_kernel<S: SemiringOps>(
    kp: &KeyedPair<'_>,
    runs: &[RunPair],
    ga: &[u64],
    gb: &[u64],
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let (mut out_keys, mut out_vals) = (Vec::new(), Vec::new());
    // `u64::MAX` is no group: coordinates stay below 2^62.
    let (mut cur, mut acc) = (u64::MAX, 0.0);
    for &((i, ia), (j, jb)) in runs {
        let (gb_run, vb_run) = (&gb[j..jb], &kp.b.vals[j..jb]);
        for (&base, &va) in ga[i..ia].iter().zip(&kp.a.vals[i..ia]) {
            guard.poll_many(vb_run.len() as u64)?;
            for (&gbj, &vb) in gb_run.iter().zip(vb_run) {
                let g = base + gbj;
                let p = S::mul(va, vb);
                if g == cur {
                    acc = S::add(acc, p);
                    continue;
                }
                if cur != u64::MAX {
                    out_keys.push(cur);
                    out_vals.push(checked_fold::<S>(acc)?);
                    guard.produced()?;
                }
                (cur, acc) = (g, p);
            }
        }
    }
    if cur != u64::MAX {
        out_keys.push(cur);
        out_vals.push(checked_fold::<S>(acc)?);
        guard.produced()?;
    }
    guard.finish()?;
    Ok((out_keys, out_vals))
}

/// Scatter fused kernel: every join pair folds into the direct-address
/// accumulator slot `ga[i] + gb[j]` of the output grid, first-seen
/// assignment as in [`agg_scatter_kernel`]; touched slots are sorted at
/// the end. Polls once per `(a row × b run)`, charges each group when it
/// is first seen.
fn join_agg_scatter_kernel<S: SemiringOps>(
    kp: &KeyedPair<'_>,
    runs: &[RunPair],
    ga: &[u64],
    gb: &[u64],
    group_cells: u64,
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let mut acc = vec![0.0f64; group_cells as usize];
    let mut seen = vec![false; group_cells as usize];
    let mut touched: Vec<u64> = Vec::new();
    for &((i, ia), (j, jb)) in runs {
        let (gb_run, vb_run) = (&gb[j..jb], &kp.b.vals[j..jb]);
        for (&base, &va) in ga[i..ia].iter().zip(&kp.a.vals[i..ia]) {
            guard.poll_many(vb_run.len() as u64)?;
            for (&gbj, &vb) in gb_run.iter().zip(vb_run) {
                let g = (base + gbj) as usize;
                let p = S::mul(va, vb);
                if seen[g] {
                    acc[g] = S::add(acc[g], p);
                } else {
                    seen[g] = true;
                    acc[g] = p;
                    touched.push(g as u64);
                    guard.produced()?;
                }
            }
        }
    }
    touched.sort_unstable();
    let out_vals = touched
        .iter()
        .map(|&g| checked_fold::<S>(acc[g as usize]))
        .collect::<Result<Vec<f64>>>()?;
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
