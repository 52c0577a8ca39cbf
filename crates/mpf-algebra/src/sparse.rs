//! Sparse-tensor operators: every operand the dense kernels decline.
//!
//! The dense odometer kernels touch every grid cell and win only near
//! completeness; below that, the operators here key each operand as
//! linearized odometer coordinates sorted ascending, with its measures
//! gathered into that order: present cells only, no per-row key
//! extraction, no hash probes. Sorting and merging integer coordinates
//! beats the hash operators at every density measured (down to 0.5 %),
//! so under [`ReprMode::Auto`] the choice is by feasibility alone: these
//! kernels run whenever they accept the input.
//!
//! They are the second link of [`crate::ops::step`]'s fallback chain, in
//! three shapes:
//!
//! * the product join relinearizes both sides to a `[shared vars, own
//!   vars]` axis order, so rows joining on the shared variables form
//!   contiguous runs of equal coordinate *prefix*; a merge of the two
//!   sides' run lists pairs the runs and emits each output coordinate as
//!   `a_key * b_own_cells + b_own_index` — ascending by construction, so
//!   the output needs no sort. No hash table, no per-row key allocation.
//! * the marginalization relinearizes to `[group vars, eliminated vars]`
//!   order and folds each run of equal group prefix in one pass with the
//!   semiring's additive operation.
//! * the fused step is the two as one: it walks the join's merge but
//!   folds each pair straight into its group (streaming when the group
//!   variables can lead the merge order, through a direct-address
//!   accumulator otherwise), so the join is never materialized —
//!   bit-identical to the join then the marginalization.
//!
//! The runs and digits every kernel reads are the trie levels of the
//! operand's [`KeyedOrder`] ([`KeyedOrder::runs`], [`KeyedOrder::digits`]):
//! built once per stored relation and axis order and memoized with it,
//! per query only for derived operands, and never by a division per key.
//!
//! Every kernel emits its output in coordinate form
//! ([`FunctionalRelation::from_coords`], O(1)): ascending coordinates in
//! the output schema's own order. The next sparse kernel keys those
//! coordinates directly — no sort when it asks for that order, one
//! re-permutation otherwise — and packed rows materialize lazily, only
//! for a consumer that reads rows (a hash operator, answer encoding),
//! outside the operator that produced them. Keying a row-major operand
//! counts one conversion in [`crate::ExecStats::sparse_converts`]; a
//! coordinate-form operand counts none.
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
//! then), the step declines and [`crate::ops::step`] runs the hash
//! operators.
//! Unlike the dense kernels there is no support-exactness precondition:
//! the sparse join emits exactly the matching pairs and the sparse
//! marginalization collapses exactly the present coordinates, so the
//! output *rows* equal the hash operators' at any density (modulo row
//! and column order, which [`FunctionalRelation::function_eq`] ignores).

use std::borrow::Cow;
use std::sync::Arc;

use mpf_semiring::{for_each_semiring, kernel::SemiringOps};
use mpf_storage::layout::grid_cells_wide;
use mpf_storage::{FunctionalRelation, KeyedOrder, KeyedSource, Runs, Schema, VarId};

use crate::dense::KernelMode;
use crate::limits::{ExecBudget, OpGuard};
use crate::trace::OpRepr;
use crate::{AlgebraError, ExecContext, Result};

/// Cells per budget charge in the chunked value multiply: large enough
/// that guard traffic vanishes from the profile, small enough that a
/// budget trip still stops an exploding operator within a few thousand
/// cells of its cap (the scalar kernels trip within
/// [`crate::limits::TICK_INTERVAL`]).
const KERNEL_BLOCK: usize = 4096;

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

/// The sparse elimination step over one or two operands, run by
/// [`crate::ops::step`] when the dense kernel declines: the product join
/// (two operands, `group_vars` `None`), the marginalization (one operand)
/// or the fused join→marginalize (two operands with group variables).
/// Probes the fault site of its shape — `sparse::join`, `sparse::agg` or
/// `sparse::join_agg` — first; `None` when the coordinate space is
/// infeasible, a value escapes its inferred domain or a side is not
/// functional. Group variables are validated by the caller.
///
/// The join's output column order is `[shared, l-only, r-only]` — a
/// permutation of the hash join's union order; every operator is
/// schema-aware, so only the raw column layout differs. The fused step
/// keys both sides exactly as the join does and walks the same run
/// merge, but folds each join pair straight into its group instead of
/// emitting it:
///
/// * **stream** — when the group variables can lead the merge order
///   (each block `shared`, `l-own`, `r-own` may be permuted, the blocks
///   may not), the pairs of one group are contiguous and collapse inside
///   the merge loop in O(output) memory;
/// * **scatter** — else, when the group grid is small next to the
///   pre-counted join size (the rule the marginalization scatters by),
///   every pair folds into the direct-address accumulator at
///   `ga[i] + gb[j]`;
/// * **staged** — else the join runs in full and is marginalized in
///   coordinate form (the unfused pipeline).
///
/// Every form folds each group's terms in ascending merge coordinate.
/// The eliminated variables keep their relative order in it, so that is
/// the order the unfused join → marginalization pipeline folds them on
/// both of its paths: the result is bit-identical to it, row order
/// included. Only the output is charged to the budget (and accounted as
/// an intermediate) unless the staged form runs.
pub(crate) fn step(
    cx: &mut ExecContext<'_>,
    inputs: &[&FunctionalRelation],
    group_vars: Option<&[VarId]>,
) -> Result<Option<FunctionalRelation>> {
    cx.fault(match (inputs, group_vars) {
        ([_, _], None) => "sparse::join",
        ([_], _) => "sparse::agg",
        _ => "sparse::join_agg",
    })?;
    let mark = cx.keyed_mark();
    let rel = match (inputs, group_vars) {
        ([l, r], None) => {
            let Some(rel) = join_impl(cx, l, r)? else {
                return Ok(None);
            };
            cx.record_join_ex(inputs, &rel, OpRepr::Sparse);
            cx.note_kernel_op(cx.kernel_mode());
            rel
        }
        ([input], Some(g)) => {
            let Some(rel) = agg_impl(cx, input, g)? else {
                return Ok(None);
            };
            cx.record_group_by_ex(inputs, &rel, OpRepr::Sparse);
            rel
        }
        ([l, r], Some(g)) => {
            let Some((rel, form, staged_rows)) = join_agg_impl(cx, l, r, g)? else {
                return Ok(None);
            };
            cx.record_join_agg_ex(inputs, &rel, OpRepr::Sparse);
            cx.note_intermediate(staged_rows);
            cx.note_fused_nest(form);
            rel
        }
        _ => unreachable!("checked by ops::step"),
    };
    cx.tag_keyed_since(mark);
    Ok(Some(rel))
}

/// One operand keyed for a kernel: its sorted keys under the requested
/// axis order, its measures in that order (borrowed when the rows
/// already ascend), the prefix length whose runs the kernel walks, and —
/// for an elimination step — each key's part of its output coordinate.
struct KeyedSide<'a> {
    order: Arc<KeyedOrder>,
    vals: Cow<'a, [f64]>,
    prefix: usize,
    group: Vec<u64>,
}

impl KeyedSide<'_> {
    fn keys(&self) -> &[u64] {
        self.order.keys()
    }

    fn runs(&self) -> &Runs {
        self.order.runs(self.prefix)
    }
}

/// Key one side over `axes` (`(schema position, domain)`, slowest
/// first) through [`FunctionalRelation::keyed_order`] and read the trie
/// levels its kernel needs: the runs of the first `prefix` axes and, with
/// `weights` (`(axis, weight)`), each key's `Σ digit·weight` over those
/// axes ([`KeyedOrder::weighted_digits`]). A stored relation is linearized, sorted and split into levels
/// once, not per query, and a coordinate-form one keyed in its own order
/// is its coordinates. Counts a conversion when the side is not in
/// coordinate form. `None` on out-of-domain values or duplicate argument
/// tuples.
fn keyed_side<'a>(
    cx: &mut ExecContext<'_>,
    rel: &'a FunctionalRelation,
    axes: &[(usize, u64)],
    prefix: usize,
    weights: Option<&[(usize, u64)]>,
) -> Result<Option<KeyedSide<'a>>> {
    cx.fault("sparse::convert")?;
    cx.checkpoint()?;
    if rel.coords().is_none() {
        cx.note_sparse_convert();
    }
    let Some((order, source)) = rel.keyed_order(axes) else {
        return Ok(None);
    };
    cx.note_keyed(source);
    // The levels build here, under the fault site and the checkpoint
    // above, so a faulted or cancelled step memoizes none of them.
    order.runs(prefix);
    // A memoized order keeps its digit columns for later queries; a fresh
    // one is dropped after this step, so its digits are never stored.
    let keep = source != KeyedSource::Fresh;
    let group = weights.map_or_else(Vec::new, |w| order.weighted_digits(w, keep));
    let vals = order.gather(rel.measures());
    Ok(Some(KeyedSide {
        order,
        vals,
        prefix,
        group,
    }))
}

/// Both join operands keyed for the sorted merge: the merge axis order is
/// `[shared, l-own, r-own]`, side `a` (left) is keyed on `[shared,
/// l-own]` and side `b` (right) on `[shared, r-own]`, each sorted
/// ascending. Rows agreeing on every shared variable form the runs of
/// each side's shared-prefix level, and `a_key * b_own_cells + b_key -
/// prefix * b_own_cells` is the pair's coordinate in the merge grid.
struct KeyedPair<'a> {
    /// Merge-order variables and their domains (shared variables index
    /// through the wider of the two sides' inferred domains).
    vars: Vec<VarId>,
    doms: Vec<u64>,
    a: KeyedSide<'a>,
    b: KeyedSide<'a>,
    b_own_cells: u64,
}

/// One matching pair of shared-prefix runs: rows `a.0..a.1` of the left
/// keyed column and `b.0..b.1` of the right agree on every shared
/// variable, whose values linearize to `prefix`, so each of their cross
/// pairs is one join row.
#[derive(Debug, Clone, Copy)]
struct RunPair {
    a: (usize, usize),
    b: (usize, usize),
    prefix: u64,
}

impl RunPair {
    /// The join rows the pair stands for.
    fn pairs(&self) -> usize {
        (self.a.1 - self.a.0) * (self.b.1 - self.b.0)
    }
}

impl KeyedPair<'_> {
    /// The matching runs, in ascending shared-prefix order — the merge
    /// both join forms walk: a merge of the two sides' run lists by
    /// prefix, no key read.
    fn runs(&self) -> Vec<RunPair> {
        let (ra, rb) = (self.a.runs(), self.b.runs());
        let (pa, pb) = (ra.prefixes(), rb.prefixes());
        let mut runs = Vec::with_capacity(pa.len().min(pb.len()));
        let (mut x, mut y) = (0usize, 0usize);
        while x < pa.len() && y < pb.len() {
            match pa[x].cmp(&pb[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    runs.push(RunPair {
                        a: ra.range(x),
                        b: rb.range(y),
                        prefix: pa[x],
                    });
                    (x, y) = (x + 1, y + 1);
                }
            }
        }
        runs
    }
}

/// The domains of `group_vars` among the merge-order `vars`, in
/// `group_vars` order.
fn group_doms(vars: &[VarId], doms: &[u64], group_vars: &[VarId]) -> Vec<u64> {
    group_vars
        .iter()
        .map(|v| doms[vars.iter().position(|w| w == v).expect("group var in join")])
        .collect()
}

/// Key both sides for the sorted merge. With `group_vars` (an
/// elimination step), the group variables lead each block (`shared`,
/// `l-own`, `r-own`) in output order while the eliminated ones keep
/// their schema order; the blocks themselves always stay in that order,
/// and each side also gets its keys' parts of the output coordinate —
/// the shared and left-own group axes on the left, the right-own ones on
/// the right. `None` when the coordinate space overflows, a value escapes
/// its domain, or a side holds duplicate argument tuples.
fn keyed_pair<'a>(
    cx: &mut ExecContext<'_>,
    l: &'a FunctionalRelation,
    r: &'a FunctionalRelation,
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
    let (ld, rd) = (l.inferred_domains(), r.inferred_domains());
    let dom_of = |s: &FunctionalRelation, d: &[u64], v: VarId| -> u64 {
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
    let b_own_cells = grid_cells_wide(&doms[n_a..]).expect("subproduct of feasible grid");
    let vars: Vec<VarId> = shared.into_iter().chain(l_own).chain(r_own).collect();

    // Axis order per side: the shared block, then the side's own block.
    let side_axes = |s: &FunctionalRelation, own: std::ops::Range<usize>| -> Vec<(usize, u64)> {
        (0..n_shared)
            .chain(own)
            .map(|k| (s.schema().position(vars[k]).expect("side var"), doms[k]))
            .collect()
    };
    // The output-coordinate weight of each group axis a side carries, by
    // the axis's place in that side's order.
    let strides = group_vars.map(|gv| mpf_storage::layout::strides_of(&group_doms(&vars, &doms, gv)));
    let weights = |span: std::ops::Range<usize>, first_axis: usize| {
        strides.as_ref().map(|strides| {
            span.clone()
                .filter_map(|k| rank(vars[k]).map(|g| (first_axis + k - span.start, strides[g])))
                .collect::<Vec<(usize, u64)>>()
        })
    };
    let (wa, wb) = (weights(0..n_a, 0), weights(n_a..vars.len(), n_shared));
    let Some(a) = keyed_side(cx, l, &side_axes(l, n_shared..n_a), n_shared, wa.as_deref())? else {
        return Ok(None);
    };
    let Some(b) = keyed_side(
        cx,
        r,
        &side_axes(r, n_a..vars.len()),
        n_shared,
        wb.as_deref(),
    )?
    else {
        return Ok(None);
    };
    Ok(Some(KeyedPair {
        vars,
        doms,
        a,
        b,
        b_own_cells,
    }))
}

fn join_impl(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
) -> Result<Option<FunctionalRelation>> {
    let Some(kp) = keyed_pair(cx, l, r, None)? else {
        return Ok(None);
    };
    let name = format!("({}⨝*{})", l.name(), r.name());
    join_keyed(cx, name, kp).map(Some)
}

/// Run the sorted-merge join kernel over a keyed pair: the join in merge
/// axis order, in coordinate form.
fn join_keyed(
    cx: &ExecContext<'_>,
    name: String,
    kp: KeyedPair<'_>,
) -> Result<FunctionalRelation> {
    let out_schema = Schema::new(kp.vars.clone())?;
    let runs = kp.runs();
    let (coords, values) = for_each_semiring!(
        cx.semiring(),
        join_kernel(&kp, &runs, cx.budget(), out_schema.arity(), cx.kernel_mode())
    )?;
    Ok(FunctionalRelation::from_coords(
        name, out_schema, kp.doms, coords, values,
    ))
}

fn agg_impl(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<Option<FunctionalRelation>> {
    let doms = input.inferred_domains();
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

    let axes: Vec<(usize, u64)> = gpos
        .iter()
        .zip(&group_doms)
        .map(|(&p, &d)| (p, d))
        .chain(elim.iter().copied())
        .collect();
    let out_schema = Schema::new(group_vars.to_vec())?;
    let sr = cx.semiring();
    let name = format!("γ({})", input.name());

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
        let Some(gkeys) = input.linearized_keys(&gaxes) else {
            return Ok(None);
        };
        if input.coords().is_none() {
            cx.note_sparse_convert();
        }
        let budget = cx.budget();
        let arity = out_schema.arity();
        let (coords, values) = for_each_semiring!(
            sr,
            agg_scatter_kernel(&gkeys, input.measures(), group_cells, budget, arity)
        )?;
        return Ok(Some(FunctionalRelation::from_coords(
            name, out_schema, group_doms, coords, values,
        )));
    }

    let Some(side) = keyed_side(cx, input, &axes, gpos.len(), None)? else {
        return Ok(None);
    };
    let budget = cx.budget();
    let arity = out_schema.arity();
    let (coords, values) =
        for_each_semiring!(sr, agg_kernel(side.runs(), &side.vals, budget, arity))?;
    Ok(Some(FunctionalRelation::from_coords(
        name, out_schema, group_doms, coords, values,
    )))
}

/// The fused [`step`] body: the marginal, the form that ran (`stream`,
/// `scatter` or `staged`), and the join rows the staged form
/// materialized (0 otherwise). `None` where the join would decline.
fn join_agg_impl(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<Option<(FunctionalRelation, &'static str, u64)>> {
    let Some(kp) = keyed_pair(cx, l, r, Some(group_vars))? else {
        return Ok(None);
    };
    let name = format!("γ(({}⨝*{}))", l.name(), r.name());
    let out_schema = Schema::new(group_vars.to_vec())?;
    let group_doms = group_doms(&kp.vars, &kp.doms, group_vars);
    let group_cells = grid_cells_wide(&group_doms).expect("subproduct of feasible grid");
    let runs = kp.runs();

    let join_len: usize = runs.iter().map(RunPair::pairs).sum();
    let streams = kp.vars[..group_vars.len()].iter().all(|v| group_vars.contains(v));
    let (sr, budget, arity) = (cx.semiring(), cx.budget(), out_schema.arity());
    let (form, (coords, values)) = if streams {
        let (coords, values) =
            for_each_semiring!(sr, join_agg_stream_kernel(&kp, &runs, budget, arity))?;
        // Ascending already when the output order is the merge order.
        let order = KeyedOrder::from_keys(coords, &group_doms).expect("one run per group");
        let values = order.gather(&values).into_owned();
        ("stream", (order.into_keys(), values))
    } else if scatter_agg_applies(group_cells, join_len) {
        let parts = for_each_semiring!(
            sr,
            join_agg_scatter_kernel(&kp, &runs, group_cells, budget, arity)
        )?;
        ("scatter", parts)
    } else {
        let joined = join_keyed(cx, format!("({}⨝*{})", l.name(), r.name()), kp)?;
        return Ok(agg_impl(cx, &joined, group_vars)?
            .map(|rel| (rel, "staged", joined.len() as u64)));
    };
    Ok(Some((
        FunctionalRelation::from_coords(name, out_schema, group_doms, coords, values),
        form,
        0,
    )))
}

/// Sorted-merge join kernel over permuted key columns. Runs of equal
/// shared prefix pair up; each output coordinate is `a_key *
/// b_own_cells + b_own`, with `b_own = b_key - prefix * b_own_cells` read
/// off the run's prefix — ascending by construction, no division.
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
    let (a_keys, b_keys, cb) = (kp.a.keys(), kp.b.keys(), kp.b_own_cells);
    let mut out_keys: Vec<u64> = Vec::with_capacity(a_keys.len().max(b_keys.len()));
    let mut out_vals: Vec<f64> = Vec::with_capacity(out_keys.capacity());
    for rp in runs {
        let ((i, ia), (j, jb)) = (rp.a, rp.b);
        // `a_key >= prefix`, so the shifted base never underflows.
        let shift = rp.prefix * cb;
        for (&ak, &va) in a_keys[i..ia].iter().zip(&kp.a.vals[i..ia]) {
            let base = ak * cb - shift;
            match mode {
                KernelMode::Scalar => {
                    for (&bk, &vb) in b_keys[j..jb].iter().zip(&kp.b.vals[j..jb]) {
                        guard.poll()?;
                        out_keys.push(base + bk);
                        out_vals.push(S::mul(va, vb));
                        guard.produced()?;
                    }
                }
                KernelMode::Chunked => {
                    let mut t = j;
                    while t < jb {
                        guard.poll()?;
                        let blk = (jb - t).min(KERNEL_BLOCK);
                        out_keys.extend(b_keys[t..t + blk].iter().map(|&bk| base + bk));
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

/// Coordinate-collapse marginalization kernel: one pass over the runs of
/// the keys' group prefix, folding each run's measures with the static
/// additive op; the run's prefix is its group coordinate. The accumulator
/// is validated once per output cell, like the dense kernel (an invalid
/// intermediate can only end in an invalid final value).
fn agg_kernel<S: SemiringOps>(
    runs: &Runs,
    vals: &[f64],
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let mut out_vals: Vec<f64> = Vec::with_capacity(runs.len());
    for r in 0..runs.len() {
        guard.poll()?;
        let (i, j) = runs.range(r);
        let acc = vals[i + 1..j]
            .iter()
            .fold(vals[i], |acc, &v| S::add(acc, v));
        if !S::KIND.is_valid_accumulation(acc) {
            return Err(AlgebraError::NonFiniteMeasure {
                op: "sparse::agg",
                value: acc,
            });
        }
        out_vals.push(acc);
        guard.produced()?;
    }
    guard.finish()?;
    Ok((runs.prefixes().to_vec(), out_vals))
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
/// order, each group exactly once either way. Polls once per run pair,
/// charges once per emitted group.
fn join_agg_stream_kernel<S: SemiringOps>(
    kp: &KeyedPair<'_>,
    runs: &[RunPair],
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let (ga, gb) = (&kp.a.group[..], &kp.b.group[..]);
    let (mut out_keys, mut out_vals) = (Vec::new(), Vec::new());
    // `u64::MAX` is no group: coordinates stay below 2^62.
    let (mut cur, mut acc) = (u64::MAX, 0.0);
    for rp in runs {
        guard.poll_many(rp.pairs() as u64)?;
        let ((i, ia), (j, jb)) = (rp.a, rp.b);
        let (gb_run, vb_run) = (&gb[j..jb], &kp.b.vals[j..jb]);
        for (&base, &va) in ga[i..ia].iter().zip(&kp.a.vals[i..ia]) {
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
/// assignment as in [`agg_scatter_kernel`] but as a select rather than a
/// branch. The touched slots are read off `seen` in ascending order (no
/// sort) and charged then, in the same count order as a charge at first
/// touch. Polls once per run pair.
fn join_agg_scatter_kernel<S: SemiringOps>(
    kp: &KeyedPair<'_>,
    runs: &[RunPair],
    group_cells: u64,
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let (ga, gb) = (&kp.a.group[..], &kp.b.group[..]);
    let mut acc = vec![0.0f64; group_cells as usize];
    let mut seen = vec![false; group_cells as usize];
    for rp in runs {
        guard.poll_many(rp.pairs() as u64)?;
        let ((i, ia), (j, jb)) = (rp.a, rp.b);
        let (gb_run, vb_run) = (&gb[j..jb], &kp.b.vals[j..jb]);
        for (&base, &va) in ga[i..ia].iter().zip(&kp.a.vals[i..ia]) {
            for (&gbj, &vb) in gb_run.iter().zip(vb_run) {
                let g = (base + gbj) as usize;
                let p = S::mul(va, vb);
                acc[g] = if seen[g] { S::add(acc[g], p) } else { p };
                seen[g] = true;
            }
        }
    }
    let mut touched = Vec::new();
    for (g, _) in seen.iter().enumerate().filter(|s| *s.1) {
        touched.push(g as u64);
        guard.produced()?;
    }
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
    use crate::ops;
    use mpf_semiring::SemiringKind;
    use mpf_storage::Catalog;

    // The join and the marginalization, each entering the fallback chain
    // at the sparse kernel.
    fn join(
        cx: &mut ExecContext<'_>,
        l: &FunctionalRelation,
        r: &FunctionalRelation,
    ) -> Result<FunctionalRelation> {
        ops::step(cx, &[l, r], None, OpRepr::Sparse)
    }

    fn agg(
        cx: &mut ExecContext<'_>,
        x: &FunctionalRelation,
        g: &[VarId],
    ) -> Result<FunctionalRelation> {
        ops::step(cx, &[x], Some(g), OpRepr::Sparse)
    }

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
    fn relation_chain_stays_in_coordinate_form() {
        let (cat, l, r) = fixtures();
        let b = cat.var("b").unwrap();
        let c = cat.var("c").unwrap();
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::new(sr).with_repr(ReprMode::Auto);
        let joined = join(&mut cx, &l, &r).unwrap();
        assert!(joined.coords().is_some(), "the join emits coordinates");
        let marg = agg(&mut cx, &joined, &[b, c]).unwrap();
        assert!(marg.coords().is_some(), "so does the marginalization");
        assert_eq!(cx.stats().sparse_joins, 1);
        assert_eq!(cx.stats().sparse_group_bys, 1);
        assert_eq!(
            cx.stats().sparse_converts,
            2,
            "only the two row-major inputs convert"
        );
        let wj = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
        let want = ops::group_by(&mut ExecContext::new(sr), &wj, &[b, c]).unwrap();
        assert!(want.function_eq(&marg));
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
        let got = ops::step(&mut cx, &[&thin], Some(&[x]), OpRepr::Dense).unwrap();
        assert_eq!(cx.stats().sparse_group_bys, 1, "sparse path at any density");
        assert_eq!(got.len(), 1);
        let mut off = ExecContext::new(sr).with_repr(ReprMode::Off);
        let want = ops::step(&mut off, &[&thin], Some(&[x]), OpRepr::Dense).unwrap();
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
