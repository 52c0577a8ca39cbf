//! The dense elimination step: odometer-indexed kernels for complete (or
//! pinned-slice) factors.
//!
//! The paper's inference workloads run over *complete* relations — one row
//! per point of the schema's domain cross product — where the hash
//! operators pay key extraction and probing for structure the row order
//! already encodes. The kernel here drops the keys entirely. It is one
//! step, the paper's GroupBy∘ProductJoin (VE's elimination step, FAQ's
//! InsideOut): each output cell folds the products of its eliminated
//! subgrid straight from the operands' value arrays. It is the first link
//! of [`crate::ops::step`]'s fallback chain, and covers the step and its
//! two degenerate forms:
//!
//! * two operands, the group variables kept and every other variable
//!   eliminated (the fused join→marginalize);
//! * two operands and nothing eliminated (the product join): every
//!   variable of `l ∪ r` is a group variable, in the sparse join's column
//!   order (`sparse::merge_order`), so each cell is one product
//!   `l ⊗ r`, stored as it is (no join validates a product; the
//!   marginalization above it does);
//! * one operand (the marginalization): the "product" of a cell is the
//!   operand's value itself, never multiplied by a unit (`x ⊗ 1` would
//!   turn `−0.0` into `+0.0` where `⊗` is `+`, and canonicalize a Boolean
//!   `−0.0`).
//!
//! Absent cells would take the semiring's additive identity, which is
//! what a missing row denotes under MPF semantics, so a grid preserves
//! the *function* at any density. It does not preserve the *support* — a
//! zero-filled grid materializes identity rows the sparse operators never
//! emit — so the kernel only runs on support-exact inputs
//! ([`join_support_exact`]; one operand only needs to be a non-empty grid,
//! since a zero-ary marginal of an empty input is empty on the sparse
//! path, not a single identity cell): every operand is the odometer
//! sequence of its grid, borrowed in place, and the outputs are
//! row-identical to the sparse path.
//!
//! Operators have no catalog, so grids come from each operand's O(1) grid
//! hint (`ordered_grid_hint`, a pure function of the input data —
//! deterministic across threads), and the operands must agree on every
//! shared variable. The kernel charges the
//! [`crate::ExecBudget`] one `produced` per output cell — identical to
//! the sparse operators on complete inputs — and borrowing an operand
//! charges nothing but polls cancellation and the deadline. When a grid
//! is infeasible (an operand or the output beyond
//! [`mpf_storage::layout::MAX_DENSE_CELLS`], or rows that do not embed in
//! it), or the inputs are not support-exact, the step declines and
//! [`crate::ops::step`] runs the sparse kernel, then the hash operators,
//! so a planner mis-estimate costs the fast path, never an error.
//!
//! A step with at least two [`PARALLEL_MIN_WORK`]s of products splits
//! the output along its first axis into contiguous boxes (not hash
//! partitions): workers write disjoint slices of the output array and
//! errors surface in box order, so answers, budget trips, and error
//! precedence match the sequential kernel exactly.
//!
//! # The fold
//!
//! The kernel is generic over a statically-known semiring
//! ([`mpf_semiring::kernel::SemiringOps`], instantiated for all seven
//! through [`mpf_semiring::for_each_semiring`]), so the inner loops are
//! straight-line per-semiring code with no dispatch branch per cell. Every
//! cell folds one way: its first product, then `⊕` in eliminated-odometer
//! order, the eliminated axes in the step's merge order
//! (`sparse::merge_order`: shared, then `l`'s own, then `r`'s own). The
//! order is a pure function of the schemas and the group variables,
//! never of the nest, the SIMD tier, the thread count or scheduling, so
//! answers are bit-identical at any `MPF_THREADS`. The
//! sparse kernel walks the same order, so the two agree bit for bit on
//! every input both accept. The hash operators fold the same way along
//! their own walk (probe rows, then build rows), so they agree bit for
//! bit wherever that walk coincides — always for a join and for one
//! operand.
//!
//! A two-operand step never materializes the join: the union grid is
//! only indexed, never allocated, so it may exceed
//! [`mpf_storage::layout::MAX_DENSE_CELLS`]; the operands and the output
//! may not. The full step is therefore bit-identical to the product
//! join then the marginalization (their cells fold the same products in
//! the same order), while peak memory drops from the union grid to the
//! output grid.
//!
//! # Nests and SIMD tiers
//!
//! The kernel picks its loop nest from the operand strides
//! (`join_agg_impl`): when some group axis is unit-stride in one operand
//! and unit-stride or broadcast in the other, it runs register tiles
//! (`join_agg_tiles`, `nest=tile`): `MR` cells along a second group axis
//! on which that row operand is broadcast × `NR` cells along the row
//! axis, the accumulators held in registers across the whole eliminated
//! odometer, so each load of the row operand feeds `MR` output rows
//! (GEMM's micro-kernel; `MR = 1` when no second axis qualifies, and for
//! one operand). Otherwise it folds blocks of `CELL_BLOCK` adjacent cells
//! along the output's innermost axis side by side, each on its own
//! accumulator, loading an operand broadcast along the block once for
//! all of them (`join_agg_cells`, `nest=cell`). The nest changes which
//! cells are computed together, never the order one cell's products are
//! folded, so it cannot move a bit. Both nests take the operand count as
//! a constant, so a two-operand step compiles exactly as it would
//! without the one-operand form.
//!
//! The tile nest is compiled once per [`SimdTier`] (baseline, AVX2,
//! AVX-512F) from one source, with a tile shape per tier, and runs on the
//! widest tier the CPU supports ([`SimdTier::detect`]) once the step's
//! join grid clears `SIMD_MIN_WORK`; smaller steps stay on the baseline.
//! Each semiring operation is the same IEEE operation in every tier, so
//! the tier cannot move a bit either (checked by the tier-parity unit
//! test in release builds). Fused spans report the tier as
//! `simd=base|avx2|avx512` next to the nest; the spans of the degenerate
//! forms carry neither.

use std::marker::PhantomData;

use mpf_semiring::kernel::{SemiringOps, SimdTier, Tier, TierKernel};
use mpf_semiring::for_each_semiring;
use mpf_storage::layout::{delinearize, grid_cells, is_odometer_ordered, strides_of};
use mpf_storage::{FunctionalRelation, Schema, Value, VarId};

use crate::limits::{ExecBudget, OpGuard};
use crate::trace::OpRepr;
use crate::{AlgebraError, ExecContext, Result};

/// Products (join-grid cells) each worker of a dense step must get
/// before the step fans out: a step with `n` products runs on at most
/// `n / PARALLEL_MIN_WORK` workers, so a step with fewer than twice this
/// many stays on the calling thread, where the spawn and join cost more
/// than they save.
pub const PARALLEL_MIN_WORK: u64 = 1 << 20;

/// Workers a dense step runs on: the context's `threads`, at most one
/// per row of output axis 0 (`rows0`; `None` for a scalar output, which
/// has no axis to split) and at most one per [`PARALLEL_MIN_WORK`] of
/// the step's `products`.
fn fan_out(threads: usize, rows0: Option<u64>, products: u64) -> usize {
    let by_work = products / PARALLEL_MIN_WORK;
    rows0.map_or(1, |rows| (threads as u64).min(rows).min(by_work).max(1) as usize)
}

/// Whether the dense fast path may be used, carried by the planner
/// config and the execution context. On every input the dense step
/// accepts it computes the sparse step's bits, so the mode only ever
/// picks the kernel, never the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DenseMode {
    /// Never use the dense kernels.
    Off,
    /// Plan dense when the estimated density clears the planner's
    /// threshold and the grids are feasible. The kernels still verify
    /// support-exactness at runtime and fall back to the sparse kernel
    /// otherwise.
    #[default]
    Auto,
}

/// The O(1) grid hint: for a relation whose rows are the odometer
/// sequence of some grid — every dense-kernel product, and everything
/// [`FunctionalRelation::complete`] builds — the *last* row is the grid's
/// maximum point, so `last row + 1` is the domain vector, and the row
/// count must equal the grid size. The hint is plausible, not proven:
/// [`dense_input`]'s verifying scan confirms it when the kernel borrows
/// the operand, and any mismatch (shuffled rows, duplicates, a value
/// beyond the hint) refuses the borrow, falling back to the sparse
/// operators. A complete relation in non-odometer row order
/// therefore skips the dense path by design — proving completeness
/// without the order would cost the full O(rows × arity) scan this hint
/// exists to avoid.
///
/// A pinned slice ([`FunctionalRelation::pinned_slice`]) hints its own
/// grid, whose pinned axes are one cell wide: a one-cell axis adds
/// nothing to any odometer, so the kernels run over it unchanged, and
/// [`shared_domains_agree`] and the output carry its origin
/// ([`origin_at`]).
fn ordered_grid_hint(rel: &FunctionalRelation) -> Option<Vec<u64>> {
    if rel.is_empty() {
        return None;
    }
    // Grid-certified relations (every dense-kernel product, everything
    // `complete` builds, every pinned slice) carry their domain vector
    // outright — and reading the last row below would force them to
    // materialize packed keys.
    if let Some((g, _)) = rel.grid() {
        let domains = g.to_vec();
        return (grid_cells(&domains) == Some(rel.len() as u64)).then_some(domains);
    }
    // A coordinate-form relation decodes its last coordinate rather than
    // materializing every row to read one.
    let last = match rel.coords() {
        Some((doms, coords)) => {
            let mut row = vec![0; doms.len()];
            delinearize(coords[coords.len() - 1], &strides_of(doms), &mut row);
            row
        }
        None => rel.row(rel.len() - 1).to_vec(),
    };
    let domains: Vec<u64> = last.iter().map(|&v| v as u64 + 1).collect();
    (grid_cells(&domains) == Some(rel.len() as u64)).then_some(domains)
}

/// Whether the sides' grids agree on every shared variable (given their
/// domain vectors) — the remaining condition for a support-exact join.
/// A shared axis pinned on both sides must be pinned to the same value.
fn shared_domains_agree(
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    ld: &[u64],
    rd: &[u64],
) -> bool {
    l.schema().iter().enumerate().all(|(p, v)| {
        r.schema().position(v).map_or(true, |q| {
            ld[p] == rd[q] && origin_at(l, p) == origin_at(r, q)
        })
    })
}

/// The first value of `rel`'s axis at schema position `p`: the pinned
/// value on a pinned slice's one-cell axis, 0 on every other axis.
fn origin_at(rel: &FunctionalRelation, p: usize) -> Value {
    rel.grid().map_or(0, |(_, origins)| origins[p])
}

/// A step's output grid as a relation named `name`, each axis starting
/// at the origin its variable has in `inputs` — a group axis pinned in
/// an operand keeps its pinned value. Operands agree on the origins of
/// shared variables ([`shared_domains_agree`]).
fn kernel_output(
    cx: &mut ExecContext<'_>,
    name: String,
    out: StepOut,
    inputs: &[&FunctionalRelation],
) -> Result<FunctionalRelation> {
    let origins = out
        .schema
        .iter()
        .map(|v| {
            inputs
                .iter()
                .find_map(|r| r.schema().position(v).ok().map(|p| origin_at(r, p)))
                .unwrap_or(0)
        })
        .collect();
    cx.fault("dense::convert")?;
    cx.checkpoint()?;
    cx.note_dense_convert();
    Ok(FunctionalRelation::from_grid_at(name, out.schema, out.domains, origins, out.values))
}

/// Whether the dense join is *support-exact* for these inputs: both sides
/// in dense-kernel form (rows are the odometer sequence of their grid, so
/// the side is complete on it), with the grids agreeing on every shared
/// variable. Under these conditions the sparse join's output support is
/// exactly the union grid, so the dense kernel produces a
/// [`FunctionalRelation::function_eq`]-identical result (same rows, not
/// just the same function modulo explicit identity rows). The dense step
/// enforces this at runtime — the O(1) hint here, the row order during
/// densification — declining otherwise, so a planner mis-estimate costs
/// the fast path, never correctness.
pub fn join_support_exact(l: &FunctionalRelation, r: &FunctionalRelation) -> bool {
    match (ordered_grid_hint(l), ordered_grid_hint(r)) {
        (Some(ld), Some(rd)) => shared_domains_agree(l, r, &ld, &rd),
        _ => false,
    }
}

/// A zero-copy dense operand: an odometer-ordered relation's measure
/// column read in place as its grid's value array. On large factors the
/// conversion *copy* costs as much as the kernel itself, so the kernels
/// borrow their inputs and only the output is ever materialized.
struct DenseInput<'a> {
    strides: Vec<u64>,
    values: &'a [f64],
}

/// Borrow `rel` as a dense factor over `domains` without copying: one
/// verifying scan ([`is_odometer_ordered`]) proves the measure column is
/// the grid's value array (and, with it, completeness, uniqueness, and
/// bounds — the support-exactness precondition). A grid key column,
/// a pinned slice's included, proves it in O(arity); the slice's origins
/// are matched by [`shared_domains_agree`] and carried to the output by
/// [`kernel_output`]. Counts as a dense conversion in the context stats:
/// it is one, just O(1) in space. `None` when the rows are not the grid's
/// odometer sequence; the caller then falls back to the sparse operator.
fn dense_input<'a>(
    cx: &mut ExecContext<'_>,
    rel: &'a FunctionalRelation,
    domains: &[u64],
) -> Result<Option<DenseInput<'a>>> {
    cx.fault("dense::convert")?;
    cx.checkpoint()?;
    let ordered = match rel.grid() {
        Some((g, _)) => g == domains && grid_cells(domains).is_some(),
        None => is_odometer_ordered(rel, domains),
    };
    if !ordered {
        return Ok(None);
    }
    cx.note_dense_convert();
    Ok(Some(DenseInput {
        strides: strides_of(domains),
        values: rel.measures(),
    }))
}

/// The dense elimination step over one or two operands, run by
/// [`crate::ops::step`]: each output cell folds the products of its
/// eliminated subgrid in fixed odometer order (see the module docs for its two
/// degenerate forms). Probes the fault site of its shape —
/// `dense::join`, `dense::agg` or `dense::join_agg` — first; `None` when
/// the operands are not support-exact grids, a grid is infeasible, or
/// (for the product join, whose output *is* the union grid) the union
/// grid exceeds the dense cap, which is checked before any operand is
/// borrowed. Group variables are validated by the caller.
pub(crate) fn step(
    cx: &mut ExecContext<'_>,
    inputs: &[&FunctionalRelation],
    group_vars: Option<&[VarId]>,
) -> Result<Option<FunctionalRelation>> {
    let site = match (inputs, group_vars) {
        ([_, _], None) => "dense::join",
        ([_], _) => "dense::agg",
        _ => "dense::join_agg",
    };
    cx.fault(site)?;
    let Some(hints) = inputs.iter().map(|r| ordered_grid_hint(r)).collect::<Option<Vec<_>>>() else {
        return Ok(None);
    };
    let r = match inputs {
        [l, r] if !shared_domains_agree(l, r, &hints[0], &hints[1]) => return Ok(None),
        [_, r] => Some((*r, hints[1].as_slice())),
        _ => None,
    };
    let l = (inputs[0], hints[0].as_slice());
    let schemas: Vec<&Schema> = inputs.iter().map(|r| r.schema()).collect();
    let (order, ..) = crate::sparse::merge_order(&schemas, group_vars);
    let group = match group_vars {
        Some(g) => g,
        None => {
            // The product join's output is its whole join grid.
            let doms: Vec<u64> = order.iter().map(|&v| join_dom(l, r, v)).collect();
            if grid_cells(&doms).is_none() {
                return Ok(None);
            }
            &order
        }
    };
    let elim: Vec<VarId> = order.iter().copied().filter(|v| !group.contains(v)).collect();
    // A join's products are stored unchecked; a marginal's folds are
    // checked against the step's own name.
    let check = group_vars.map(|_| site);
    let Some(out) = join_agg_impl(cx, l, r, group, &elim, check)? else {
        return Ok(None);
    };
    let (nest, tier) = (out.nest, out.tier);
    let l = l.0;
    let name = match (r, group_vars) {
        (Some((r, _)), None) => format!("({}⨝*{})", l.name(), r.name()),
        (Some((r, _)), Some(_)) => format!("γ({}⨝*{})", l.name(), r.name()),
        (None, _) => format!("γ({})", l.name()),
    };
    let rel = kernel_output(cx, name, out, inputs)?;
    match (r, group_vars) {
        (Some(_), None) => cx.record_join_ex(inputs, &rel, OpRepr::Dense),
        (None, _) => cx.record_group_by_ex(inputs, &rel, OpRepr::Dense),
        (Some(_), Some(_)) => cx.record_join_agg_ex(inputs, &rel, OpRepr::Dense),
    }
    // Only the full step reports its nest and tier.
    if r.is_some() && group_vars.is_some() {
        cx.note_fused_nest(nest);
        cx.note_simd(tier);
    }
    Ok(Some(rel))
}

/// Per-variable odometer step: the variable's domain (in the join grid)
/// and its stride in each operand (0 when the operand lacks it — the
/// broadcast; always 0 in the missing `b` of a one-operand step).
struct FusedDim {
    dom: u64,
    sa: usize,
    sb: usize,
}

/// An elimination step's output grid, before it becomes a relation
/// ([`kernel_output`]), and the nest and tier that computed it.
struct StepOut {
    schema: Schema,
    domains: Vec<u64>,
    values: Vec<f64>,
    nest: &'static str,
    tier: SimdTier,
}

/// The elimination step `γ_group_vars(a ⨝ b)` over borrowed operand
/// grids — `a` is `(relation, its grid)`, and `b` is `None` for a
/// one-operand step, whose products are `a`'s values. Each cell folds
/// over `elim`, the eliminated variables in the step's
/// [`crate::sparse::merge_order`]. `check` names the operator a
/// non-finite cell is reported against, or is `None` to store the cells
/// unchecked (a join's products). `None` when an operand does not borrow
/// as a grid or the output grid is infeasible.
fn join_agg_impl(
    cx: &mut ExecContext<'_>,
    (l, ld): (&FunctionalRelation, &[u64]),
    r: Option<(&FunctionalRelation, &[u64])>,
    group_vars: &[VarId],
    elim: &[VarId],
    check: Option<&'static str>,
) -> Result<Option<StepOut>> {
    let dom = |v: VarId| join_dom((l, ld), r, v);
    // The join grid is only ever *indexed*, never allocated: the kernel
    // needs the operands and the output grid, so a join grid beyond
    // `MAX_DENSE_CELLS` is no reason to refuse.
    let join_cells_total =
        group_vars.iter().chain(elim).fold(1u64, |n, &v| n.saturating_mul(dom(v)));
    let side_domains = |s: &Schema| -> Vec<u64> { s.iter().map(dom).collect() };
    let Some(a) = dense_input(cx, l, &side_domains(l.schema()))? else {
        return Ok(None);
    };
    let b = match r {
        Some((r, _)) => match dense_input(cx, r, &side_domains(r.schema()))? {
            Some(b) => Some((r.schema(), b)),
            None => return Ok(None),
        },
        None => None,
    };

    let out_schema = Schema::new(group_vars.to_vec())?;
    let out_domains: Vec<u64> = group_vars.iter().map(|&v| dom(v)).collect();
    let Some(total) = grid_cells(&out_domains).map(|n| n as usize) else {
        return Ok(None);
    };
    let mut values = vec![0.0; total];
    let out_strides = strides_of(&out_domains);
    let stride_in = |v: VarId, s: &Schema, strides: &[u64]| -> usize {
        s.position(v).ok().map_or(0, |p| strides[p] as usize)
    };
    let dim = |v: VarId| FusedDim {
        dom: dom(v),
        sa: stride_in(v, l.schema(), &a.strides),
        sb: b.as_ref().map_or(0, |(s, b)| stride_in(v, s, &b.strides)),
    };
    // Group axes in output-schema order; eliminated axes in merge order,
    // the order the sparse step folds them in too.
    let gdims: Vec<FusedDim> = group_vars.iter().map(|&v| dim(v)).collect();
    let edims: Vec<FusedDim> = elim.iter().map(|&v| dim(v)).collect();

    let sr = cx.semiring();
    let arity = out_schema.arity();
    let budget = cx.budget();
    let workers = fan_out(cx.threads(), gdims.first().map(|d| d.dom), join_cells_total);
    // Nest selection: register tiles along the last group axis that is
    // unit-stride in one operand and unit-stride or broadcast in the other
    // (so each tile row streams and vectorizes, with the eliminated axes
    // outside it); without such an axis, the cell-major nest. Either nest
    // folds each cell's products in the same order, so the choice never
    // moves a bit.
    let row_axis =
        gdims.iter().rposition(|d| d.dom > 1 && matches!((d.sa, d.sb), (1, 0) | (0, 1) | (1, 1)));
    let tiles = row_axis.map(|row| TileAxes::choose(&gdims, row));
    // Small steps stay on the baseline tier, so a workload of small
    // dense steps never faults in the wide tiers' code (DESIGN §16).
    let tier = match tiles {
        Some(_) if join_cells_total >= SIMD_MIN_WORK => SimdTier::detect(),
        _ => SimdTier::Base,
    };
    let job = StepJob {
        av: a.values,
        bv: b.as_ref().map(|(_, b)| b.values),
        gdims: &gdims,
        out_strides: &out_strides,
        edims: &edims,
        budget,
        arity,
        check,
    };
    let job = &job;
    let kernel = move |start: usize, slice: &mut [f64]| match tiles {
        Some(axes) => for_each_semiring!(sr, join_agg_tiles(tier, job, axes, start, slice)),
        None => for_each_semiring!(sr, join_agg_cells(job, start, slice)),
    };
    if workers <= 1 {
        kernel(0, &mut values)?;
    } else {
        // Chunk along output axis 0: each worker owns a contiguous output
        // slice and every cell's fold runs entirely in one worker, so
        // results are thread-invariant.
        let stride0 = out_strides[0] as usize;
        let chunk_rows = gdims[0].dom.div_ceil(workers as u64);
        let chunk = chunk_rows as usize * stride0;
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = values
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, slice)| scope.spawn(move || kernel(i * chunk, slice)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(AlgebraError::Internal("dense join-agg worker panicked".into()))
                    })
                })
                .collect()
        });
        for r in results {
            r?;
        }
        if let Some(b) = budget {
            b.check_rows(total as u64)?;
            b.checkpoint()?;
        }
    }
    let nest = if tiles.is_some() { "tile" } else { "cell" };
    Ok(Some(StepOut { schema: out_schema, domains: out_domains, values, nest, tier }))
}

/// Join grids (cells of the fused step's iteration space) below which
/// the tiled nest stays on [`SimdTier::Base`]. Without the gate,
/// `cold_adhoc`'s small dense steps ran AVX-512 code at the
/// same latency and 3 % more peak RSS.
const SIMD_MIN_WORK: u64 = 1 << 15;

/// Output cells per budget charge along the tile nest's row axis: a strip
/// of tiles is charged once it is stored, so a budget trip stops the
/// kernel within one strip of its cap.
const ROW_BLOCK: usize = 256;

/// The two group axes a register tile spans: `row`, unit-stride in one
/// operand and unit-stride or broadcast in the other (the `NR` cells of a
/// tile row), and optionally `m`, on which the row operand `P` is
/// broadcast (the `MR` tile rows share each load of `P`). `P` is `b` when
/// `swap` (products are then `mul(a, b)` all the same); the other operand
/// `Q` is read per tile row, as a scalar when `q_row` is false. A
/// one-operand step has `P = a`, no `Q` and no `m` axis.
#[derive(Clone, Copy)]
struct TileAxes {
    row: usize,
    m: Option<usize>,
    swap: bool,
    q_row: bool,
}

impl TileAxes {
    fn choose(gdims: &[FusedDim], row: usize) -> TileAxes {
        let (sa, sb) = (gdims[row].sa, gdims[row].sb);
        // `P` is the operand contiguous along `row`; when both are, `a`.
        let swap = sa != 1;
        let p_stride = |d: &FusedDim| if swap { d.sb } else { d.sa };
        let m = gdims
            .iter()
            .enumerate()
            .rposition(|(j, d)| j != row && d.dom > 1 && p_stride(d) == 0);
        TileAxes { row, m, swap, q_row: sa == 1 && sb == 1 }
    }
}

/// Everything either nest reads besides its output slice: the operands'
/// value arrays (`bv` is `None` in a one-operand step), the group and
/// eliminated axes, and the operator a non-finite cell is reported
/// against (`None`: stored unchecked).
struct StepJob<'a> {
    av: &'a [f64],
    bv: Option<&'a [f64]>,
    gdims: &'a [FusedDim],
    out_strides: &'a [u64],
    edims: &'a [FusedDim],
    budget: Option<&'a ExecBudget>,
    arity: usize,
    check: Option<&'static str>,
}

/// Store one finished cell, validating it first unless the step stores
/// its products unchecked.
#[inline(always)]
fn store<S: SemiringOps>(check: Option<&'static str>, slot: &mut f64, v: f64) -> Result<()> {
    if let Some(op) = check {
        if !S::KIND.is_valid_accumulation(v) {
            return Err(AlgebraError::NonFiniteMeasure { op, value: v });
        }
    }
    *slot = v;
    Ok(())
}

/// Register-tiled contraction over the output box `[start, start +
/// out.len())` (whole axis-0 slabs, like every chunk the parallel split
/// hands out), compiled for `tier` (see [`SimdTier::run`]). Each tile is
/// `MR` cells along the [`TileAxes`] `m` axis × `NR` cells along its row
/// axis, and its accumulators stay in registers across the whole
/// eliminated odometer, so each load of the row operand feeds `MR` output
/// rows (GEMM's micro-kernel, over any semiring). `MR` and `NR` are per
/// tier (`tile_nest` call sites below); leftover row cells run as
/// one-register-wide `MR × NT` tiles ([`strip_tiles`]) and leftover `m`
/// rows as `1 × NR` tiles.
///
/// Each cell's fold is exactly the cell-major one ([`join_agg_cells`]):
/// the first product, then `S::add` in eliminated-odometer order. The
/// tile shape and the tier change which cells share
/// registers, never an operation or its order, so every tier computes the
/// same bits. The guard polls once per tile; a finished tile is
/// validated cell by cell (unless the step stores unchecked); a strip of
/// tiles (`MR` rows × at most [`ROW_BLOCK`] cells) is charged once it is
/// stored.
fn join_agg_tiles<S: SemiringOps>(
    tier: SimdTier,
    job: &StepJob<'_>,
    axes: TileAxes,
    start: usize,
    out: &mut [f64],
) -> Result<()> {
    tier.run(Tiles::<S> { job, axes, start, out, semiring: PhantomData })
}

struct Tiles<'a, 'b, S> {
    job: &'a StepJob<'b>,
    axes: TileAxes,
    start: usize,
    out: &'a mut [f64],
    semiring: PhantomData<S>,
}

impl<S: SemiringOps> TierKernel for Tiles<'_, '_, S> {
    type Output = Result<()>;

    #[inline(always)]
    fn run<T: Tier>(self) -> Result<()> {
        let Tiles { job, axes, start, out, .. } = self;
        // (MR, NR) per tier: as many accumulator registers as leave room
        // for the row loads and the broadcasts — 8 of 16 XMM, 8 of 16 YMM
        // and 16 of 32 ZMM (DESIGN §16 has the measured shapes) — and NT,
        // one vector register, for the row remainders.
        match T::TIER {
            SimdTier::Base => tile_nest::<S, 4, 4, 2>(job, axes, start, out),
            SimdTier::Avx2 => tile_nest::<S, 4, 8, 4>(job, axes, start, out),
            SimdTier::Avx512 => tile_nest::<S, 4, 32, 8>(job, axes, start, out),
        }
    }
}

/// [`join_agg_tiles`] for one tile shape: picks the operand pattern.
#[inline(always)]
fn tile_nest<S: SemiringOps, const MR: usize, const NR: usize, const NT: usize>(
    job: &StepJob<'_>,
    axes: TileAxes,
    start: usize,
    out: &mut [f64],
) -> Result<()> {
    // A one-operand step has no `m` axis, so its tiles are one row deep.
    match (job.bv.is_some(), axes.q_row, axes.swap) {
        (true, false, false) => strips::<S, 0, false, MR, NR, NT, false>(job, axes, start, out),
        (true, false, true) => strips::<S, 0, true, MR, NR, NT, false>(job, axes, start, out),
        (true, true, _) => strips::<S, 1, false, MR, NR, NT, false>(job, axes, start, out),
        (false, ..) => strips::<S, 0, false, 1, NR, NT, true>(job, axes, start, out),
    }
}

/// An eliminated axis in `P`/`Q` terms: domain and stride in each.
#[derive(Clone, Copy)]
struct ElimDim {
    dom: u64,
    sp: usize,
    sq: usize,
}

/// What every tile of one kernel call reads: the operands as `P` and
/// `Q` (empty in a one-operand step), `Q`'s stride along the tile's `m`
/// rows, and the eliminated odometer in `P`/`Q` terms — the outer axes
/// (`runs`, in merge order) and the innermost one (`last`), whose run
/// each cell folds contiguously. The cell nest reads it too, with `a` as
/// `P` and `b` as `Q`.
#[derive(Clone, Copy)]
struct TileSrc<'a> {
    pv: &'a [f64],
    qv: &'a [f64],
    sqm: usize,
    runs: &'a [ElimDim],
    eruns: u64,
    last: ElimDim,
}

impl<'a> TileSrc<'a> {
    /// The source over the eliminated axes `elim` (in `P`/`Q` terms).
    fn new(pv: &'a [f64], qv: &'a [f64], sqm: usize, elim: &'a [ElimDim]) -> TileSrc<'a> {
        let (runs, last) = match elim.split_last() {
            Some((&last, runs)) => (runs, last),
            None => (&[][..], ElimDim { dom: 1, sp: 0, sq: 0 }),
        };
        TileSrc { pv, qv, sqm, runs, eruns: runs.iter().map(|d| d.dom).product(), last }
    }

    /// Step the outer eliminated odometer `ecoords` to its next run,
    /// moving the `P`/`Q` offsets `p`/`q` with it.
    #[inline(always)]
    fn next_run(&self, ecoords: &mut [u64], p: &mut usize, q: &mut usize) {
        for (j, d) in self.runs.iter().enumerate().rev() {
            ecoords[j] += 1;
            *p += d.sp;
            *q += d.sq;
            if ecoords[j] < d.dom {
                return;
            }
            ecoords[j] = 0;
            *p -= d.sp * d.dom as usize;
            *q -= d.sq * d.dom as usize;
        }
    }
}

/// The tile nest for one operand pattern: `QJ` is `Q`'s stride along the
/// row (0 or 1), `SWAP` whether `P` is `b`, `ONE` whether the step has one
/// operand (its product is `P`'s value; `Q` is never read).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn strips<
    S: SemiringOps,
    const QJ: usize,
    const SWAP: bool,
    const MR: usize,
    const NR: usize,
    const NT: usize,
    const ONE: bool,
>(
    job: &StepJob<'_>,
    axes: TileAxes,
    start: usize,
    out: &mut [f64],
) -> Result<()> {
    let StepJob { av, bv, gdims, out_strides, edims, budget, arity, check, .. } = *job;
    let bv = bv.unwrap_or_default();
    let (pv, qv) = if SWAP { (bv, av) } else { (av, bv) };
    let pq = |d: &FusedDim| if SWAP { (d.sb, d.sa) } else { (d.sa, d.sb) };
    let mut guard = OpGuard::new(budget, arity);
    let k = gdims.len();
    let stride0 = out_strides[0] as usize;
    let (lo0, hi0) = (start / stride0, (start + out.len()) / stride0);
    let bounds = |j: usize| if j == 0 { (lo0, hi0) } else { (0, gdims[j].dom as usize) };
    let row = axes.row;
    let (rlo, rhi) = bounds(row);
    let ((spr, sqr), sor) = (pq(&gdims[row]), out_strides[row] as usize);
    let (mlo, mhi) = axes.m.map_or((0, 1), bounds);
    let ((_, sqm), som) = axes.m.map_or(((0, 0), 0), |m| (pq(&gdims[m]), out_strides[m] as usize));
    debug_assert_eq!((spr, sqr), (1, QJ));
    let elim_dims: Vec<ElimDim> = edims
        .iter()
        .map(|d| {
            let (sp, sq) = pq(d);
            ElimDim { dom: d.dom, sp, sq }
        })
        .collect();
    let src = TileSrc::new(pv, qv, sqm, &elim_dims);
    let mut ecoords = vec![0u64; src.runs.len()];
    // The other group axes run as an outer odometer, in output order.
    let mut coords: Vec<usize> = (0..k).map(|j| bounds(j).0).collect();
    loop {
        let (mut pbase, mut qbase, mut obase) = (0usize, 0usize, 0usize);
        for j in (0..k).filter(|&j| j != row && Some(j) != axes.m) {
            let (sp, sq) = pq(&gdims[j]);
            pbase += coords[j] * sp;
            qbase += coords[j] * sq;
            obase += coords[j] * out_strides[j] as usize;
        }
        let mut i0 = mlo;
        while i0 < mhi {
            let mr = (mhi - i0).min(MR);
            let mut x0 = rlo;
            while x0 < rhi {
                let n = (rhi - x0).min(ROW_BLOCK);
                let strip = Strip {
                    p: pbase + x0,
                    q: qbase + i0 * sqm + x0 * QJ,
                    o: obase + i0 * som + x0 * sor - start,
                    som,
                    sor,
                };
                if mr == MR {
                    strip_tiles::<S, QJ, SWAP, MR, NR, NT, ONE>(
                        &src, &mut ecoords, strip, n, &mut guard, check, out,
                    )?;
                } else {
                    for i in 0..mr {
                        let strip = Strip { q: strip.q + i * sqm, o: strip.o + i * som, ..strip };
                        strip_tiles::<S, QJ, SWAP, 1, NR, NT, ONE>(
                            &src, &mut ecoords, strip, n, &mut guard, check, out,
                        )?;
                    }
                }
                guard.produced_many((mr * n) as u64)?;
                x0 += n;
            }
            i0 += mr;
        }
        let mut done = true;
        for j in (0..k).rev().filter(|&j| j != row && Some(j) != axes.m) {
            coords[j] += 1;
            if coords[j] < bounds(j).1 {
                done = false;
                break;
            }
            coords[j] = bounds(j).0;
        }
        if done {
            break;
        }
    }
    guard.finish()
}

/// Where one strip of tiles starts: `P`, `Q` and output offsets of its
/// first cell, and the output strides along the tile's `m` rows and row
/// cells (`P` steps by 1 along the row, `Q` by `QJ`).
#[derive(Clone, Copy)]
struct Strip {
    p: usize,
    q: usize,
    o: usize,
    som: usize,
    sor: usize,
}

/// One strip of `R`-row tiles across `n` row cells: `R × NR` tiles, then
/// `R × NT` tiles over the remainder — the last one shifted back to end
/// at `n` when it would overrun, recomputing (bit for bit) cells already
/// stored — and `R × 1` tiles only when the whole strip is narrower than
/// `NT`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn strip_tiles<
    S: SemiringOps,
    const QJ: usize,
    const SWAP: bool,
    const R: usize,
    const NR: usize,
    const NT: usize,
    const ONE: bool,
>(
    src: &TileSrc<'_>,
    ecoords: &mut [u64],
    strip: Strip,
    n: usize,
    guard: &mut OpGuard<'_>,
    check: Option<&'static str>,
    out: &mut [f64],
) -> Result<()> {
    let work = src.eruns.saturating_mul(src.last.dom);
    let mut x = 0;
    while x + NR <= n {
        guard.poll_many(work.saturating_mul((R * NR) as u64))?;
        let acc = tile::<S, QJ, SWAP, R, NR, ONE>(src, ecoords, strip.p + x, strip.q + x * QJ);
        store_tile::<S, R, NR>(&acc, check, out, strip.o + x * strip.sor, strip.som, strip.sor)?;
        x += NR;
    }
    while x < n {
        if n >= NT {
            let x0 = x.min(n - NT);
            guard.poll_many(work.saturating_mul((R * NT) as u64))?;
            let (p, q) = (strip.p + x0, strip.q + x0 * QJ);
            let acc = tile::<S, QJ, SWAP, R, NT, ONE>(src, ecoords, p, q);
            store_tile::<S, R, NT>(&acc, check, out, strip.o + x0 * strip.sor, strip.som, strip.sor)?;
            x = x0 + NT;
        } else {
            guard.poll_many(work.saturating_mul(R as u64))?;
            let (p, q) = (strip.p + x, strip.q + x * QJ);
            let acc = tile::<S, QJ, SWAP, R, 1, ONE>(src, ecoords, p, q);
            store_tile::<S, R, 1>(&acc, check, out, strip.o + x * strip.sor, strip.som, strip.sor)?;
            x += 1;
        }
    }
    Ok(())
}

/// Store a finished tile cell by cell ([`store`]).
#[inline(always)]
fn store_tile<S: SemiringOps, const R: usize, const C: usize>(
    acc: &[[f64; C]; R],
    check: Option<&'static str>,
    out: &mut [f64],
    o: usize,
    som: usize,
    sor: usize,
) -> Result<()> {
    for (i, cells) in acc.iter().enumerate() {
        for (j, &v) in cells.iter().enumerate() {
            store::<S>(check, &mut out[o + i * som + j * sor], v)?;
        }
    }
    Ok(())
}

/// One `R × C` register tile: the fold of every cell over the whole
/// eliminated odometer, `P`/`Q` offsets `p`/`q` at its first cell.
#[inline(always)]
fn tile<
    S: SemiringOps,
    const QJ: usize,
    const SWAP: bool,
    const R: usize,
    const C: usize,
    const ONE: bool,
>(
    src: &TileSrc<'_>,
    ecoords: &mut [u64],
    p: usize,
    q: usize,
) -> [[f64; C]; R] {
    let TileSrc { pv, qv, sqm, eruns, last, .. } = *src;
    let ElimDim { dom: delast, sp: spl, sq: sql } = last;
    let delast = delast as usize;
    let mut acc = [[S::ZERO; C]; R];
    let (mut pr, mut qr) = (p, q);
    ecoords.fill(0);
    for run in 0..eruns {
        if run > 0 {
            src.next_run(ecoords, &mut pr, &mut qr);
        }
        // Each tile row's `Q` operand and the run's `P` rows, sliced once
        // per run so a step checks one index per row.
        let qs: [&[f64]; R] =
            std::array::from_fn(|i| if ONE { &[][..] } else { &qv[qr + i * sqm..] });
        let ps = &pv[pr..];
        let mut t = 0;
        if run == 0 {
            tile_step::<S, QJ, SWAP, R, C, true, ONE>(&mut acc, ps, 0, &qs, 0);
            t = 1;
        }
        while t < delast {
            tile_step::<S, QJ, SWAP, R, C, false, ONE>(&mut acc, ps, t * spl, &qs, t * sql);
            t += 1;
        }
    }
    acc
}

/// One eliminated point of a tile: `mul` the `P` row at `ps[p..]`
/// (shared by every tile row) with each tile row's `Q` operand at
/// `qs[i][q..]` (a row when `QJ = 1`, a broadcast scalar when 0) — or,
/// `ONE`, take the `P` row as it is — then store (`FIRST`) or `S::add`
/// into the accumulators. `mul` keeps its `(a, b)` order. The rows are
/// unrolled with constant indices so the accumulators can live in
/// registers across the caller's eliminated loop.
#[inline(always)]
fn tile_step<
    S: SemiringOps,
    const QJ: usize,
    const SWAP: bool,
    const R: usize,
    const C: usize,
    const FIRST: bool,
    const ONE: bool,
>(
    acc: &mut [[f64; C]; R],
    ps: &[f64],
    p: usize,
    qs: &[&[f64]; R],
    q: usize,
) {
    let prow: &[f64; C] = ps[p..p + C].try_into().expect("tile row in bounds");
    macro_rules! rows {
        ($($i:literal)*) => {$(
            if $i < R {
                tile_row::<S, QJ, SWAP, C, FIRST, ONE>(&mut acc[$i], prow, qs[$i], q);
            }
        )*};
    }
    rows!(0 1 2 3);
    debug_assert!(R <= 4, "tile_step unrolls at most 4 rows");
}

/// One tile row of [`tile_step`]: the row's `Q` operand is `qs[q]`.
#[inline(always)]
fn tile_row<
    S: SemiringOps,
    const QJ: usize,
    const SWAP: bool,
    const C: usize,
    const FIRST: bool,
    const ONE: bool,
>(
    arow: &mut [f64; C],
    prow: &[f64; C],
    qs: &[f64],
    q: usize,
) {
    let (y, qrow): (f64, &[f64]) = if ONE {
        (0.0, &[])
    } else if QJ == 1 {
        (0.0, &qs[q..q + C])
    } else {
        (qs[q], &[])
    };
    for j in 0..C {
        let x = prow[j];
        let v = if ONE {
            x
        } else {
            let y = if QJ == 1 { qrow[j] } else { y };
            if SWAP { S::mul(y, x) } else { S::mul(x, y) }
        };
        arow[j] = if FIRST { v } else { S::add(arow[j], v) };
    }
}

/// Cell-major contraction over one contiguous output-cell range: each
/// cell folds its eliminated subgrid's products (`mul(a, b)`, or `a`'s
/// value in a one-operand step) through strided odometers, first product
/// then `S::add` in eliminated-odometer order.
fn join_agg_cells<S: SemiringOps>(job: &StepJob<'_>, start: usize, out: &mut [f64]) -> Result<()> {
    match job.bv {
        Some(_) => cells::<S, false>(job, start, out),
        None => cells::<S, true>(job, start, out),
    }
}

/// Output cells the cell nest folds side by side: adjacent cells along
/// the output's innermost axis, each on its own accumulator, so their
/// folds overlap and share each load of an operand broadcast along that
/// axis. A cell still folds its own products in its own order.
const CELL_BLOCK: usize = 8;

/// [`join_agg_cells`] for one operand count (`ONE`: `b` is absent):
/// blocks of [`CELL_BLOCK`] cells along the innermost group axis, single
/// cells where a block would cross that axis or the range.
#[inline(always)]
fn cells<S: SemiringOps, const ONE: bool>(
    job: &StepJob<'_>,
    start: usize,
    out: &mut [f64],
) -> Result<()> {
    let StepJob { av, bv, gdims, out_strides, edims, budget, arity, check } = *job;
    let mut guard = OpGuard::new(budget, arity);
    let k = gdims.len();
    let mut coords = vec![0u64; k];
    let (mut abase, mut bbase) = (0usize, 0usize);
    let mut rem = start as u64;
    for j in 0..k {
        let c = rem / out_strides[j];
        rem %= out_strides[j];
        coords[j] = c;
        abase += c as usize * gdims[j].sa;
        bbase += c as usize * gdims[j].sb;
    }
    let elim_dims: Vec<ElimDim> =
        edims.iter().map(|d| ElimDim { dom: d.dom, sp: d.sa, sq: d.sb }).collect();
    let src = TileSrc::new(av, bv.unwrap_or_default(), 0, &elim_dims);
    let mut ecoords = vec![0u64; src.runs.len()];
    // The block's step in each operand: the innermost group axis's stride.
    let along = gdims.last().map_or((0, 0), |d| (d.sa, d.sb));
    let mut i = 0;
    while i < out.len() {
        let row_left = gdims.last().map_or(1, |d| (d.dom - coords[k - 1]) as usize);
        let n = if row_left.min(out.len() - i) >= CELL_BLOCK { CELL_BLOCK } else { 1 };
        guard.poll_many(n as u64)?;
        let at = (abase, bbase);
        let acc = if n == CELL_BLOCK {
            fold_cells::<S, ONE, CELL_BLOCK>(&src, &mut ecoords, at, along)
        } else {
            [fold_cells::<S, ONE, 1>(&src, &mut ecoords, at, along)[0]; CELL_BLOCK]
        };
        for (slot, &v) in out[i..i + n].iter_mut().zip(&acc) {
            store::<S>(check, slot, v)?;
            guard.produced()?;
        }
        i += n;
        // Advance the group odometer by the `n` cells, which never cross
        // the innermost axis.
        let mut step = n as u64;
        for j in (0..k).rev() {
            coords[j] += step;
            abase += step as usize * gdims[j].sa;
            bbase += step as usize * gdims[j].sb;
            if coords[j] < gdims[j].dom {
                break;
            }
            coords[j] = 0;
            abase -= gdims[j].sa * gdims[j].dom as usize;
            bbase -= gdims[j].sb * gdims[j].dom as usize;
            step = 1;
        }
    }
    guard.finish()
}

/// The folds of `K` adjacent cells, the `c`-th at `a`/`b` offsets
/// `a + c·along.0` and `b + c·along.1` (`src` holds `a` as `P`, `b` as
/// `Q`): each cell's first product, then `S::add` in eliminated-odometer
/// order.
#[inline(always)]
fn fold_cells<S: SemiringOps, const ONE: bool, const K: usize>(
    src: &TileSrc<'_>,
    ecoords: &mut [u64],
    (a, b): (usize, usize),
    along: (usize, usize),
) -> [f64; K] {
    let TileSrc { pv: av, qv: bv, eruns, last, .. } = *src;
    let product = |i: usize, j: usize| if ONE { av[i] } else { S::mul(av[i], bv[j]) };
    let at = |c: usize, ea: usize, eb: usize| (a + c * along.0 + ea, b + c * along.1 + eb);
    let mut acc: [f64; K] = std::array::from_fn(|c| {
        let (i, j) = at(c, 0, 0);
        product(i, j)
    });
    let (mut ea, mut eb) = (0usize, 0usize);
    ecoords.fill(0);
    for run in 0..eruns {
        if run > 0 {
            src.next_run(ecoords, &mut ea, &mut eb);
        }
        let first = usize::from(run == 0);
        let base: [(usize, usize); K] = std::array::from_fn(|c| at(c, ea, eb));
        if !ONE && along.0 == 0 {
            // `a` is broadcast along the block: one load per point.
            for t in first..last.dom as usize {
                let x = av[base[0].0 + t * last.sp];
                for (c, acc) in acc.iter_mut().enumerate() {
                    *acc = S::add(*acc, S::mul(x, bv[base[c].1 + t * last.sq]));
                }
            }
        } else if !ONE && along.1 == 0 {
            for t in first..last.dom as usize {
                let y = bv[base[0].1 + t * last.sq];
                for (c, acc) in acc.iter_mut().enumerate() {
                    *acc = S::add(*acc, S::mul(av[base[c].0 + t * last.sp], y));
                }
            }
        } else {
            for t in first..last.dom as usize {
                for (c, acc) in acc.iter_mut().enumerate() {
                    let (i, j) = base[c];
                    *acc = S::add(*acc, product(i + t * last.sp, j + t * last.sq));
                }
            }
        }
    }
    acc
}

/// `v`'s domain in a step's join grid: its grid-hint domain in the first
/// operand that has it (the operands agree on shared variables,
/// [`shared_domains_agree`]).
fn join_dom(
    (l, ld): (&FunctionalRelation, &[u64]),
    r: Option<(&FunctionalRelation, &[u64])>,
    v: VarId,
) -> u64 {
    std::iter::once((l, ld))
        .chain(r)
        .find_map(|(s, d)| s.schema().position(v).ok().map(|p| d[p]))
        .expect("a variable of an operand")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use mpf_semiring::SemiringKind;
    use mpf_storage::{Catalog, Schema};

    // The three step shapes, each entering the fallback chain at the
    // dense kernel.
    fn join(
        cx: &mut ExecContext<'_>,
        l: &FunctionalRelation,
        r: &FunctionalRelation,
    ) -> Result<FunctionalRelation> {
        ops::step(cx, &[l, r], None, OpRepr::Dense)
    }

    fn agg(
        cx: &mut ExecContext<'_>,
        x: &FunctionalRelation,
        g: &[VarId],
    ) -> Result<FunctionalRelation> {
        ops::step(cx, &[x], Some(g), OpRepr::Dense)
    }

    fn join_agg(
        cx: &mut ExecContext<'_>,
        l: &FunctionalRelation,
        r: &FunctionalRelation,
        g: &[VarId],
    ) -> Result<FunctionalRelation> {
        ops::step(cx, &[l, r], Some(g), OpRepr::Dense)
    }

    /// Whether the step over `inputs` runs dense under `mode`.
    fn runs_dense(mode: DenseMode, inputs: &[&FunctionalRelation], g: Option<&[VarId]>) -> bool {
        let mut cx = ExecContext::new(SemiringKind::SumProduct).with_dense(mode);
        ops::step(&mut cx, inputs, g, OpRepr::Dense).unwrap();
        cx.stats().dense_converts > 0
    }

    fn fixtures() -> (Catalog, FunctionalRelation, FunctionalRelation) {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 6).unwrap();
        let b = cat.add_var("b", 5).unwrap();
        let c = cat.add_var("c", 4).unwrap();
        let l = FunctionalRelation::complete(
            "l",
            Schema::new(vec![a, b]).unwrap(),
            &cat,
            |row| (row[0] * 3 + row[1] + 1) as f64,
        );
        let r = FunctionalRelation::complete(
            "r",
            Schema::new(vec![b, c]).unwrap(),
            &cat,
            |row| (row[0] + 5 * row[1] + 1) as f64,
        );
        (cat, l, r)
    }

    #[test]
    fn dense_join_matches_hash_join() {
        let (_, l, r) = fixtures();
        for sr in SemiringKind::ALL {
            let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
            let got = join(&mut ExecContext::new(sr), &l, &r).unwrap();
            assert!(want.function_eq(&got), "{sr:?}");
        }
    }

    #[test]
    fn dense_agg_matches_group_by() {
        let (cat, l, _) = fixtures();
        let a = cat.var("a").unwrap();
        let b = cat.var("b").unwrap();
        for sr in SemiringKind::ALL {
            for gv in [vec![a], vec![b, a], vec![]] {
                let want = ops::group_by(&mut ExecContext::new(sr), &l, &gv).unwrap();
                let got = agg(&mut ExecContext::new(sr), &l, &gv).unwrap();
                assert!(want.function_eq(&got), "{sr:?} {gv:?}");
            }
        }
    }

    #[test]
    fn fan_out_needs_work_per_worker() {
        // A D³ triangle step: a D = 64 step (2^18 products) stays on the
        // calling thread at 4 threads, a D = 256 one (2^24) takes both
        // workers at 2.
        let tri = |d: u64, threads| fan_out(threads, Some(d), d * d * d);
        assert_eq!(tri(64, 4), 1);
        assert_eq!(tri(256, 2), 2);
        // At most one worker per `PARALLEL_MIN_WORK` products and per row
        // of output axis 0; a scalar output has no axis to split.
        assert_eq!(tri(128, 8), 2);
        assert_eq!(fan_out(8, Some(3), 1 << 30), 3);
        assert_eq!(fan_out(8, None, 1 << 30), 1);
    }

    #[test]
    fn dense_results_bit_identical_across_threads() {
        let (cat, l, r) = fixtures();
        let b = cat.var("b").unwrap();
        let sr = SemiringKind::LogSumProduct;
        let j1 = join(&mut ExecContext::new(sr).with_threads(1), &l, &r).unwrap();
        let j4 = join(&mut ExecContext::new(sr).with_threads(4), &l, &r).unwrap();
        assert_eq!(j1, j4, "dense join output is odometer-ordered either way");
        let g1 = agg(&mut ExecContext::new(sr).with_threads(1), &j1, &[b]).unwrap();
        let g4 = agg(&mut ExecContext::new(sr).with_threads(4), &j4, &[b]).unwrap();
        assert_eq!(g1, g4);
    }

    #[test]
    fn transposed_join_matches_hash_join() {
        // The (c, b) output has `r` stored (b, c): the step's row axis `c`
        // is unit-stride in both operands but strided in the output, and
        // no domain is a multiple of any tile width, so remainder tiles
        // clip. At 230 × 300 the step runs on one worker; at 1030 × 2050
        // its ≈2.1·10^6 products are two `PARALLEL_MIN_WORK`s, so 4
        // threads split it across two. The hash reference runs at the
        // small size only: at the big one it takes seconds in a debug
        // build.
        for (nb, nc) in [(230, 300), (1030, 2050)] {
            let mut cat = Catalog::new();
            let b = cat.add_var("b", nb).unwrap();
            let c = cat.add_var("c", nc).unwrap();
            let l =
                FunctionalRelation::complete("l", Schema::new(vec![c]).unwrap(), &cat, |row| {
                    1.0 + row[0] as f64
                });
            let r =
                FunctionalRelation::complete("r", Schema::new(vec![b, c]).unwrap(), &cat, |row| {
                    ((row[0] * 7 + row[1] * 3) % 11) as f64 + 0.25
                });
            let sr = SemiringKind::SumProduct;
            let got1 = join(&mut ExecContext::new(sr).with_threads(1), &l, &r).unwrap();
            let got4 = join(&mut ExecContext::new(sr).with_threads(4), &l, &r).unwrap();
            let bits = |rel: &FunctionalRelation| -> Vec<u64> {
                rel.measures().iter().map(|m| m.to_bits()).collect()
            };
            assert_eq!(got1, got4, "{nb}×{nc}: the same rows at every thread count");
            assert_eq!(bits(&got1), bits(&got4), "{nb}×{nc}: the step is chunk-invariant");
            if nb == 230 {
                let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
                assert!(want.function_eq(&got1));
            }
        }
    }

    #[test]
    fn agg_on_the_unit_stride_axis_matches_hash_group_by() {
        // Grouping on the input's stride-1 axis puts the one-operand step
        // on the tile nest, the eliminated axis outside each tile row; the
        // hash operator folds each group's rows in the same (first-axis
        // ascending) order, so results match bit for bit.
        let mut cat = Catalog::new();
        let e = cat.add_var("e", 260).unwrap();
        let g = cat.add_var("g", 300).unwrap();
        let input =
            FunctionalRelation::complete("t", Schema::new(vec![e, g]).unwrap(), &cat, |row| {
                0.5 + ((row[0] * 13 + row[1] * 5) % 17) as f64
            });
        let sr = SemiringKind::LogSumProduct;
        let want = ops::group_by(&mut ExecContext::new(sr), &input, &[g]).unwrap();
        let got1 = agg(&mut ExecContext::new(sr).with_threads(1), &input, &[g]).unwrap();
        let got4 = agg(&mut ExecContext::new(sr).with_threads(4), &input, &[g]).unwrap();
        let bits = |rel: &FunctionalRelation| -> Vec<(Vec<Value>, u64)> {
            rel.canonicalized().rows().map(|(row, m)| (row.to_vec(), m.to_bits())).collect()
        };
        assert_eq!(bits(&want), bits(&got1));
        assert_eq!(got1, got4, "the step is chunk-invariant");
    }

    #[test]
    fn incomplete_inputs_fall_back_to_sparse() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 3).unwrap();
        let b = cat.add_var("b", 3).unwrap();
        let l = FunctionalRelation::from_rows(
            "l",
            Schema::new(vec![a]).unwrap(),
            [(vec![0], 2.0), (vec![2], 3.0)],
        )
        .unwrap();
        let r = FunctionalRelation::from_rows(
            "r",
            Schema::new(vec![a, b]).unwrap(),
            [(vec![0, 1], 5.0), (vec![2, 2], 7.0), (vec![1, 0], 11.0)],
        )
        .unwrap();
        // Every row of a 3 × 3 grid, ending on its last point so the grid
        // hint accepts it, but out of odometer order: the step itself
        // refuses to borrow it.
        let shuffled = FunctionalRelation::from_rows(
            "s",
            Schema::new(vec![a, b]).unwrap(),
            [4u32, 0, 7, 2, 5, 1, 6, 3, 8].map(|i| (vec![i / 3, i % 3], 1.0 + i as f64)),
        )
        .unwrap();
        let complete = FunctionalRelation::complete("c", Schema::new(vec![a]).unwrap(), &cat, |row| {
            2.0 + row[0] as f64
        });
        for sr in SemiringKind::ALL {
            // An incomplete input never borrows as a dense operand — its
            // support would differ from the hash join's — so the chain
            // goes on to the sparse kernel, whether the O(1) hint or the
            // step's own order check refuses it.
            assert!(!join_support_exact(&l, &r));
            for (l, r) in [(&l, &r), (&complete, &shuffled)] {
                let want = ops::product_join(&mut ExecContext::new(sr), l, r).unwrap();
                let mut cx = ExecContext::new(sr);
                let got = join(&mut cx, l, r).unwrap();
                assert_eq!(cx.stats().dense_joins, 0, "{sr:?} fell back");
                assert!(want.function_eq(&got), "{sr:?} row-identical");
                assert_eq!(cx.stats().sparse_joins, 1, "{sr:?} ran sparse");
                // The sparse join of the complete pair is a grid in
                // odometer order, so marginalizing it may run dense.
                let wg = ops::group_by(&mut ExecContext::new(sr), &want, &[b]).unwrap();
                let gg = agg(&mut ExecContext::new(sr), &got, &[b]).unwrap();
                assert!(wg.function_eq(&gg), "{sr:?} agg");
            }
            let mut gx = ExecContext::new(sr);
            let gg = agg(&mut gx, &shuffled, &[b]).unwrap();
            assert_eq!(gx.stats().dense_group_bys, 0, "{sr:?} agg refused the shuffled grid");
            let wg = ops::group_by(&mut ExecContext::new(sr), &shuffled, &[b]).unwrap();
            assert!(wg.function_eq(&gg), "{sr:?} agg");
        }
    }

    #[test]
    fn dispatch_gates_on_mode_and_completeness() {
        let is_complete_on_inferred =
            |rel: &FunctionalRelation| grid_cells(&rel.inferred_domains()) == Some(rel.len() as u64);
        let (cat, l, r) = fixtures();
        let b = cat.var("b").unwrap();
        assert!(is_complete_on_inferred(&l));
        assert!(runs_dense(DenseMode::Auto, &[&l, &r], None));
        assert!(!runs_dense(DenseMode::Off, &[&l, &r], None));
        let mut sparse = FunctionalRelation::new("s", l.schema().clone());
        sparse.push_row(&[5, 4], 1.0).unwrap();
        assert!(!is_complete_on_inferred(&sparse));
        // Support-exactness is a hard precondition, checked at runtime.
        assert!(!runs_dense(DenseMode::Auto, &[&sparse, &r], None));
        assert!(runs_dense(DenseMode::Auto, &[&l], Some(&[b])));
        assert!(!runs_dense(DenseMode::Off, &[&l], Some(&[b])));
        assert!(!runs_dense(DenseMode::Auto, &[&sparse], Some(&[b])));
        // Complete sides whose shared-variable ranges disagree would
        // zero-fill output cells the hash join never emits — refused too.
        let c = cat.var("c").unwrap();
        let narrow = FunctionalRelation::from_rows(
            "n",
            Schema::new(vec![b, c]).unwrap(),
            (0..6).map(|i| (vec![i / 2, i % 2], 1.0 + i as f64)),
        )
        .unwrap();
        assert!(is_complete_on_inferred(&narrow));
        assert!(!join_support_exact(&l, &narrow));
        assert!(!runs_dense(DenseMode::Auto, &[&l, &narrow], None));
    }

    #[test]
    fn infeasible_grid_falls_back_to_sparse() {
        // Two wide relations whose union grid exceeds MAX_DENSE_CELLS:
        // the dense step declines and the sparse join runs instead.
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 1 << 13).unwrap();
        let y = cat.add_var("y", 1 << 13).unwrap();
        let mut l = FunctionalRelation::new("l", Schema::new(vec![x]).unwrap());
        l.push_row(&[(1 << 13) - 1], 2.0).unwrap();
        let mut r = FunctionalRelation::new("r", Schema::new(vec![y]).unwrap());
        r.push_row(&[(1 << 13) - 1], 3.0).unwrap();
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::new(sr);
        let out = join(&mut cx, &l, &r).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(cx.stats().joins, 1);
        assert_eq!(cx.stats().dense_joins, 0);
        assert_eq!(cx.stats().sparse_joins, 1, "fell back to the sparse join");
        // Complete sides pass every support check, but the step itself
        // refuses their union grid (2^13 × 2^13 cells exceeds
        // MAX_DENSE_CELLS) before borrowing either operand: no conversion
        // is counted, and the sparse join that runs instead trips the
        // budget capping its 2^26 rows.
        let l = FunctionalRelation::complete("l", Schema::new(vec![x]).unwrap(), &cat, |_| 2.0);
        let r = FunctionalRelation::complete("r", Schema::new(vec![y]).unwrap(), &cat, |_| 3.0);
        assert!(join_support_exact(&l, &r));
        let limits = crate::ExecLimits::none().with_max_output_rows(10);
        let mut cx = ExecContext::with_limits(sr, limits);
        let err = join(&mut cx, &l, &r).unwrap_err();
        assert!(
            matches!(
                err,
                AlgebraError::ResourceExhausted { resource: crate::ResourceKind::OutputRows, .. }
            ),
            "{err:?}"
        );
        assert_eq!(cx.stats().dense_converts, 0, "no operand was borrowed");
    }

    #[test]
    fn dense_ops_account_like_sparse_and_mark_dense() {
        let (cat, l, r) = fixtures();
        let b = cat.var("b").unwrap();
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::new(sr);
        let j = join(&mut cx, &l, &r).unwrap();
        agg(&mut cx, &j, &[b]).unwrap();
        let stats = cx.stats();
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.dense_joins, 1);
        assert_eq!(stats.group_bys, 1);
        assert_eq!(stats.dense_group_bys, 1);
        // join: 2 input conversions + 1 output; agg: 1 input + 1 output.
        assert_eq!(stats.dense_converts, 5);
        // Sparse runs count the same rows processed.
        let mut sx = ExecContext::new(sr);
        let js = ops::product_join(&mut sx, &l, &r).unwrap();
        ops::group_by(&mut sx, &js, &[b]).unwrap();
        assert_eq!(stats.rows_processed, sx.stats().rows_processed);
    }

    #[test]
    fn dense_budget_trips_like_sparse() {
        let (_, l, r) = fixtures();
        let sr = SemiringKind::SumProduct;
        let limits = crate::ExecLimits::none().with_max_output_rows(10);
        let err = join(&mut ExecContext::with_limits(sr, limits.clone()), &l, &r).unwrap_err();
        let sparse_err =
            ops::product_join(&mut ExecContext::with_limits(sr, limits), &l, &r).unwrap_err();
        assert_eq!(err, sparse_err);
    }

    /// Complete `l(x, e)` and `r(e, y)` of side `d` — the spine's D³
    /// elimination step, `group by [x, y]`.
    fn contraction(d: u64) -> (Catalog, FunctionalRelation, FunctionalRelation) {
        let mut cat = Catalog::new();
        let x = cat.add_var("x", d).unwrap();
        let e = cat.add_var("e", d).unwrap();
        let y = cat.add_var("y", d).unwrap();
        let l = FunctionalRelation::complete("l", Schema::new(vec![x, e]).unwrap(), &cat, |row| {
            0.5 + ((row[0] * 31 + row[1] * 7) % 13) as f64 / 8.0
        });
        let r = FunctionalRelation::complete("r", Schema::new(vec![e, y]).unwrap(), &cat, |row| {
            0.25 + ((row[0] * 5 + row[1] * 11) % 17) as f64 / 4.0
        });
        (cat, l, r)
    }

    #[test]
    fn fused_kernel_never_needs_the_join_grid() {
        // D = 288: operands and output are D² = 82 944 cells, the join
        // grid D³ = 2.39·10⁷ is beyond MAX_DENSE_CELLS = 2²⁴. The fused
        // kernel only indexes that grid, so it still runs dense — and its
        // peak intermediate is the output, not the join.
        const D: usize = 288;
        let (cat, l, r) = contraction(D as u64);
        let gv = [cat.var("x").unwrap(), cat.var("y").unwrap()];
        assert!(grid_cells(&[D as u64; 3]).is_none(), "join grid is over the cap");
        let (lm, rm) = (l.measures(), r.measures());
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let out = join_agg(&mut cx, &l, &r, &gv).unwrap();
        let stats = cx.stats();
        assert_eq!((stats.fused_join_aggs, stats.dense_joins), (1, 1), "ran dense");
        assert_eq!(stats.max_intermediate_rows, (D * D) as u64);
        let got = out.measures();
        assert_eq!(got.len(), D * D);
        for x in 0..D {
            for y in 0..D {
                let mut want = lm[x * D] * rm[y];
                for e in 1..D {
                    want += lm[x * D + e] * rm[e * D + y];
                }
                assert_eq!(got[x * D + y].to_bits(), want.to_bits(), "({x}, {y})");
            }
        }
    }

    /// Run the tiled kernel on the `contraction(d)` shape under `limits`,
    /// over a NaN-filled output: the error it stops with and how many
    /// cells it had stored by then.
    fn row_kernel_under(d: usize, limits: crate::ExecLimits) -> (AlgebraError, usize) {
        let (_, l, r) = contraction(d as u64);
        let gdims = [
            FusedDim { dom: d as u64, sa: d, sb: 0 },
            FusedDim { dom: d as u64, sa: 0, sb: 1 },
        ];
        let edims = [FusedDim { dom: d as u64, sa: 1, sb: d }];
        let budget = ExecBudget::new(limits);
        let mut out = vec![f64::NAN; d * d];
        let job = StepJob {
            av: l.measures(),
            bv: Some(r.measures()),
            gdims: &gdims,
            out_strides: &[d as u64, 1],
            edims: &edims,
            budget: Some(&budget),
            arity: 2,
            check: Some("dense::join_agg"),
        };
        let err = join_agg_tiles::<mpf_semiring::kernel::SumProduct>(
            SimdTier::detect(),
            &job,
            TileAxes::choose(&gdims, 1),
            0,
            &mut out,
        )
        .unwrap_err();
        (err, out.iter().filter(|v| !v.is_nan()).count())
    }

    #[test]
    fn row_nest_trips_deadline_and_cancel_within_one_output_row() {
        // One output row is 67 cells × 67 eliminated values ≥ TICK_INTERVAL
        // units of work, so every row polls: a cancelled token or an
        // expired deadline stops the kernel before it stores anything.
        let token = crate::CancelToken::new();
        token.cancel();
        let (err, stored) =
            row_kernel_under(67, crate::ExecLimits::none().with_cancel_token(token));
        assert_eq!(err, AlgebraError::Cancelled);
        assert_eq!(stored, 0);
        let (err, stored) = row_kernel_under(
            67,
            crate::ExecLimits::none().with_timeout(std::time::Duration::ZERO),
        );
        assert!(
            matches!(
                err,
                AlgebraError::ResourceExhausted { resource: crate::ResourceKind::WallClock, .. }
            ),
            "{err:?}"
        );
        assert_eq!(stored, 0);
    }

    #[test]
    fn row_nest_trips_row_and_cell_budgets_within_one_output_row() {
        // Rows are charged a row at a time and settled on the same
        // cumulative thresholds as the per-cell nest: the trip comes at
        // the first settlement past the cap, at most one output row later
        // than a per-cell guard would report it.
        const D: usize = 67;
        let slack = (crate::limits::TICK_INTERVAL as usize + D) as u64;
        let (err, stored) =
            row_kernel_under(D, crate::ExecLimits::none().with_max_output_rows(2000));
        match err {
            AlgebraError::ResourceExhausted {
                resource: crate::ResourceKind::OutputRows,
                limit: 2000,
                observed,
            } => assert!(observed > 2000 && observed <= 2000 + slack, "{observed}"),
            other => panic!("expected OutputRows trip, got {other:?}"),
        }
        assert!(stored < D * D && stored % D == 0, "stopped on a row boundary: {stored}");
        // 3 cells per output row (two variables + the measure).
        let (err, stored) =
            row_kernel_under(D, crate::ExecLimits::none().with_max_total_cells(6000));
        match err {
            AlgebraError::ResourceExhausted {
                resource: crate::ResourceKind::TotalCells,
                limit: 6000,
                observed,
            } => assert!(observed > 6000 && observed <= 6000 + 3 * slack, "{observed}"),
            other => panic!("expected TotalCells trip, got {other:?}"),
        }
        assert!(stored < D * D && stored % D == 0, "stopped on a row boundary: {stored}");
    }

    /// Fused dims for a step over axes with domains `doms`: `a` stored
    /// over `a_axes`, `b` over `b_axes` (row-major; empty for a
    /// one-operand step), walked along `axes` (group axes in output
    /// order, or eliminated ones in merge order).
    fn dims_of(doms: &[u64], a_axes: &[usize], b_axes: &[usize], axes: &[usize]) -> Vec<FusedDim> {
        let stride = |side: &[usize], v: usize| {
            let strides = strides_of(&side.iter().map(|&u| doms[u]).collect::<Vec<_>>());
            side.iter().position(|&u| u == v).map_or(0, |p| strides[p] as usize)
        };
        axes.iter()
            .map(|&v| FusedDim { dom: doms[v], sa: stride(a_axes, v), sb: stride(b_axes, v) })
            .collect()
    }

    /// Measures from a palette of edge values for `sr`: signed zeros
    /// (ties under min/max), the additive identity where it is infinite,
    /// subnormals and ordinary values, picked by a hash of the index.
    fn edge_values(sr: SemiringKind, n: usize, salt: u64) -> Vec<f64> {
        let palette: &[f64] = match sr {
            SemiringKind::SumProduct => &[0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 1.5, -0.75],
            SemiringKind::MinSum => &[f64::INFINITY, 0.0, -0.0, 5e-324, 1.0, 2.5, -3.0],
            SemiringKind::MaxSum => &[f64::NEG_INFINITY, 0.0, -0.0, 5e-324, 1.0, -2.0],
            SemiringKind::MinProduct => &[f64::INFINITY, 0.0, -0.0, 5e-324, 0.5, 2.0],
            SemiringKind::MaxProduct => &[0.0, -0.0, 5e-324, 1e-310, 0.5, 2.0],
            SemiringKind::BoolOrAnd => &[0.0, -0.0, 1.0],
            SemiringKind::LogSumProduct => &[f64::NEG_INFINITY, 0.0, -0.0, 5e-324, -1.5, 2.0],
        };
        (0..n as u64)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                palette[(h % palette.len() as u64) as usize]
            })
            .collect()
    }

    /// Run the tile nest for `job` on `tier`, the output split into
    /// `chunks` axis-0 boxes the way the worker pool splits it: the
    /// output bits, or the error.
    fn tiles_on<S: SemiringOps>(
        tier: SimdTier,
        job: &StepJob<'_>,
        axes: TileAxes,
        total: usize,
        chunks: usize,
    ) -> Result<Vec<u64>> {
        let (dom0, stride0) = (job.gdims[0].dom as usize, job.out_strides[0] as usize);
        let chunk = dom0.div_ceil(chunks).max(1) * stride0;
        let mut out = vec![f64::NAN; total];
        for (i, slice) in out.chunks_mut(chunk).enumerate() {
            join_agg_tiles::<S>(tier, job, axes, i * chunk, slice)?;
        }
        Ok(out.iter().map(|v| v.to_bits()).collect())
    }

    /// An elimination step for the tier checks, over the axes of `doms`:
    /// `a`'s axes, `b`'s (`None` for a one-operand step), and the
    /// eliminated axes in merge order (empty for a join).
    struct Layout<'a> {
        a: &'a [usize],
        b: Option<&'a [usize]>,
        elim: &'a [usize],
    }

    /// One layout under every tier the host supports, bit for bit against
    /// the base tier in one box and against the cell-major nest. Checked
    /// like the operator it stands for: a two-operand step that
    /// eliminates nothing (a join) stores its products unchecked.
    fn check_tiers<S: SemiringOps>(
        doms: &[u64],
        layout: &Layout<'_>,
        group: &[usize],
        av: &[f64],
        bv: Option<&[f64]>,
    ) -> Result<Vec<u64>> {
        let b_axes = layout.b.unwrap_or_default();
        let gdims = dims_of(doms, layout.a, b_axes, group);
        let edims = dims_of(doms, layout.a, b_axes, layout.elim);
        let out_doms: Vec<u64> = group.iter().map(|&v| doms[v]).collect();
        let out_strides = strides_of(&out_doms);
        let total = out_doms.iter().product::<u64>() as usize;
        let row = gdims
            .iter()
            .rposition(|d| matches!((d.sa, d.sb), (1, 0) | (0, 1) | (1, 1)))
            .expect("a row axis");
        let check = match (layout.b, layout.elim) {
            (None, _) => Some("dense::agg"),
            (Some(_), []) => None,
            (Some(_), _) => Some("dense::join_agg"),
        };
        let job = StepJob {
            av,
            bv,
            gdims: &gdims,
            out_strides: &out_strides,
            edims: &edims,
            budget: None,
            arity: group.len(),
            check,
        };
        let axes = TileAxes::choose(&gdims, row);
        let want = tiles_on::<S>(SimdTier::Base, &job, axes, total, 1);
        let mut cells = vec![f64::NAN; total];
        let by_cell = join_agg_cells::<S>(&job, 0, &mut cells)
            .map(|()| cells.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        let what = format!(
            "{:?} doms {doms:?} a {:?} b {:?} elim {:?} group {group:?}",
            S::KIND,
            layout.a,
            layout.b,
            layout.elim
        );
        assert_eq!(want, by_cell, "tile nest vs cell nest: {what}");
        for tier in SimdTier::ALL.into_iter().filter(|t| t.is_supported()) {
            for chunks in [1, 3] {
                let got = tiles_on::<S>(tier, &job, axes, total, chunks);
                assert_eq!(got, want, "{tier:?} in {chunks} boxes: {what}");
            }
        }
        want
    }

    #[test]
    fn every_tier_matches_the_base_tier_bit_for_bit() {
        fn check<S: SemiringOps>() {
            // Vector code only exists in optimized builds; unoptimized
            // runs keep the sides whose remainders they can afford.
            let sides: &[u64] = if cfg!(debug_assertions) {
                &[1, 3, 4, 5, 31, 32, 33]
            } else {
                &[1, 3, 4, 5, 31, 32, 33, 67, 256]
            };
            for &d in sides {
                // Axes: 0 = x, 1 = y (group), 2 = e, 3 = f (eliminated).
                let doms = [d, d, 11, 3];
                let vals = |axes: &[usize], salt| {
                    edge_values(S::KIND, axes.iter().map(|&v| doms[v] as usize).product(), salt)
                };
                let two = |a, b, elim| Layout { a, b: Some(b), elim };
                let one = |a, elim| Layout { a, b: None, elim };
                let layouts = [
                    // (0,1): the row operand `b` is broadcast along x.
                    two(&[0, 2], &[2, 1], &[2]),
                    // (1,0): the row operand `a` is broadcast along y.
                    two(&[2, 0], &[1, 2], &[2]),
                    // Two eliminated axes, f outermost in merge order.
                    two(&[0, 3, 2], &[3, 2, 1], &[3, 2]),
                    // Row axis x unit-stride in both operands.
                    two(&[2, 0], &[1, 0], &[2]),
                    // Joins, nothing eliminated: an outer product (the
                    // row operand broadcast along the other axis), and a
                    // row axis unit-stride in both operands.
                    two(&[0], &[1], &[]),
                    two(&[0, 1], &[1], &[]),
                    // One operand: eliminated axes outside its unit-stride
                    // group axis (one, two, or one between group axes),
                    // and nothing eliminated (a copy, or a transpose).
                    one(&[2, 0, 1], &[2]),
                    one(&[3, 0, 2, 1], &[3, 2]),
                    one(&[1, 2, 0], &[2]),
                    one(&[0, 1], &[]),
                ];
                for layout in &layouts {
                    let av = vals(layout.a, 6);
                    let bv = layout.b.map(|b| vals(b, 7));
                    for group in [[0, 1], [1, 0]] {
                        check_tiers::<S>(&doms, layout, &group, &av, bv.as_deref())
                            .unwrap_or_else(|e| panic!("{:?} d {d}: {e:?}", S::KIND));
                    }
                }
            }
        }
        for sr in SemiringKind::ALL {
            for_each_semiring!(sr, check());
        }
    }

    #[test]
    fn every_tier_rejects_the_same_overflowing_cell() {
        fn check<S: SemiringOps>(d: u64) -> AlgebraError {
            let doms = [d, d, 11, 1];
            let mut av = vec![1.0; (d * 11) as usize];
            let mut bv = vec![1.0; (11 * d) as usize];
            // a[x = d-1, e = 4] · b[e = 4, y = d/2] overflows one cell only.
            av[((d - 1) * 11 + 4) as usize] = 1e300;
            bv[(4 * d + d / 2) as usize] = 1e300;
            let layout = Layout { a: &[0, 2], b: Some(&[2, 1]), elim: &[2] };
            let err =
                check_tiers::<S>(&doms, &layout, &[0, 1], &av, Some(&bv)).unwrap_err();
            assert!(matches!(err, AlgebraError::NonFiniteMeasure { .. }), "{err:?}");
            err
        }
        for d in [5u64, 33, 67] {
            assert_eq!(
                check::<mpf_semiring::kernel::SumProduct>(d),
                AlgebraError::NonFiniteMeasure { op: "dense::join_agg", value: f64::INFINITY }
            );
            assert_eq!(
                check::<mpf_semiring::kernel::MaxProduct>(d),
                AlgebraError::NonFiniteMeasure { op: "dense::join_agg", value: f64::INFINITY }
            );
        }
    }

    #[test]
    fn every_tier_stores_an_overflowing_join_product() {
        // A join eliminates nothing and stores its products as they are:
        // the one overflowing cell is +∞ on every tier, the rest 1e150².
        for d in [5u64, 33, 67] {
            let doms = [d, d];
            let (av, bv) = (vec![1e150; d as usize], vec![1e150; d as usize]);
            let mut big = av.clone();
            big[(d / 2) as usize] = 1e300;
            let layout = Layout { a: &[0], b: Some(&[1]), elim: &[] };
            let got = check_tiers::<mpf_semiring::kernel::SumProduct>(
                &doms,
                &layout,
                &[0, 1],
                &big,
                Some(&bv),
            )
            .expect("a join stores its products unchecked");
            let infs = got.iter().filter(|&&b| f64::from_bits(b) == f64::INFINITY).count();
            assert_eq!(infs, d as usize, "one row of +∞ products at d {d}");
            assert!(check_tiers::<mpf_semiring::kernel::SumProduct>(
                &doms,
                &layout,
                &[0, 1],
                &av,
                Some(&bv),
            )
            .unwrap()
            .iter()
            .all(|&b| b == (1e150f64 * 1e150).to_bits()));
        }
    }

    #[test]
    fn mode_defaults_to_auto() {
        assert_eq!(DenseMode::default(), DenseMode::Auto);
    }
}
