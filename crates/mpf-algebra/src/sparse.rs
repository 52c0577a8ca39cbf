//! Sparse-tensor operators: every operand the dense kernels decline.
//!
//! The dense odometer kernels touch every grid cell and win only near
//! completeness; below that, the step here keys each operand as
//! linearized odometer coordinates sorted ascending, with its measures
//! gathered into that order: present cells only, no per-row key
//! extraction, no hash probes. Sorting and merging integer coordinates
//! beats the hash operators at every density measured (down to 0.5 %),
//! so under [`ReprMode::Auto`] the choice is by feasibility alone: the
//! step runs whenever it accepts the input.
//!
//! It is one step, the paper's GroupBy∘ProductJoin (VE's elimination
//! step, FAQ's InsideOut), and the second link of
//! [`crate::ops::step`]'s fallback chain. Both operands are keyed in one
//! merge axis order `[shared vars, l-own vars, r-own vars]`, so rows
//! joining on the shared variables form contiguous runs of equal
//! coordinate *prefix*; a merge of the two sides' run lists pairs the
//! runs, with no hash table and no per-row key allocation. Each pair's
//! product folds straight into its group — streaming when the group
//! variables can lead the merge order, through a direct-address
//! accumulator otherwise — so the join is never materialized. The step
//! covers its two degenerate forms:
//!
//! * two operands and nothing eliminated (the product join): every
//!   variable is a group variable, in merge order, so each pair is its
//!   own group. Its coordinate is the merge coordinate `(a_key -
//!   prefix) * b_own_cells + b_key`, read off the keys and ascending by
//!   construction, so the output needs no sort; its product is stored as
//!   it is (no join validates a product; the marginalization above it
//!   does);
//! * one operand (the marginalization): keyed `[group vars, eliminated
//!   vars]`, each run of equal group prefix folds in one pass — or, when
//!   the group grid is small, every row folds straight into its group's
//!   slot in stored order. The "product" of a row is its value, never
//!   multiplied by a unit (`x ⊗ 1` would turn `−0.0` into `+0.0` where
//!   `⊗` is `+`).
//!
//! The runs and digits the step reads are the trie levels of the
//! operand's [`KeyedOrder`] ([`KeyedOrder::runs`], [`KeyedOrder::digits`]):
//! built once per stored relation and axis order and memoized with it,
//! per query only for derived operands, and never by a division per key.
//!
//! Every form emits its output in coordinate form
//! ([`FunctionalRelation::from_coords`], O(1)): ascending coordinates in
//! the output schema's own order. The next sparse step keys those
//! coordinates directly — no sort when it asks for that order, one
//! re-permutation otherwise — and packed rows materialize lazily, only
//! for a consumer that reads rows (a hash operator, answer encoding),
//! outside the operator that produced them. Keying a row-major operand
//! counts one conversion in [`crate::ExecStats::sparse_converts`]; a
//! coordinate-form operand counts none.
//!
//! The two kernels (stream and scatter) are monomorphized per semiring
//! through [`mpf_semiring::for_each_semiring`], and walk one loop per
//! term source — a join's run pairs, a fused step's run pairs, a lone
//! operand's group runs or its stored rows — chosen once per call: the
//! inner loops see statically known [`SemiringOps`] rather than a
//! `match` per cell, and no branch per term on the step's shape.
//!
//! Like the dense module, infeasibility is a fallback, never an error:
//! when the coordinate space overflows
//! [`mpf_storage::layout::MAX_SPARSE_COORD_CELLS`], a value falls outside
//! its inferred domain, or a side holds duplicate argument tuples (the
//! data is not functional — the hash operators define the semantics
//! then), the step declines and [`crate::ops::step`] runs the hash
//! operators.
//! Unlike the dense kernels there is no support-exactness precondition:
//! the join emits exactly the matching pairs and the marginalization
//! collapses exactly the present coordinates, so the output *rows* equal
//! the hash operators' at any density (modulo row and column order,
//! which [`FunctionalRelation::function_eq`] ignores).

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use mpf_semiring::{for_each_semiring, kernel::SemiringOps};
use mpf_storage::layout::grid_cells_wide;
use mpf_storage::{FunctionalRelation, KeyedOrder, KeyedSource, Runs, Schema, VarId};

use crate::limits::{ExecBudget, OpGuard, TICK_INTERVAL};
use crate::trace::OpRepr;
use crate::{AlgebraError, ExecContext, Result};

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
/// [`crate::ops::step`] when the dense kernel declines: the fused
/// join→marginalize (two operands with group variables) and its two
/// degenerate forms, the product join (two operands, `group_vars`
/// `None`) and the marginalization (one operand); see the module docs.
/// Probes the fault site of its shape — `sparse::join`, `sparse::agg` or
/// `sparse::join_agg` — first; `None` when the coordinate space is
/// infeasible, a value escapes its inferred domain or a side is not
/// functional. Group variables are validated by the caller.
///
/// The join's output column order is `[shared, l-only, r-only]` — a
/// permutation of the hash join's union order; every operator is
/// schema-aware, so only the raw column layout differs. Every form folds
/// its terms in ascending merge coordinate:
///
/// * **stream** — when the group variables can lead the merge order
///   (each block `shared`, `l-own`, `r-own` may be permuted, the blocks
///   may not), the terms of one group are contiguous and collapse inside
///   the merge loop in O(output) memory. The join and a keyed
///   marginalization always stream;
/// * **scatter** — else, when the group grid is small next to the
///   pre-counted number of terms, every term folds into the
///   direct-address accumulator at its group coordinate. A
///   marginalization tries this first, over its rows in stored order;
/// * **staged** — else the join step runs in full and the one-operand
///   step marginalizes it (the unfused pipeline).
///
/// The eliminated variables keep their relative order in the merge
/// order, so each group folds its terms in the order the unfused join →
/// marginalization pipeline folds them on every path: the fused step is
/// bit-identical to it, row order included. Only the output is charged
/// to the budget (and accounted as an intermediate) unless the staged
/// form runs.
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
    let Some((rel, form, staged_rows)) = eliminate(cx, inputs, group_vars)? else {
        return Ok(None);
    };
    match (inputs, group_vars) {
        ([_, _], None) => cx.record_join_ex(inputs, &rel, OpRepr::Sparse),
        ([_], _) => cx.record_group_by_ex(inputs, &rel, OpRepr::Sparse),
        _ => {
            cx.record_join_agg_ex(inputs, &rel, OpRepr::Sparse);
            cx.note_intermediate(staged_rows);
            cx.note_fused_nest(form);
        }
    }
    cx.tag_keyed_since(mark);
    Ok(Some(rel))
}

/// A step's output, the form that ran it (`stream`, `scatter` or
/// `staged`), and the join rows the staged form materialized (0
/// otherwise).
type Stepped = (FunctionalRelation, &'static str, u64);

/// The one axis order of an elimination step, which the dense and the
/// sparse step both walk: the step's variables in the blocks `[shared,
/// l-own, r-own]` (a lone operand's are all `shared`), each block's group
/// variables leading, in output order, and its eliminated ones in schema
/// order (a shared one in `l`'s). A fold meets a cell's terms in this
/// order of their eliminated variables, and a join (`group_vars` `None`)
/// emits its columns in it. Returns the variables and the lengths of the
/// `shared` and the `shared + l-own` blocks.
pub(crate) fn merge_order(
    schemas: &[&Schema],
    group_vars: Option<&[VarId]>,
) -> (Vec<VarId>, usize, usize) {
    let rank = |v: VarId| group_vars.and_then(|gv| gv.iter().position(|&g| g == v));
    // A stable sort: eliminated variables keep their relative order,
    // which is what keeps a step's fold order the unfused pipeline's.
    let order = |mut vars: Vec<VarId>| {
        vars.sort_by_key(|&v| rank(v).unwrap_or(usize::MAX));
        vars
    };
    let shared = match schemas {
        [l, r] => order(l.intersect(r).vars().to_vec()),
        _ => order(schemas[0].vars().to_vec()),
    };
    let own = |s: &Schema| order(s.difference(&shared).vars().to_vec());
    let l_own = own(schemas[0]);
    let r_own = schemas.get(1).map_or_else(Vec::new, |r| own(r));
    let (n_shared, n_a) = (shared.len(), shared.len() + l_own.len());
    (
        shared.into_iter().chain(l_own).chain(r_own).collect(),
        n_shared,
        n_a,
    )
}

/// A step's [`merge_order`] and each variable's domain in it. A shared
/// variable indexes through the wider of the two sides' inferred domains,
/// so the prefix coordinates agree across sides.
struct MergeOrder {
    vars: Vec<VarId>,
    doms: Vec<u64>,
    /// The lengths of the `shared` and the `shared + l-own` blocks.
    n_shared: usize,
    n_a: usize,
}

impl MergeOrder {
    /// `None` when the merge grid overflows the coordinate space.
    fn new(inputs: &[&FunctionalRelation], group_vars: Option<&[VarId]>) -> Option<MergeOrder> {
        let schemas: Vec<&Schema> = inputs.iter().map(|s| s.schema()).collect();
        let (vars, n_shared, n_a) = merge_order(&schemas, group_vars);
        let domains: Vec<Vec<u64>> = inputs.iter().map(|s| s.inferred_domains()).collect();
        let dom_of = |v: VarId| -> u64 {
            let side_dom = |(s, d): (&&FunctionalRelation, &Vec<u64>)| {
                s.schema().position(v).ok().map(|p| d[p])
            };
            inputs
                .iter()
                .zip(&domains)
                .filter_map(side_dom)
                .max()
                .unwrap_or(0)
        };
        let doms: Vec<u64> = vars.iter().map(|&v| dom_of(v)).collect();
        grid_cells_wide(&doms)?;
        Some(MergeOrder {
            vars,
            doms,
            n_shared,
            n_a,
        })
    }

    /// The output's variables and domains: the group variables, or every
    /// variable in merge order when nothing is eliminated (a join).
    fn output(&self, group_vars: Option<&[VarId]>) -> (Vec<VarId>, Vec<u64>) {
        match group_vars {
            Some(gv) => (gv.to_vec(), gv.iter().map(|&v| self.dom(v)).collect()),
            None => (self.vars.clone(), self.doms.clone()),
        }
    }

    fn dom(&self, v: VarId) -> u64 {
        self.doms[self
            .vars
            .iter()
            .position(|&w| w == v)
            .expect("var in merge order")]
    }

    /// Side `s`'s axes (`(schema position, domain)`, slowest first): the
    /// shared block, then the side's own block `own`.
    fn side_axes(&self, s: &FunctionalRelation, own: Range<usize>) -> Vec<(usize, u64)> {
        (0..self.n_shared)
            .chain(own)
            .map(|k| {
                (
                    s.schema().position(self.vars[k]).expect("side var"),
                    self.doms[k],
                )
            })
            .collect()
    }
}

/// One operand keyed for a kernel: its sorted keys under the requested
/// axis order, its measures in that order (borrowed when the rows
/// already ascend), the prefix length whose runs the kernel walks, and —
/// for a fused step — each key's part of its output coordinate.
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

    /// The side as a kernel reads it: each key's part of the group
    /// coordinate with `grouped`, its keys otherwise.
    fn operand(&self, grouped: bool) -> Operand<'_> {
        let coords = if grouped { &self.group } else { self.keys() };
        Operand {
            coords,
            vals: &self.vals,
        }
    }
}

/// Key one side over `axes` (`(schema position, domain)`, slowest
/// first) through [`FunctionalRelation::keyed_order`] and read the trie
/// levels its kernel needs: the runs of the first `prefix` axes and, with
/// `weights` (`(axis, weight)`), each key's `Σ digit·weight` over those
/// axes ([`KeyedOrder::weighted_digits`]). A stored relation is
/// linearized, sorted and split into levels once, not per query, and a
/// coordinate-form one keyed in its own order is its coordinates. Counts
/// a conversion when the side is not in coordinate form. `None` on
/// out-of-domain values or duplicate argument tuples.
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

/// A step's operands keyed in its merge order: side `a` (the left, or
/// the lone operand) on `[shared, l-own]` and side `b` (the right) on
/// `[shared, r-own]`, each sorted ascending. Two rows agreeing on every
/// shared variable fall in one run of their side's shared-prefix level,
/// and `(a_key - prefix) * b_own_cells + b_key` is the pair's coordinate
/// in the merge grid. A lone operand is keyed on its merge order and
/// walks the runs of its group prefix.
struct KeyedPair<'a> {
    merge: MergeOrder,
    a: KeyedSide<'a>,
    b: Option<KeyedSide<'a>>,
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
    /// The terms the pair stands for.
    fn pairs(&self) -> usize {
        (self.a.1 - self.a.0) * (self.b.1 - self.b.0)
    }
}

impl KeyedPair<'_> {
    /// The step's terms: a lone operand's group runs, or the two sides'
    /// run pairs — a merge of their run lists by prefix, no key read —
    /// placed at the group coordinate with `group`, at the merge
    /// coordinate (a join) without.
    fn terms(&self, group: bool) -> Terms<'_> {
        let a = &self.a;
        let Some(b) = &self.b else {
            return Terms::Groups {
                runs: a.runs(),
                vals: &a.vals,
            };
        };
        let (ra, rb) = (a.runs(), b.runs());
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
        let (a, b) = (a.operand(group), b.operand(group));
        if group {
            return Terms::Pairs { runs, a, b };
        }
        let b_own_cells = grid_cells_wide(&self.merge.doms[self.merge.n_a..])
            .expect("subproduct of feasible grid");
        Terms::Join {
            runs,
            a,
            b,
            b_own_cells,
        }
    }
}

/// Key a step's operands in `merge`. With group variables and two
/// operands, each side also gets its keys' parts of the output
/// coordinate — the shared and left-own group axes on the left, the
/// right-own ones on the right; a join and a lone operand read theirs off
/// the keys. `None` when a value escapes its domain or a side holds
/// duplicate argument tuples.
fn keyed_pair<'a>(
    cx: &mut ExecContext<'_>,
    inputs: &[&'a FunctionalRelation],
    merge: MergeOrder,
    group_vars: Option<&[VarId]>,
) -> Result<Option<KeyedPair<'a>>> {
    let (n_shared, n_a, n) = (merge.n_shared, merge.n_a, merge.vars.len());
    let (l, r) = match inputs {
        [l, r] => (*l, *r),
        _ => {
            // A lone operand's group variables lead: its runs are groups.
            let prefix = group_vars.map_or(n, <[VarId]>::len);
            let a = keyed_side(
                cx,
                inputs[0],
                &merge.side_axes(inputs[0], 0..0),
                prefix,
                None,
            )?;
            return Ok(a.map(|a| KeyedPair { merge, a, b: None }));
        }
    };
    // The output-coordinate weight of each group axis a side carries, by
    // the axis's place in that side's order.
    let strides = group_vars.map(|gv| mpf_storage::layout::strides_of(&merge.output(Some(gv)).1));
    let weights = |span: Range<usize>, first_axis: usize| {
        let (gv, strides) = (group_vars?, strides.as_ref()?);
        let weight = |k: usize| {
            let g = gv.iter().position(|&v| v == merge.vars[k])?;
            Some((first_axis + k - span.start, strides[g]))
        };
        Some(
            span.clone()
                .filter_map(weight)
                .collect::<Vec<(usize, u64)>>(),
        )
    };
    let (wa, wb) = (weights(0..n_a, 0), weights(n_a..n, n_shared));
    let Some(a) = keyed_side(
        cx,
        l,
        &merge.side_axes(l, n_shared..n_a),
        n_shared,
        wa.as_deref(),
    )?
    else {
        return Ok(None);
    };
    let Some(b) = keyed_side(cx, r, &merge.side_axes(r, n_a..n), n_shared, wb.as_deref())? else {
        return Ok(None);
    };
    Ok(Some(KeyedPair {
        merge,
        a,
        b: Some(b),
    }))
}

/// The output name: `(l⨝*r)` for a join, `γ(…)` of the operand or the
/// join for a marginal.
fn step_name(inputs: &[&FunctionalRelation], group_vars: Option<&[VarId]>) -> String {
    let operand = match inputs {
        [l, r] => format!("({}⨝*{})", l.name(), r.name()),
        _ => inputs[0].name().to_string(),
    };
    match group_vars {
        Some(_) => format!("γ({operand})"),
        None => operand,
    }
}

/// The [`step`] body; `None` where the step declines.
fn eliminate(
    cx: &mut ExecContext<'_>,
    inputs: &[&FunctionalRelation],
    group_vars: Option<&[VarId]>,
) -> Result<Option<Stepped>> {
    let Some(merge) = MergeOrder::new(inputs, group_vars) else {
        return Ok(None);
    };
    if let ([x], Some(gv)) = (inputs, group_vars) {
        // A small group grid takes a direct accumulator array: each row
        // folds straight into its group slot in stored order. No full
        // permuted key, no sort of the eliminated axes, no per-element
        // division — the dominant costs of the keyed form when the group
        // order disagrees with the input's axis order.
        let (_, doms) = merge.output(group_vars);
        let group_cells = grid_cells_wide(&doms).expect("subproduct of feasible grid");
        if scatter_agg_applies(group_cells, x.len()) {
            cx.fault("sparse::convert")?;
            cx.checkpoint()?;
            // The lone operand's axes, its group variables first.
            let axes = merge.side_axes(x, 0..0);
            let Some(gkeys) = x.linearized_keys(&axes[..gv.len()]) else {
                return Ok(None);
            };
            if x.coords().is_none() {
                cx.note_sparse_convert();
            }
            let terms = Terms::Rows(Operand {
                coords: &gkeys,
                vals: x.measures(),
            });
            let (sr, budget, arity) = (cx.semiring(), cx.budget(), gv.len());
            let parts = for_each_semiring!(
                sr,
                scatter_kernel(&terms, group_cells, "sparse::agg", budget, arity)
            )?;
            let rel = FunctionalRelation::from_coords(
                step_name(inputs, group_vars),
                Schema::new(gv.to_vec())?,
                doms,
                parts.0,
                parts.1,
            );
            return Ok(Some((rel, "scatter", 0)));
        }
    }
    let Some(kp) = keyed_pair(cx, inputs, merge, group_vars)? else {
        return Ok(None);
    };
    fold_keyed(cx, inputs, &kp, group_vars)
}

/// Run a keyed step: stream when the group variables lead the merge
/// order, scatter when the group grid is small next to the number of
/// terms, else stage the join step and marginalize it.
fn fold_keyed(
    cx: &mut ExecContext<'_>,
    inputs: &[&FunctionalRelation],
    kp: &KeyedPair<'_>,
    group_vars: Option<&[VarId]>,
) -> Result<Option<Stepped>> {
    let (out_vars, out_doms) = kp.merge.output(group_vars);
    let group_cells = grid_cells_wide(&out_doms).expect("subproduct of feasible grid");
    let terms = kp.terms(group_vars.is_some());
    let op = if inputs.len() == 1 {
        "sparse::agg"
    } else {
        "sparse::join_agg"
    };
    let lead = &kp.merge.vars[..out_vars.len()];
    let (sr, budget, arity) = (cx.semiring(), cx.budget(), out_vars.len());
    let (form, (coords, values)) = if lead.iter().all(|v| out_vars.contains(v)) {
        let (coords, values) = for_each_semiring!(sr, stream_kernel(&terms, op, budget, arity))?;
        if lead == out_vars {
            ("stream", (coords, values))
        } else {
            // Each group once, but not ascending in output order.
            let order = KeyedOrder::from_keys(coords, &out_doms).expect("one run per group");
            let values = order.gather(&values).into_owned();
            ("stream", (order.into_keys(), values))
        }
    } else if scatter_agg_applies(group_cells, terms.len()) {
        let parts = for_each_semiring!(sr, scatter_kernel(&terms, group_cells, op, budget, arity))?;
        ("scatter", parts)
    } else {
        let Some((joined, ..)) = fold_keyed(cx, inputs, kp, None)? else {
            return Ok(None);
        };
        let marginal = eliminate(cx, &[&joined], group_vars)?;
        return Ok(marginal.map(|(rel, ..)| (rel, "staged", joined.len() as u64)));
    };
    let rel = FunctionalRelation::from_coords(
        step_name(inputs, group_vars),
        Schema::new(out_vars)?,
        out_doms,
        coords,
        values,
    );
    Ok(Some((rel, form, 0)))
}

/// Accumulator-array cap for the scatter form: past this the zero-fill
/// and cache misses of the array outweigh the sort it avoids.
const SCATTER_MAX_CELLS: u64 = 1 << 22;

/// Whether the scatter form's accumulator array is worth allocating:
/// the group grid must fit the cap and not dwarf the input (zeroing a
/// grid much larger than the data costs more than sorting the data).
fn scatter_agg_applies(group_cells: u64, input_len: usize) -> bool {
    group_cells <= SCATTER_MAX_CELLS && group_cells <= 8 * (input_len as u64).max(512)
}

/// One operand as the kernels read it: a coordinate column and the
/// measures, row for row.
#[derive(Clone, Copy)]
struct Operand<'s> {
    coords: &'s [u64],
    vals: &'s [f64],
}

/// A step's terms as its kernels walk them — in ascending merge
/// coordinate, a lone operand's stored rows excepted — one loop per
/// variant, so no kernel branches per term on the step's shape or
/// operand count.
enum Terms<'s> {
    /// A join's run pairs over the two sides' keys: every term is its own
    /// group, at the merge coordinate `(a_key - prefix) * b_own_cells +
    /// b_key` (`a_key >= prefix`, so it never underflows), ascending.
    Join {
        runs: Vec<RunPair>,
        a: Operand<'s>,
        b: Operand<'s>,
        b_own_cells: u64,
    },
    /// A fused step's run pairs: rows `i` of `a` and `j` of `b` in one
    /// pair make the term `a.vals[i] ⊗ b.vals[j]` at the group
    /// coordinate `a.coords[i] + b.coords[j]` ([`KeyedSide::group`]).
    Pairs {
        runs: Vec<RunPair>,
        a: Operand<'s>,
        b: Operand<'s>,
    },
    /// A lone operand keyed with its group variables leading: each run of
    /// its group prefix is one group, at the run's prefix.
    Groups { runs: &'s Runs, vals: &'s [f64] },
    /// A lone operand in stored order, each row at its group key.
    Rows(Operand<'s>),
}

impl Terms<'_> {
    /// The number of terms.
    fn len(&self) -> usize {
        match self {
            Terms::Join { runs, .. } | Terms::Pairs { runs, .. } => {
                runs.iter().map(RunPair::pairs).sum()
            }
            Terms::Groups { vals, .. } => vals.len(),
            Terms::Rows(x) => x.vals.len(),
        }
    }
}

/// Hand every term of a fold to `term` in its [`Terms`] order, as
/// `(output coordinate, product)` — a lone operand's product is its
/// value, never `value ⊗ one` — polling once per run pair, group run or
/// tick of stored rows for the terms it covers. Every fold takes its
/// terms one at a time, in this order: a slice fold would let the
/// compiler vectorize a `min` or `max` reduction, whose reordering
/// flips ties between `−0.0` and `+0.0`, and the groups would no longer
/// equal the hash operators' bit for bit.
#[inline(always)]
fn walk<'g, S: SemiringOps>(
    t: &Terms<'_>,
    guard: &mut OpGuard<'g>,
    mut term: impl FnMut(&mut OpGuard<'g>, u64, f64) -> Result<()>,
) -> Result<()> {
    match t {
        Terms::Pairs { runs, a, b } => {
            for rp in runs {
                guard.poll_many(rp.pairs() as u64)?;
                let ((i, ia), (j, jb)) = (rp.a, rp.b);
                let (b_coords, b_vals) = (&b.coords[j..jb], &b.vals[j..jb]);
                for (&ca, &va) in a.coords[i..ia].iter().zip(&a.vals[i..ia]) {
                    for (&cb, &vb) in b_coords.iter().zip(b_vals) {
                        term(guard, ca + cb, S::mul(va, vb))?;
                    }
                }
            }
        }
        Terms::Groups { runs, vals } => {
            for (r, &g) in runs.prefixes().iter().enumerate() {
                let (i, ia) = runs.range(r);
                guard.poll_many((ia - i) as u64)?;
                for &v in &vals[i..ia] {
                    term(guard, g, v)?;
                }
            }
        }
        Terms::Rows(x) => {
            let tick = TICK_INTERVAL as usize;
            for (gs, vs) in x.coords.chunks(tick).zip(x.vals.chunks(tick)) {
                guard.poll_many(gs.len() as u64)?;
                for (&g, &v) in gs.iter().zip(vs) {
                    term(guard, g, v)?;
                }
            }
        }
        Terms::Join { .. } => unreachable!("a join stores its products in blocks"),
    }
    Ok(())
}

/// A group's final fold, checked against the operator `op` names.
#[inline(always)]
fn checked<S: SemiringOps>(op: &'static str, value: f64) -> Result<f64> {
    if S::KIND.is_valid_accumulation(value) {
        Ok(value)
    } else {
        Err(AlgebraError::NonFiniteMeasure { op, value })
    }
}

/// Streaming kernel: the group variables lead the merge order, so one
/// group's terms are contiguous; fold them as they come and emit the
/// group when the next one starts, checked against `op`. Coordinates are
/// in output order — ascending when that is the merge order, each group
/// exactly once either way. Charges once per emitted group.
///
/// A join's every term is its own group: each left row's run of products
/// is stored unchecked, a tick at a time as one straight-line multiply
/// that vectorizes, and charged per block. Its output grows as it goes,
/// from a reservation for the larger operand, so a capped join stops
/// within a tick of its cap however large the full join would be.
fn stream_kernel<S: SemiringOps>(
    t: &Terms<'_>,
    op: &'static str,
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    if let Terms::Join {
        runs,
        a,
        b,
        b_own_cells: cb,
    } = t
    {
        let cap = a.vals.len().max(b.vals.len());
        let (mut out_keys, mut out_vals) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let tick = TICK_INTERVAL as usize;
        for rp in runs {
            guard.poll_many(rp.pairs() as u64)?;
            let ((i, ia), (j, jb)) = (rp.a, rp.b);
            let (b_keys, b_vals) = (&b.coords[j..jb], &b.vals[j..jb]);
            for (&ka, &va) in a.coords[i..ia].iter().zip(&a.vals[i..ia]) {
                let base = (ka - rp.prefix) * cb;
                for (ks, vs) in b_keys.chunks(tick).zip(b_vals.chunks(tick)) {
                    out_keys.extend(ks.iter().map(|&kb| base + kb));
                    out_vals.extend(vs.iter().map(|&vb| S::mul(va, vb)));
                    guard.produced_many(ks.len() as u64)?;
                }
            }
        }
        guard.finish()?;
        return Ok((out_keys, out_vals));
    }
    let cap = match t {
        Terms::Groups { runs, .. } => runs.len(),
        _ => 0,
    };
    let (mut out_keys, mut out_vals) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    // `u64::MAX` is no group: coordinates stay below 2^62. The fold is
    // inlined into each of `walk`'s loops, a call per term costing more
    // than the fold itself.
    let (mut cur, mut acc) = (u64::MAX, 0.0);
    walk::<S>(
        t,
        &mut guard,
        #[inline(always)]
        |guard, g, p| {
            if g == cur {
                acc = S::add(acc, p);
                return Ok(());
            }
            if cur != u64::MAX {
                out_keys.push(cur);
                out_vals.push(checked::<S>(op, acc)?);
                guard.produced()?;
            }
            (cur, acc) = (g, p);
            Ok(())
        },
    )?;
    if cur != u64::MAX {
        out_keys.push(cur);
        out_vals.push(checked::<S>(op, acc)?);
        guard.produced()?;
    }
    guard.finish()?;
    Ok((out_keys, out_vals))
}

/// Scatter kernel: every term folds into the direct-address accumulator
/// slot of its group coordinate, first-seen assignment as a select
/// rather than a branch. Duplicate argument tuples of a lone operand
/// fold together here, exactly as the hash aggregate treats them (the
/// keyed form instead refuses and falls back — either way the answer is
/// the hash operators'). The touched slots are read off `seen` in
/// ascending order (no sort), each checked against `op` and charged.
fn scatter_kernel<S: SemiringOps>(
    t: &Terms<'_>,
    group_cells: u64,
    op: &'static str,
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<(Vec<u64>, Vec<f64>)> {
    let mut guard = OpGuard::new(budget, arity);
    let mut acc = vec![0.0f64; group_cells as usize];
    let mut seen = vec![false; group_cells as usize];
    walk::<S>(
        t,
        &mut guard,
        #[inline(always)]
        |_, g, p| {
            let g = g as usize;
            acc[g] = if seen[g] { S::add(acc[g], p) } else { p };
            seen[g] = true;
            Ok(())
        },
    )?;
    let (mut out_keys, mut out_vals) = (Vec::new(), Vec::new());
    for (g, &v) in acc.iter().enumerate().filter(|&(g, _)| seen[g]) {
        out_keys.push(g as u64);
        out_vals.push(checked::<S>(op, v)?);
        guard.produced()?;
    }
    guard.finish()?;
    Ok((out_keys, out_vals))
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
        // The hash join keeps both duplicates; the hash marginalization
        // folds them.
        let want = ops::product_join(&mut ExecContext::new(sr), &dup, &other).unwrap();
        let rows = |r: &FunctionalRelation| {
            r.rows()
                .map(|(row, m)| (row.to_vec(), m))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&want), [(vec![1], 10.0), (vec![1], 20.0)]);
        let total = ops::group_by(&mut ExecContext::new(sr), &dup, &[x]).unwrap();
        assert_eq!(rows(&total), [(vec![1], 3.0)]);
        for start in [OpRepr::Sparse, OpRepr::Rows] {
            let mut cx = ExecContext::new(sr);
            let got = ops::step(&mut cx, &[&dup, &other], None, start).unwrap();
            assert_eq!(cx.stats().sparse_joins, 0, "fell back from {start:?}");
            assert_eq!(cx.stats().joins, 1);
            assert_eq!(rows(&got), rows(&want), "join from {start:?}");
            // The scatter form folds duplicates as the hash marginal does.
            let mut cx = ExecContext::new(sr);
            let got = ops::step(&mut cx, &[&dup], Some(&[x]), start).unwrap();
            let sparse = u64::from(start == OpRepr::Sparse);
            assert_eq!(cx.stats().sparse_group_bys, sparse, "from {start:?}");
            assert_eq!(cx.stats().group_bys, 1);
            assert_eq!(rows(&got), rows(&total), "marginal from {start:?}");
        }
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
