//! Physical operators over functional relations.
//!
//! Every operator takes a [`&mut ExecContext`](crate::ExecContext) as its
//! first argument — the one seam through which the semiring, resource
//! budgets ([`crate::ExecLimits`]: per-operator row caps, global cell
//! caps, deadlines, cancellation), work accounting ([`crate::ExecStats`]),
//! and fault-injection sites all flow. Budget enforcement goes through an
//! [`OpGuard`], stopping an exploding intermediate within
//! [`crate::limits::TICK_INTERVAL`] rows of its budget instead of
//! materializing it; with no limits configured the guard costs nothing.
//! Semiring accumulations additionally reject measures that leave the
//! semiring's carrier (NaN, or an infinity that is not the additive
//! identity) with [`AlgebraError::NonFiniteMeasure`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mpf_semiring::SemiringKind;
use mpf_storage::{FunctionalRelation, Key, Schema, Value, VarId};

use crate::limits::{ExecBudget, OpGuard};
use crate::{AlgebraError, DenseMode, ExecContext, OpRepr, ReprMode, Result};

/// Product join (`⨝*`, Definition 2): natural join on shared variables with
/// measures combined by the semiring's multiplicative operation.
///
/// `Var(out) = Var(l) ∪ Var(r)`; the join condition is equality on
/// `Var(l) ∩ Var(r)`. When the schemas are disjoint this degenerates to a
/// cross product with multiplied measures, as the algebra requires.
///
/// Implementation: the hash step with nothing eliminated, so every
/// matching pair is one output row, emitted as it is produced. The
/// smaller input is built into a hash index keyed on the shared
/// variables; the larger input probes it. Rows that are not functional
/// keep their duplicates.
pub fn product_join(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
) -> Result<FunctionalRelation> {
    cx.fault("product_join")?;
    let out = hash_step(cx.semiring(), &[l, r], None, cx.budget())?;
    cx.record_join(&[l, r], &out);
    Ok(out)
}

/// Marginalization (`GroupBy_X` with the semiring's additive aggregate,
/// Definition 3). The output schema is exactly `group_vars` (which must be a
/// subset of the input schema); measures of rows agreeing on the group
/// variables are folded with the additive operation.
///
/// With `group_vars` empty this computes the scalar total of the function.
pub fn group_by(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    cx.fault("group_by")?;
    let out = hash_step(cx.semiring(), &[input], Some(group_vars), cx.budget())?;
    cx.record_group_by(&[input], &out);
    Ok(out)
}

/// Fused join→marginalize: `GroupBy_X(l ⨝* r)` computed in one pass,
/// folding each join match straight into its group accumulator without
/// materializing the intermediate join — the canonical VE elimination
/// step, where `X` drops the join-only variables.
///
/// It is the hash step that [`product_join`] (nothing eliminated) and
/// [`group_by`] (one operand) are the degenerate forms of, so it is
/// bit-identical to the unfused hash pipeline: the probe loop visits
/// matches in exactly [`product_join`]'s order (build = smaller side,
/// probe-major emission, `mul(probe, build)`), and groups accumulate in
/// production order with first-occurrence output order, exactly like
/// [`group_by`]. Only the budget differs — the join intermediate is
/// never charged, which is the point of fusing.
pub fn join_group_by(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    cx.fault("join_group_by")?;
    let out = hash_step(cx.semiring(), &[l, r], Some(group_vars), cx.budget())?;
    cx.record_join_agg_ex(&[l, r], &out, crate::trace::OpRepr::Rows);
    Ok(out)
}

/// The hash elimination step `GroupBy_X(⨝* inputs)` over one or two
/// inputs, the reference semantics: budget-guarded, no fault site or
/// accounting. The smaller of two inputs is built into a hash index on
/// the shared variables and the larger probes it, each match's product
/// being `mul(probe, build)`; a lone input is probed with no build side,
/// and its measures are its products. With `group_vars` `None` (a join)
/// every product is one output row over `Var(l) ∪ Var(r)`, emitted as it
/// is produced; otherwise products fold into their group in production
/// order, groups kept in first-occurrence order.
fn hash_step(
    sr: SemiringKind,
    inputs: &[&FunctionalRelation],
    group_vars: Option<&[VarId]>,
    budget: Option<&ExecBudget>,
) -> Result<FunctionalRelation> {
    for &v in group_vars.unwrap_or_default() {
        if !inputs.iter().any(|r| r.schema().contains(v)) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    let (name, out_schema, probe, build) = match *inputs {
        [l, r] => {
            let name = format!("({}⨝*{})", l.name(), r.name());
            let (build, probe) = if l.len() <= r.len() { (l, r) } else { (r, l) };
            (name, l.schema().union(r.schema()), probe, Some(build))
        }
        [x] => (x.name().to_string(), x.schema().clone(), x, None),
        _ => unreachable!("one or two inputs"),
    };
    let (name, out_schema) = match group_vars {
        Some(g) => (format!("γ({name})"), Schema::new(g.to_vec())?),
        None => (name, out_schema),
    };
    let op = if build.is_some() {
        "join_group_by"
    } else {
        "group_by"
    };
    let mut guard = OpGuard::new(budget, out_schema.arity());

    // For each output column, record which side and position it comes from.
    // Prefer the probe side so the inner loop copies contiguously when
    // possible; correctness is unaffected because shared columns are equal.
    enum Src {
        Probe(usize),
        Build(usize),
    }
    let srcs: Vec<Src> = out_schema
        .iter()
        .map(|v| match probe.schema().position(v) {
            Ok(p) => Ok(Src::Probe(p)),
            Err(e) => Ok(Src::Build(build.ok_or(e)?.schema().position(v)?)),
        })
        .collect::<Result<_>>()?;
    let key_positions: Vec<usize> = (0..out_schema.arity()).collect();
    // The build side, its index on the shared variables, and where the
    // probe side holds them.
    let index = match build {
        Some(b) => {
            let shared = inputs[0].schema().intersect(inputs[1].schema());
            let index = b.build_index(&b.schema().positions(shared.vars())?);
            Some((b, index, probe.schema().positions(shared.vars())?))
        }
        None => None,
    };

    let mut groups: Option<HashMap<Key, usize>> =
        group_vars.map(|_| HashMap::with_capacity(probe.len().min(1 << 20)));
    let mut out = FunctionalRelation::new(name, out_schema.clone());
    let mut row: Vec<Value> = vec![0; out_schema.arity()];
    // Emit one product: a join row, or a fold into its group.
    let mut term = |guard: &mut OpGuard<'_>, prow: &[Value], brow: &[Value], m: f64| {
        for (c, src) in srcs.iter().enumerate() {
            row[c] = match src {
                Src::Probe(p) => prow[*p],
                Src::Build(p) => brow[*p],
            };
        }
        let Some(groups) = groups.as_mut() else {
            out.push_row(&row, m)?;
            return guard.produced();
        };
        match groups.entry(Key::extract(&row, &key_positions)) {
            Entry::Occupied(e) => {
                let idx = *e.get();
                let acc = sr.add(out.measure(idx), m);
                if !sr.is_valid_accumulation(acc) {
                    return Err(AlgebraError::NonFiniteMeasure { op, value: acc });
                }
                out.set_measure(idx, acc);
                Ok(())
            }
            Entry::Vacant(e) => {
                e.insert(out.len());
                out.push_row(&row, m)?;
                guard.produced()
            }
        }
    };
    for i in 0..probe.len() {
        guard.poll()?;
        let (prow, pm) = (probe.row(i), probe.measure(i));
        let Some((build, index, probe_shared)) = &index else {
            term(&mut guard, prow, &[], pm)?;
            continue;
        };
        let Some(matches) = index.get(&Key::extract(prow, probe_shared)) else {
            continue;
        };
        for &j in matches {
            guard.poll()?;
            let j = j as usize;
            term(&mut guard, prow, build.row(j), sr.mul(pm, build.measure(j)))?;
        }
    }
    guard.finish()?;
    Ok(out)
}

/// The elimination step `GroupBy_X(⨝* inputs)` — the one entry every
/// planned step and every inference-layer join or marginalization runs
/// through. `group_vars` is `None` for the product join of two inputs
/// (every variable kept) and names `X` otherwise; one input is a
/// marginalization, two with `X` the fused join→marginalize.
///
/// One fallback chain runs it, starting at `start`: the dense step
/// ([`crate::dense`], unless the context's [`crate::DenseMode`] is
/// `Off`), then the sparse step ([`crate::sparse`], under
/// [`crate::ReprMode::Auto`]), then the hash step, the reference
/// semantics, entered through [`product_join`], [`group_by`] or
/// [`join_group_by`]. Each link has one step body over one or two
/// operands, whose degenerate forms are the join (nothing eliminated)
/// and the marginalization (one operand). A step that cannot take its
/// operands (not a grid, infeasible coordinate space, rows that are not
/// functional) declines and the next one runs, so a mis-planned
/// representation costs the fast path, never correctness. Each link
/// probes its own fault site per shape (`dense::join`, `dense::agg`,
/// `dense::join_agg`, the same under `sparse::`, and `product_join`,
/// `group_by`, `join_group_by`) before it looks at its operands.
///
/// # Errors
/// [`AlgebraError::GroupVarNotInInput`] for a group variable no input
/// has, [`AlgebraError::Internal`] for a step over other than one input
/// with group variables or two inputs, and whatever the kernel that runs
/// reports.
pub fn step(
    cx: &mut ExecContext<'_>,
    inputs: &[&FunctionalRelation],
    group_vars: Option<&[VarId]>,
    start: OpRepr,
) -> Result<FunctionalRelation> {
    if !matches!((inputs.len(), group_vars), (2, _) | (1, Some(_))) {
        return Err(AlgebraError::Internal(format!(
            "a step takes one input with group variables or two inputs, not {}",
            inputs.len()
        )));
    }
    for &v in group_vars.unwrap_or_default() {
        if !inputs.iter().any(|r| r.schema().contains(v)) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    if start == OpRepr::Dense && cx.dense_mode() != DenseMode::Off {
        if let Some(out) = crate::dense::step(cx, inputs, group_vars)? {
            return Ok(out);
        }
    }
    if start != OpRepr::Rows && cx.repr_mode() == ReprMode::Auto {
        if let Some(out) = crate::sparse::step(cx, inputs, group_vars)? {
            return Ok(out);
        }
    }
    match (inputs, group_vars) {
        ([l, r], None) => product_join(cx, l, r),
        ([input], Some(g)) => group_by(cx, input, g),
        ([l, r], Some(g)) => join_group_by(cx, l, r, g),
        _ => unreachable!("shape checked above"),
    }
}

/// Selection on conjunctive variable-equality predicates
/// (`where Y = c and ...`), the restriction used by the paper's
/// restricted-answer and constrained-domain query forms.
///
/// On a grid relation the selection is an index, not a scan: the output
/// is the pinned slice ([`FunctionalRelation::pinned_slice`]), built in
/// O(output) and still a grid, so the dense kernels take it as it is.
/// It has the row filter's rows and measures, in the same order, and
/// records as a dense operator tagged with the pinned variables. Any
/// other key column is filtered row by row.
pub fn select_eq(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    predicates: &[(VarId, Value)],
) -> Result<FunctionalRelation> {
    cx.fault("select_eq")?;
    let positions = select_positions(input, predicates)?;
    let name = format!("σ({})", input.name());
    if let Some(out) = input.pinned_slice(name.clone(), &positions) {
        let mut guard = OpGuard::new(cx.budget(), input.schema().arity());
        guard.produced_many(out.len() as u64)?;
        guard.finish()?;
        let mut pinned: Vec<VarId> = Vec::new();
        for &(v, _) in predicates {
            if !pinned.contains(&v) {
                pinned.push(v);
            }
        }
        cx.record_select_ex(&[input], &out, crate::trace::OpRepr::Dense);
        cx.note_pinned(pinned);
        return Ok(out);
    }
    let out = select_eq_impl(input, name, &positions, cx.budget())?;
    cx.record_select_ex(&[input], &out, crate::trace::OpRepr::Rows);
    Ok(out)
}

/// The schema position of each predicate's variable, paired with its
/// constant.
fn select_positions(
    input: &FunctionalRelation,
    predicates: &[(VarId, Value)],
) -> Result<Vec<(usize, Value)>> {
    predicates
        .iter()
        .map(|&(v, c)| {
            input
                .schema()
                .position(v)
                .map(|p| (p, c))
                .map_err(|_| AlgebraError::SelectVarNotInInput(v))
        })
        .collect()
}

/// [`select_eq`]'s row filter: budget-guarded, no fault site or
/// accounting.
fn select_eq_impl(
    input: &FunctionalRelation,
    name: String,
    positions: &[(usize, Value)],
    budget: Option<&ExecBudget>,
) -> Result<FunctionalRelation> {
    let mut guard = OpGuard::new(budget, input.schema().arity());
    let mut out = FunctionalRelation::new(name, input.schema().clone());
    for (row, m) in input.rows() {
        guard.poll()?;
        if positions.iter().all(|&(p, c)| row[p] == c) {
            out.push_row(row, m)?;
            guard.produced()?;
        }
    }
    guard.finish()?;
    Ok(out)
}

/// Product semijoin (`t ⋉* s`, Definition 6):
/// `t ⨝* GroupBy_U(s)` where `U = Var(t) ∩ Var(s)`.
///
/// This is the forward-pass reduction of Belief Propagation: `t` absorbs
/// `s`'s marginal over their shared variables.
pub fn product_semijoin(
    cx: &mut ExecContext<'_>,
    t: &FunctionalRelation,
    s: &FunctionalRelation,
) -> Result<FunctionalRelation> {
    cx.fault("product_semijoin")?;
    let shared = t.schema().intersect(s.schema());
    let marg = group_by(cx, s, shared.vars())?;
    let out = product_join(cx, t, &marg)?;
    Ok(out.with_name(format!("({}⋉*{})", t.name(), s.name())))
}

/// Update semijoin (`t ⋉ s`, Definition 6):
/// `t ⨝* ( GroupBy_U(s) ⨝÷ GroupBy_U(t) )` where `U = Var(t) ∩ Var(s)` and
/// `⨝÷` is the product join with division instead of multiplication.
///
/// This is the backward-pass reduction of Belief Propagation: `t` absorbs
/// the information `s` gathered, divided by `t`'s own current marginal so
/// values propagated in the forward pass are not propagated again
/// (Appendix A of the paper).
///
/// # Errors
/// [`AlgebraError::NoDivision`] if the semiring lacks a multiplicative
/// inverse.
pub fn update_semijoin(
    cx: &mut ExecContext<'_>,
    t: &FunctionalRelation,
    s: &FunctionalRelation,
) -> Result<FunctionalRelation> {
    cx.fault("update_semijoin")?;
    if !cx.semiring().has_division() {
        return Err(AlgebraError::NoDivision);
    }
    let shared = t.schema().intersect(s.schema());
    let marg_s = group_by(cx, s, shared.vars())?;
    let marg_t = group_by(cx, t, shared.vars())?;
    let ratio = divide_join(cx, &marg_s, &marg_t)?;
    let out = product_join(cx, t, &ratio)?;
    Ok(out.with_name(format!("({}⋉{})", t.name(), s.name())))
}

/// The division join (`⨝÷`): defined exactly like the product join but the
/// output measure is `l[f] / r[f]` under the semiring's partial inverse.
/// Non-commutative; `l` is the numerator.
pub fn divide_join(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
) -> Result<FunctionalRelation> {
    cx.fault("divide_join")?;
    let sr = cx.semiring();
    if !sr.has_division() {
        return Err(AlgebraError::NoDivision);
    }
    let out = divide_join_impl(sr, l, r, cx.budget())?;
    cx.record_join(&[l, r], &out);
    Ok(out)
}

/// [`divide_join`] body: budget-guarded, no fault site or accounting.
fn divide_join_impl(
    sr: SemiringKind,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    budget: Option<&ExecBudget>,
) -> Result<FunctionalRelation> {
    let out_schema = l.schema().union(r.schema());
    let mut guard = OpGuard::new(budget, out_schema.arity());
    let shared = l.schema().intersect(r.schema());
    let l_shared = l.schema().positions(shared.vars())?;
    let r_shared = r.schema().positions(shared.vars())?;

    // Index the right (denominator) side; iterate the left so each
    // numerator row is emitted once per matching denominator row.
    let index = r.build_index(&r_shared);
    let srcs: Vec<(bool, usize)> = out_schema
        .iter()
        .map(|v| {
            if let Ok(p) = l.schema().position(v) {
                Ok((true, p))
            } else {
                Ok((false, r.schema().position(v)?))
            }
        })
        .collect::<Result<_>>()?;

    let mut out = FunctionalRelation::new(
        format!("({}⨝÷{})", l.name(), r.name()),
        out_schema.clone(),
    );
    let mut row_buf: Vec<Value> = vec![0; out_schema.arity()];
    for i in 0..l.len() {
        guard.poll()?;
        let lrow = l.row(i);
        let key = Key::extract(lrow, &l_shared);
        let Some(matches) = index.get(&key) else {
            continue;
        };
        for &j in matches {
            let rrow = r.row(j as usize);
            for (c, &(from_l, p)) in srcs.iter().enumerate() {
                row_buf[c] = if from_l { lrow[p] } else { rrow[p] };
            }
            out.push_row(&row_buf, sr.div(l.measure(i), r.measure(j as usize)))?;
            guard.produced()?;
        }
    }
    guard.finish()?;
    Ok(out)
}

/// Evaluate the *naive* MPF plan: product-join all `relations` left to
/// right, apply equality `predicates`, then a single `GroupBy` at the root.
/// This is the reference answer every optimized plan must reproduce, and the
/// plan the unmodified CS algorithm is forced into (Figure 3).
pub fn naive_mpf(
    cx: &mut ExecContext<'_>,
    relations: &[&FunctionalRelation],
    predicates: &[(VarId, Value)],
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    cx.fault("naive_mpf")?;
    // Apply selections on base relations where possible (pure correctness
    // shortcut: selection commutes with product join).
    let mut acc: Option<FunctionalRelation> = None;
    for &rel in relations {
        let applicable: Vec<(VarId, Value)> = predicates
            .iter()
            .copied()
            .filter(|&(v, _)| rel.schema().contains(v))
            .collect();
        let filtered = if applicable.is_empty() {
            rel.clone()
        } else {
            select_eq(cx, rel, &applicable)?
        };
        acc = Some(match acc {
            None => filtered,
            Some(a) => product_join(cx, &a, &filtered)?,
        });
    }
    let Some(acc) = acc else {
        return Err(AlgebraError::EmptyInput("naive_mpf"));
    };
    group_by(cx, &acc, group_vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_semiring::approx_eq;
    use mpf_storage::{Catalog, Schema};

    fn setup() -> (Catalog, FunctionalRelation, FunctionalRelation) {
        let mut c = Catalog::new();
        let a = c.add_var("a", 2).unwrap();
        let b = c.add_var("b", 2).unwrap();
        let d = c.add_var("d", 2).unwrap();
        let r1 = FunctionalRelation::from_rows(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            [
                (vec![0, 0], 1.0),
                (vec![0, 1], 2.0),
                (vec![1, 0], 3.0),
                (vec![1, 1], 4.0),
            ],
        )
        .unwrap();
        let r2 = FunctionalRelation::from_rows(
            "r2",
            Schema::new(vec![b, d]).unwrap(),
            [
                (vec![0, 0], 10.0),
                (vec![0, 1], 20.0),
                (vec![1, 0], 30.0),
                (vec![1, 1], 40.0),
            ],
        )
        .unwrap();
        (c, r1, r2)
    }

    #[test]
    fn product_join_multiplies_measures() {
        let (c, r1, r2) = setup();
        let sr = SemiringKind::SumProduct;
        let j = product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
        assert_eq!(j.len(), 8); // 2 matches per b value on each side
        let a = c.var("a").unwrap();
        let b = c.var("b").unwrap();
        let d = c.var("d").unwrap();
        assert!(j.schema().contains(a) && j.schema().contains(b) && j.schema().contains(d));
        // (a=0,b=1) m=2 joins (b=1,d=0) m=30 -> 60.
        let pa = j.schema().position(a).unwrap();
        let pb = j.schema().position(b).unwrap();
        let pd = j.schema().position(d).unwrap();
        let found = j
            .rows()
            .find(|(row, _)| row[pa] == 0 && row[pb] == 1 && row[pd] == 0)
            .unwrap();
        assert!(approx_eq(found.1, 60.0));
    }

    #[test]
    fn product_join_is_commutative() {
        let (_, r1, r2) = setup();
        let sr = SemiringKind::SumProduct;
        let ab = product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
        let ba = product_join(&mut ExecContext::new(sr), &r2, &r1).unwrap();
        assert!(ab.function_eq(&ba));
    }

    #[test]
    fn disjoint_schemas_cross_product() {
        let mut c = Catalog::new();
        let a = c.add_var("a", 2).unwrap();
        let b = c.add_var("b", 3).unwrap();
        let r1 = FunctionalRelation::from_rows(
            "r1",
            Schema::new(vec![a]).unwrap(),
            [(vec![0], 2.0), (vec![1], 3.0)],
        )
        .unwrap();
        let r2 = FunctionalRelation::from_rows(
            "r2",
            Schema::new(vec![b]).unwrap(),
            [(vec![0], 5.0), (vec![1], 7.0), (vec![2], 11.0)],
        )
        .unwrap();
        let j = product_join(&mut ExecContext::new(SemiringKind::SumProduct), &r1, &r2).unwrap();
        assert_eq!(j.len(), 6);
        let total: f64 = j.measures().iter().sum();
        assert!(approx_eq(total, (2.0 + 3.0) * (5.0 + 7.0 + 11.0)));
    }

    #[test]
    fn group_by_marginalizes() {
        let (c, r1, _) = setup();
        let a = c.var("a").unwrap();
        let g = group_by(&mut ExecContext::new(SemiringKind::SumProduct), &r1, &[a]).unwrap();
        assert_eq!(g.len(), 2);
        assert!(approx_eq(g.lookup(&[0]).unwrap(), 3.0));
        assert!(approx_eq(g.lookup(&[1]).unwrap(), 7.0));
    }

    #[test]
    fn group_by_empty_vars_is_total() {
        let (_, r1, _) = setup();
        let g = group_by(&mut ExecContext::new(SemiringKind::SumProduct), &r1, &[]).unwrap();
        assert_eq!(g.len(), 1);
        assert!(approx_eq(g.measure(0), 10.0));
        let gmin = group_by(&mut ExecContext::new(SemiringKind::MinProduct), &r1, &[]).unwrap();
        assert!(approx_eq(gmin.measure(0), 1.0));
    }

    #[test]
    fn group_by_on_four_variables_tells_apart_first_values_past_2_pow_30() {
        // Two rows whose four group values differ only in bit 30 of the
        // first: the hash group-by must keep two groups.
        let mut c = Catalog::new();
        let vars: Vec<VarId> = [("w", 1u64 << 31), ("x", 1), ("y", 1), ("z", 1), ("t", 2)]
            .into_iter()
            .map(|(v, d)| c.add_var(v, d).unwrap())
            .collect();
        let rel = FunctionalRelation::from_rows(
            "r",
            Schema::new(vars.clone()).unwrap(),
            [(vec![1 << 30, 0, 0, 0, 0], 1.0), (vec![0, 0, 0, 0, 1], 2.0)],
        )
        .unwrap();
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let g = group_by(&mut cx, &rel, &vars[..4]).unwrap();
        assert_eq!(g.len(), 2, "{g:?}");
        assert_eq!(g.measures().iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn group_by_unknown_var_errors() {
        let (_, r1, _) = setup();
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        assert!(matches!(
            group_by(&mut cx, &r1, &[VarId(99)]),
            Err(AlgebraError::GroupVarNotInInput(_))
        ));
    }

    #[test]
    fn select_filters() {
        let (c, r1, _) = setup();
        let a = c.var("a").unwrap();
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let s = select_eq(&mut cx, &r1, &[(a, 1)]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.rows().all(|(row, _)| row[0] == 1));
        assert!(matches!(
            select_eq(&mut cx, &r1, &[(VarId(99), 0)]),
            Err(AlgebraError::SelectVarNotInInput(_))
        ));
    }

    #[test]
    fn gdl_pushdown_equivalence() {
        // GroupBy distributes over product join: marginalizing d out of
        // r1 ⨝* r2 equals r1 ⨝* (GroupBy_b r2).
        let (c, r1, r2) = setup();
        let sr = SemiringKind::SumProduct;
        let a = c.var("a").unwrap();
        let b = c.var("b").unwrap();

        let joined = product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
        let direct = group_by(&mut ExecContext::new(sr), &joined, &[a, b]).unwrap();

        let pushed_inner = group_by(&mut ExecContext::new(sr), &r2, &[b]).unwrap();
        let pushed = product_join(&mut ExecContext::new(sr), &r1, &pushed_inner).unwrap();
        let pushed = group_by(&mut ExecContext::new(sr), &pushed, &[a, b]).unwrap();

        assert!(direct.function_eq(&pushed));
    }

    #[test]
    fn product_semijoin_reduces() {
        let (c, r1, r2) = setup();
        let sr = SemiringKind::SumProduct;
        let red = product_semijoin(&mut ExecContext::new(sr), &r1, &r2).unwrap();
        // Var(r1 ⋉* r2) = Var(r1); measure multiplied by r2's b-marginal.
        assert_eq!(red.schema().vars(), r1.schema().vars());
        let b = c.var("b").unwrap();
        let marg = group_by(&mut ExecContext::new(sr), &r2, &[b]).unwrap();
        // b=0 marginal is 30, b=1 marginal is 70.
        assert!(approx_eq(marg.lookup(&[0]).unwrap(), 30.0));
        assert!(approx_eq(red.lookup(&[0, 0]).unwrap(), 1.0 * 30.0));
        assert!(approx_eq(red.lookup(&[1, 1]).unwrap(), 4.0 * 70.0));
    }

    #[test]
    fn update_semijoin_calibrates_chain() {
        // After t' = product_semijoin(s, t)... i.e. forward s ⋉* t then
        // backward t ⋉ s', t's marginal must equal the view marginal
        // (Definition 5) — the two-table base case of Theorem 6.
        let (c, t, s) = setup();
        let sr = SemiringKind::SumProduct;
        let s1 = product_semijoin(&mut ExecContext::new(sr), &s, &t).unwrap(); // forward
        let t1 = update_semijoin(&mut ExecContext::new(sr), &t, &s1).unwrap(); // backward

        let a = c.var("a").unwrap();
        let b = c.var("b").unwrap();
        let view = product_join(&mut ExecContext::new(sr), &t, &s).unwrap();
        let want = group_by(&mut ExecContext::new(sr), &view, &[a, b]).unwrap();
        let got = group_by(&mut ExecContext::new(sr), &t1, &[a, b]).unwrap();
        assert!(want.function_eq(&got));
    }

    #[test]
    fn update_semijoin_requires_division() {
        let (_, r1, r2) = setup();
        assert!(matches!(
            update_semijoin(&mut ExecContext::new(SemiringKind::BoolOrAnd), &r1, &r2),
            Err(AlgebraError::NoDivision)
        ));
    }

    #[test]
    fn naive_mpf_reference() {
        let (c, r1, r2) = setup();
        let sr = SemiringKind::SumProduct;
        let d = c.var("d").unwrap();
        let got = naive_mpf(&mut ExecContext::new(sr), &[&r1, &r2], &[], &[d]).unwrap();
        // By hand: sum over a,b of r1(a,b)*r2(b,d).
        // d=0: b=0: (1+3)*10=40, b=1: (2+4)*30=180 -> 220.
        // d=1: b=0: (1+3)*20=80, b=1: (2+4)*40=240 -> 320.
        assert!(approx_eq(got.lookup(&[0]).unwrap(), 220.0));
        assert!(approx_eq(got.lookup(&[1]).unwrap(), 320.0));
    }

    #[test]
    fn naive_mpf_with_selection() {
        let (c, r1, r2) = setup();
        let sr = SemiringKind::SumProduct;
        let b = c.var("b").unwrap();
        let d = c.var("d").unwrap();
        let got = naive_mpf(&mut ExecContext::new(sr), &[&r1, &r2], &[(b, 1)], &[d]).unwrap();
        // Only b=1 contributes: d=0 -> (2+4)*30=180; d=1 -> (2+4)*40=240.
        assert!(approx_eq(got.lookup(&[0]).unwrap(), 180.0));
        assert!(approx_eq(got.lookup(&[1]).unwrap(), 240.0));
    }

    #[test]
    fn min_product_join_and_group() {
        let (c, r1, r2) = setup();
        let sr = SemiringKind::MinProduct;
        let a = c.var("a").unwrap();
        let j = product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
        let g = group_by(&mut ExecContext::new(sr), &j, &[a]).unwrap();
        // a=0: min over (b,d) of r1(0,b)*r2(b,d) = min(1*10,1*20,2*30,2*40) = 10.
        assert!(approx_eq(g.lookup(&[0]).unwrap(), 10.0));
        // a=1: min(3*10,3*20,4*30,4*40) = 30.
        assert!(approx_eq(g.lookup(&[1]).unwrap(), 30.0));
    }

    #[test]
    fn context_ops_accumulate_stats() {
        let (c, r1, r2) = setup();
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let j = product_join(&mut cx, &r1, &r2).unwrap();
        let a = c.var("a").unwrap();
        group_by(&mut cx, &j, &[a]).unwrap();
        let stats = cx.stats();
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.group_bys, 1);
        // join: 4 + 4 inputs + 8 output; group-by: 8 input + 2 output.
        assert_eq!(stats.rows_processed, 26);
        assert_eq!(stats.max_intermediate_rows, 8);
    }

    #[test]
    fn composite_ops_count_their_pieces() {
        let (_, r1, r2) = setup();
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        update_semijoin(&mut cx, &r1, &r2).unwrap();
        // t ⋉ s = t ⨝* (γ_U(s) ⨝÷ γ_U(t)): two group-bys and two joins.
        assert_eq!(cx.stats().group_bys, 2);
        assert_eq!(cx.stats().joins, 2);
    }

    #[test]
    fn budgeted_context_trips_in_ops() {
        let (_, r1, r2) = setup();
        let mut cx = ExecContext::with_limits(
            SemiringKind::SumProduct,
            crate::ExecLimits::none().with_max_output_rows(4),
        );
        let err = product_join(&mut cx, &r1, &r2).unwrap_err();
        assert!(matches!(
            err,
            AlgebraError::ResourceExhausted {
                resource: crate::ResourceKind::OutputRows,
                ..
            }
        ));
    }
}
