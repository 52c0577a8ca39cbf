//! Belief Propagation as a semijoin program (Algorithm 4 / Appendix A).
//!
//! BP reduces each table of an acyclic schema with respect to its
//! neighbours: a forward pass of **product semijoins** (each table absorbs
//! its already-visited neighbour's marginal) and a backward pass of
//! **update semijoins** (the reverse reductions, using division so values
//! propagated forward are not propagated again). After both passes every
//! table satisfies the Definition 5 invariant: any MPF query on a variable
//! it contains can be answered from the table alone (Theorem 6, Pearl).
//!
//! As the paper's Figure 12 example shows, BP is incorrect on cyclic
//! schemas — measures get multiplied in twice along the cycle — so
//! [`bp_acyclic`] refuses them; run the Junction Tree algorithm first.

use std::collections::BTreeSet;

use mpf_algebra::ExecContext;
use mpf_semiring::SemiringKind;
use mpf_storage::{FunctionalRelation, VarId};

use crate::{InferError, JoinTree, Result};

/// One reduction step of a semijoin program, for tracing/debugging
/// (Figures 11 and 12 of the paper render such programs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BpStep {
    /// `tables[target] ⋉* tables[source]` (forward, product semijoin).
    Forward {
        /// Absorbing table.
        target: usize,
        /// Table whose marginal is absorbed.
        source: usize,
    },
    /// `tables[target] ⋉ tables[source]` (backward, update semijoin).
    Backward {
        /// Absorbing table.
        target: usize,
        /// Table whose marginal is absorbed.
        source: usize,
    },
}

/// Calibrate `tables` over the join `tree` in place: an upward (leaf to
/// root) pass of product semijoins followed by a downward pass of update
/// semijoins, per component. Afterwards every table holds the view's
/// marginal on its schema, up to the cross-component scaling also applied
/// here (a disconnected view is a cross product of its components, so each
/// table is additionally scaled by the other components' totals).
///
/// Returns the executed semijoin program.
///
/// Runs inside the caller-owned [`ExecContext`]: every semijoin of the
/// program runs under the context's budget, deadline, cancellation,
/// tracing, and fault hooks, and its work lands in the caller's stats.
pub fn calibrate_in(
    cx: &mut ExecContext<'_>,
    tables: &mut [FunctionalRelation],
    tree: &JoinTree,
) -> Result<Vec<BpStep>> {
    cx.span_phase("bp::calibrate");
    let result = calibrate_inner(cx, tables, tree);
    cx.span_close(|| result.as_ref().err().map(|e| e.to_string()));
    result
}

fn calibrate_inner(
    cx: &mut ExecContext<'_>,
    tables: &mut [FunctionalRelation],
    tree: &JoinTree,
) -> Result<Vec<BpStep>> {
    cx.fault("bp::calibrate")?;
    let sr = cx.semiring();
    if !sr.has_division() {
        return Err(InferError::Algebra(mpf_algebra::AlgebraError::NoDivision));
    }
    assert_eq!(tables.len(), tree.n);
    let mut program = Vec::new();

    let components = tree.components();
    for comp in &components {
        let root = comp[0];
        let order = tree.bfs_from(root);
        // Upward: children push marginals into parents, leaves first.
        for &(node, parent) in order.iter().rev() {
            if let Some(p) = parent {
                tables[p] = mpf_algebra::ops::product_semijoin(cx, &tables[p], &tables[node])?;
                program.push(BpStep::Forward {
                    target: p,
                    source: node,
                });
            }
        }
        // Downward: parents push calibrated marginals back, root first.
        for &(node, parent) in &order {
            if let Some(p) = parent {
                tables[node] = mpf_algebra::ops::update_semijoin(cx, &tables[node], &tables[p])?;
                program.push(BpStep::Backward {
                    target: node,
                    source: p,
                });
            }
        }
    }

    // Cross-component scaling: each table is multiplied by the product of
    // the *other* components' totals, making every table a true marginal of
    // the full (cross-product) view.
    if components.len() > 1 {
        let totals: Vec<f64> = components
            .iter()
            .map(|comp| {
                let t = mpf_algebra::ops::group_by(cx, &tables[comp[0]], &[])?;
                Ok(if t.is_empty() { sr.zero() } else { t.measure(0) })
            })
            .collect::<Result<_>>()?;
        for (ci, comp) in components.iter().enumerate() {
            let other: f64 = sr.product(
                totals
                    .iter()
                    .enumerate()
                    .filter(|&(cj, _)| cj != ci)
                    .map(|(_, &t)| t),
            );
            for &node in comp {
                scale(sr, &mut tables[node], other);
            }
        }
    }
    Ok(program)
}

/// Multiply every measure of `rel` by `factor` (semiring multiplication).
pub fn scale(sr: SemiringKind, rel: &mut FunctionalRelation, factor: f64) {
    for i in 0..rel.len() {
        let m = rel.measure(i);
        rel.set_measure(i, sr.mul(m, factor));
    }
}

/// Run Belief Propagation over an **acyclic** relation schema: build the
/// join tree over the relations themselves (Theorem 7) and calibrate.
/// Returns the calibrated tables and the executed program.
///
/// # Errors
/// [`InferError::CyclicSchema`] if no join tree with the running-intersection
/// property exists (the Figure 12 situation).
pub fn bp_acyclic(
    sr: SemiringKind,
    rels: &[&FunctionalRelation],
) -> Result<(Vec<FunctionalRelation>, Vec<BpStep>)> {
    bp_acyclic_in(&mut ExecContext::new(sr), rels)
}

/// [`bp_acyclic`] inside a caller-owned [`ExecContext`] — the budgeted
/// entry point of the BP semijoin program.
pub fn bp_acyclic_in(
    cx: &mut ExecContext<'_>,
    rels: &[&FunctionalRelation],
) -> Result<(Vec<FunctionalRelation>, Vec<BpStep>)> {
    let sets: Vec<BTreeSet<VarId>> = rels.iter().map(|r| r.schema().iter().collect()).collect();
    let tree = JoinTree::build(&sets);
    if !tree.verify_rip(&sets) {
        return Err(InferError::CyclicSchema);
    }
    let mut tables: Vec<FunctionalRelation> = rels.iter().map(|r| (*r).clone()).collect();
    let program = calibrate_in(cx, &mut tables, &tree)?;
    Ok((tables, program))
}

/// Check the Definition 5 correctness invariant: for every calibrated table
/// and every variable it contains, the table's marginal on that variable
/// equals the marginal of the full view (the product join of all `base`
/// relations). Exponential in the view size — test/verification use only.
pub fn satisfies_invariant(
    sr: SemiringKind,
    base: &[&FunctionalRelation],
    tables: &[impl std::borrow::Borrow<FunctionalRelation>],
) -> Result<bool> {
    assert!(!base.is_empty());
    let cx = &mut ExecContext::new(sr);
    let mut view = base[0].clone();
    for r in &base[1..] {
        view = mpf_algebra::ops::product_join(cx, &view, r)?;
    }
    for t in tables {
        let t = t.borrow();
        for v in t.schema().iter() {
            let from_table = mpf_algebra::ops::group_by(cx, t, &[v])?;
            let from_view = mpf_algebra::ops::group_by(cx, &view, &[v])?;
            // Explicit additive-zero rows and missing rows denote the same
            // function value (see `FunctionalRelation::function_eq_in`).
            if !from_view.function_eq_in(&from_table, sr) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_storage::{Catalog, Schema};

    /// A small random-ish chain of complete relations:
    /// r0(x0, x1), r1(x1, x2), ..., with deterministic measures.
    fn chain(cat: &mut Catalog, n: usize, dom: u64) -> Vec<FunctionalRelation> {
        let vars: Vec<VarId> = (0..=n)
            .map(|i| cat.add_var(&format!("x{i}"), dom).unwrap())
            .collect();
        (0..n)
            .map(|i| {
                FunctionalRelation::complete(
                    format!("r{i}"),
                    Schema::new(vec![vars[i], vars[i + 1]]).unwrap(),
                    cat,
                    |row| ((row[0] * 3 + row[1] * 7 + i as u32) % 5 + 1) as f64 / 2.0,
                )
            })
            .collect()
    }

    #[test]
    fn bp_calibrates_chain() {
        let mut cat = Catalog::new();
        let rels = chain(&mut cat, 5, 3);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let (tables, program) = bp_acyclic(SemiringKind::SumProduct, &refs).unwrap();
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs, &tables).unwrap());
        // A chain of 5 tables: 4 forward + 4 backward steps (Figure 11 has
        // 4+4 for the 5-relation supply chain).
        assert_eq!(program.len(), 8);
        assert_eq!(
            program.iter().filter(|s| matches!(s, BpStep::Forward { .. })).count(),
            4
        );
    }

    #[test]
    fn bp_calibrates_in_tropical_semiring() {
        let mut cat = Catalog::new();
        let rels = chain(&mut cat, 3, 2);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let (tables, _) = bp_acyclic(SemiringKind::MinSum, &refs).unwrap();
        assert!(satisfies_invariant(SemiringKind::MinSum, &refs, &tables).unwrap());
    }

    #[test]
    fn bp_rejects_cyclic_schema() {
        // Figure 12: the supply chain plus stdeals is cyclic.
        let mut cat = Catalog::new();
        let pid = cat.add_var("pid", 2).unwrap();
        let sid = cat.add_var("sid", 2).unwrap();
        let wid = cat.add_var("wid", 2).unwrap();
        let cid = cat.add_var("cid", 2).unwrap();
        let tid = cat.add_var("tid", 2).unwrap();
        let mk = |name: &str, vars: Vec<VarId>| {
            FunctionalRelation::complete(
                name,
                Schema::new(vars).unwrap(),
                &cat,
                |row| (row.iter().sum::<u32>() + 1) as f64,
            )
        };
        let rels = [mk("contracts", vec![pid, sid]),
            mk("warehouses", vec![wid, cid]),
            mk("transporters", vec![tid]),
            mk("location", vec![pid, wid]),
            mk("ctdeals", vec![cid, tid]),
            mk("stdeals", vec![sid, tid])];
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        assert!(matches!(
            bp_acyclic(SemiringKind::SumProduct, &refs),
            Err(InferError::CyclicSchema)
        ));
        // Without stdeals the schema is acyclic and BP succeeds.
        let refs2: Vec<&FunctionalRelation> = rels[..5].iter().collect();
        let (tables, _) = bp_acyclic(SemiringKind::SumProduct, &refs2).unwrap();
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs2, &tables).unwrap());
    }

    #[test]
    fn bp_handles_disconnected_components() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 2).unwrap();
        let c = cat.add_var("c", 2).unwrap();
        let d = cat.add_var("d", 2).unwrap();
        let mk = |name: &str, vars: Vec<VarId>, salt: u32| {
            FunctionalRelation::complete(name, Schema::new(vars).unwrap(), &cat, move |row| {
                ((row[0] * 2 + row[1] + salt) % 4 + 1) as f64
            })
        };
        let rels = [mk("r1", vec![a, b], 0), mk("r2", vec![c, d], 1)];
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let (tables, _) = bp_acyclic(SemiringKind::SumProduct, &refs).unwrap();
        // With cross-component scaling the invariant holds globally.
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs, &tables).unwrap());
    }

    #[test]
    fn bp_requires_division() {
        let mut cat = Catalog::new();
        let rels = chain(&mut cat, 2, 2);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        assert!(bp_acyclic(SemiringKind::BoolOrAnd, &refs).is_err());
    }

    #[test]
    fn star_tree_calibrates() {
        // A star join tree: centre (a,b,c) with three leaves.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 2).unwrap();
        let c = cat.add_var("c", 2).unwrap();
        let centre = FunctionalRelation::complete(
            "centre",
            Schema::new(vec![a, b, c]).unwrap(),
            &cat,
            |row| (row[0] + row[1] * 2 + row[2] * 3 + 1) as f64,
        );
        let la = FunctionalRelation::complete(
            "la",
            Schema::new(vec![a]).unwrap(),
            &cat,
            |row| (row[0] + 1) as f64,
        );
        let lb = FunctionalRelation::complete(
            "lb",
            Schema::new(vec![b]).unwrap(),
            &cat,
            |row| (row[0] + 2) as f64,
        );
        let lc = FunctionalRelation::complete(
            "lc",
            Schema::new(vec![c]).unwrap(),
            &cat,
            |row| (2 * row[0] + 1) as f64,
        );
        let refs: Vec<&FunctionalRelation> = vec![&centre, &la, &lb, &lc];
        let (tables, _) = bp_acyclic(SemiringKind::SumProduct, &refs).unwrap();
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs, &tables).unwrap());
    }
}
