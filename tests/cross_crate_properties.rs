//! Cross-crate property tests: random view structures exercised through
//! the optimizer, executor, and inference layers simultaneously.

use std::sync::Arc;

use mpf::algebra::{ops, ExecContext, RelationStore};
use mpf::infer::{acyclic, bp, VeCache};
use mpf::semiring::SemiringKind;
use mpf::storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

/// A random *connected chain-with-extras* schema: guaranteed acyclic, with
/// random arities, partial support, and positive measures.
#[derive(Debug, Clone)]
struct AcyclicInstance {
    domains: Vec<u64>,
    /// Each relation covers a contiguous window of variables.
    windows: Vec<(usize, usize)>, // (start, len)
    keep_flags: Vec<Vec<bool>>,
    seed: u64,
}

fn acyclic_instance() -> impl Strategy<Value = AcyclicInstance> {
    (3usize..=5, 2usize..=4, 0u64..1000).prop_flat_map(|(nvars, nrels, seed)| {
        let domains = proptest::collection::vec(2u64..=3, nvars);
        domains.prop_flat_map(move |domains| {
            let window = (0..nvars, 1usize..=2).prop_map(move |(s, l)| {
                let start = s.min(nvars - 1);
                let len = l.min(nvars - start);
                (start, len)
            });
            let windows = proptest::collection::vec(window, nrels);
            let domains2 = domains.clone();
            windows.prop_flat_map(move |windows| {
                let sizes: Vec<usize> = windows
                    .iter()
                    .map(|&(s, l)| {
                        domains2[s..s + l].iter().product::<u64>() as usize
                    })
                    .collect();
                let flags: Vec<_> = sizes
                    .iter()
                    .map(|&n| proptest::collection::vec(proptest::bool::weighted(0.85), n))
                    .collect();
                let domains3 = domains2.clone();
                let windows2 = windows.clone();
                flags.prop_map(move |keep_flags| AcyclicInstance {
                    domains: domains3.clone(),
                    windows: windows2.clone(),
                    keep_flags,
                    seed,
                })
            })
        })
    })
}

fn build(inst: &AcyclicInstance) -> (Catalog, Vec<FunctionalRelation>) {
    let mut cat = Catalog::new();
    let vars: Vec<VarId> = inst
        .domains
        .iter()
        .enumerate()
        .map(|(i, &d)| cat.add_var(&format!("x{i}"), d).unwrap())
        .collect();
    let mut rels = Vec::new();
    for (ri, &(start, len)) in inst.windows.iter().enumerate() {
        let schema = Schema::new(vars[start..start + len].to_vec()).unwrap();
        let full = FunctionalRelation::complete("tmp", schema.clone(), &cat, |row| {
            ((row.iter().sum::<u32>() + ri as u32 + inst.seed as u32) % 7 + 1) as f64 / 2.0
        });
        let mut rel = FunctionalRelation::new(format!("r{ri}"), schema);
        for (i, (row, m)) in full.rows().enumerate() {
            if inst.keep_flags[ri][i] {
                rel.push_row(row, m).unwrap();
            }
        }
        rels.push(rel);
    }
    (cat, rels)
}

fn full_view(sr: SemiringKind, rels: &[FunctionalRelation]) -> FunctionalRelation {
    let cx = &mut ExecContext::new(sr);
    let mut acc = rels[0].clone();
    for r in &rels[1..] {
        acc = ops::product_join(cx, &acc, r).unwrap();
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contiguous-window schemas are acyclic (intervals form a chordal
    /// co-occurrence structure), so both BP and VE-cache must satisfy the
    /// Definition 5 invariant against the real view.
    #[test]
    fn vecache_invariant_on_random_schemas(inst in acyclic_instance()) {
        let (_, rels) = build(&inst);
        if rels.iter().any(|r| r.is_empty()) {
            return Ok(());
        }
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        for sr in [SemiringKind::SumProduct, SemiringKind::MinSum] {
            let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
            prop_assert!(
                bp::satisfies_invariant(sr, &refs, cache.tables()).unwrap(),
                "VE-cache invariant failed ({sr:?}) for {inst:?}"
            );
        }
    }

    /// Interval schemas pass the GYO test, and BP over them calibrates.
    #[test]
    fn bp_invariant_on_random_interval_schemas(inst in acyclic_instance()) {
        let (_, rels) = build(&inst);
        if rels.iter().any(|r| r.is_empty()) {
            return Ok(());
        }
        let schemas: Vec<&Schema> = rels.iter().map(|r| r.schema()).collect();
        prop_assume!(acyclic::is_acyclic(schemas.into_iter()));
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        match bp::bp_acyclic(SemiringKind::SumProduct, &refs) {
            Ok((tables, _)) => prop_assert!(
                bp::satisfies_invariant(SemiringKind::SumProduct, &refs, &tables).unwrap()
            ),
            // A GYO-acyclic family can still fail the MST join-tree
            // construction only if disconnected subsets share no variables —
            // handled inside bp_acyclic via components, so any error here is
            // a real bug.
            Err(e) => return Err(TestCaseError::fail(format!("bp_acyclic failed: {e}"))),
        }
    }

    /// Incremental maintenance equals rebuilding on random schemas: change
    /// a random base row's measure, maintain, and compare every answer to a
    /// cache rebuilt from the modified relations.
    #[test]
    fn incremental_maintenance_on_random_schemas(
        inst in acyclic_instance(),
        pick in 0usize..64,
        factor in 1u32..8,
    ) {
        let (_, mut rels) = build(&inst);
        if rels.iter().any(|r| r.is_empty()) {
            return Ok(());
        }
        let sr = SemiringKind::SumProduct;
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let mut maintained =
            Arc::new(VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap());

        // Pick a base relation and row.
        let ri = pick % rels.len();
        let row_i = (pick / rels.len()) % rels[ri].len();
        let row = rels[ri].row(row_i).to_vec();
        let old = rels[ri].measure(row_i);
        let new = old * (factor as f64) / 2.0;
        let name = rels[ri].name().to_string();

        maintained.update_measure(&name, &row, old, new).unwrap();
        rels[ri].set_measure(row_i, new);
        let mod_refs: Vec<&FunctionalRelation> = rels.iter().collect();

        prop_assert!(
            bp::satisfies_invariant(sr, &mod_refs, maintained.tables()).unwrap(),
            "maintained cache violates Definition 5 for {inst:?} (rel {ri}, row {row_i})"
        );
    }

    /// Evidence conditioning on the cache equals select-then-marginalize on
    /// the view.
    #[test]
    fn evidence_protocol_on_random_schemas(inst in acyclic_instance()) {
        let (_, rels) = build(&inst);
        if rels.iter().any(|r| r.is_empty()) {
            return Ok(());
        }
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        let view = full_view(sr, &rels);

        // Condition on the first variable of the first relation.
        let ev_var = rels[0].schema().vars()[0];
        let conditioned = cache.with_evidence(ev_var, 0).unwrap();
        let cx = &mut ExecContext::new(sr);
        let view_cond = ops::select_eq(cx, &view, &[(ev_var, 0)]).unwrap();
        for v in view.schema().iter() {
            if v == ev_var {
                continue;
            }
            let want = ops::group_by(cx, &view_cond, &[v]).unwrap();
            let got = conditioned.answer(v).unwrap();
            prop_assert!(
                want.function_eq_in(&got, sr),
                "evidence protocol diverged on {v} for {inst:?}"
            );
        }
    }
}

/// The store abstraction round-trips through the facade crate.
#[test]
fn facade_reexports_are_usable() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 2).unwrap();
    let rel = FunctionalRelation::from_rows(
        "r",
        Schema::new(vec![a]).unwrap(),
        [(vec![0], 1.0), (vec![1], 2.0)],
    )
    .unwrap();
    let mut store = RelationStore::new();
    store.insert(rel);
    assert_eq!(store.len(), 1);
}
