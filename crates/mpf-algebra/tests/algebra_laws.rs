//! Property tests for the extended relational algebra: the algebraic laws
//! that every optimization in the paper relies on, checked on random
//! functional relations in multiple semirings.

use mpf_algebra::{ops, ExecContext};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const SEMIRINGS: [SemiringKind; 3] = [
    SemiringKind::SumProduct,
    SemiringKind::MinProduct,
    SemiringKind::MaxSum,
];

/// Up to 4 variables with domains 2–3; three relations over random subsets.
#[derive(Debug, Clone)]
struct Triple {
    domains: Vec<u64>,
    rels: Vec<(Vec<usize>, Vec<bool>, u32)>, // (vars, keep flags, salt)
}

fn triple() -> impl Strategy<Value = Triple> {
    (2usize..=4).prop_flat_map(|nvars| {
        let domains = proptest::collection::vec(2u64..=3, nvars);
        domains.prop_flat_map(move |domains| {
            let rel = {
                let domains = domains.clone();
                (proptest::collection::vec(0usize..nvars, 1..=2), 0u32..50).prop_flat_map(
                    move |(mut vars, salt)| {
                        vars.sort_unstable();
                        vars.dedup();
                        let size: u64 = vars.iter().map(|&v| domains[v]).product();
                        proptest::collection::vec(proptest::bool::weighted(0.8), size as usize)
                            .prop_map(move |keep| (vars.clone(), keep, salt))
                    },
                )
            };
            proptest::collection::vec(rel, 3).prop_map({
                let domains = domains.clone();
                move |rels| Triple {
                    domains: domains.clone(),
                    rels,
                }
            })
        })
    })
}

fn build(t: &Triple) -> (Catalog, Vec<FunctionalRelation>) {
    let mut cat = Catalog::new();
    let ids: Vec<VarId> = t
        .domains
        .iter()
        .enumerate()
        .map(|(i, &d)| cat.add_var(&format!("x{i}"), d).unwrap())
        .collect();
    let rels = t
        .rels
        .iter()
        .enumerate()
        .map(|(ri, (vars, keep, salt))| {
            let schema = Schema::new(vars.iter().map(|&v| ids[v]).collect()).unwrap();
            let full = FunctionalRelation::complete("tmp", schema.clone(), &cat, |row| {
                ((row.iter().sum::<u32>() * 3 + salt) % 6 + 1) as f64 / 2.0
            });
            let mut rel = FunctionalRelation::new(format!("r{ri}"), schema);
            for (i, (row, m)) in full.rows().enumerate() {
                if keep[i] {
                    rel.push_row(row, m).unwrap();
                }
            }
            rel
        })
        .collect();
    (cat, rels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Product join is commutative (as a function).
    #[test]
    fn join_commutative(t in triple()) {
        let (_, rels) = build(&t);
        for sr in SEMIRINGS {
            let ab = ops::product_join(&mut ExecContext::new(sr), &rels[0], &rels[1]).unwrap();
            let ba = ops::product_join(&mut ExecContext::new(sr), &rels[1], &rels[0]).unwrap();
            prop_assert!(ab.function_eq(&ba));
        }
    }

    /// Product join is associative (as a function).
    #[test]
    fn join_associative(t in triple()) {
        let (_, rels) = build(&t);
        for sr in SEMIRINGS {
            let left = ops::product_join(
                &mut ExecContext::new(sr),
                &ops::product_join(&mut ExecContext::new(sr), &rels[0], &rels[1]).unwrap(),
                &rels[2],
            )
            .unwrap();
            let right = ops::product_join(
                &mut ExecContext::new(sr),
                &rels[0],
                &ops::product_join(&mut ExecContext::new(sr), &rels[1], &rels[2]).unwrap(),
            )
            .unwrap();
            prop_assert!(left.function_eq(&right));
        }
    }

    /// The result of a product join or group-by is again a functional
    /// relation (FD holds) — the closure property of Definition 2.
    #[test]
    fn closure_under_operators(t in triple()) {
        let (_, rels) = build(&t);
        let sr = SemiringKind::SumProduct;
        let j = ops::product_join(&mut ExecContext::new(sr), &rels[0], &rels[1]).unwrap();
        prop_assert!(j.validate_fd().is_ok());
        if let Some(&v) = j.schema().vars().first() {
            let g = ops::group_by(&mut ExecContext::new(sr), &j, &[v]).unwrap();
            prop_assert!(g.validate_fd().is_ok());
        }
    }

    /// The Generalized Distributive Law: a group-by that drops variables
    /// local to one operand may be pushed below the join. This is the
    /// soundness core of every CS+/VE transformation.
    #[test]
    fn gdl_pushdown(t in triple()) {
        let (_, rels) = build(&t);
        let (a, b) = (&rels[0], &rels[1]);
        // Variables of `b` that do not occur in `a` can be aggregated early,
        // keeping the shared variables.
        let shared = a.schema().intersect(b.schema());
        for sr in SEMIRINGS {
            let joined = ops::product_join(&mut ExecContext::new(sr), a, b).unwrap();
            let keep: Vec<VarId> = a
                .schema()
                .iter()
                .chain(shared.iter())
                .collect::<Schema>()
                .vars()
                .to_vec();
            let direct = ops::group_by(&mut ExecContext::new(sr), &joined, &keep).unwrap();

            let reduced_b = ops::group_by(&mut ExecContext::new(sr), b, shared.vars()).unwrap();
            let pushed = ops::product_join(&mut ExecContext::new(sr), a, &reduced_b).unwrap();
            let pushed = ops::group_by(&mut ExecContext::new(sr), &pushed, &keep).unwrap();
            prop_assert!(direct.function_eq(&pushed), "{sr:?}");
        }
    }

    /// Selection commutes with product join (selections are pushed onto
    /// scans by every optimizer).
    #[test]
    fn selection_pushdown(t in triple()) {
        let (_, rels) = build(&t);
        let (a, b) = (&rels[0], &rels[1]);
        let v = a.schema().vars()[0];
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let joined = ops::product_join(&mut cx, a, b).unwrap();
        let select_after = ops::select_eq(&mut cx, &joined, &[(v, 0)]).unwrap();
        let a_selected = ops::select_eq(&mut cx, a, &[(v, 0)]).unwrap();
        let select_before = ops::product_join(&mut cx, &a_selected, b).unwrap();
        // If v also occurs in b the pushdown must hit both sides.
        let select_before = if b.schema().contains(v) {
            ops::select_eq(&mut cx, &select_before, &[(v, 0)]).unwrap()
        } else {
            select_before
        };
        prop_assert!(select_after.function_eq(&select_before));
    }

    /// Group-by is idempotent-compatible: grouping onto X then onto Y ⊆ X
    /// equals grouping straight onto Y.
    #[test]
    fn group_by_cascades(t in triple()) {
        let (_, rels) = build(&t);
        let a = &rels[0];
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let vars = a.schema().vars().to_vec();
        let sub: Vec<VarId> = vars.iter().copied().take(1).collect();
        let onto_vars = ops::group_by(&mut cx, a, &vars).unwrap();
        let two_step = ops::group_by(&mut cx, &onto_vars, &sub).unwrap();
        let one_step = ops::group_by(&mut cx, a, &sub).unwrap();
        prop_assert!(two_step.function_eq(&one_step));
    }

    /// Product semijoin preserves the receiver's schema and multiplies in
    /// exactly the sender's shared-variable marginal.
    #[test]
    fn product_semijoin_schema(t in triple()) {
        let (_, rels) = build(&t);
        let sr = SemiringKind::SumProduct;
        let red = ops::product_semijoin(&mut ExecContext::new(sr), &rels[0], &rels[1]).unwrap();
        prop_assert_eq!(red.schema().vars(), rels[0].schema().vars());
    }
}
