//! Property test: physical plans compute the same functional relation as
//! their logical plan regardless of the representation each step starts
//! at and of which steps are fused.

use mpf_algebra::{Executor, OpRepr, PhysicalPlan, Plan, RelationStore};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

fn store() -> (Catalog, RelationStore, Vec<VarId>) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 3).unwrap();
    let b = cat.add_var("b", 3).unwrap();
    let c = cat.add_var("c", 3).unwrap();
    let mut s = RelationStore::new();
    s.insert(FunctionalRelation::complete(
        "r1",
        Schema::new(vec![a, b]).unwrap(),
        &cat,
        |row| (row[0] * 2 + row[1] + 1) as f64,
    ));
    s.insert(FunctionalRelation::complete(
        "r2",
        Schema::new(vec![b, c]).unwrap(),
        &cat,
        |row| (row[0] + 3 * row[1] + 1) as f64,
    ));
    s.insert(FunctionalRelation::complete(
        "r3",
        Schema::new(vec![c]).unwrap(),
        &cat,
        |row| (row[0] + 1) as f64,
    ));
    (cat, s, vec![a, b, c])
}

/// `plan` with one drawn representation per step; a group-by over a
/// join fuses with it into one two-input step when its drawn flag is set.
fn draw(plan: &Plan, picks: &mut impl Iterator<Item = (usize, u8)>) -> PhysicalPlan {
    let (pick, fuse) = picks.next().expect("picks cycle");
    let repr = [OpRepr::Rows, OpRepr::Dense, OpRepr::Sparse][pick];
    match plan {
        Plan::Scan { .. } => PhysicalPlan::default_hash(plan),
        Plan::Select { input, predicates } => PhysicalPlan::Select {
            input: Box::new(draw(input, picks)),
            predicates: predicates.clone(),
        },
        Plan::Join { left, right } => PhysicalPlan::Step {
            inputs: vec![draw(left, picks), draw(right, picks)],
            group_vars: None,
            repr,
        },
        Plan::GroupBy { input, group_vars } => {
            let inputs = match input.as_ref() {
                Plan::Join { left, right } if fuse == 1 => {
                    vec![draw(left, picks), draw(right, picks)]
                }
                input => vec![draw(input, picks)],
            };
            PhysicalPlan::Step {
                inputs,
                group_vars: Some(group_vars.clone()),
                repr,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random representations per step, fused or unfused, never change
    /// the answer or the logical plan.
    #[test]
    fn physical_matches_logical(
        picks in proptest::collection::vec((0usize..3, 0u8..2), 12),
        group_var in 0usize..3,
        filter in proptest::option::of((0usize..2, 0u32..3)),
    ) {
        let (_, store, vars) = store();
        let sr = SemiringKind::SumProduct;

        // A fixed logical shape with pushdowns and an optional selection.
        let mut scan1: Plan = Plan::scan("r1");
        if let Some((v, c)) = filter {
            scan1 = Plan::select(scan1, vec![(vars[v], c)]);
        }
        let logical = Plan::group_by(
            Plan::join(
                Plan::join(scan1, Plan::group_by(Plan::scan("r2"), vec![vars[1], vars[2]])),
                Plan::scan("r3"),
            ),
            vec![vars[group_var]],
        );

        let exec = Executor::new(&store, sr);
        let (want, _) = exec.execute_physical(&PhysicalPlan::default_hash(&logical)).unwrap();
        let physical = draw(&logical, &mut picks.iter().copied().cycle());
        prop_assert_eq!(physical.to_logical(), logical.clone());
        let (got, stats) = exec.execute_physical(&physical).unwrap();
        prop_assert!(want.function_eq(&got));
        prop_assert_eq!(stats.joins, 2);
        prop_assert_eq!(stats.group_bys, 2);
    }
}
