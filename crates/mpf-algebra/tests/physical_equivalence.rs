//! Property test: physical plans compute the same functional relation as
//! their logical plan regardless of the operator algorithms chosen.

use mpf_algebra::{AggAlgo, Executor, JoinAlgo, PhysicalPlan, Plan, RelationStore};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random algorithm assignments never change the answer.
    #[test]
    fn physical_matches_logical(
        join_picks in proptest::collection::vec(0usize..3, 8),
        agg_picks in proptest::collection::vec(0usize..3, 8),
        group_var in 0usize..3,
        filter in proptest::option::of((0usize..2, 0u32..3)),
        fuse_pick in proptest::option::of(0usize..3),
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
        let (want, _) = exec.execute(&logical).unwrap();

        let mut ji = 0;
        let mut ai = 0;
        let physical = PhysicalPlan::from_logical(
            &logical,
            &mut |_, _| {
                ji += 1;
                [JoinAlgo::Hash, JoinAlgo::Dense, JoinAlgo::SparseTensor]
                    [join_picks[ji % join_picks.len()]]
            },
            &mut |_, _| {
                ai += 1;
                [AggAlgo::HashAgg, AggAlgo::DenseAgg, AggAlgo::SparseAgg]
                    [agg_picks[ai % agg_picks.len()]]
            },
        );
        // Optionally fuse the root elimination step, starting its
        // fallback chain at a random algorithm.
        let physical = match (fuse_pick, physical) {
            (Some(k), PhysicalPlan::GroupBy { input, group_vars, .. }) => match *input {
                PhysicalPlan::Join { left, right, .. } => PhysicalPlan::JoinAgg {
                    left,
                    right,
                    group_vars,
                    algo: [JoinAlgo::Hash, JoinAlgo::Dense, JoinAlgo::SparseTensor][k],
                },
                other => unreachable!("root group-by sits on a join: {other:?}"),
            },
            (_, physical) => physical,
        };
        let (got, stats) = exec.execute_physical(&physical).unwrap();
        prop_assert!(want.function_eq(&got));
        prop_assert_eq!(stats.joins, 2);
        prop_assert_eq!(stats.group_bys, 2);
    }
}
