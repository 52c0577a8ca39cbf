//! Representation parity: whatever [`ReprMode`] / [`DenseMode`] select —
//! row-major hash, CSR sparse tensor, or dense odometer — answers are the
//! same function, for every semiring, at every density band, at every
//! thread count. Modes are pinned on the [`ExecContext`].
//!
//! The density sweep mirrors the representation lattice the planner works
//! with: 0.005 and 0.05 (very sparse), 0.3 (mid-density), 0.9 (dense
//! territory). `ReprMode::Auto` takes the sparse kernels at all of them
//! whenever the dense path does not apply.

use mpf_algebra::{
    ops, sparse, AggAlgo, DenseMode, ExecContext, JoinAlgo, PhysicalPlan, Plan, RelationStore,
    ReprMode, Executor,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const DENSITIES: [f64; 4] = [0.005, 0.05, 0.3, 0.9];
const THREADS: [usize; 2] = [1, 4];
const REPRS: [ReprMode; 2] = [ReprMode::Off, ReprMode::Auto];
const DENSES: [DenseMode; 2] = [DenseMode::Off, DenseMode::Auto];

/// Deterministic per-cell inclusion decision (split-mix style hash), so a
/// (density, salt) pair always generates the same relation.
fn keep_cell(cell: u64, salt: u64, density: f64) -> bool {
    let mut x = cell.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    ((x >> 11) as f64 / (1u64 << 53) as f64) < density
}

/// A functional relation over `vars` whose support is a deterministic
/// `density` fraction of the domain grid, with semiring-safe measures.
fn sparse_rel(
    name: &str,
    vars: Vec<VarId>,
    doms: &[u64],
    density: f64,
    salt: u64,
    sr: SemiringKind,
) -> FunctionalRelation {
    let cells: u64 = doms.iter().product();
    let measure = |cell: u64| {
        let raw = ((cell.wrapping_add(salt * 7)) % 5 + 1) as f64 / 2.0;
        if sr == SemiringKind::BoolOrAnd {
            (cell.wrapping_add(salt)) as f64 % 2.0
        } else {
            raw
        }
    };
    let rows = (0..cells).filter(|&c| keep_cell(c, salt, density)).map(|c| {
        let mut row = Vec::with_capacity(doms.len());
        let mut rest = c;
        for &d in doms.iter().rev() {
            row.push((rest % d) as u32);
            rest /= d;
        }
        row.reverse();
        (row, measure(c))
    });
    FunctionalRelation::from_rows(name, Schema::new(vars).unwrap(), rows).unwrap()
}

/// The chain fixture the sweep runs on: r1(a,b), r2(b,c), r3(c,d) over
/// 6-value domains at the given density.
fn chain(sr: SemiringKind, density: f64) -> ([FunctionalRelation; 3], [VarId; 4]) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 6).unwrap();
    let b = cat.add_var("b", 6).unwrap();
    let c = cat.add_var("c", 6).unwrap();
    let d = cat.add_var("d", 6).unwrap();
    (
        [
            sparse_rel("r1", vec![a, b], &[6, 6], density, 1, sr),
            sparse_rel("r2", vec![b, c], &[6, 6], density, 2, sr),
            sparse_rel("r3", vec![c, d], &[6, 6], density, 3, sr),
        ],
        [a, b, c, d],
    )
}

/// A variable-elimination pipeline (eliminate b, then c, then marginalize
/// onto a) under one pinned mode triple. Every operator dispatches through
/// the three-way `sparse::join_auto` / `sparse::agg_auto` selection.
fn ve_chain(
    sr: SemiringKind,
    rels: &[FunctionalRelation; 3],
    vars: &[VarId; 4],
    repr: ReprMode,
    dense: DenseMode,
    threads: usize,
) -> (FunctionalRelation, mpf_algebra::ExecStats) {
    let [a, _, c, d] = *vars;
    let mut cx = ExecContext::new(sr)
        .with_repr(repr)
        .with_dense(dense)
        .with_threads(threads);
    let t1 = sparse::join_auto(&mut cx, &rels[0], &rels[1]).unwrap();
    let t1 = sparse::agg_auto(&mut cx, &t1, &[a, c]).unwrap();
    let t2 = sparse::join_auto(&mut cx, &t1, &rels[2]).unwrap();
    let t2 = sparse::agg_auto(&mut cx, &t2, &[a, d]).unwrap();
    let out = sparse::agg_auto(&mut cx, &t2, &[a]).unwrap();
    (out, *cx.stats())
}

/// The full mode matrix answers identically at every density band, for
/// every semiring, at every thread count — and the `Auto` runs without
/// dense kernels actually take the sparse kernels whenever any work
/// exists, at every density.
#[test]
fn density_sweep_mode_matrix_parity() {
    for density in DENSITIES {
        for sr in SemiringKind::ALL {
            let (rels, vars) = chain(sr, density);
            let (baseline, _) =
                ve_chain(sr, &rels, &vars, ReprMode::Off, DenseMode::Off, 1);
            for repr in REPRS {
                for dense in DENSES {
                    for t in THREADS {
                        let (got, stats) = ve_chain(sr, &rels, &vars, repr, dense, t);
                        assert!(
                            baseline.function_eq_in(&got, sr),
                            "diverged: density {density} sr {sr:?} repr {repr:?} \
                             dense {dense:?} threads {t}"
                        );
                        if repr == ReprMode::Off {
                            assert_eq!(
                                stats.sparse_joins + stats.sparse_group_bys,
                                0,
                                "off means off: sr {sr:?}"
                            );
                        }
                        if repr == ReprMode::Auto
                            && dense == DenseMode::Off
                            && rels.iter().all(|r| !r.is_empty())
                        {
                            assert!(
                                stats.sparse_joins + stats.sparse_group_bys > 0,
                                "auto ran no sparse kernels: density \
                                 {density} sr {sr:?} threads {t}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Physical plans annotated `SparseTensor`/`SparseAgg` by the planner
/// execute through the interpreter to the same answer as the all-hash
/// plan, at every thread count, and the executed operators are counted.
#[test]
fn sparse_plans_match_hash_plans_through_the_interpreter() {
    let sr = SemiringKind::SumProduct;
    let (rels, [_, b, _, _]) = chain(sr, 0.3);
    let mut store = RelationStore::new();
    store.insert(rels[0].clone());
    store.insert(rels[1].clone());
    let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![b]);
    let (want, _) = Executor::new(&store, sr)
        .execute_physical(&PhysicalPlan::default_hash(&logical))
        .unwrap();
    let sparse_plan = PhysicalPlan::from_logical(
        &logical,
        &mut |_, _| JoinAlgo::SparseTensor,
        &mut |_, _| AggAlgo::SparseAgg,
    );
    for t in THREADS {
        let (got, stats) = Executor::new(&store, sr)
            .with_threads(t)
            .execute_physical(&sparse_plan)
            .unwrap();
        assert!(want.function_eq(&got), "threads {t}");
        assert_eq!(stats.sparse_joins, 1, "threads {t}");
        assert_eq!(stats.sparse_group_bys, 1, "threads {t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random measures and random support holes: mode only ever picks the
    /// kernel, never the answer. Mirrors `mode_never_changes_answers` in
    /// the dense parity suite, over the representation dimension.
    #[test]
    fn repr_never_changes_answers(
        m1 in proptest::collection::vec(0u8..10, 16),
        m2 in proptest::collection::vec(0u8..10, 16),
        hole_picks in proptest::collection::vec(0usize..16, 0..8),
        sr_idx in 0usize..7,
        group_var in 0usize..2,
    ) {
        let holes: std::collections::BTreeSet<usize> = hole_picks.into_iter().collect();
        let sr = SemiringKind::ALL[sr_idx];
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 4).unwrap();
        let b = cat.add_var("b", 4).unwrap();
        let c = cat.add_var("c", 4).unwrap();
        let conv = |m: u8| if sr == SemiringKind::BoolOrAnd { (m % 2) as f64 } else { m as f64 };
        let r1 = FunctionalRelation::from_rows(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            (0..16u32)
                .filter(|i| !holes.contains(&(*i as usize)))
                .map(|i| (vec![i / 4, i % 4], conv(m1[i as usize]))),
        )
        .unwrap();
        let r2 = FunctionalRelation::from_rows(
            "r2",
            Schema::new(vec![b, c]).unwrap(),
            (0..16u32).map(|i| (vec![i / 4, i % 4], conv(m2[i as usize]))),
        )
        .unwrap();
        let gv = [[a, c][group_var]];
        let want_join = ops::product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
        let want = ops::group_by(&mut ExecContext::new(sr), &want_join, &gv).unwrap();
        for repr in REPRS {
            for dense in DENSES {
                let mut cx = ExecContext::new(sr).with_repr(repr).with_dense(dense);
                let j = sparse::join_auto(&mut cx, &r1, &r2).unwrap();
                let g = sparse::agg_auto(&mut cx, &j, &gv).unwrap();
                prop_assert!(
                    want.function_eq_in(&g, sr),
                    "sr {sr:?} repr {repr:?} dense {dense:?} holes {holes:?}"
                );
            }
        }
    }
}
