//! Representation parity: whatever [`ReprMode`] / [`DenseMode`] select —
//! row-major hash, CSR sparse tensor, or dense odometer — answers are the
//! same function, for every semiring, at every density band, at every
//! thread count; with the sparse kernels on, the dense mode never moves
//! a bit. Modes are pinned on the [`ExecContext`].
//!
//! The density sweep mirrors the representation lattice the planner works
//! with: 0.005 and 0.05 (very sparse), 0.3 (mid-density), 0.9 (dense
//! territory). `ReprMode::Auto` takes the sparse kernels at all of them
//! whenever the dense path does not apply.

use mpf_algebra::{
    ops, DenseMode, ExecContext, ExecStats, Executor, OpRepr, PhysicalPlan, Plan, RelationStore,
    ReprMode, TraceLevel,
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
/// onto a) under one pinned mode triple. Every operator runs the full
/// dense → sparse → hash fallback chain.
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
    let t1 = ops::step(&mut cx, &[&rels[0], &rels[1]], None, OpRepr::Dense).unwrap();
    let t1 = ops::step(&mut cx, &[&t1], Some(&[a, c]), OpRepr::Dense).unwrap();
    let t2 = ops::step(&mut cx, &[&t1, &rels[2]], None, OpRepr::Dense).unwrap();
    let t2 = ops::step(&mut cx, &[&t2], Some(&[a, d]), OpRepr::Dense).unwrap();
    let out = ops::step(&mut cx, &[&t2], Some(&[a]), OpRepr::Dense).unwrap();
    (out, *cx.stats())
}

/// The full mode matrix answers identically at every density band, for
/// every semiring, at every thread count — bit for bit across the dense
/// mode under `ReprMode::Auto` — and the `Auto` runs without dense
/// kernels actually take the sparse kernels whenever any work exists, at
/// every density.
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
                        if repr == ReprMode::Auto {
                            let (sparse, _) = ve_chain(sr, &rels, &vars, repr, DenseMode::Off, t);
                            assert_eq!(
                                exact(&got),
                                exact(&sparse),
                                "dense vs sparse: density {density} sr {sr:?} threads {t}"
                            );
                        }
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

/// Physical plans annotated sparse by the planner
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
    let sparse_plan = PhysicalPlan::from_logical(&logical, &mut |_| OpRepr::Sparse);
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
    /// kernel, never the answer — and under `ReprMode::Auto` the dense
    /// mode never moves a bit. Mirrors `mode_never_changes_answers` in
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
            let mut runs = Vec::new();
            for dense in DENSES {
                let mut cx = ExecContext::new(sr).with_repr(repr).with_dense(dense);
                let j = ops::step(&mut cx, &[&r1, &r2], None, OpRepr::Dense).unwrap();
                let g = ops::step(&mut cx, &[&j], Some(&gv), OpRepr::Dense).unwrap();
                prop_assert!(
                    want.function_eq_in(&g, sr),
                    "sr {sr:?} repr {repr:?} dense {dense:?} holes {holes:?}"
                );
                runs.push(exact(&g));
            }
            if repr == ReprMode::Auto {
                prop_assert_eq!(&runs[0], &runs[1], "sr {sr:?} holes {holes:?}");
            }
        }
    }
}

/// The strict equality the fused sparse step is held to: same schema,
/// same rows in the same order, same measure bits.
fn exact(rel: &FunctionalRelation) -> (Vec<VarId>, Vec<(Vec<u32>, u64)>) {
    (
        rel.schema().vars().to_vec(),
        rel.rows().map(|(row, m)| (row.to_vec(), m.to_bits())).collect(),
    )
}

/// One fused sparse elimination step, traced: the result, its stats, and
/// the form the kernel reported (`nest=` on the fused span).
fn fused_step(
    sr: SemiringKind,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    gv: &[VarId],
) -> (FunctionalRelation, ExecStats, Option<&'static str>) {
    let mut cx = ExecContext::new(sr).with_trace(TraceLevel::Spans);
    let out = ops::step(&mut cx, &[l, r], Some(gv), OpRepr::Sparse).unwrap();
    let stats = *cx.stats();
    let mut form = None;
    cx.take_trace().for_each(&mut |span| {
        if span.fused {
            form = span.nest;
        }
    });
    (out, stats, form)
}

/// The unfused sparse pipeline the fused step must reproduce bit for bit.
fn unfused_step(
    sr: SemiringKind,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    gv: &[VarId],
) -> FunctionalRelation {
    let mut cx = ExecContext::new(sr);
    let joined = ops::step(&mut cx, &[l, r], None, OpRepr::Sparse).unwrap();
    ops::step(&mut cx, &[&joined], Some(gv), OpRepr::Sparse).unwrap()
}

/// Fused ≡ unfused sparse, bitwise and row for row, in all seven
/// semirings, at three densities, in every form the kernel has: the
/// streaming collapse (group variables can lead the merge order — shared
/// only, in an order other than the merge's, reaching into the right
/// side's own variables, or none at all), the scatter accumulator (a left
/// own variable, a right-only one, one from each side), and the staged
/// fallback (a group grid too large to scatter into). Each also equals
/// the fused hash operator as a function, and accounts as one sparse join
/// plus one sparse group-by.
#[test]
fn fused_sparse_matches_unfused_bitwise_in_every_form() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 6).unwrap();
    let b = cat.add_var("b", 6).unwrap();
    let c = cat.add_var("c", 6).unwrap();
    let d = cat.add_var("d", 6).unwrap();
    let (wa, wb, wd) = (
        cat.add_var("wa", 100).unwrap(),
        cat.add_var("wb", 4).unwrap(),
        cat.add_var("wd", 100).unwrap(),
    );
    let cases: [(&str, Vec<VarId>); 8] = [
        ("stream", vec![b]),
        ("stream", vec![a, b]),
        ("stream", vec![b, a, c]),
        ("stream", vec![]),
        ("scatter", vec![a]),
        ("scatter", vec![c]),
        ("scatter", vec![d, a]),
        ("staged", vec![wa, wd]),
    ];
    for density in [0.05, 0.3, 0.9] {
        for sr in SemiringKind::ALL {
            for (want_form, gv) in &cases {
                // A ~10⁴-cell group grid over a join of ~10² rows.
                let (l, r) = if *want_form == "staged" {
                    (
                        sparse_rel("l", vec![wa, wb], &[100, 4], 0.05, 5, sr),
                        sparse_rel("r", vec![wb, wd], &[4, 100], 0.05, 6, sr),
                    )
                } else {
                    (
                        sparse_rel("l", vec![a, b], &[6, 6], density, 7, sr),
                        sparse_rel("r", vec![b, c, d], &[6, 6, 6], density, 8, sr),
                    )
                };
                let ctx = format!("density {density} sr {sr:?} group {gv:?}");
                let (got, stats, form) = fused_step(sr, &l, &r, gv);
                assert_eq!(form, Some(*want_form), "{ctx}");
                assert_eq!(exact(&got), exact(&unfused_step(sr, &l, &r, gv)), "{ctx}");
                let hash = ops::join_group_by(&mut ExecContext::new(sr), &l, &r, gv).unwrap();
                assert!(hash.function_eq_in(&got, sr), "{ctx}");
                assert_eq!(
                    (stats.fused_join_aggs, stats.sparse_joins, stats.sparse_group_bys),
                    (1, 1, 1),
                    "{ctx}"
                );
            }
        }
    }
}

/// Degenerate inputs take the same path and give the same rows as the
/// unfused sparse pipeline: an empty side, sides whose shared values never
/// meet, and every grouping shape (none, shared-only, right-only).
#[test]
fn fused_sparse_degenerate_inputs() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 4).unwrap();
    let b = cat.add_var("b", 4).unwrap();
    let c = cat.add_var("c", 4).unwrap();
    let rel = |name: &str, vars: Vec<VarId>, rows: &[[u32; 2]]| {
        FunctionalRelation::from_rows(
            name,
            Schema::new(vars).unwrap(),
            rows.iter().map(|row| (row.to_vec(), 1.5 + row[0] as f64)),
        )
        .unwrap()
    };
    let l = rel("l", vec![a, b], &[[0, 0], [1, 1], [3, 1]]);
    let r = rel("r", vec![b, c], &[[0, 2], [1, 0], [1, 3]]);
    let l_empty = FunctionalRelation::new("e", Schema::new(vec![a, b]).unwrap());
    let r_empty = FunctionalRelation::new("e", Schema::new(vec![b, c]).unwrap());
    let r_apart = rel("r", vec![b, c], &[[2, 0], [3, 1]]);
    for sr in SemiringKind::ALL {
        for (l, r) in [(&l_empty, &r), (&l, &r_empty), (&l, &r_apart), (&l, &r)] {
            for gv in [vec![], vec![b], vec![c], vec![a, c]] {
                let (got, _, _) = fused_step(sr, l, r, &gv);
                assert_eq!(exact(&got), exact(&unfused_step(sr, l, r, &gv)), "sr {sr:?} {gv:?}");
                let hash = ops::join_group_by(&mut ExecContext::new(sr), l, r, &gv).unwrap();
                assert!(hash.function_eq_in(&got, sr), "sr {sr:?} {gv:?}");
            }
        }
    }
}

/// Inputs the sparse join refuses — a side with a duplicate argument
/// tuple, a coordinate space of 2⁶² cells or more — run the fused hash
/// operator instead: same bits as calling it directly, no sparse kernel.
#[test]
fn fused_sparse_falls_back_to_hash() {
    let mut cat = Catalog::new();
    let x = cat.add_var("x", 4).unwrap();
    let y = cat.add_var("y", 4).unwrap();
    let z = cat.add_var("z", 4).unwrap();
    let mut dup = FunctionalRelation::new("dup", Schema::new(vec![x, y]).unwrap());
    dup.push_row(&[1, 2], 2.0).unwrap();
    dup.push_row(&[1, 2], 3.0).unwrap();
    let mut other = FunctionalRelation::new("o", Schema::new(vec![y, z]).unwrap());
    other.push_row(&[2, 0], 5.0).unwrap();
    other.push_row(&[2, 1], 7.0).unwrap();
    // Three variables of 2³⁰ + 1 values each: a 2⁹⁰-cell coordinate space.
    let big = 1 << 30;
    let mut wide_l = FunctionalRelation::new("wl", Schema::new(vec![x, y]).unwrap());
    wide_l.push_row(&[big, big], 2.0).unwrap();
    let mut wide_r = FunctionalRelation::new("wr", Schema::new(vec![y, z]).unwrap());
    wide_r.push_row(&[big, big], 3.0).unwrap();
    for sr in SemiringKind::ALL {
        for (l, r) in [(&dup, &other), (&wide_l, &wide_r)] {
            let (got, stats, _) = fused_step(sr, l, r, &[x]);
            let want = ops::join_group_by(&mut ExecContext::new(sr), l, r, &[x]).unwrap();
            assert_eq!(exact(&got), exact(&want), "sr {sr:?} {}", l.name());
            assert_eq!(stats.sparse_joins + stats.sparse_group_bys, 0, "sr {sr:?}");
            assert_eq!(stats.fused_join_aggs, 1, "sr {sr:?}");
        }
    }
}

/// A planner-shaped fused sparse step through the interpreter: same
/// bits as the unfused sparse plan at every thread count, a lower peak,
/// and counters that reconcile (one join plus one group-by, both sparse).
/// A dense-annotated node whose inputs are not grids takes the same
/// sparse kernel; with `ReprMode::Off` it takes the hash one.
#[test]
fn sparse_join_agg_plans_match_unfused_plans() {
    for sr in SemiringKind::ALL {
        let (rels, [a, ..]) = chain(sr, 0.3);
        let mut store = RelationStore::new();
        store.insert(rels[0].clone());
        store.insert(rels[1].clone());
        let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a]);
        let unfused = PhysicalPlan::from_logical(&logical, &mut |_| OpRepr::Sparse);
        let fused = |repr| PhysicalPlan::Step {
            inputs: vec![
                PhysicalPlan::Scan { relation: "r1".into() },
                PhysicalPlan::Scan { relation: "r2".into() },
            ],
            group_vars: Some(vec![a]),
            repr,
        };
        for t in THREADS {
            let exec = Executor::new(&store, sr).with_threads(t);
            let (want, us) = exec.execute_physical(&unfused).unwrap();
            for repr in [OpRepr::Sparse, OpRepr::Dense] {
                let (got, fs) = exec.execute_physical(&fused(repr)).unwrap();
                assert_eq!(exact(&got), exact(&want), "sr {sr:?} threads {t} {repr:?}");
                assert_eq!((fs.joins, fs.group_bys), (us.joins, us.group_bys));
                assert_eq!((fs.sparse_joins, fs.sparse_group_bys, fs.fused_join_aggs), (1, 1, 1));
                assert!(fs.max_intermediate_rows < us.max_intermediate_rows, "sr {sr:?}");
            }
            let mut off = ExecContext::new(sr).with_repr(ReprMode::Off).with_threads(t);
            let got = exec.execute_physical_in(&mut off, &fused(OpRepr::Dense)).unwrap();
            assert!(want.function_eq_in(&got, sr), "sr {sr:?} threads {t}");
            assert_eq!(off.stats().sparse_joins, 0, "Off stays on hash");
        }
    }
}
