//! Representation parity: the dense, sparse and hash elimination steps
//! fold each cell's products in one order — the first product, then `⊕`
//! term by term in the order they walk the eliminated axes — for every
//! semiring, at every thread count; and the fused join→marginalize step
//! is indistinguishable from the unfused pair except in the work it
//! skips.
//!
//! The guarantees under test:
//!
//! * **Bit-identity across thread counts** for *all* semirings in every
//!   representation: a cell's fold is a pure function of the layout,
//!   never of the worker partitioning.
//! * **Bit-identity of the dense and sparse steps** on every input both
//!   accept: both walk the eliminated axes in one merge order (shared,
//!   then `l`'s own, then `r`'s own), and a join emits its columns in it.
//! * **Bit-identity with the hash step** on complete inputs wherever it
//!   walks the eliminated axes in that order too. It walks them in
//!   probe-row order, then build-row order; the forms where that differs
//!   are named at each check, and agree there within
//!   [`FunctionalRelation::function_eq_in`] tolerance.
//! * **Bit-identity fused vs unfused** for *all* semirings: the fused
//!   step folds products in exactly the unfused join-then-aggregate
//!   order, on the dense grid path and the hash fallback.
//!
//! Modes are pinned on the [`ExecContext`]; both thread counts run inside
//! the suite.

use std::collections::BTreeMap;

use mpf_algebra::{
    ops, DenseMode, ExecContext, Executor, OpRepr, PhysicalPlan, Plan, RelationStore, ReprMode,
    SpanKind, TraceLevel,
};
use mpf_semiring::kernel::SimdTier;
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];
const REPRS: [ReprMode; 2] = [ReprMode::Off, ReprMode::Auto];
const DENSES: [DenseMode; 2] = [DenseMode::Off, DenseMode::Auto];

/// Row-keyed measure bits, for order-independent bitwise comparison.
fn bits(rel: &FunctionalRelation) -> BTreeMap<Vec<u32>, u64> {
    rel.rows()
        .map(|(row, m)| (row.to_vec(), m.to_bits()))
        .collect()
}

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
/// `density` fraction of the domain grid, with semiring-safe measures
/// that are *not* all equal (so reassociation bugs cannot hide).
fn gen_rel(
    name: &str,
    vars: Vec<VarId>,
    doms: &[u64],
    density: f64,
    salt: u64,
    sr: SemiringKind,
) -> FunctionalRelation {
    let cells: u64 = doms.iter().product();
    let measure = |cell: u64| {
        if sr == SemiringKind::BoolOrAnd {
            (cell.wrapping_add(salt)) as f64 % 2.0
        } else {
            // Spread across two decades with an exact and an inexact
            // fraction so float addition order is observable.
            ((cell.wrapping_add(salt * 13)) % 7 + 1) as f64 / 3.0
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

/// Chain fixture r1(a,b), r2(b,c), r3(c,d) over 12-value domains, so each
/// marginalization folds twelve terms per cell.
fn chain(sr: SemiringKind, density: f64) -> ([FunctionalRelation; 3], [VarId; 4]) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 12).unwrap();
    let b = cat.add_var("b", 12).unwrap();
    let c = cat.add_var("c", 12).unwrap();
    let d = cat.add_var("d", 12).unwrap();
    (
        [
            gen_rel("r1", vec![a, b], &[12, 12], density, 1, sr),
            gen_rel("r2", vec![b, c], &[12, 12], density, 2, sr),
            gen_rel("r3", vec![c, d], &[12, 12], density, 3, sr),
        ],
        [a, b, c, d],
    )
}

/// A VE pipeline (eliminate b, then c, then marginalize onto a) under one
/// pinned (repr, dense, threads) mode tuple.
fn ve_chain(
    sr: SemiringKind,
    rels: &[FunctionalRelation; 3],
    vars: &[VarId; 4],
    repr: ReprMode,
    dense: DenseMode,
    threads: usize,
) -> (FunctionalRelation, mpf_algebra::ExecStats) {
    let [a, _, c, d] = *vars;
    let mut cx = ExecContext::new(sr).with_repr(repr).with_dense(dense).with_threads(threads);
    let t1 = ops::step(&mut cx, &[&rels[0], &rels[1]], None, OpRepr::Dense).unwrap();
    let t1 = ops::step(&mut cx, &[&t1], Some(&[a, c]), OpRepr::Dense).unwrap();
    let t2 = ops::step(&mut cx, &[&t1, &rels[2]], None, OpRepr::Dense).unwrap();
    let t2 = ops::step(&mut cx, &[&t2], Some(&[a, d]), OpRepr::Dense).unwrap();
    let out = ops::step(&mut cx, &[&t2], Some(&[a]), OpRepr::Dense).unwrap();
    (out, *cx.stats())
}

/// The full matrix: 7 semirings × {off,auto} × {off,auto} × threads
/// {1,4}, at two sparse densities and on complete inputs. Every cell of
/// the matrix computes the hash pipeline's function and is bit-identical
/// across thread counts, and with the sparse kernels on, the dense mode
/// never moves a bit. Each step of the chain eliminates one variable,
/// and every representation walks it in ascending order, so on complete
/// inputs — where the dense kernels run — every cell is bit-identical to
/// the hash pipeline too. Below completeness the hash join emits rows in
/// probe order, so the hash marginalization above it may meet a group's
/// terms out of ascending order: there the sum-family semirings agree
/// within tolerance.
#[test]
fn kernel_matrix_parity() {
    for density in [0.3, 0.95, 1.0] {
        for sr in SemiringKind::ALL {
            let (rels, vars) = chain(sr, density);
            let (baseline, _) = ve_chain(sr, &rels, &vars, ReprMode::Off, DenseMode::Off, 1);
            let (sparse, _) = ve_chain(sr, &rels, &vars, ReprMode::Auto, DenseMode::Off, 1);
            for repr in REPRS {
                for dense in DENSES {
                    let mut per_thread: Vec<BTreeMap<Vec<u32>, u64>> = Vec::new();
                    for t in THREADS {
                        let (got, stats) = ve_chain(sr, &rels, &vars, repr, dense, t);
                        let what = format!(
                            "density {density} sr {sr:?} repr {repr:?} dense {dense:?} threads {t}"
                        );
                        if density == 1.0 {
                            assert_eq!(bits(&got), bits(&baseline), "vs hash baseline: {what}");
                            if dense == DenseMode::Auto {
                                assert_eq!(stats.dense_group_bys, 3, "ran dense: {what}");
                            }
                        } else {
                            assert!(baseline.function_eq_in(&got, sr), "vs hash baseline: {what}");
                        }
                        if repr == ReprMode::Auto {
                            assert_eq!(bits(&got), bits(&sparse), "vs sparse: {what}");
                        }
                        per_thread.push(bits(&got));
                    }
                    assert_eq!(
                        per_thread[0], per_thread[1],
                        "thread count changed bits: density {density} sr {sr:?} \
                         repr {repr:?} dense {dense:?}"
                    );
                }
            }
        }
    }
}

/// Store + plan pair for the fused-operator tests: complete r1(a,b),
/// r2(b,c) over 8-value domains, marginalized onto `a` — b and c are
/// join-only/eliminated, the shape the fused operator exists for.
fn fused_fixture(sr: SemiringKind) -> (RelationStore, Vec<VarId>, Plan) {
    let (store, [a, b, c]) = fused_store(sr, 8);
    let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a]);
    (store, vec![a, b, c], logical)
}

/// Complete r1(a,b), r2(b,c) with `c` over `c_dom` values and the rest
/// over 8.
fn fused_store(sr: SemiringKind, c_dom: u64) -> (RelationStore, [VarId; 3]) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 8).unwrap();
    let b = cat.add_var("b", 8).unwrap();
    let c = cat.add_var("c", c_dom).unwrap();
    let mut store = RelationStore::new();
    store.insert(gen_rel("r1", vec![a, b], &[8, 8], 1.0, 4, sr));
    store.insert(gen_rel("r2", vec![b, c], &[8, c_dom], 1.0, 5, sr));
    (store, [a, b, c])
}

fn fused_plan(gv: &[VarId]) -> PhysicalPlan {
    let scan = |name: &str| PhysicalPlan::Scan {
        relation: name.into(),
    };
    PhysicalPlan::Step {
        inputs: vec![scan("r1"), scan("r2")],
        group_vars: Some(gv.to_vec()),
        repr: OpRepr::Dense,
    }
}

/// Fused vs unfused on the dense grid path: bit-identical output for all
/// semirings at both thread counts, with the fused run reporting strictly
/// lower peak intermediate rows and reconciled operator counts (one join
/// plus one group-by).
///
/// The second case keeps a trailing group axis one cell wide (`c`, onto
/// `[a, c]`): the join grid then ends in a group axis while the
/// materialized join's innermost axis wider than one cell is eliminated.
/// The third groups onto `r2`'s own `c`, eliminating `l`'s own `a` and
/// the shared `b`: the dense join emits its columns in merge order
/// (`b, a, c`), so the marginalization above it folds `b` outside `a`,
/// as the fused step does. Both steps fold each cell in
/// eliminated-odometer order, so they agree there bit for bit too.
#[test]
fn fused_dense_matches_unfused_bitwise_and_lowers_peak() {
    for sr in SemiringKind::ALL {
        for (c_dom, group) in [(8, &[0][..]), (1, &[0, 2]), (8, &[2])] {
            let (store, vars) = fused_store(sr, c_dom);
            let gv: Vec<VarId> = group.iter().map(|&i| vars[i]).collect();
            let join = Plan::join(Plan::scan("r1"), Plan::scan("r2"));
            let logical = Plan::group_by(join, gv.clone());
            let unfused = PhysicalPlan::from_logical(&logical, &mut |_| OpRepr::Dense);
            let fused = fused_plan(&gv);
            let exec = Executor::new(&store, sr);
            for t in THREADS {
                let what = format!("sr {sr:?} group {gv:?} threads {t}");
                let mk = || ExecContext::new(sr).with_threads(t);
                let mut ucx = mk();
                let want = exec.execute_physical_in(&mut ucx, &unfused).unwrap();
                let mut fcx = mk();
                let got = exec.execute_physical_in(&mut fcx, &fused).unwrap();
                assert_eq!(bits(&want), bits(&got), "fused dense diverged: {what}");
                let (us, fs) = (ucx.take_stats(), fcx.take_stats());
                assert_eq!(fs.fused_join_aggs, 1, "{what}");
                assert_eq!(us.fused_join_aggs, 0);
                assert_eq!((us.dense_joins, us.dense_group_bys), (1, 1), "{what}");
                // The fused operator accounts as one join *plus* one
                // group-by, so the counters reconcile with the unfused run.
                assert_eq!(fs.joins, us.joins, "{what}");
                assert_eq!(fs.group_bys, us.group_bys, "{what}");
                assert_eq!(fs.dense_joins, 1, "{what}");
                assert_eq!(fs.dense_group_bys, 1, "{what}");
                // It never materializes the join intermediate.
                assert!(
                    fs.max_intermediate_rows < us.max_intermediate_rows,
                    "fused peak {} !< unfused peak {}: {what}",
                    fs.max_intermediate_rows,
                    us.max_intermediate_rows
                );
            }
        }
    }
}

/// Fused vs unfused on the hash fallback (dense off): same bit-identity,
/// peak, and reconciliation guarantees, for every semiring.
#[test]
fn fused_hash_fallback_matches_hash_pipeline_bitwise() {
    for sr in SemiringKind::ALL {
        let (store, vars, logical) = fused_fixture(sr);
        let gv = [vars[0]];
        let unfused = PhysicalPlan::default_hash(&logical);
        let fused = fused_plan(&gv);
        let exec = Executor::new(&store, sr);
        let mk = || ExecContext::new(sr).with_dense(DenseMode::Off).with_repr(ReprMode::Off);
        let mut ucx = mk();
        let want = exec.execute_physical_in(&mut ucx, &unfused).unwrap();
        let mut fcx = mk();
        let got = exec.execute_physical_in(&mut fcx, &fused).unwrap();
        assert_eq!(
            bits(&want),
            bits(&got),
            "fused hash fallback diverged: sr {sr:?}"
        );
        let (us, fs) = (ucx.take_stats(), fcx.take_stats());
        assert_eq!(fs.fused_join_aggs, 1);
        assert_eq!(fs.joins, us.joins);
        assert_eq!(fs.group_bys, us.group_bys);
        assert_eq!(fs.dense_joins + fs.dense_group_bys, 0, "hash path stayed hash");
        assert!(fs.max_intermediate_rows < us.max_intermediate_rows, "sr {sr:?}");
    }
}

/// The fused span carries `fused=true` and its nest, and its row
/// accounting reconciles with the executed result — what `EXPLAIN
/// ANALYZE` and the metrics pipeline read. No group axis of the fixture's
/// step is unit-stride (`a` is `r1`'s outer axis), so it folds cell by
/// cell.
#[test]
fn fused_span_reports_nest_and_reconciles() {
    let sr = SemiringKind::SumProduct;
    let (store, vars, _) = fused_fixture(sr);
    let gv = [vars[0]];
    let mut cx = ExecContext::new(sr).with_trace(TraceLevel::Spans);
    let out = Executor::new(&store, sr)
        .execute_physical_in(&mut cx, &fused_plan(&gv))
        .unwrap();
    let stats = *cx.stats();
    let trace = cx.take_trace();
    let mut fused_spans = 0;
    trace.for_each(&mut |span| {
        if span.fused {
            fused_spans += 1;
            assert_eq!(span.kind, SpanKind::GroupBy);
            assert_eq!(span.nest, Some("cell"), "fused dense span is tagged");
            assert_eq!(span.rows_out, out.len() as u64, "span rows match the result");
        }
    });
    assert_eq!(fused_spans, 1, "exactly one fused span:\n{}", trace.render());
    assert_eq!(stats.fused_join_aggs, 1);
    let rendered = trace.render();
    assert!(
        rendered.contains("fused=true") && rendered.contains("nest=cell"),
        "render surfaces the tags:\n{rendered}"
    );
}

/// One fused contraction at `threads`, starting its fallback chain at the
/// dense kernel under `dense` (and `ReprMode::Auto`), traced: the
/// output's measure bits keyed by row (in `gv` order), and the nest tag
/// and representation of the fused span.
fn fused_bits(
    sr: SemiringKind,
    [l, r]: [&FunctionalRelation; 2],
    gv: &[VarId],
    dense: DenseMode,
    threads: usize,
) -> (BTreeMap<Vec<u32>, u64>, Option<&'static str>, OpRepr) {
    let mut cx = ExecContext::new(sr)
        .with_dense(dense)
        .with_threads(threads)
        .with_trace(TraceLevel::Spans);
    let out = ops::step(&mut cx, &[l, r], Some(gv), OpRepr::Dense).unwrap();
    assert_eq!(cx.stats().fused_join_aggs, 1, "the fused step ran");
    let mut tags = None;
    cx.take_trace().for_each(&mut |span| {
        if span.fused {
            tags = Some((span.nest, span.repr));
        }
    });
    let (nest, ran) = tags.expect("a fused span");
    (bits_in(&out, &Schema::new(gv.to_vec()).unwrap()), nest, ran)
}

/// The unfused dense pipeline (join, then marginalize) — the reference
/// the fused kernel must match bit for bit — keyed like [`fused_bits`].
fn unfused_bits(
    sr: SemiringKind,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    gv: &[VarId],
    threads: usize,
) -> BTreeMap<Vec<u32>, u64> {
    let mut cx = ExecContext::new(sr).with_threads(threads);
    let joined = ops::step(&mut cx, &[l, r], None, OpRepr::Dense).unwrap();
    let out = ops::step(&mut cx, &[&joined], Some(gv), OpRepr::Dense).unwrap();
    assert_eq!((cx.stats().dense_joins, cx.stats().dense_group_bys), (1, 1), "reference ran dense");
    bits_in(&out, &Schema::new(gv.to_vec()).unwrap())
}

/// Check one contraction `γ_gv(l ⨝ r)` across all seven semirings ×
/// threads {1, 4}: fused ≡ unfused bitwise, thread-count-invariant, on
/// `nest`, and bit-identical to the sparse step.
fn check_contraction(
    doms: [u64; 3],
    l_vars: [usize; 2],
    r_vars: [usize; 2],
    group: &[usize],
    nest: &str,
) {
    let mut cat = Catalog::new();
    let vars = [
        cat.add_var("x", doms[0]).unwrap(),
        cat.add_var("e", doms[1]).unwrap(),
        cat.add_var("y", doms[2]).unwrap(),
    ];
    let gv: Vec<VarId> = group.iter().map(|&i| vars[i]).collect();
    let what = format!("doms {doms:?} l {l_vars:?} r {r_vars:?} group {group:?}");
    for sr in SemiringKind::ALL {
        let side = |name: &str, idx: [usize; 2], salt: u64| {
            gen_rel(name, idx.map(|i| vars[i]).to_vec(), &idx.map(|i| doms[i]), 1.0, salt, sr)
        };
        let (l, r) = (side("l", l_vars, 6), side("r", r_vars, 7));
        let mut per_thread = Vec::new();
        for t in THREADS {
            let (got, got_nest, ran) = fused_bits(sr, [&l, &r], &gv, DenseMode::Auto, t);
            assert_eq!((got_nest, ran), (Some(nest), OpRepr::Dense), "{what} sr {sr:?}");
            assert_eq!(
                got,
                unfused_bits(sr, &l, &r, &gv, t),
                "fused diverged from unfused: {what} sr {sr:?} threads {t}"
            );
            per_thread.push(got);
        }
        assert_eq!(per_thread[0], per_thread[1], "thread count changed bits: {what} sr {sr:?}");
        let (sparse, _, ran) = fused_bits(sr, [&l, &r], &gv, DenseMode::Off, 1);
        assert_eq!(ran, OpRepr::Sparse, "{what}");
        assert_eq!(per_thread[0], sparse, "dense vs sparse: {what} sr {sr:?}");
    }
}

/// The stride-layout matrix: operand layouts `L[x,e]`/`L[e,x]` ×
/// `R[e,y]`/`R[y,e]` × output order `[x,y]`/`[y,x]`, at sides covering
/// the degenerate row (1), one short of, exactly and one past an 8-cell
/// tile row (7, 8, 9: the AVX2 tier's), the same for a 32-cell one (31, 32,
/// 33: the widest tier's tile remainders, on the tier the host runs
/// past `SIMD_MIN_WORK`), multi-block (67) and parallel (128: its 2^21
/// products are two `PARALLEL_MIN_WORK`s, so at 4 threads the step splits
/// across two workers) cases. Every cell of the matrix is
/// bit-identical to everything else. Two of the
/// layouts are the D³ steps the benchmark spine issues on `tri`:
/// `L[e,x] R[y,e] → [x,y]` (`g=[(D,1,0),(D,0,D)] e=[(D,D,1)]`) and
/// `L[x,e] R[e,y] → [x,y]` (`g=[(D,D,0),(D,0,1)] e=[(D,1,D)]`).
#[test]
fn stride_layout_matrix_parity() {
    for d in [1u64, 7, 8, 9, 31, 32, 33, 67, 128] {
        for l_vars in [[0, 1], [1, 0]] {
            for r_vars in [[1, 2], [2, 1]] {
                // The tile nest needs a group axis that is some operand's
                // unit-stride axis (and more than one cell long);
                // `L[x,e] R[y,e]` has both operands contiguous along `e`
                // instead and keeps the cell-major nest.
                let tiled = d > 1 && (l_vars[1] == 0 || r_vars[1] == 2);
                let nest = if tiled { "tile" } else { "cell" };
                for group in [[0, 2], [2, 0]] {
                    check_contraction([d; 3], l_vars, r_vars, &group, nest);
                }
            }
        }
    }
}

/// A complete grid over `vars` whose measure is a function of the full
/// assignment, or — with `pin = Some((p, c))` — the reduced grid over
/// `vars` without `p`, holding the same function at `p = c`: what the
/// slice `σ_{p=c}` of the full grid must compute with.
fn assignment_grid(
    name: &str,
    vars: &[VarId],
    cat: &Catalog,
    pin: Option<(VarId, u32)>,
    salt: u64,
    sr: SemiringKind,
) -> FunctionalRelation {
    let kept: Vec<VarId> = vars
        .iter()
        .copied()
        .filter(|&v| pin.is_none_or(|(p, _)| p != v))
        .collect();
    let schema = Schema::new(kept.clone()).unwrap();
    FunctionalRelation::complete(name, schema, cat, |row| {
        let mut asg: Vec<(VarId, u32)> = kept.iter().copied().zip(row.iter().copied()).collect();
        asg.extend(pin);
        asg.sort_unstable();
        let cell = asg.iter().fold(salt, |h, &(v, x)| {
            h.wrapping_mul(1_000_003)
                .wrapping_add(u64::from(v.0) * 97 + u64::from(x))
        });
        if sr == SemiringKind::BoolOrAnd {
            (cell % 2) as f64
        } else {
            (cell % 7 + 1) as f64 / 3.0
        }
    })
}

/// Rows and measure bits in row order.
fn row_bits(rel: &FunctionalRelation) -> Vec<(Vec<u32>, u64)> {
    rel.rows()
        .map(|(row, m)| (row.to_vec(), m.to_bits()))
        .collect()
}

/// `rel` with its rows pushed one by one: no grid certificate, so a
/// selection on it is the row filter.
fn pushed(rel: &FunctionalRelation) -> FunctionalRelation {
    let rows = rel.rows().map(|(row, m)| (row.to_vec(), m));
    FunctionalRelation::from_rows(rel.name(), rel.schema().clone(), rows).unwrap()
}

/// Evidence as a pinned axis, over the stride-layout sides: for every
/// semiring, the pinned variable `p` at the front, middle or back of the
/// left operand, shared with the right operand or not, eliminated or
/// grouped, pinned at either end of its domain:
///
/// * the slice `σ_{p=c}` of a grid has the row filter's rows and
///   measure bits, in the same order;
/// * the fused dense step over the slices runs dense and is bit-identical
///   to the same step over the reduced grids `complete` builds, a grouped
///   `p` keeping the value `c`;
/// * slices pinned to different constants on a shared axis never take
///   the dense step, and join to nothing;
/// * consumers under every mode (the dense or sparse kernel, or the hash
///   operator under `ReprMode::Off`) give the same bits over a slice as
///   over the row filter's output (at the sides below 33, which cover
///   every layout).
///
/// In release builds the tile nest runs on every SIMD tier the host
/// supports past `SIMD_MIN_WORK` (`d = 33`), so the CI tier-parity step
/// checks the pinned steps there too.
#[test]
fn pinned_axis_matrix_parity() {
    for d in [1u64, 7, 8, 9, 33] {
        let mut cat = Catalog::new();
        let [x, e, y, p] = ["x", "e", "y", "p"].map(|v| cat.add_var(v, d).unwrap());
        for sr in SemiringKind::ALL {
            for l_vars in [[x, e, p], [p, e, x], [e, p, x]] {
                let l = assignment_grid("l", &l_vars, &cat, None, 11, sr);
                let l_rows = pushed(&l);
                for (r_vars, shared) in [
                    (vec![e, y, p], true),
                    (vec![p, y, e], true),
                    (vec![e, y], false),
                ] {
                    let r = assignment_grid("r", &r_vars, &cat, None, 12, sr);
                    let r_rows = pushed(&r);
                    for c in [0, d as u32 - 1] {
                        for group in [vec![x, y], vec![x, p, y], vec![p, y, x]] {
                            let what = format!(
                                "d {d} sr {sr:?} l {l_vars:?} r {r_vars:?} c {c} group {group:?}"
                            );
                            let case = PinnedCase {
                                sr,
                                p,
                                c,
                                group: &group,
                                shared,
                                modes: d < 33,
                            };
                            case.check(
                                &cat,
                                [&l, &r],
                                [&l_rows, &r_rows],
                                [&l_vars, &r_vars],
                                &what,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// One step of [`pinned_axis_matrix_parity`]: `γ_group(σ_{p=c}(l) ⨝
/// σ_{p=c}(r))`, `r` pinned only when it has `p`.
struct PinnedCase<'g> {
    sr: SemiringKind,
    p: VarId,
    c: u32,
    group: &'g [VarId],
    /// Whether `r` has `p` too.
    shared: bool,
    /// Whether to run the consumers under every dense and sparse mode.
    modes: bool,
}

impl PinnedCase<'_> {
    /// Check the case on the grids `l`, `r` (over `l_vars`, `r_vars`)
    /// and their pushed-row copies.
    fn check(
        &self,
        cat: &Catalog,
        [l, r]: [&FunctionalRelation; 2],
        [l_rows, r_rows]: [&FunctionalRelation; 2],
        [l_vars, r_vars]: [&[VarId]; 2],
        what: &str,
    ) {
        let PinnedCase {
            sr,
            p,
            c,
            group,
            shared,
            modes,
        } = *self;
        let mut cx = ExecContext::new(sr);
        let slice = |cx: &mut ExecContext<'_>, rel: &FunctionalRelation| {
            if rel.schema().contains(p) {
                ops::select_eq(cx, rel, &[(p, c)]).unwrap()
            } else {
                rel.clone()
            }
        };
        let (sl, sr_) = (slice(&mut cx, l), slice(&mut cx, r));
        let (fl, fr) = (slice(&mut cx, l_rows), slice(&mut cx, r_rows));
        assert!(sl.grid().is_some() && fl.grid().is_none(), "{what}");
        assert_eq!(row_bits(&sl), row_bits(&fl), "slice vs row filter: {what}");
        assert_eq!(row_bits(&sr_), row_bits(&fr), "slice vs row filter: {what}");

        // The dense step over the slices against the reduced grids.
        let mut cx = ExecContext::new(sr);
        let got = ops::step(&mut cx, &[&sl, &sr_], Some(group), OpRepr::Dense).unwrap();
        assert_eq!(
            (cx.stats().fused_join_aggs, cx.stats().dense_joins),
            (1, 1),
            "the step over slices ran dense: {what}"
        );
        let pin = Some((p, c));
        let rl = assignment_grid("l", l_vars, cat, pin, 11, sr);
        let rr = if shared {
            assignment_grid("r", r_vars, cat, pin, 12, sr)
        } else {
            r.clone()
        };
        let reduced_group: Vec<VarId> = group.iter().copied().filter(|&v| v != p).collect();
        let mut cx = ExecContext::new(sr);
        let want = ops::step(&mut cx, &[&rl, &rr], Some(&reduced_group), OpRepr::Dense).unwrap();
        let measure_bits = |rel: &FunctionalRelation| -> Vec<u64> {
            rel.measures().iter().map(|m| m.to_bits()).collect()
        };
        assert_eq!(
            measure_bits(&got),
            measure_bits(&want),
            "slice step vs reduced grids: {what}"
        );
        let at = group.iter().position(|&v| v == p);
        for ((g, _), (w, _)) in got.rows().zip(want.rows()) {
            let mut g = g.to_vec();
            if let Some(i) = at {
                assert_eq!(g.remove(i), c, "a grouped pin keeps its value: {what}");
            }
            assert_eq!(g, w, "{what}");
        }

        // Operands pinned to different constants on a shared axis do not
        // join: the dense step declines and the answer is the row
        // filters' (empty).
        let d = l.inferred_domains()[l.schema().position(p).unwrap()] as u32;
        if shared && d > 1 {
            let other = (c + 1) % d;
            let mut cx = ExecContext::new(sr);
            let sr_other = ops::select_eq(&mut cx, r, &[(p, other)]).unwrap();
            let fr_other = ops::select_eq(&mut cx, r_rows, &[(p, other)]).unwrap();
            let mut cx = ExecContext::new(sr);
            let got = ops::step(&mut cx, &[&sl, &sr_other], Some(group), OpRepr::Dense).unwrap();
            assert_eq!(cx.stats().dense_joins, 0, "{what} against {other}");
            let want = ops::step(&mut cx, &[&fl, &fr_other], Some(group), OpRepr::Dense).unwrap();
            assert!(got.is_empty() && want.is_empty(), "{what} against {other}");
        }

        // Consumers of a slice under the other modes.
        if !modes {
            return;
        }
        for repr in REPRS {
            for dense_mode in DENSES {
                let run = |a: &FunctionalRelation, b: &FunctionalRelation| {
                    let mut cx = ExecContext::new(sr).with_repr(repr).with_dense(dense_mode);
                    ops::step(&mut cx, &[a, b], Some(group), OpRepr::Dense).unwrap()
                };
                let (over_slices, over_filters) = (run(&sl, &sr_), run(&fl, &fr));
                let mode = format!("{what} repr {repr:?} dense {dense_mode:?}");
                assert_eq!(bits(&over_slices), bits(&over_filters), "{mode}");
            }
        }
    }
}

/// Layouts whose join grid ends in an eliminated axis: the tile nest
/// folds each cell over one eliminated axis and over two (runs in order),
/// with the row axis unit-stride in one operand or in both, and the
/// cell-major nest where no group axis qualifies, its innermost
/// eliminated axis broadcast in either operand; both bit-identical to
/// the sparse step. Uneven sides so a transposed stride cannot pass by
/// symmetry.
#[test]
fn lane_fold_layouts_parity() {
    for doms in [[5u64, 9, 19], [11, 3, 8], [37, 29, 41]] {
        // L[e,x] R[e,y] → [x]: row axis x broadcast in R; e and y eliminated.
        check_contraction(doms, [1, 0], [1, 2], &[0], "tile");
        // L[e,x] R[y,e] → [x]: the same with R transposed.
        check_contraction(doms, [1, 0], [2, 1], &[0], "tile");
        // L[e,x] R[e,y] → [x,e] / [e,x]: one eliminated run per cell.
        check_contraction(doms, [1, 0], [1, 2], &[0, 1], "tile");
        check_contraction(doms, [1, 0], [1, 2], &[1, 0], "tile");
        // L[x,e] R[e,y] → [x]: no group axis is unit-stride — cell-major.
        check_contraction(doms, [0, 1], [1, 2], &[0], "cell");
        // L[x,e] R[y,e] → [y]: cell-major too, folding the shared `e`
        // outside `l`'s own `x`, which only `l` strides along.
        check_contraction(doms, [0, 1], [2, 1], &[2], "cell");
    }
    // L[e,x] R[y,x] → [x]: the row axis is unit-stride in both operands.
    check_contraction([23, 6, 10], [1, 0], [2, 0], &[0], "tile");
}

/// Output rows longer than one charged strip (256 cells), with the
/// row axis as the output's *outer* axis so the parallel split cuts the
/// row itself into per-worker boxes.
#[test]
fn blocked_and_boxed_rows_parity() {
    // L[e,x] R[y,e] → [x,y]: x (600 cells, 3 blocks) is axis 0.
    check_contraction([600, 8, 9], [1, 0], [2, 1], &[0, 2], "tile");
    // L[e,x] R[e,y] → [x]: the same row, y eliminated too.
    check_contraction([600, 3, 19], [1, 0], [1, 2], &[0], "tile");
    // L[x,e] R[e,y] → [x,y]: y (300 cells, 2 blocks) is the inner axis.
    check_contraction([12, 10, 300], [0, 1], [1, 2], &[0, 2], "tile");
}

/// Both D³ shapes the spine issues take the tile nest for every
/// semiring, on the widest tier the host supports once the step clears
/// `SIMD_MIN_WORK` (on the base tier below it), and the choice is visible
/// from outside: the fused span renders `nest=tile, simd=…` next to
/// `fused=true`.
#[test]
fn spine_shapes_take_the_tile_nest_in_every_semiring() {
    for (d, tier) in [(16u64, SimdTier::Base), (40, SimdTier::detect())] {
        let mut cat = Catalog::new();
        let x = cat.add_var("x", d).unwrap();
        let e = cat.add_var("e", d).unwrap();
        let y = cat.add_var("y", d).unwrap();
        for sr in SemiringKind::ALL {
            for (l_vars, r_vars) in [([e, x], [y, e]), ([x, e], [e, y])] {
                let l = gen_rel("l", l_vars.to_vec(), &[d, d], 1.0, 8, sr);
                let r = gen_rel("r", r_vars.to_vec(), &[d, d], 1.0, 9, sr);
                let mut cx = ExecContext::new(sr).with_trace(TraceLevel::Spans);
                ops::step(&mut cx, &[&l, &r], Some(&[x, y]), OpRepr::Dense).unwrap();
                let rendered = cx.take_trace().render();
                let tags = format!("repr=dense, nest=tile, simd={}, fused=true", tier.name());
                assert!(rendered.contains(&tags), "sr {sr:?}: want `{tags}` in:\n{rendered}");
            }
        }
    }
}

/// Measures from a palette of edge values for `sr`, picked by a hash of
/// the cell: signed zeros (`−0.0` wherever the carrier has it, so a
/// product taken against a unit shows in the bits), the additive
/// identity where it is infinite, subnormals and ordinary values —
/// inexact ones in the sum family, so a fold in another order shows in
/// the bits.
fn edge_grid(name: &str, vars: &[VarId], cat: &Catalog, salt: u64, sr: SemiringKind) -> FunctionalRelation {
    let palette: &[f64] = match sr {
        SemiringKind::SumProduct => {
            &[0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 1.5, -0.75, 0.1, 1.0 / 3.0]
        }
        SemiringKind::MinSum => &[f64::INFINITY, 0.0, -0.0, 5e-324, 1.0, 2.5, -3.0],
        SemiringKind::MaxSum => &[f64::NEG_INFINITY, 0.0, -0.0, 5e-324, 1.0, -2.0],
        SemiringKind::MinProduct => &[f64::INFINITY, 0.0, -0.0, 5e-324, 0.5, 2.0],
        SemiringKind::MaxProduct => &[0.0, -0.0, 5e-324, 1e-310, 0.5, 2.0],
        SemiringKind::BoolOrAnd => &[0.0, -0.0, 1.0],
        SemiringKind::LogSumProduct => {
            &[f64::NEG_INFINITY, 0.0, -0.0, 5e-324, -1.5, 2.0, -0.1, 1.0 / 3.0]
        }
    };
    let schema = Schema::new(vars.to_vec()).unwrap();
    FunctionalRelation::complete(name, schema, cat, |row| {
        let cell = row.iter().fold(salt, |h, &x| h.wrapping_mul(1_000_003).wrapping_add(u64::from(x)));
        let h = cell.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        palette[(h % palette.len() as u64) as usize]
    })
}

/// [`bits`] with each row's values in `schema`'s variable order, so two
/// relations whose columns are permuted compare row for row.
fn bits_in(rel: &FunctionalRelation, schema: &Schema) -> BTreeMap<Vec<u32>, u64> {
    let pos: Vec<usize> = schema
        .iter()
        .map(|v| rel.schema().position(v).unwrap())
        .collect();
    rel.rows()
        .map(|(row, m)| (pos.iter().map(|&p| row[p]).collect(), m.to_bits()))
        .collect()
}

/// The degenerate elimination steps keep every bit: over edge-value
/// grids with `−0.0` in every palette, for all seven semirings and sides
/// 1, 3, 7 and 33 (which crosses the worker and SIMD thresholds),
///
/// * the dense join step (nothing eliminated) equals
///   [`ops::product_join`] and the dense one-operand step equals
///   [`ops::group_by`], row for row and bit for bit, at threads 1 and 4
///   — a step that multiplied the lone operand by a unit, or
///   canonicalized a signed zero, fails here;
/// * the same steps started at the sparse kernel run sparse and equal
///   the hash operators row for row and bit for bit too, over the same
///   operands and over copies whose first cells hold `f64::MAX` — a
///   sparse join that validated its products fails there (their product
///   overflows), as does a sparse marginalization that multiplied its
///   lone operand by a unit. The aggregations also run over a wide copy
///   of the grid, whose group grid is large enough next to its rows that
///   the keyed one-operand form folds each group's run instead of
///   scattering.
///
/// Join shapes cover a chain, a transposed operand, a full transpose
/// `(p,q) ⨝ (q,p)`, an outer product and a broadcast; aggregations group
/// on each axis, on two in either order, on none, and on all of them
/// (nothing eliminated, in order or transposed).
#[test]
fn degenerate_steps_keep_every_bit() {
    for d in [1u64, 3, 7, 33] {
        let mut cat = Catalog::new();
        let [x, e, y] = ["x", "e", "y"].map(|v| cat.add_var(v, d).unwrap());
        let w = cat.add_var("w", 1 << 21).unwrap();
        for sr in SemiringKind::ALL {
            let run = |threads: usize| ExecContext::new(sr).with_threads(threads);
            let joins: [(&[VarId], &[VarId]); 5] = [
                (&[x, e], &[e, y]),
                (&[x, e], &[y, e]),
                (&[x, e], &[e, x]),
                (&[x], &[y]),
                (&[x, y], &[y]),
            ];
            // A copy of a join operand whose first cell holds the largest
            // finite measure: the product of two such cells overflows to
            // an infinity that is no valid fold in four semirings, and a
            // join stores it as it is.
            let huge = |rel: &FunctionalRelation| {
                let mut rel = rel.clone();
                if sr != SemiringKind::BoolOrAnd {
                    rel.set_measure(0, f64::MAX);
                }
                rel
            };
            for (lv, rv) in joins {
                let (l, r) = (edge_grid("l", lv, &cat, 3, sr), edge_grid("r", rv, &cat, 4, sr));
                let what = format!("d {d} sr {sr:?} join {lv:?} ⨝ {rv:?}");
                let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
                let mut per_run = Vec::new();
                for t in THREADS {
                    let mut cx = run(t);
                    let got = ops::step(&mut cx, &[&l, &r], None, OpRepr::Dense).unwrap();
                    assert_eq!(cx.stats().dense_joins, 1, "ran dense: {what}");
                    per_run.push(row_bits(&got));
                    assert_eq!(
                        bits_in(&got, want.schema()),
                        bits(&want),
                        "vs product_join: {what} threads {t}"
                    );
                }
                assert!(per_run.windows(2).all(|w| w[0] == w[1]), "runs differ: {what}");
                for (l, r) in [(l.clone(), r.clone()), (huge(&l), huge(&r))] {
                    let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
                    let mut cx = ExecContext::new(sr);
                    let got = ops::step(&mut cx, &[&l, &r], None, OpRepr::Sparse).unwrap();
                    assert_eq!(cx.stats().sparse_joins, 1, "ran sparse: {what}");
                    assert_eq!(
                        bits_in(&got, want.schema()),
                        bits(&want),
                        "sparse vs product_join: {what}"
                    );
                }
            }
            let input = edge_grid("t", &[x, e, y], &cat, 5, sr);
            let groups: [&[VarId]; 8] = [&[x], &[e], &[y], &[x, y], &[y, x], &[], &[x, e, y], &[y, e, x]];
            for group in groups {
                let what = format!("d {d} sr {sr:?} group {group:?}");
                let want = ops::group_by(&mut ExecContext::new(sr), &input, group).unwrap();
                let mut per_run = Vec::new();
                for t in THREADS {
                    let mut cx = run(t);
                    let got = ops::step(&mut cx, &[&input], Some(group), OpRepr::Dense).unwrap();
                    assert_eq!(cx.stats().dense_group_bys, 1, "ran dense: {what}");
                    assert_eq!(bits(&got), bits(&want), "vs group_by: {what} threads {t}");
                    per_run.push(row_bits(&got));
                }
                assert_eq!(per_run[0], per_run[1], "thread count changed bits: {what}");
                let mut cx = ExecContext::new(sr);
                let got = ops::step(&mut cx, &[&input], Some(group), OpRepr::Sparse).unwrap();
                assert_eq!(cx.stats().sparse_group_bys, 1, "ran sparse: {what}");
                assert_eq!(bits(&got), bits(&want), "sparse vs group_by: {what}");
            }
            // The same grid with `x` and `y` folded into one variable `w`
            // spread 1024 apart, so `w`'s group grid dwarfs the rows and the
            // keyed one-operand form folds each group's run instead of
            // scattering (from side 3 on).
            let wide = FunctionalRelation::from_rows(
                "wide",
                Schema::new(vec![w, e]).unwrap(),
                input.rows().map(|(row, m)| (vec![(row[0] * d as u32 + row[2]) * 1024, row[1]], m)),
            )
            .unwrap();
            let groups: [&[VarId]; 5] = [&[w], &[e], &[w, e], &[e, w], &[]];
            for group in groups {
                let what = format!("d {d} sr {sr:?} group {group:?} over wide");
                let mut cx = ExecContext::new(sr);
                let got = ops::step(&mut cx, &[&wide], Some(group), OpRepr::Sparse).unwrap();
                assert_eq!(cx.stats().sparse_group_bys, 1, "ran sparse: {what}");
                let want = ops::group_by(&mut ExecContext::new(sr), &wide, group).unwrap();
                assert_eq!(bits(&got), bits(&want), "sparse vs group_by: {what}");
            }
        }
    }
}

/// One fused step for [`representations_agree_bitwise_on_complete_inputs`]:
/// operand axes and group axes over `x, e, y, f`, and why the hash step
/// walks the eliminated axes in another order than the dense and sparse
/// steps' merge order (`None` where it does not).
struct FusedCase {
    l: &'static [usize],
    r: &'static [usize],
    group: &'static [usize],
    hash_differs: Option<&'static str>,
}

/// On complete inputs the dense and sparse steps fold every cell in one
/// order, and the hash step too wherever it walks the eliminated axes
/// alike, so they agree bit for bit — over edge-value grids, in all
/// seven semirings, form by form: the fused two-operand step (the sparse
/// step streaming and scattering), the join, and the one-operand step
/// (the sparse step scattering its stored rows; its keyed form and the
/// fused step's staged form only run past a 2²²-cell group grid on
/// complete inputs, see [`staged_sparse_step_matches_dense_bitwise`]).
/// Where the hash step's walk differs it agrees within tolerance: the
/// sum family rounds in another order, and the min/max family can pick
/// the other of `0.0` and `−0.0`.
#[test]
fn representations_agree_bitwise_on_complete_inputs() {
    const FUSED: [FusedCase; 6] = [
        FusedCase { l: &[0, 1], r: &[1, 2], group: &[0, 2], hash_differs: None },
        FusedCase { l: &[0, 1], r: &[1, 2], group: &[0], hash_differs: None },
        FusedCase { l: &[1, 0], r: &[1, 2], group: &[2], hash_differs: None },
        FusedCase {
            l: &[0, 1],
            r: &[1, 2],
            group: &[1],
            hash_differs: Some("it walks the probe side `r`'s own `y` outside `l`'s own `x`"),
        },
        FusedCase {
            l: &[0, 1],
            r: &[1, 2],
            group: &[2],
            hash_differs: Some("it walks `l`'s own `x` outside the shared `e`"),
        },
        FusedCase {
            l: &[0, 1, 3],
            r: &[3, 1, 2],
            group: &[0, 2],
            hash_differs: Some("it walks the shared axes in the probe side `r`'s order `f, e`"),
        },
    ];
    let doms = [3u64, 4, 5, 2];
    let mut cat = Catalog::new();
    let vars: [VarId; 4] =
        std::array::from_fn(|i| cat.add_var(["x", "e", "y", "f"][i], doms[i]).unwrap());
    let pick = |axes: &[usize]| -> Vec<VarId> { axes.iter().map(|&i| vars[i]).collect() };
    let modes = [
        ("dense", DenseMode::Auto, ReprMode::Auto, OpRepr::Dense),
        ("sparse", DenseMode::Off, ReprMode::Auto, OpRepr::Sparse),
        ("hash", DenseMode::Off, ReprMode::Off, OpRepr::Rows),
    ];
    for sr in SemiringKind::ALL {
        // Each run's rows keyed in `schema`'s order, from every mode.
        let run = |inputs: &[&FunctionalRelation], group: Option<&[VarId]>, schema: &Schema| {
            modes.map(|(name, dense, repr, ran)| {
                let mut cx = ExecContext::new(sr)
                    .with_dense(dense)
                    .with_repr(repr)
                    .with_trace(TraceLevel::Spans);
                let out = ops::step(&mut cx, inputs, group, OpRepr::Dense).unwrap();
                let mut tags = Vec::new();
                cx.take_trace().for_each(&mut |span| tags.push((span.repr, span.nest)));
                assert_eq!(tags.len(), 1, "{name}: one span");
                assert_eq!(tags[0].0, ran, "{name} ran {ran:?}");
                (bits_in(&out, schema), tags[0].1, out)
            })
        };
        let mut forms = std::collections::BTreeSet::new();
        for case in &FUSED {
            let l = edge_grid("l", &pick(case.l), &cat, 3, sr);
            let r = edge_grid("r", &pick(case.r), &cat, 4, sr);
            let gv = pick(case.group);
            let schema = Schema::new(gv.clone()).unwrap();
            let what = format!("sr {sr:?} {:?} ⨝ {:?} → {:?}", case.l, case.r, case.group);
            let [(dense, _, d), (sparse, form, _), (hash, _, h)] =
                run(&[&l, &r], Some(&gv), &schema);
            forms.insert(form.expect("a fused sparse span has a form"));
            assert_eq!(sparse, dense, "dense vs sparse: {what}");
            match case.hash_differs {
                None => assert_eq!(hash, dense, "dense vs hash: {what}"),
                Some(why) => assert!(d.function_eq_in(&h, sr), "dense vs hash ({why}): {what}"),
            }
        }
        assert!(forms.contains("stream") && forms.contains("scatter"), "sr {sr:?}: {forms:?}");
        // Joins fold nothing: every representation stores the same products.
        let joins: [(&[usize], &[usize]); 3] =
            [(&[0, 1], &[1, 2]), (&[0, 1], &[2, 1]), (&[0, 3], &[1, 2])];
        for (lv, rv) in joins {
            let l = edge_grid("l", &pick(lv), &cat, 5, sr);
            let r = edge_grid("r", &pick(rv), &cat, 6, sr);
            let schema = l.schema().union(r.schema());
            let [(dense, ..), (sparse, ..), (hash, ..)] = run(&[&l, &r], None, &schema);
            assert_eq!(sparse, dense, "sr {sr:?} join {lv:?} ⨝ {rv:?}: sparse");
            assert_eq!(hash, dense, "sr {sr:?} join {lv:?} ⨝ {rv:?}: hash");
        }
        // One operand: every representation walks the stored rows, in
        // odometer order.
        let input = edge_grid("t", &pick(&[0, 1, 2, 3]), &cat, 7, sr);
        let groups: [&[usize]; 6] = [&[0], &[1], &[2, 0], &[3, 1], &[], &[0, 1, 2, 3]];
        for group in groups {
            let gv = pick(group);
            let schema = Schema::new(gv.clone()).unwrap();
            let [(dense, ..), (sparse, form, _), (hash, ..)] = run(&[&input], Some(&gv), &schema);
            assert_eq!(form, None, "a one-operand span carries no form");
            assert_eq!(sparse, dense, "sr {sr:?} group {group:?}: sparse");
            assert_eq!(hash, dense, "sr {sr:?} group {group:?}: hash");
        }
    }
}

/// The sparse fused step's staged form (the sparse join, then the sparse
/// one-operand step) runs on complete inputs only when the group grid
/// passes the scatter form's 2²²-cell cap: `l(x, e) · r(e, y)` onto
/// `[x, y]` at `x = y = 2049`, `e = 2`. It folds each cell in the dense
/// step's order, bit for bit, in the sum-product semiring (the one whose
/// bits an order change moves; the fold is the same code for all seven).
#[test]
fn staged_sparse_step_matches_dense_bitwise() {
    let sr = SemiringKind::SumProduct;
    let mut cat = Catalog::new();
    let [x, e, y] = [("x", 2049), ("e", 2), ("y", 2049)].map(|(v, d)| cat.add_var(v, d).unwrap());
    let l = edge_grid("l", &[x, e], &cat, 8, sr);
    let r = edge_grid("r", &[e, y], &cat, 9, sr);
    let step = |dense: DenseMode| {
        let mut cx = ExecContext::new(sr).with_dense(dense).with_trace(TraceLevel::Spans);
        let out = ops::step(&mut cx, &[&l, &r], Some(&[x, y]), OpRepr::Dense).unwrap();
        let mut tags = None;
        cx.take_trace().for_each(&mut |span| tags = Some((span.repr, span.nest)));
        (out, tags.expect("a fused span"))
    };
    let (dense, tags) = step(DenseMode::Auto);
    assert_eq!(tags, (OpRepr::Dense, Some("tile")));
    let (sparse, tags) = step(DenseMode::Off);
    assert_eq!(tags, (OpRepr::Sparse, Some("staged")));
    // Both outputs are `[x, y]` in ascending order: compare them row for
    // row, without a keyed copy of 4.2 million rows.
    assert_eq!((sparse.schema(), sparse.len()), (dense.schema(), dense.len()));
    let cell = |(row, m): (&[u32], f64)| (row.to_vec(), m.to_bits());
    assert!(sparse.rows().map(cell).eq(dense.rows().map(cell)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random measures and random support holes: neither the dense mode
    /// nor fusion ever changes the answer, and the dense mode never moves
    /// a bit.
    #[test]
    fn dense_mode_and_fusion_never_change_answers(
        m1 in proptest::collection::vec(0u8..10, 16),
        m2 in proptest::collection::vec(0u8..10, 16),
        hole_picks in proptest::collection::vec(0usize..16, 0..6),
        sr_idx in 0usize..7,
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
        let mut store = RelationStore::new();
        store.insert(r1);
        store.insert(r2);
        let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a]);
        let exec = Executor::new(&store, sr);
        let (want, _) = exec.execute_physical(&PhysicalPlan::default_hash(&logical)).unwrap();
        let mut runs = Vec::new();
        for dense in DENSES {
            let mut cx = ExecContext::new(sr).with_dense(dense);
            let got = exec.execute_physical_in(&mut cx, &fused_plan(&[a])).unwrap();
            prop_assert!(
                want.function_eq_in(&got, sr),
                "sr {sr:?} dense {dense:?} holes {holes:?}"
            );
            runs.push(bits(&got));
        }
        prop_assert_eq!(&runs[0], &runs[1], "sr {sr:?} holes {holes:?}");
    }
}
