//! Drift bound of incremental maintenance: a `VeCache` that absorbed up
//! to 256 point updates with arbitrary (non-dyadic) ratios must agree
//! with a cold `VeCache::build_in` on the final relations to 1e-9
//! relative, table by table and row by row — for the unconditioned tree
//! and for trees conditioned on evidence, including evidence that
//! filters the updated rows out.
//!
//! Exact ratios make a patch bit-identical to a rebuild (the engine's
//! `cache_invalidation` suite holds that line); this suite bounds what
//! inexact ratios may add on top.

use std::sync::Arc;

use mpf_algebra::ExecContext;
use mpf_infer::VeCache;
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const SR: SemiringKind = SemiringKind::SumProduct;

/// The `invest` view's shape at toy scale: contracts(pid,sid) —
/// location(pid,wid) — warehouses(wid,cid) — ctdeals(cid,tid) —
/// transporters(tid), with sparse contracts/location/warehouses and
/// measures that are not dyadic rationals.
fn invest(cat: &mut Catalog) -> Vec<FunctionalRelation> {
    let pid = cat.add_var("pid", 12).unwrap();
    let sid = cat.add_var("sid", 4).unwrap();
    let wid = cat.add_var("wid", 6).unwrap();
    let cid = cat.add_var("cid", 3).unwrap();
    let tid = cat.add_var("tid", 3).unwrap();
    let mut salt = 0u32;
    let mut measure = move || {
        salt += 1;
        0.3 + f64::from(salt * 37 % 101) / 7.0
    };
    let mut rel = |name: &str, vars: [VarId; 2], rows: Vec<[u32; 2]>| {
        let rel = FunctionalRelation::from_rows(
            name,
            Schema::new(vars.to_vec()).unwrap(),
            rows.into_iter().map(|r| (r.to_vec(), measure())),
        )
        .unwrap();
        rel.validate_fd().unwrap();
        rel
    };
    let contracts = rel(
        "contracts",
        [pid, sid],
        (0..12).flat_map(|p| [[p, p % 4], [p, (p + 1) % 4]]).collect(),
    );
    let location = rel(
        "location",
        [pid, wid],
        (0..12).flat_map(|p| [[p, p % 6], [p, (p + 3) % 6]]).collect(),
    );
    let warehouses = rel("warehouses", [wid, cid], (0..6).map(|w| [w, w % 3]).collect());
    let ctdeals = rel(
        "ctdeals",
        [cid, tid],
        (0..3).flat_map(|c| (0..3).map(move |t| [c, t])).collect(),
    );
    let transporters = FunctionalRelation::from_rows(
        "transporters",
        Schema::new(vec![tid]).unwrap(),
        (0..3).map(|t| (vec![t], 0.9 + f64::from(t) / 3.0)),
    )
    .unwrap();
    vec![contracts, location, warehouses, ctdeals, transporters]
}

fn build(rels: &[FunctionalRelation]) -> VeCache {
    let refs: Vec<&FunctionalRelation> = rels.iter().collect();
    VeCache::build_in(&mut ExecContext::new(SR), &refs, None).unwrap()
}

/// Largest relative difference between two trees, which must agree on
/// every table's row set.
fn max_relative_gap(patched: &VeCache, cold: &VeCache) -> f64 {
    let mut gap = 0.0f64;
    for (p, c) in patched.tables().iter().zip(cold.tables()) {
        assert_eq!(p.len(), c.len(), "row sets diverged on {}", p.name());
        for (row, m) in p.rows() {
            let want = c.lookup(row).expect("same support");
            gap = gap.max((m - want).abs() / want.abs().max(f64::MIN_POSITIVE));
        }
    }
    gap
}

/// Patch every tree of the suite — unconditioned, conditioned on a far
/// variable, conditioned so that three quarters of `contracts` are
/// filtered out, and both — with the same sequence of updates, then
/// return the largest gap to the same trees derived from a cold rebuild.
fn drift_after(patches: &[(usize, usize, f64)]) -> f64 {
    let mut cat = Catalog::new();
    let mut rels = invest(&mut cat);
    let tid = cat.var("tid").unwrap();
    let sid = cat.var("sid").unwrap();
    let evidence = [vec![], vec![(tid, 1)], vec![(sid, 2)], vec![(sid, 2), (tid, 0)]];
    let derive = |base: &VeCache, ev: &[(VarId, u32)]| match ev {
        [] => base.clone(),
        ev => base.with_evidence_set(ev).unwrap(),
    };
    let base = build(&rels);
    let mut trees: Vec<Arc<VeCache>> = evidence
        .iter()
        .map(|ev| Arc::new(derive(&base, ev)))
        .collect();

    for &(r, i, ratio) in patches {
        let i = i % rels[r].len();
        let (row, old) = (rels[r].row(i).to_vec(), rels[r].measure(i));
        // Keep measures in a band where nothing over- or underflows.
        let new = if (1e-3..1e3).contains(&(old * ratio)) { old * ratio } else { old / ratio };
        rels[r].set_measure(i, new);
        for tree in &mut trees {
            tree.update_measure(rels[r].name(), &row, old, new).unwrap();
        }
    }

    let cold = build(&rels);
    let gaps = trees.iter().zip(&evidence).map(|(tree, ev)| max_relative_gap(tree, &derive(&cold, ev)));
    gaps.fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn patched_trees_stay_within_1e9_of_a_cold_rebuild(
        patches in proptest::collection::vec((0..5usize, 0..1000usize, 0.25f64..4.0), 1..=256)
    ) {
        let gap = drift_after(&patches);
        prop_assert!(gap <= 1e-9, "{} patches drifted {gap:e} from a cold rebuild", patches.len());
    }
}

/// The engine rebuilds a resident tree after `mpf_engine::MAX_PATCHES`
/// (4096) point updates; a tree that has absorbed that many must still
/// be inside the tolerance.
#[test]
fn a_tree_at_the_engines_patch_bound_is_within_1e9() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let patches: Vec<(usize, usize, f64)> = (0..4096)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bits = state >> 11;
            let ratio = 0.25 + 3.75 * (bits % 1_000_003) as f64 / 1_000_003.0;
            ((bits % 5) as usize, (bits >> 8) as usize % 1000, ratio)
        })
        .collect();
    let gap = drift_after(&patches);
    assert!(gap <= 1e-9, "4096 patches drifted {gap:e} from a cold rebuild");
}
