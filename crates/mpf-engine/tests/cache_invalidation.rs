//! Invalidation property: interleave catalog mutations (point measure
//! updates, whole-relation replacements, raw snapshot rewrites) with
//! cached queries, and every post-mutation answer from the cached
//! database must be bit-identical to a cold recompute on an uncached
//! database that received exactly the same mutations.
//!
//! Measures are dyadic rationals (`k / 8.0`), so every sum/product — and
//! every update-semijoin patch ratio `new / old` along the way — is
//! exact in `f64`, making bit-identity the real contract rather than a
//! tolerance. The patch path (paper Section 6) is exercised explicitly:
//! `Database::update_measure` reports a precise event, and resident
//! sum-product trees are patched forward instead of evicted.

use mpf_engine::{Database, Query};
use mpf_semiring::Combine;
use mpf_storage::{FunctionalRelation, Schema, Value};
use proptest::prelude::*;

/// r1(a,b) ⋈ r2(b,c) under view `v`, dyadic measures.
fn build_db(cache_bytes: u64) -> Database {
    let db = Database::new().with_cache_bytes(cache_bytes);
    let a = db.add_var("a", 2).unwrap();
    let b = db.add_var("b", 3).unwrap();
    let c = db.add_var("c", 2).unwrap();
    let catalog = db.catalog();
    let r1 = FunctionalRelation::complete("r1", Schema::new(vec![a, b]).unwrap(), &catalog, |r| {
        1.0 + (r[0] * 3 + r[1]) as f64 / 8.0
    });
    let r2 = FunctionalRelation::complete("r2", Schema::new(vec![b, c]).unwrap(), &catalog, |r| {
        0.5 + (r[0] * 2 + r[1]) as f64 / 8.0
    });
    drop(catalog);
    db.insert_relation(r1).unwrap();
    db.insert_relation(r2).unwrap();
    db.create_view("v", &["r1", "r2"], Combine::Product).unwrap();
    db
}

/// One interleaved step of the soak.
#[derive(Debug, Clone)]
enum Op {
    /// `Database::update_measure` on row `row_idx % len` of a relation
    /// (precise `MeasureUpdate` event; patches resident trees). The new
    /// measure halves or doubles the current one, so the patch ratio is
    /// exactly `0.5` or `2.0` — bit-identity survives the semijoin.
    /// (An arbitrary dyadic target would make the ratio `new / old`
    /// inexact, e.g. `7/11`, and 1-ULP drift between the patched and
    /// recomputed answers would be correct behavior, not a bug.)
    UpdateMeasure { rel: usize, row_idx: usize },
    /// Replace a whole relation through `insert_relation` (precise
    /// `Touched` event; evicts trees over the relation).
    Replace { rel: usize, k: u32 },
    /// Rewrite through raw `mutate` (conservative `Unknown` event;
    /// evicts everything).
    RawRewrite { rel: usize, k: u32 },
    /// Run one query of the workload (index into `workload()`).
    Query(usize),
}

fn workload() -> Vec<Query> {
    vec![
        Query::on("v").group_by(["a"]),
        Query::on("v").group_by(["b"]),
        Query::on("v").group_by(["a", "b"]),
        Query::on("v").group_by(["c"]),
        Query::on("v").group_by(["a"]).filter("b", 1),
    ]
}

const REL_NAMES: [&str; 2] = ["r1", "r2"];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..2usize, 0..6usize).prop_map(|(rel, row_idx)| Op::UpdateMeasure { rel, row_idx }),
        (0..2usize, 1..32u32).prop_map(|(rel, k)| Op::Replace { rel, k }),
        (0..2usize, 1..32u32).prop_map(|(rel, k)| Op::RawRewrite { rel, k }),
        (0..5usize).prop_map(Op::Query),
    ]
}

/// A relation with the same name/schema but fresh dyadic measures.
fn remeasured(db: &Database, rel: usize, k: u32) -> FunctionalRelation {
    let snap = db.snapshot();
    let old = snap.relation_of(REL_NAMES[rel]).unwrap();
    let mut fresh = FunctionalRelation::new(old.name().to_string(), old.schema().clone());
    for (i, (row, _)) in old.rows().enumerate() {
        fresh
            .push_row(row, (k + i as u32) as f64 / 8.0)
            .unwrap();
    }
    fresh
}

/// One canonical row: `(var, value)` pairs in ascending `VarId` order
/// plus the measure's raw bits.
type CanonRow = (Vec<(u32, Value)>, u64);

/// Bit-exact canonical rows, columns normalized to ascending `VarId`.
fn canon(ans: &mpf_engine::Answer) -> Vec<CanonRow> {
    let vars = ans.relation.schema().vars().to_vec();
    let mut rows: Vec<CanonRow> = ans
        .relation
        .rows()
        .map(|(row, m)| {
            let mut cols: Vec<(u32, Value)> =
                vars.iter().zip(row).map(|(&v, &x)| (v.0, x)).collect();
            cols.sort();
            (cols, m.to_bits())
        })
        .collect();
    rows.sort();
    rows
}

fn apply(db: &Database, op: &Op) -> Option<Vec<CanonRow>> {
    match op {
        Op::UpdateMeasure { rel, row_idx } => {
            let (row, old) = {
                let snap = db.snapshot();
                let r = snap.relation_of(REL_NAMES[*rel]).unwrap();
                let i = row_idx % r.len();
                (r.row(i).to_vec(), r.measure(i))
            };
            // Halve large measures, double small ones: measures stay in
            // a band where every sum of products is exact in f64.
            let new = if old >= 1.0 { old / 2.0 } else { old * 2.0 };
            db.update_measure(REL_NAMES[*rel], &row, new).unwrap();
            None
        }
        Op::Replace { rel, k } => {
            db.insert_relation(remeasured(db, *rel, *k)).unwrap();
            None
        }
        Op::RawRewrite { rel, k } => {
            let fresh = remeasured(db, *rel, *k);
            db.mutate(|snap| {
                snap.store_mut().insert(fresh.clone());
                Ok(())
            })
            .unwrap();
            None
        }
        Op::Query(i) => Some(canon(&db.run(&workload()[*i]).unwrap())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_post_mutation_answer_matches_a_cold_recompute(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        let warm = build_db(16 << 20);
        let cold = build_db(0);
        // Warm the cache: two passes over the workload admit base trees
        // before the interleaving starts, so mutations hit live entries.
        for q in workload() {
            for _ in 0..2 {
                warm.run(&q).unwrap();
            }
        }
        for (step, op) in ops.iter().enumerate() {
            let a_warm = apply(&warm, op);
            let a_cold = apply(&cold, op);
            prop_assert_eq!(
                a_warm, a_cold,
                "step {} ({:?}) diverged from cold recompute", step, op
            );
        }
        // And once more after the dust settles: the full workload must
        // agree bit-for-bit on the final state.
        for q in workload() {
            prop_assert_eq!(
                canon(&warm.run(&q).unwrap()),
                canon(&cold.run(&q).unwrap()),
                "final state diverged on {}", q
            );
        }
    }
}

/// The patch path specifically: a point update through
/// `Database::update_measure` must patch the resident sum-product tree
/// forward (counter `patched`), keep serving from cache, and agree with
/// a cold recompute bit-for-bit.
#[test]
fn measure_updates_patch_resident_trees_instead_of_evicting() {
    let warm = build_db(16 << 20);
    let cold = build_db(0);
    let q = Query::on("v").group_by(["a"]);
    for _ in 0..3 {
        warm.run(&q).unwrap();
    }
    let vc = warm.view_cache().unwrap();
    assert!(vc.counter("admits") > 0);

    // Row 2 of r1 carries 1 + 2/8 = 1.25; halving it keeps the patch
    // ratio an exact power of two.
    let row = {
        let snap = warm.snapshot();
        snap.relation_of("r1").unwrap().row(2).to_vec()
    };
    let old_warm = warm.update_measure("r1", &row, 0.625).unwrap();
    let old_cold = cold.update_measure("r1", &row, 0.625).unwrap();
    assert_eq!(old_warm.to_bits(), old_cold.to_bits());
    assert!(vc.counter("patched") > 0, "update evicted instead of patching");

    let served = warm.run(&q).unwrap();
    assert!(
        served.cache.is_some(),
        "patched tree was not served after the update"
    );
    assert_eq!(canon(&served), canon(&cold.run(&q).unwrap()));

    // Unknown row: typed error, snapshot and cache untouched.
    let before = warm.snapshot().version();
    let err = warm.update_measure("r1", &[9, 9], 1.0).unwrap_err();
    assert!(matches!(err, mpf_engine::EngineError::InvalidUpdate(_)));
    assert_eq!(warm.snapshot().version(), before);
}

/// A reader that missed while a writer was patching builds the same
/// version's tree again and offers it for admission. The patched tree
/// (which keeps the indexes its patch built) stays resident and the
/// fresh build is discarded, so the next update patches without
/// rebuilding them.
#[test]
fn a_racing_build_does_not_replace_a_patched_tree() {
    let warm = build_db(16 << 20);
    let q = Query::on("v").group_by(["a"]);
    for _ in 0..3 {
        warm.run(&q).unwrap();
    }
    warm.update_measure("r1", &[0, 0], 0.5).unwrap();
    let vc = warm.view_cache().unwrap();
    let key = mpf_engine::CacheKey {
        version: warm.snapshot().version(),
        view: "v".into(),
        semiring: mpf_semiring::SemiringKind::SumProduct,
        evidence: Vec::new(),
    };
    let patched = vc.lookup(&key).expect("patched tree resident");
    let (admits, discarded) = (vc.counter("admits"), vc.counter("build_discarded"));
    let racing = std::sync::Arc::new((*patched).clone());
    assert!(!vc.admit(key.clone(), vec!["r1".into(), "r2".into()], racing));
    assert!(std::sync::Arc::ptr_eq(&vc.lookup(&key).unwrap(), &patched));
    assert_eq!(vc.counter("admits"), admits);
    assert_eq!(vc.counter("build_discarded"), discarded + 1);
}

/// A reader holding a tree across a point update keeps exactly what it
/// held: the patch copies that tree (counter `patch_copies`), and the
/// new version's entry answers as a cold database does. Once no reader
/// holds the tree, the next patch rewrites it in place.
#[test]
fn a_held_tree_is_copied_on_write_and_an_unheld_one_is_patched_in_place() {
    let warm = build_db(16 << 20);
    let cold = build_db(0);
    let queries = ["a", "b", "c"].map(|v| Query::on("v").group_by([v]));
    for _ in 0..3 {
        warm.run(&queries[0]).unwrap();
    }
    let vc = warm.view_cache().unwrap();
    let mut key = mpf_engine::CacheKey {
        version: warm.snapshot().version(),
        view: "v".into(),
        semiring: mpf_semiring::SemiringKind::SumProduct,
        evidence: Vec::new(),
    };
    let measure_bits = |tree: &mpf_infer::VeCache| -> Vec<Vec<u64>> {
        let bits = |t: &FunctionalRelation| t.measures().iter().map(|m| m.to_bits()).collect();
        tree.tables().iter().map(|t| bits(t)).collect()
    };
    let agree = |step: &str| {
        for q in &queries {
            let served = warm.run(q).unwrap();
            assert!(served.cache.is_some(), "{q} fell out of the cache {step}");
            assert_eq!(canon(&served), canon(&cold.run(q).unwrap()), "{q} {step}");
        }
    };

    let held = vc.lookup(&key).expect("tree resident");
    let before = measure_bits(&held);
    let (patched, copies) = (vc.counter("patched"), vc.counter("patch_copies"));
    for db in [&warm, &cold] {
        db.update_measure("r1", &[1, 1], 3.0).unwrap();
    }
    assert_eq!(vc.counter("patched"), patched + 1);
    assert_eq!(
        vc.counter("patch_copies"),
        copies + 1,
        "the held tree was not copied"
    );
    assert_eq!(
        measure_bits(&held),
        before,
        "the held tree changed under its reader"
    );
    key.version = warm.snapshot().version();
    let resident = vc.lookup(&key).expect("patched tree resident");
    assert!(!std::sync::Arc::ptr_eq(&held, &resident));
    drop((held, resident));
    agree("after a copy-on-write patch");

    for db in [&warm, &cold] {
        db.update_measure("r1", &[1, 1], 1.5).unwrap();
    }
    assert_eq!(vc.counter("patched"), patched + 2);
    assert_eq!(
        vc.counter("patch_copies"),
        copies + 1,
        "an unheld tree was copied"
    );
    agree("after an in-place patch");
}

/// Warm `v`'s base tree and the tree conditioned on `b = 1`, and return
/// the conditioned tree's cache key at the current snapshot version.
fn warm_with_conditioned_tree(db: &Database) -> mpf_engine::CacheKey {
    for q in workload() {
        for _ in 0..2 {
            db.run(&q).unwrap();
        }
    }
    let snap = db.snapshot();
    mpf_engine::CacheKey {
        version: snap.version(),
        view: "v".into(),
        semiring: mpf_semiring::SemiringKind::SumProduct,
        evidence: vec![(snap.catalog().var("b").unwrap(), 1)],
    }
}

/// Conditioned trees ride the same delta as the base tree: a row the
/// evidence keeps is patched in, a row the evidence filtered out leaves
/// the tree exactly as it was, and neither evicts anything.
#[test]
fn conditioned_trees_are_patched_or_carried_not_evicted() {
    let warm = build_db(16 << 20);
    let cold = build_db(0);
    let mut key = warm_with_conditioned_tree(&warm);
    let vc = warm.view_cache().unwrap();
    let before = vc.lookup(&key).expect("conditioned tree resident");
    let evictions = vc.counter("evictions");

    // r1(a=0, b=0) is outside `b = 1`: the conditioned tree is carried
    // forward as the very same allocation while the base tree is patched.
    for db in [&warm, &cold] {
        db.update_measure("r1", &[0, 0], 0.5).unwrap();
    }
    key.version = warm.snapshot().version();
    let carried = vc.lookup(&key).expect("conditioned tree survived the update");
    assert!(std::sync::Arc::ptr_eq(&before, &carried));
    assert_eq!(vc.counter("patched"), 1, "the base tree only");
    assert_eq!(vc.counter("patched_conditioned"), 0);

    // r1(a=1, b=1) is inside: both trees are patched.
    for db in [&warm, &cold] {
        db.update_measure("r1", &[1, 1], 3.0).unwrap();
    }
    assert_eq!(vc.counter("patched"), 3);
    assert_eq!(vc.counter("patched_conditioned"), 1);
    assert!(vc.counter("patched_rows") > 0);
    assert_eq!(vc.counter("evictions"), evictions, "a point update evicted a tree");

    let derived = vc.counter("derived");
    for q in workload() {
        let served = warm.run(&q).unwrap();
        assert!(served.cache.is_some(), "{q} fell out of the cache");
        assert_eq!(canon(&served), canon(&cold.run(&q).unwrap()), "{q}");
    }
    assert_eq!(vc.counter("derived"), derived, "a conditioned tree was re-derived");
}

/// `x → 0 → y`: zeroing a measure is an ordinary patch, but the way back
/// has no ratio — the trees are evicted and rebuilt on demand, never
/// divided by zero. Non-finite measures never install at all.
#[test]
fn degenerate_updates_have_typed_outcomes() {
    let warm = build_db(16 << 20);
    let cold = build_db(0);
    warm_with_conditioned_tree(&warm);
    let vc = warm.view_cache().unwrap();

    let version = warm.snapshot().version();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = warm.update_measure("r1", &[1, 1], bad).unwrap_err();
        assert!(matches!(err, mpf_engine::EngineError::InvalidUpdate(_)), "{bad}");
    }
    assert_eq!(warm.snapshot().version(), version);
    assert_eq!(vc.counter("invalidations"), 0);

    for db in [&warm, &cold] {
        db.update_measure("r1", &[1, 1], 0.0).unwrap();
    }
    assert_eq!(vc.counter("patched"), 2);
    assert_eq!(vc.counter("evictions"), 0);
    for q in workload() {
        assert_eq!(canon(&warm.run(&q).unwrap()), canon(&cold.run(&q).unwrap()), "{q}");
    }

    for db in [&warm, &cold] {
        assert_eq!(db.update_measure("r1", &[1, 1], 2.5).unwrap(), 0.0);
    }
    assert_eq!(vc.counter("patched"), 2, "a 0 → y update was patched");
    assert_eq!(vc.counter("evictions"), 2);
    for _ in 0..2 {
        for q in workload() {
            let (w, c) = (warm.run(&q).unwrap(), cold.run(&q).unwrap());
            assert_eq!(canon(&w), canon(&c), "{q}");
            assert!(w.relation.measures().iter().all(|m| m.is_finite()));
        }
    }
}

/// An install shares everything it did not touch with the snapshot it
/// replaced, and whoever pinned the old snapshot or the old tree keeps
/// reading exactly what they pinned.
#[test]
fn update_shares_untouched_state_and_isolates_pinned_readers() {
    let db = build_db(16 << 20);
    let key = warm_with_conditioned_tree(&db);
    let vc = db.view_cache().unwrap();
    let a = db.catalog().var("a").unwrap();

    let old_snap = db.snapshot();
    let old_tree = vc.lookup(&key).unwrap();
    let old_answer = old_tree.answer(a).unwrap();
    let old_measures = old_snap.relation_of("r1").unwrap().measures().to_vec();

    db.update_measure("r1", &[1, 1], 3.0).unwrap();
    let new_snap = db.snapshot();
    let shared = |s: &mpf_engine::Snapshot, name: &str| s.store().shared(name).unwrap().clone();
    assert!(std::sync::Arc::ptr_eq(&shared(&old_snap, "r2"), &shared(&new_snap, "r2")));
    assert!(!std::sync::Arc::ptr_eq(&shared(&old_snap, "r1"), &shared(&new_snap, "r1")));
    assert!(std::ptr::eq(old_snap.catalog(), new_snap.catalog()));
    assert!(std::ptr::eq(
        old_snap.view_of("v").unwrap(),
        new_snap.view_of("v").unwrap()
    ));

    assert_eq!(old_snap.relation_of("r1").unwrap().measures(), old_measures);
    assert_eq!(new_snap.relation_of("r1").unwrap().lookup(&[1, 1]), Some(3.0));
    let again = old_tree.answer(a).unwrap();
    let bits = |r: &FunctionalRelation| r.measures().iter().map(|m| m.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&old_answer), bits(&again));
    let new_key = mpf_engine::CacheKey { version: new_snap.version(), ..key };
    let new_tree = vc.lookup(&new_key).unwrap();
    assert_ne!(bits(&new_tree.answer(a).unwrap()), bits(&old_answer));
}

/// A tree absorbs at most `MAX_PATCHES` updates; the next one evicts it
/// and demand rebuilds it from the base relations.
#[test]
fn a_tree_is_rebuilt_after_max_patches() {
    let warm = build_db(16 << 20);
    let cold = build_db(0);
    let q = Query::on("v").group_by(["a"]);
    for _ in 0..3 {
        warm.run(&q).unwrap();
    }
    let vc = warm.view_cache().unwrap();
    for step in 0..=mpf_engine::MAX_PATCHES {
        assert_eq!(vc.counter("evictions"), 0, "evicted early at patch {step}");
        let m = if step % 2 == 0 { 2.5 } else { 1.25 };
        for db in [&warm, &cold] {
            db.update_measure("r1", &[1, 1], m).unwrap();
        }
    }
    assert_eq!(vc.counter("patched"), u64::from(mpf_engine::MAX_PATCHES));
    assert_eq!(vc.counter("evictions"), 1);
    for _ in 0..3 {
        assert_eq!(canon(&warm.run(&q).unwrap()), canon(&cold.run(&q).unwrap()));
    }
    assert!(warm.run(&q).unwrap().cache.is_some(), "the tree was not rebuilt");
}
