//! Memoized keyed orders on stored relations: a relation inserted into a
//! [`RelationStore`] keys each sparse axis order once, and every later
//! sparse operator over it reuses that order. The memo holds keys only,
//! never measures, so a memo hit must give the same bits as keying the
//! relation from scratch — row order included — and must stay right
//! across measure updates, key mutations, duplicate keys and racing
//! first uses.

use mpf_algebra::{ops, ExecContext, ExecStats, OpRepr, RelationStore, TraceLevel};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};

/// Deterministic per-cell inclusion (split-mix style hash).
fn keep(cell: u64, salt: u64, density: f64) -> bool {
    let mut x = cell.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    ((x >> 11) as f64 / (1u64 << 53) as f64) < density
}

/// A `density` fraction of the `doms` grid with semiring-safe measures,
/// its rows in *descending* grid order, so keying it in any axis order
/// needs a sort and a row permutation.
fn rel(
    name: &str,
    vars: Vec<VarId>,
    doms: &[u64],
    density: f64,
    salt: u64,
    sr: SemiringKind,
) -> FunctionalRelation {
    let cells: u64 = doms.iter().product();
    let rows = (0..cells).rev().filter(|&c| keep(c, salt, density)).map(|c| {
        let mut row = Vec::with_capacity(doms.len());
        let mut rest = c;
        for &d in doms.iter().rev() {
            row.push((rest % d) as u32);
            rest /= d;
        }
        row.reverse();
        let m = if sr == SemiringKind::BoolOrAnd {
            (c + salt) as f64 % 2.0
        } else {
            ((c + salt * 7) % 5 + 1) as f64 / 2.0
        };
        (row, m)
    });
    FunctionalRelation::from_rows(name, Schema::new(vars).unwrap(), rows).unwrap()
}

/// A copy with no memo and nothing shared: what a fresh load would hold.
fn reloaded(r: &FunctionalRelation) -> FunctionalRelation {
    FunctionalRelation::from_rows(
        r.name(),
        r.schema().clone(),
        r.rows().map(|(row, m)| (row.to_vec(), m)),
    )
    .unwrap()
}

fn store_of(rels: &[&FunctionalRelation]) -> RelationStore {
    rels.iter().map(|r| reloaded(r)).collect()
}

/// Same schema, same rows in the same order, same measure bits.
fn exact(rel: &FunctionalRelation) -> (Vec<VarId>, Vec<(Vec<u32>, u64)>) {
    (
        rel.schema().vars().to_vec(),
        rel.rows().map(|(row, m)| (row.to_vec(), m.to_bits())).collect(),
    )
}

/// One fused sparse elimination step, traced: the result, its stats, and
/// the fused span's `nest=` and `keyed=` tags.
fn step(
    sr: SemiringKind,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    gv: &[VarId],
) -> (FunctionalRelation, ExecStats, Option<&'static str>, Option<&'static str>) {
    let mut cx = ExecContext::new(sr).with_trace(TraceLevel::Spans);
    let out = ops::step(&mut cx, &[l, r], Some(gv), OpRepr::Sparse).unwrap();
    let stats = *cx.stats();
    let (mut nest, mut keyed) = (None, None);
    cx.take_trace().for_each(&mut |span| {
        if span.fused {
            (nest, keyed) = (span.nest, span.keyed);
        }
    });
    (out, stats, nest, keyed)
}

/// [`step`] over the named relations of a store.
fn step_in(
    sr: SemiringKind,
    store: &RelationStore,
    gv: &[VarId],
) -> (FunctionalRelation, ExecStats, Option<&'static str>, Option<&'static str>) {
    let get = |n: &str| store.shared(n).unwrap().as_ref();
    step(sr, get("l"), get("r"), gv)
}

fn memo_counts(s: &ExecStats) -> (u64, u64) {
    (s.keyed_memo_hits, s.keyed_memo_builds)
}

/// Cold (no memo), first use (builds both sides' orders) and memo hit give
/// the same bits, row order included, in all seven semirings and in every
/// form the fused kernel has; the unfused sparse join and marginalization
/// over stored relations agree too.
#[test]
fn memo_hits_are_bit_identical_to_cold_keying_in_every_form() {
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
    let cases: [(&str, Vec<VarId>); 6] = [
        ("stream", vec![b]),
        ("stream", vec![b, a, c]),
        ("scatter", vec![a]),
        ("scatter", vec![d, a]),
        ("staged", vec![wa, wd]),
        ("stream", vec![]),
    ];
    for sr in SemiringKind::ALL {
        for (form, gv) in &cases {
            let (l, r) = if *form == "staged" {
                (
                    rel("l", vec![wa, wb], &[100, 4], 0.05, 5, sr),
                    rel("r", vec![wb, wd], &[4, 100], 0.05, 6, sr),
                )
            } else {
                (
                    rel("l", vec![a, b], &[6, 6], 0.5, 7, sr),
                    rel("r", vec![b, c, d], &[6, 6, 6], 0.3, 8, sr),
                )
            };
            let ctx = format!("sr {sr:?} group {gv:?}");
            let (cold, cold_stats, cold_form, cold_tag) = step(sr, &l, &r, gv);
            assert_eq!(cold_form, Some(*form), "{ctx}");
            assert_eq!(memo_counts(&cold_stats), (0, 0), "derived relations never memoize");
            assert_eq!(cold_tag, None, "{ctx}");

            let store = store_of(&[&l, &r]);
            let (first, first_stats, _, first_tag) = step_in(sr, &store, gv);
            assert_eq!(memo_counts(&first_stats), (0, 2), "{ctx}");
            assert_eq!(first_tag, Some("built"), "{ctx}");
            let (hit, hit_stats, hit_form, hit_tag) = step_in(sr, &store, gv);
            assert_eq!(memo_counts(&hit_stats), (2, 0), "{ctx}");
            assert_eq!(hit_tag, Some("memo"), "{ctx}");
            assert_eq!(hit_form, Some(*form), "{ctx}");
            assert_eq!(exact(&first), exact(&cold), "{ctx}");
            assert_eq!(exact(&hit), exact(&cold), "{ctx}");
            // Conversions count as before: one per row-major side.
            assert_eq!(hit_stats.sparse_converts, cold_stats.sparse_converts, "{ctx}");

            let (sl, sr_rel) = (store.shared("l").unwrap(), store.shared("r").unwrap());
            let mut cx = ExecContext::new(sr);
            let join_cold = ops::step(&mut cx, &[&l, &r], None, OpRepr::Sparse).unwrap();
            let join_hit = ops::step(&mut cx, &[sl, sr_rel], None, OpRepr::Sparse).unwrap();
            assert_eq!(exact(&join_hit), exact(&join_cold), "{ctx}");
            let lv = l.schema().vars().to_vec();
            let agg_cold = ops::step(&mut cx, &[&l], Some(&[lv[1]]), OpRepr::Sparse).unwrap();
            let agg_hit = ops::step(&mut cx, &[sl], Some(&[lv[1]]), OpRepr::Sparse).unwrap();
            assert_eq!(exact(&agg_hit), exact(&agg_cold), "{ctx}");
        }
    }
}

/// `set_measure` through copy-on-write (what `Database::update_measure`
/// does) keeps the memo: the next step is a hit and answers exactly like
/// a freshly loaded copy of the updated data. The old store still answers
/// from its own measures.
#[test]
fn measure_updates_keep_the_memo() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 6).unwrap();
    let b = cat.add_var("b", 6).unwrap();
    let c = cat.add_var("c", 6).unwrap();
    for sr in SemiringKind::ALL {
        let l = rel("l", vec![a, b], &[6, 6], 0.6, 1, sr);
        let r = rel("r", vec![b, c], &[6, 6], 0.6, 2, sr);
        let mut store = store_of(&[&l, &r]);
        let (before, ..) = step_in(sr, &store, &[c]);
        let old = store.clone();
        let rm = store.relation_mut("l").unwrap();
        for i in (0..rm.len()).step_by(3) {
            let m = if sr == SemiringKind::BoolOrAnd { 1.0 } else { rm.measure(i) + 0.25 };
            rm.set_measure(i, m);
        }
        let (after, stats, _, tag) = step_in(sr, &store, &[c]);
        assert_eq!(memo_counts(&stats), (2, 0), "sr {sr:?}: the memo survived the update");
        assert_eq!(tag, Some("memo"));
        let fresh = store_of(&[store.shared("l").unwrap(), &r]);
        let (want, fresh_stats, ..) = step_in(sr, &fresh, &[c]);
        assert_eq!(memo_counts(&fresh_stats), (0, 2));
        assert_eq!(exact(&after), exact(&want), "sr {sr:?}");
        let (old_answer, old_stats, ..) = step_in(sr, &old, &[c]);
        assert_eq!(memo_counts(&old_stats), (2, 0));
        assert_eq!(exact(&old_answer), exact(&before), "sr {sr:?}");
    }
}

/// A key mutation drops the mutated copy's memo (the next step rebuilds
/// its order and sees the new row); the store that still shares the
/// unmutated relation keeps hitting its memo.
#[test]
fn key_mutation_drops_the_memo() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 6).unwrap();
    let b = cat.add_var("b", 6).unwrap();
    let c = cat.add_var("c", 6).unwrap();
    let sr = SemiringKind::SumProduct;
    let l = rel("l", vec![a, b], &[6, 6], 0.5, 3, sr);
    let r = rel("r", vec![b, c], &[6, 6], 0.5, 4, sr);
    let mut store = store_of(&[&l, &r]);
    let (before, ..) = step_in(sr, &store, &[a]);
    let old = store.clone();
    let absent = (0..6u32)
        .flat_map(|x| (0..6u32).map(move |y| [x, y]))
        .find(|row| l.lookup(row).is_none())
        .unwrap();
    store.relation_mut("l").unwrap().push_row(&absent, 4.0).unwrap();
    let (after, stats, _, tag) = step_in(sr, &store, &[a]);
    assert_eq!(memo_counts(&stats), (1, 1), "l rebuilt, r still memoized");
    assert_eq!(tag, Some("built"));
    let (want, ..) = step(sr, &reloaded(store.shared("l").unwrap()), &r, &[a]);
    assert_eq!(exact(&after), exact(&want));
    let (old_answer, old_stats, ..) = step_in(sr, &old, &[a]);
    assert_eq!(memo_counts(&old_stats), (2, 0));
    assert_eq!(exact(&old_answer), exact(&before));
}

/// A stored relation holding a duplicate argument tuple memoizes nothing
/// and keeps falling back to the hash operator, every time.
#[test]
fn duplicate_keys_memoize_nothing_and_fall_back_to_hash() {
    let mut cat = Catalog::new();
    let x = cat.add_var("x", 4).unwrap();
    let y = cat.add_var("y", 4).unwrap();
    let z = cat.add_var("z", 4).unwrap();
    let mut dup = FunctionalRelation::new("l", Schema::new(vec![x, y]).unwrap());
    dup.push_row(&[1, 2], 2.0).unwrap();
    dup.push_row(&[3, 0], 1.0).unwrap();
    dup.push_row(&[1, 2], 3.0).unwrap();
    let mut other = FunctionalRelation::new("r", Schema::new(vec![y, z]).unwrap());
    other.push_row(&[2, 0], 5.0).unwrap();
    other.push_row(&[0, 1], 7.0).unwrap();
    let store = store_of(&[&dup, &other]);
    let bytes = store.shared("l").unwrap().heap_bytes();
    for sr in SemiringKind::ALL {
        let want = ops::join_group_by(&mut ExecContext::new(sr), &dup, &other, &[x]).unwrap();
        for _ in 0..2 {
            let (got, stats, ..) = step_in(sr, &store, &[x]);
            assert_eq!(exact(&got), exact(&want), "sr {sr:?}");
            assert_eq!(stats.sparse_joins, 0, "sr {sr:?}: hash fallback");
            assert_eq!(memo_counts(&stats), (0, 0), "sr {sr:?}");
        }
    }
    // Only the inferred domains were memoized, no order.
    let domains_bytes = 2 * std::mem::size_of::<u64>();
    assert_eq!(store.shared("l").unwrap().heap_bytes(), bytes + domains_bytes);
}

/// Two threads racing the first use of the same stored relations agree
/// bit for bit with cold keying, and leave one order per axis order
/// behind: the next step is a pure hit.
#[test]
fn racing_first_uses_agree() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 30).unwrap();
    let b = cat.add_var("b", 30).unwrap();
    let c = cat.add_var("c", 30).unwrap();
    let sr = SemiringKind::SumProduct;
    let l = rel("l", vec![a, b], &[30, 30], 0.4, 9, sr);
    let r = rel("r", vec![b, c], &[30, 30], 0.4, 10, sr);
    let (want, ..) = step(sr, &l, &r, &[a]);
    for _ in 0..8 {
        let store = store_of(&[&l, &r]);
        let (x, y) = std::thread::scope(|s| {
            let t1 = s.spawn(|| step_in(sr, &store, &[a]));
            let t2 = s.spawn(|| step_in(sr, &store, &[a]));
            (t1.join().unwrap(), t2.join().unwrap())
        });
        assert_eq!(exact(&x.0), exact(&want));
        assert_eq!(exact(&y.0), exact(&want));
        let (hits, builds) = (x.1.keyed_memo_hits + y.1.keyed_memo_hits, x.1.keyed_memo_builds + y.1.keyed_memo_builds);
        assert_eq!(hits + builds, 4);
        assert!(builds >= 2, "each side built at least once");
        let (again, stats, ..) = step_in(sr, &store, &[a]);
        assert_eq!(memo_counts(&stats), (2, 0));
        assert_eq!(exact(&again), exact(&want));
    }
}

/// A request whose domains are not the relation's own (a shared variable
/// widened to the other side's range) is keyed fresh, never memoized; the
/// other side still memoizes.
#[test]
fn widened_domains_are_keyed_fresh() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 6).unwrap();
    let b = cat.add_var("b", 6).unwrap();
    let c = cat.add_var("c", 6).unwrap();
    let sr = SemiringKind::SumProduct;
    let l = FunctionalRelation::from_rows(
        "l",
        Schema::new(vec![a, b]).unwrap(),
        [(vec![2, 1], 2.0), (vec![0, 3], 3.0), (vec![1, 1], 5.0)],
    )
    .unwrap();
    let r = FunctionalRelation::from_rows(
        "r",
        Schema::new(vec![b, c]).unwrap(),
        [(vec![5, 0], 7.0), (vec![1, 2], 11.0), (vec![3, 1], 13.0)],
    )
    .unwrap();
    let store = store_of(&[&l, &r]);
    let (cold, ..) = step(sr, &l, &r, &[c]);
    let (first, first_stats, ..) = step_in(sr, &store, &[c]);
    assert_eq!(memo_counts(&first_stats), (0, 1), "only r is keyed over its own domains");
    let (hit, hit_stats, ..) = step_in(sr, &store, &[c]);
    assert_eq!(memo_counts(&hit_stats), (1, 0));
    assert_eq!(exact(&first), exact(&cold));
    assert_eq!(exact(&hit), exact(&cold));
}

/// A grid keyed in its own odometer order has keys `0..len`: nothing is
/// built or memoized for it. Keyed in another order it memoizes like any
/// stored relation.
#[test]
fn grid_keys_in_schema_order_stay_implicit() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 5).unwrap();
    let b = cat.add_var("b", 7).unwrap();
    let c = cat.add_var("c", 3).unwrap();
    let sr = SemiringKind::SumProduct;
    let grid = FunctionalRelation::complete("l", Schema::new(vec![a, b]).unwrap(), &cat, |row| {
        1.0 + (row[0] * 7 + row[1]) as f64
    });
    let other = rel("r", vec![b, c], &[7, 3], 0.6, 11, sr);
    let other_a = rel("ra", vec![a, c], &[5, 3], 0.6, 12, sr);
    let mut store = store_of(&[&other, &other_a]);
    store.insert(grid.clone());
    let stored = store.shared("l").unwrap();
    // Grouping on `a` keys the grid as [b, a]: a real permutation.
    let (cold, ..) = step(sr, &grid, &other, &[a]);
    let (first, stats, ..) = step(sr, stored, store.shared("r").unwrap(), &[a]);
    assert_eq!(memo_counts(&stats), (0, 2));
    assert_eq!(exact(&first), exact(&cold));
    // Joined on `a` with `b` eliminated, the grid is keyed as [a, b]: its
    // own order, so only the other side builds (then hits) an order.
    let stored_a = store.shared("ra").unwrap();
    let (want, ..) = step(sr, &grid, &other_a, &[c]);
    for expected in [(0, 1), (1, 0)] {
        let (got, stats, ..) = step(sr, stored, stored_a, &[c]);
        assert_eq!(exact(&got), exact(&want));
        assert_eq!(memo_counts(&stats), expected);
    }
}

/// The same relation in coordinate form: its rows linearized over its
/// inferred domains, ascending — what a sparse kernel emits.
fn coords_of(r: &FunctionalRelation) -> FunctionalRelation {
    let doms = r.inferred_domains();
    let axes: Vec<(usize, u64)> = doms.iter().copied().enumerate().collect();
    let (order, _) = r.keyed_order(&axes).unwrap();
    let measures = order.gather(r.measures()).into_owned();
    FunctionalRelation::from_coords(
        r.name(),
        r.schema().clone(),
        doms,
        order.keys().to_vec(),
        measures,
    )
}

/// A complete relation in grid form with semiring-safe measures.
fn grid(name: &str, vars: Vec<VarId>, cat: &Catalog, sr: SemiringKind) -> FunctionalRelation {
    FunctionalRelation::complete(name, Schema::new(vars).unwrap(), cat, |row| {
        let c = row.iter().fold(0u64, |acc, &v| acc * 7 + u64::from(v));
        if sr == SemiringKind::BoolOrAnd {
            (c % 2) as f64
        } else {
            (c % 5 + 1) as f64 / 2.0
        }
    })
}

/// One elimination step three ways — on the operands as given (no memo),
/// then twice through a store holding them (first use, then a memo hit
/// where the store memoizes) — in the form `form`. All three agree bit
/// for bit, row order included, and equal the fused hash operator as
/// functions.
fn three_ways(
    sr: SemiringKind,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    gv: &[VarId],
    form: &str,
    ctx: &str,
) {
    let (cold, _, cold_form, _) = step(sr, l, r, gv);
    assert_eq!(cold_form, Some(form), "{ctx}");
    let mut store = RelationStore::new();
    store.insert(l.clone().without_keyed_memo().with_name("l"));
    store.insert(r.clone().without_keyed_memo().with_name("r"));
    for pass in ["first use", "memo hit"] {
        let (got, _, got_form, _) = step_in(sr, &store, gv);
        assert_eq!(got_form, Some(form), "{ctx} {pass}");
        assert_eq!(exact(&got), exact(&cold), "{ctx} {pass}");
    }
    let want = ops::join_group_by(&mut ExecContext::new(sr), l, r, gv).unwrap();
    assert!(want.function_eq_in(&cold, sr), "{ctx}");
}

/// The inputs a trie level has to get right at its edges — an empty side
/// (an evidence filter that kept nothing: zero inferred domains), axes of
/// one value, runs of one row on both sides, a shared domain widened by
/// the other side (keyed fresh every time), and grid and coordinate
/// sides keyed in their own and in a permuted order — in all seven
/// semirings and every fused form each reaches.
#[test]
fn trie_levels_hold_at_the_edges() {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 6).unwrap();
    let b = cat.add_var("b", 6).unwrap();
    let c = cat.add_var("c", 6).unwrap();
    let (u, v) = (cat.add_var("u", 1).unwrap(), cat.add_var("v", 1).unwrap());
    let (wa, wb, wd) = (
        cat.add_var("wa", 100).unwrap(),
        cat.add_var("wb", 4).unwrap(),
        cat.add_var("wd", 100).unwrap(),
    );
    for sr in SemiringKind::ALL {
        let l = rel("l", vec![a, b], &[6, 6], 0.5, 21, sr);
        let r = rel("r", vec![b, c], &[6, 6], 0.5, 22, sr);
        let nothing = ops::select_eq(&mut ExecContext::new(sr), &l, &[(a, 6)]).unwrap();
        assert!(nothing.is_empty() && nothing.inferred_domains() == [0, 0]);
        let nothing = nothing.with_name("l");
        let nothing_r = ops::select_eq(&mut ExecContext::new(sr), &r, &[(c, 6)])
            .unwrap()
            .with_name("r");
        // One value on `u` and `v`: every level over them is one run.
        let lu = rel("l", vec![u, a, b], &[1, 6, 6], 0.5, 23, sr);
        let rv = rel("r", vec![b, v], &[6, 1], 0.9, 24, sr);
        // `b` is a permutation of `a` on the left and of `c` on the right:
        // every shared-prefix run is one row.
        let perm = |name: &str, vars: Vec<VarId>, k: u32, salt: u32| {
            let rows = (0..6u32).map(|i| {
                let m = if sr == SemiringKind::BoolOrAnd {
                    f64::from((i + salt) % 2)
                } else {
                    f64::from(i + salt) / 2.0
                };
                let row = if k == 0 {
                    vec![i, (i * 5 + salt) % 6]
                } else {
                    vec![(i * 5 + salt) % 6, i]
                };
                (row, m)
            });
            FunctionalRelation::from_rows(name, Schema::new(vars).unwrap(), rows).unwrap()
        };
        let (l1, r1) = (perm("l", vec![a, b], 0, 1), perm("r", vec![b, c], 1, 2));
        // `b` reaches 5 on the right but only 2 on the left.
        let narrow = rel("l", vec![a, b], &[6, 3], 0.7, 25, sr);
        let g_ab = grid("l", vec![a, b], &cat, sr);
        let r_ac = rel("r", vec![a, c], &[6, 6], 0.5, 26, sr);
        let g_wide = grid("l", vec![wa, wb], &cat, sr);
        let r_wide = rel("r", vec![wb, wd], &[4, 100], 0.02, 27, sr);
        let (cl, cr, cr_ac) = (coords_of(&l), coords_of(&r), coords_of(&r_ac));
        let c_wide = coords_of(&rel("l", vec![wa, wb], &[100, 4], 0.5, 28, sr));

        let cases: Vec<(
            &str,
            &FunctionalRelation,
            &FunctionalRelation,
            Vec<VarId>,
            &str,
        )> = vec![
            ("empty left", &nothing, &r, vec![b], "stream"),
            ("empty left", &nothing, &r, vec![c], "scatter"),
            ("empty right", &l, &nothing_r, vec![a], "scatter"),
            ("empty right", &l, &nothing_r, vec![b], "stream"),
            ("one-value axes", &lu, &rv, vec![u], "scatter"),
            ("one-value axes", &lu, &rv, vec![v, a], "scatter"),
            ("one-value axes", &lu, &rv, vec![u, b], "stream"),
            ("runs of one", &l1, &r1, vec![b], "stream"),
            ("runs of one", &l1, &r1, vec![c, a], "scatter"),
            ("runs of one", &l1, &r1, vec![], "stream"),
            ("widened shared domain", &narrow, &r, vec![c], "scatter"),
            ("widened shared domain", &narrow, &r, vec![b, a], "stream"),
            ("grid, permuted", &g_ab, &r, vec![a], "scatter"),
            ("grid, permuted", &g_ab, &r, vec![b, a], "stream"),
            ("grid, own order", &g_ab, &r_ac, vec![b], "scatter"),
            ("grid, own order", &g_ab, &r_ac, vec![a, c, b], "stream"),
            ("grid, staged", &g_wide, &r_wide, vec![wa, wd], "staged"),
            ("coords, permuted", &cl, &cr, vec![a], "scatter"),
            ("coords, own order", &cr, &cl, vec![b], "stream"),
            ("coords, own order", &cl, &cr_ac, vec![c, b], "scatter"),
            ("coords, staged", &c_wide, &r_wide, vec![wa, wd], "staged"),
        ];
        for (name, l, r, gv, form) in &cases {
            three_ways(
                sr,
                l,
                r,
                gv,
                form,
                &format!("{name}: sr {sr:?} group {gv:?}"),
            );
        }
    }
}
