//! Property: `Database::run` from N threads on one shared instance,
//! racing snapshot-installing updates, returns answers bit-identical to
//! serial execution against the matching snapshot.
//!
//! Each catalog version `v` writes both base relations with a
//! version-specific measure in one atomic install. For every version we
//! precompute the answer on a fresh, serial database; every answer
//! observed concurrently must then equal one of those serial answers
//! bit-for-bit (`f64::to_bits`) — a torn read (half-installed version)
//! or cross-snapshot drift would produce a bit pattern outside the set.

use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use mpf_engine::{Database, Query};
use mpf_semiring::Combine;
use mpf_storage::{Catalog, FunctionalRelation, Schema, Value, VarId};
use proptest::prelude::*;

/// Both base relations at version `version` (measures depend on the
/// version and the row, so distinct versions give distinct answers).
fn version_relations(
    catalog: &Catalog,
    a: VarId,
    b: VarId,
    version: u32,
) -> [FunctionalRelation; 2] {
    let base = (2 * version + 1) as f64;
    [
        FunctionalRelation::complete("r1", Schema::new(vec![a, b]).unwrap(), catalog, move |r| {
            base + (r[0] * 2 + r[1]) as f64 / 8.0
        }),
        FunctionalRelation::complete("r2", Schema::new(vec![b]).unwrap(), catalog, move |r| {
            base * 0.5 + r[0] as f64 / 16.0
        }),
    ]
}

fn fresh_db(version: u32) -> Database {
    let db = Database::new();
    let a = db.add_var("a", 3).unwrap();
    let b = db.add_var("b", 3).unwrap();
    let catalog = db.catalog();
    let [r1, r2] = version_relations(&catalog, a, b, version);
    drop(catalog);
    db.insert_relation(r1).unwrap();
    db.insert_relation(r2).unwrap();
    db.create_view("v", &["r1", "r2"], Combine::Product).unwrap();
    db
}

/// Canonical bit-exact serialization of an answer: sorted rows with the
/// measure's raw bits.
fn canon(ans: &mpf_engine::Answer) -> Vec<(Vec<Value>, u64)> {
    let mut rows: Vec<(Vec<Value>, u64)> = ans
        .relation
        .rows()
        .map(|(row, m)| (row.to_vec(), m.to_bits()))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shared_instance_answers_match_serial_per_snapshot(
        versions in 2u32..6,
        readers in 2usize..5,
    ) {
        let query = Query::on("v").group_by(["a"]);

        // Serial ground truth, one isolated database per version.
        let mut expected: HashMap<Vec<(Vec<Value>, u64)>, u32> = HashMap::new();
        for v in 0..versions {
            let serial = canon(&fresh_db(v).run(&query).unwrap());
            prop_assert!(
                expected.insert(serial, v).is_none(),
                "versions must have distinct answers for the test to discriminate"
            );
        }

        // One shared instance: readers race a writer that installs
        // versions 1.. in order (version 0 is the seed state).
        let db = Arc::new(fresh_db(0));
        let a = db.catalog().var("a").unwrap();
        let b = db.catalog().var("b").unwrap();
        let writer = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for v in 1..versions {
                    let catalog = db.catalog();
                    let [r1, r2] = version_relations(&catalog, a, b, v);
                    drop(catalog);
                    db.mutate(|snap| {
                        snap.store_mut().insert(r1.clone());
                        snap.store_mut().insert(r2.clone());
                        Ok(())
                    })
                    .unwrap();
                    thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let (tx, rx) = mpsc::channel();
        for _ in 0..readers {
            let db = Arc::clone(&db);
            let query = query.clone();
            let tx = tx.clone();
            thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..30 {
                    seen.push(canon(&db.run(&query).unwrap()));
                }
                tx.send(seen).unwrap();
            });
        }
        drop(tx);

        let mut versions_seen = HashSet::new();
        for _ in 0..readers {
            let seen = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("reader finished without panic or deadlock");
            for answer in seen {
                match expected.get(&answer) {
                    Some(v) => {
                        versions_seen.insert(*v);
                    }
                    None => prop_assert!(
                        false,
                        "concurrent answer is not bit-identical to any serial snapshot answer: {answer:?}"
                    ),
                }
            }
        }
        writer.join().expect("writer clean");
        prop_assert!(!versions_seen.is_empty());

        // After the writer finishes, a fresh query must see the final
        // version exactly.
        let last = canon(&db.run(&query).unwrap());
        prop_assert_eq!(expected.get(&last), Some(&(versions - 1)));
    }
}

/// Readers racing `Database::update_measure` through a warm view cache:
/// resident trees are patched copy-on-write while readers serve from
/// them, so every concurrent answer must still be bit-identical to the
/// serial answer after *some* prefix of the updates — never a half-
/// patched tree — and no update may evict.
#[test]
fn readers_racing_point_updates_see_only_whole_versions() {
    let query = Query::on("v").group_by(["a"]);
    let updates = 48usize;
    // Update `i` halves or doubles one row of r1 (dyadic measures: every
    // patch ratio, sum and product is exact, so patched == recomputed).
    let step = |db: &Database, i: usize| {
        let (row, old) = {
            let r1 = db.relation("r1").unwrap();
            let at = (i * 5) % r1.len();
            (r1.row(at).to_vec(), r1.measure(at))
        };
        let new = if old >= 1.0 { old / 2.0 } else { old * 2.0 };
        db.update_measure("r1", &row, new).unwrap();
    };

    let serial = fresh_db(0);
    let mut expected = HashSet::from([canon(&serial.run(&query).unwrap())]);
    for i in 0..updates {
        step(&serial, i);
        expected.insert(canon(&serial.run(&query).unwrap()));
    }
    let last = canon(&serial.run(&query).unwrap());

    let db = Arc::new(fresh_db(0).with_cache_bytes(16 << 20));
    for _ in 0..3 {
        db.run(&query).unwrap();
    }
    assert!(db.run(&query).unwrap().cache.is_some(), "tree not resident");

    let readers = 3;
    let start = Arc::new(std::sync::Barrier::new(readers + 1));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let (db, query) = (Arc::clone(&db), query.clone());
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            thread::spawn(move || {
                start.wait();
                let mut seen = Vec::new();
                // Keep reading for as long as the writer writes.
                while !done.load(std::sync::atomic::Ordering::SeqCst) || seen.len() < 50 {
                    seen.push(canon(&db.run(&query).unwrap()));
                }
                seen
            })
        })
        .collect();
    start.wait();
    for i in 0..updates {
        step(&db, i);
    }
    done.store(true, std::sync::atomic::Ordering::SeqCst);

    for h in handles {
        for answer in h.join().expect("reader clean") {
            assert!(
                expected.contains(&answer),
                "concurrent answer matches no prefix of the updates: {answer:?}"
            );
        }
    }
    assert_eq!(canon(&db.run(&query).unwrap()), last);
    let vc = db.view_cache().unwrap();
    assert_eq!(vc.counter("patched"), updates as u64);
    assert_eq!(vc.counter("evictions"), 0);
}
