//! Chaos soak (requires `--features fault-injection`): N concurrent
//! tenants issue mixed queries and catalog updates against one server
//! while a chaos thread arms deterministic faults at operator and
//! catalog-install sites. The soak asserts the overload/fault contract:
//!
//! * zero panics and zero deadlocks (every worker finishes in time);
//! * every armed fault surfaces as a typed error to exactly one
//!   request (`ERR kind=fault` on the wire, `FaultInjected` for direct
//!   writers) — with the fallback chain disabled, nothing masks them;
//! * snapshot isolation holds: the writer installs *pairs* of relations
//!   whose measures are one prime `p` per version, so every answer row
//!   must equal `2·p²` for a successfully installed prime — a torn
//!   read across versions would show `2·p·q` (not a prime square), and
//!   a version whose install faulted must never be observable.
#![cfg(feature = "fault-injection")]

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mpf_algebra::fault;
use mpf_engine::{Database, DenseMode, EngineError, FallbackPolicy};
use mpf_semiring::Combine;
use mpf_serve::{ServeConfig, Server};
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};

const PRIMES: &[u32] = &[
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
];

/// Both soak relations with every measure set to `p`.
fn version_relations(catalog: &Catalog, a: VarId, b: VarId, p: u32) -> [FunctionalRelation; 2] {
    let m = p as f64;
    [
        FunctionalRelation::complete("r1", Schema::new(vec![a, b]).unwrap(), catalog, |_| m),
        FunctionalRelation::complete("r2", Schema::new(vec![b]).unwrap(), catalog, |_| m),
    ]
}

/// `m == 2·p²` for which prime `p`, if any.
fn prime_of_measure(m: f64) -> Option<u32> {
    PRIMES
        .iter()
        .copied()
        .find(|&p| m == 2.0 * (p as f64) * (p as f64))
}

#[test]
fn chaos_soak_holds_the_overload_and_isolation_contract() {
    fault::clear_all();
    // Sparse kernels + single-thread grants keep the operator fault
    // sites (`product_join`, `group_by`, ...) on every query's path;
    // concurrency comes from the tenants, not intra-query parallelism.
    // The view cache runs hot during the soak: repeated `v` queries
    // admit trees, every writer install (raw `mutate` → `Unknown`
    // event) evicts them, and faults consumed by cache builds or
    // cache-served answers must honor the same 1:1 accounting.
    let db = Database::new()
        .with_fallback(FallbackPolicy::none())
        .with_dense(DenseMode::Off)
        .with_cache_bytes(16 << 20);
    let a = db.add_var("a", 2).unwrap();
    let b = db.add_var("b", 2).unwrap();
    {
        let catalog = db.catalog();
        let [r1, r2] = version_relations(&catalog, a, b, PRIMES[0]);
        db.insert_relation(r1).unwrap();
        db.insert_relation(r2).unwrap();
    }
    db.create_view("v", &["r1", "r2"], Combine::Product).unwrap();
    let server = Server::new(db, ServeConfig::default());

    let installed = Arc::new(Mutex::new(HashSet::from([PRIMES[0]])));
    let failed = Arc::new(Mutex::new(HashSet::new()));
    // Typed fault errors observed, across wire responses and the direct
    // writer; the chaos thread compares this against what it armed.
    let observed_faults = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: installs version after version, each an atomic two-relation
    // swap. A `catalog::install` fault makes the whole install vanish.
    let writer = {
        let server = Arc::clone(&server);
        let installed = Arc::clone(&installed);
        let failed = Arc::clone(&failed);
        let observed = Arc::clone(&observed_faults);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 1;
            while !stop.load(Ordering::SeqCst) {
                let p = PRIMES[i % PRIMES.len()];
                let db = server.db();
                let catalog = db.catalog();
                let [r1, r2] = version_relations(&catalog, a, b, p);
                drop(catalog);
                // Register the version before installing it: a reader may
                // see the new snapshot before `mutate` returns here.
                let fresh = installed.lock().unwrap().insert(p);
                match db.mutate(|snap| {
                    snap.store_mut().insert(r1.clone());
                    snap.store_mut().insert(r2.clone());
                    Ok(())
                }) {
                    Ok(()) => {}
                    Err(EngineError::Algebra(mpf_algebra::AlgebraError::FaultInjected(_))) => {
                        observed.fetch_add(1, Ordering::SeqCst);
                        if fresh {
                            installed.lock().unwrap().remove(&p);
                        }
                        failed.lock().unwrap().insert(p);
                    }
                    Err(e) => panic!("unexpected writer error: {e}"),
                }
                i += 1;
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Tenants: mixed reads and DDL through the service protocol.
    let tenants = 4;
    let queries_per_tenant = 250;
    let (done_tx, done_rx) = mpsc::channel();
    for t in 0..tenants {
        let server = Arc::clone(&server);
        let installed = Arc::clone(&installed);
        let failed = Arc::clone(&failed);
        let observed = Arc::clone(&observed_faults);
        let done = done_tx.clone();
        thread::spawn(move || {
            for i in 0..queries_per_tenant {
                let req = if i % 10 == 7 {
                    // Concurrent catalog installs through the service.
                    format!(
                        "QUERY t{t} create mpfview soak_{t}_{i} as \
                         (select a, b, measure = (* r1.f, r2.f) from r1, r2)"
                    )
                } else {
                    format!("QUERY t{t} select a, sum(f) from v group by a")
                };
                let (lines, _) = server.handle_line(&req);
                let head = &lines[0];
                if head.starts_with("OK rows=") {
                    // Snapshot isolation: every row of one answer comes
                    // from one installed version.
                    let primes: Vec<u32> = lines
                        .iter()
                        .filter(|l| l.starts_with("ROW "))
                        .map(|l| {
                            let m: f64 =
                                l.rsplit("m=").next().unwrap().trim().parse().unwrap();
                            prime_of_measure(m).unwrap_or_else(|| {
                                panic!("torn measure {m}: not 2·p² for any version prime")
                            })
                        })
                        .collect();
                    if let Some(&first) = primes.first() {
                        assert!(
                            primes.iter().all(|&p| p == first),
                            "one answer mixed versions: {primes:?}"
                        );
                        assert!(
                            installed.lock().unwrap().contains(&first),
                            "answer shows prime {first} that was never installed"
                        );
                        assert!(
                            !failed.lock().unwrap().contains(&first)
                                || installed.lock().unwrap().contains(&first),
                            "answer shows prime {first} whose install faulted"
                        );
                    }
                } else if head.starts_with("OK view=") {
                    // DDL succeeded.
                } else if head.starts_with("ERR kind=fault") {
                    observed.fetch_add(1, Ordering::SeqCst);
                } else {
                    // Under chaos the only other acceptable outcomes are
                    // typed load sheds and deadline trips.
                    assert!(
                        head.starts_with("ERR kind=queue-full")
                            || head.starts_with("ERR kind=admission-deadline")
                            || head.starts_with("ERR kind=budget-deadline"),
                        "unexpected response: {head}"
                    );
                }
                thread::sleep(Duration::from_millis(1));
            }
            done.send(t).unwrap();
        });
    }
    drop(done_tx);

    // Chaos: arm one fault at a time and wait until exactly one request
    // reports it; sites cover operators and the catalog install point.
    let chaos = {
        let observed = Arc::clone(&observed_faults);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            // Alternate the always-hit install site with a rotation of
            // operator sites; a site the current plan shape never
            // reaches is cleared after the wait timeout and not counted.
            let query_sites = ["product_join", "group_by"];
            let mut armed_fired = 0usize;
            let mut s = 0;
            while !stop.load(Ordering::SeqCst) {
                let site = if s % 2 == 0 {
                    "catalog::install"
                } else {
                    query_sites[(s / 2) % query_sites.len()]
                };
                s += 1;
                let before = observed.load(Ordering::SeqCst);
                fault::inject(site, 1);
                let t0 = Instant::now();
                loop {
                    if observed.load(Ordering::SeqCst) > before {
                        armed_fired += 1;
                        break;
                    }
                    if t0.elapsed() > Duration::from_millis(400) || stop.load(Ordering::SeqCst) {
                        fault::clear(site);
                        // The arm may have fired in the clear race;
                        // give the losing request a moment to report.
                        thread::sleep(Duration::from_millis(100));
                        if observed.load(Ordering::SeqCst) > before {
                            armed_fired += 1;
                        }
                        break;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                thread::sleep(Duration::from_millis(3));
            }
            armed_fired
        })
    };

    // Zero deadlocks: every tenant finishes within the soak budget.
    for _ in 0..tenants {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("tenant finished without panic or deadlock");
    }
    stop.store(true, Ordering::SeqCst);
    let armed_fired = chaos.join().expect("chaos thread clean");
    writer.join().expect("writer clean");

    // Every fault that fired surfaced as a typed error to exactly one
    // request: the registry disarms on fire (at-most-once) and the
    // chaos thread saw each arm consumed (at-least-once).
    assert_eq!(
        observed_faults.load(Ordering::SeqCst),
        armed_fired,
        "armed faults and observed typed fault errors must match 1:1"
    );
    assert!(armed_fired > 0, "the soak exercised at least one fault");
    assert_eq!(server.admission().inflight(), 0, "all grants returned");
    let (m, _) = server.handle_line("METRICS");
    assert!(m[1].contains("serve.query"), "metrics survived the soak");
    assert!(
        m[1].contains("engine.cache."),
        "cache counters missing from METRICS after a cached soak"
    );
    let vc = server.db().view_cache().expect("soak ran with a cache");
    assert!(vc.counter("misses") > 0, "the soak never exercised the cache");
    fault::clear_all();
}
