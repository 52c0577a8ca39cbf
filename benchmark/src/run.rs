//! Set-up, the closed-loop timed window, and the end-to-end metrics.

use std::io;
use std::time::{Duration, Instant};

use mpf_engine::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{Checker, Mode};
use crate::oracle::Oracle;
use crate::service::{generate, load, Data, Service, TENANT};
use crate::stats::{median, percentile, supported_tails};
use crate::wire::{Acks, Conn};
use crate::workload::{Draw, Workload};

/// How a run is sized. `--smoke` shrinks everything so the harness's own
/// tests and a smoke run finish in under a minute.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Length of the timed window (and of the traced replay).
    pub window: Duration,
    /// Load applied after set-up and before the window, unmeasured, so
    /// the window starts on warm CPU caches and a grown heap.
    pub settle: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests of the traced replay whose spans are written out.
    pub traced_requests: usize,
}

impl Sizing {
    pub fn full(seconds: f64) -> Sizing {
        Sizing {
            window: Duration::from_secs_f64(seconds),
            settle: Duration::from_secs(2),
            setups: 5,
            traced_requests: 300,
        }
    }

    pub fn smoke() -> Sizing {
        Sizing {
            window: Duration::from_secs(2),
            settle: Duration::from_millis(200),
            setups: 1,
            traced_requests: 30,
        }
    }
}

/// The writer's fixed schedule in `update_storm`: open loop, so a faster
/// write path does not change the read/write mix.
pub const UPDATE_INTERVAL: Duration = Duration::from_millis(250);
/// The other workloads probe update latency on the idle service after
/// their window: updates back to back (pauses between them would let the
/// processor idle down and time its wake-up instead) for this long.
const PROBE_LENGTH: Duration = Duration::from_millis(500);

/// A warmed service with its client connections.
pub struct Ready {
    pub data: Data,
    pub pool: Vec<String>,
    /// `QUERY <tenant> <sql>` per pool statement.
    pub lines: Vec<String>,
    pub service: Service,
    pub conns: Vec<Conn>,
}

/// Seconds spent in each set-up step.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub load_s: f64,
    pub warm_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.datagen_s + self.load_s + self.warm_s
    }
}

/// Generate, load, define views, bind, connect and warm: everything
/// between process start and a service ready for its timed window.
pub fn set_up(w: Workload, seed: u64) -> io::Result<(Ready, SetupTimes)> {
    let t0 = Instant::now();
    let data = generate(seed);
    let t1 = Instant::now();
    let db = load(data.catalog.clone(), data.store.clone(), w.cache_bytes());
    let service = Service::start(db)?;
    let conns = (0..w.connections())
        .map(|_| Conn::connect(service.addr, Acks::Prompt))
        .collect::<io::Result<Vec<_>>>()?;
    let t2 = Instant::now();
    let pool = w.pool(&data, seed);
    let lines = pool
        .iter()
        .map(|sql| format!("QUERY {TENANT} {sql}"))
        .collect();
    let mut ready = Ready {
        data,
        pool,
        lines,
        service,
        conns,
    };
    warm(w, &mut ready)?;
    let t3 = Instant::now();
    let times = SetupTimes {
        datagen_s: (t1 - t0).as_secs_f64(),
        load_s: (t2 - t1).as_secs_f64(),
        warm_s: (t3 - t2).as_secs_f64(),
    };
    Ok((ready, times))
}

/// Untimed passes over the pool: one, and with a view cache as many more
/// as it takes for a whole pass to be served without a miss.
fn warm(w: Workload, ready: &mut Ready) -> io::Result<()> {
    const MAX_PASSES: usize = 8;
    let metrics = ready.service.server.metrics().clone();
    let mut reply = Vec::new();
    for pass in 0..MAX_PASSES {
        let misses_before = metrics.counter("engine.cache.misses");
        let n = ready.conns.len();
        let conn = &mut ready.conns[pass % n];
        for line in &ready.lines {
            conn.round_trip(line, &mut reply)?;
            if !reply.starts_with(b"OK ") {
                return Err(io::Error::other(format!(
                    "warm-up `{line}` answered {}",
                    String::from_utf8_lossy(&reply).trim_end()
                )));
            }
        }
        if w.cache_bytes() == 0 || metrics.counter("engine.cache.misses") == misses_before {
            return Ok(());
        }
    }
    Err(io::Error::other(format!(
        "view cache still missing after {MAX_PASSES} warm-up passes"
    )))
}

impl Ready {
    /// Close the connections and drain the service.
    pub fn tear_down(self) -> io::Result<()> {
        drop(self.conns);
        self.service.stop()
    }
}

/// One update's timing against its schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateSample {
    /// Completion time minus the time the update was due: what a caller
    /// who asked on schedule waited, including any stall before it began.
    pub latency_ms: f64,
    /// How late the generator began the update.
    pub lag_ms: f64,
}

/// Run `op` on a fixed schedule: `interval` apart from `start`, for every
/// due time before `until`. Never skips a slot: after a stall the overdue
/// runs follow back to back, each timed from when it was due.
pub fn paced(
    start: Instant,
    interval: Duration,
    until: Instant,
    mut op: impl FnMut(),
) -> Vec<UpdateSample> {
    let mut samples = Vec::new();
    let mut due = start;
    while due < until {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let begun = Instant::now();
        op();
        let done = Instant::now();
        samples.push(UpdateSample {
            latency_ms: (done - due).as_secs_f64() * 1e3,
            lag_ms: (begun - due).as_secs_f64() * 1e3,
        });
        due += interval;
    }
    samples
}

/// Seeded point updates of `contracts`: a random existing row, its
/// current measure times a ratio in `[0.5, 2)`.
pub struct Updater<'a> {
    db: &'a Database,
    rows: Vec<([u32; 2], f64)>,
    rng: StdRng,
    pub failed: u64,
}

impl<'a> Updater<'a> {
    pub fn new(db: &'a Database, data: &Data, seed: u64) -> Updater<'a> {
        Updater {
            db,
            rows: data.contracts.clone(),
            rng: StdRng::seed_from_u64(seed ^ 0x0bad_cafe),
            failed: 0,
        }
    }

    pub fn update(&mut self) {
        let i = self.rng.random_range(0..self.rows.len());
        let ratio: f64 = self.rng.random_range(0.5..2.0);
        let (row, measure) = &mut self.rows[i];
        *measure *= ratio;
        if self
            .db
            .update_measure("contracts", row.as_slice(), *measure)
            .is_err()
        {
            self.failed += 1;
        }
    }
}

/// What the timed window observed.
pub struct Window {
    pub elapsed: Duration,
    /// Round-trip latency of every answered request.
    pub latencies_ms: Vec<f64>,
    pub checker: Checker,
    pub updates: Vec<UpdateSample>,
    pub updates_failed: u64,
}

/// Drive the service for `length`: every connection in a closed loop over
/// its own seeded walk of the pool, plus the paced writer when
/// `with_writer`.
pub fn drive(ready: &mut Ready, length: Duration, seed: u64, with_writer: bool) -> Window {
    let mode = Mode::while_writing(with_writer);
    let pool_len = ready.pool.len();
    let lines = &ready.lines;
    let db = ready.service.server.db();
    let data = &ready.data;
    let start = Instant::now();
    let deadline = start + length;
    let mut window = Window {
        elapsed: Duration::ZERO,
        latencies_ms: Vec::new(),
        checker: Checker::new(pool_len, mode),
        updates: Vec::new(),
        updates_failed: 0,
    };
    std::thread::scope(|scope| {
        let readers: Vec<_> = ready
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut checker = Checker::new(pool_len, mode);
                    let mut latencies = Vec::new();
                    let mut reply = Vec::new();
                    let draw = Draw::new(pool_len, seed.wrapping_mul(31).wrapping_add(c as u64));
                    for idx in draw {
                        let sent = Instant::now();
                        if sent >= deadline {
                            break;
                        }
                        let outcome = conn.round_trip(&lines[idx], &mut reply);
                        let latency = sent.elapsed();
                        checker.observe(idx, &outcome, &reply);
                        match outcome {
                            Ok(()) => latencies.push(latency.as_secs_f64() * 1e3),
                            // The connection is in an unknown state.
                            Err(_) => break,
                        }
                    }
                    (checker, latencies)
                })
            })
            .collect();
        if with_writer {
            let mut updater = Updater::new(db, data, seed);
            window.updates = paced(start, UPDATE_INTERVAL, deadline, || updater.update());
            window.updates_failed = updater.failed;
        }
        for reader in readers {
            let (checker, latencies) = reader.join().expect("reader thread panicked");
            window.checker.merge(checker);
            window.latencies_ms.extend(latencies);
        }
    });
    window.elapsed = start.elapsed();
    window
}

/// Update latency on the idle service, for the workloads without a
/// writer of their own.
pub fn probe_updates(ready: &Ready, seed: u64) -> (Vec<UpdateSample>, u64) {
    let mut updater = Updater::new(ready.service.server.db(), &ready.data, seed);
    let mut samples = Vec::new();
    let deadline = Instant::now() + PROBE_LENGTH;
    while Instant::now() < deadline {
        let begun = Instant::now();
        updater.update();
        samples.push(UpdateSample {
            latency_ms: begun.elapsed().as_secs_f64() * 1e3,
            lag_ms: 0.0,
        });
    }
    (samples, updater.failed)
}

/// After a writer stops: ask the whole pool once more, to be held to a
/// cold recompute on the final snapshot. This is also what bounds the
/// drift of repeated ratio patches of resident trees.
fn recheck_after_writes(ready: &mut Ready) -> Checker {
    let mut checker = Checker::new(ready.pool.len(), Mode::Exact);
    let mut reply = Vec::new();
    for (idx, line) in ready.lines.iter().enumerate() {
        let outcome = ready.conns[0].round_trip(line, &mut reply);
        checker.observe(idx, &outcome, &reply);
    }
    checker
}

/// Close the service and hold everything `checker` saw to the oracle:
/// over the generated relations, or — after a writer — over the final
/// snapshot, to which the whole pool is then held once more. Returns
/// `(attempted, failed, notes)`.
pub fn tear_down_and_verify(
    w: Workload,
    mut ready: Ready,
    checker: Checker,
) -> Result<(u64, u64, Vec<String>), String> {
    let mut checkers = vec![checker];
    let tri = ready.data.tri.clone();
    let oracle = if w.has_writer() {
        checkers.push(recheck_after_writes(&mut ready));
        let snap = ready.service.server.db().snapshot();
        Oracle::new(snap.catalog().clone(), snap.store().clone(), tri)
    } else {
        // Not the snapshot: the idle update probe has changed it since.
        Oracle::new(ready.data.catalog.clone(), ready.data.store.clone(), tri)
    };
    let pool = std::mem::take(&mut ready.pool);
    ready.tear_down().map_err(|e| e.to_string())?;
    let (mut attempted, mut failed, mut notes) = (0, 0, Vec::new());
    for checker in checkers {
        let (a, f, n) = checker.verify(&pool, &oracle)?;
        attempted += a;
        failed += f;
        notes.extend(n);
    }
    Ok((attempted, failed, notes))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Everything one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract metrics (`end_to_end` or `per_layer`), by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Informational values, printed and recorded but not gated.
    pub info: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The untraced run: set up `sizing.setups` times, settle, measure one
/// window, then verify every reply.
pub fn end_to_end(w: Workload, seed: u64, sizing: Sizing) -> Result<Report, String> {
    let io_err = |e: io::Error| e.to_string();
    let (mut ready, first_setup) = set_up(w, seed).map_err(io_err)?;
    let mut setup_s = vec![first_setup.total_s()];

    drive(&mut ready, sizing.settle, seed ^ 0x5e771e, false);
    let sheds_before = ready.service.server.metrics().counter("serve.shed");
    let window = drive(&mut ready, sizing.window, seed, w.has_writer());
    // Read before the idle update probe, whose tree patching is not
    // part of this workload's serving footprint.
    let peak_rss = peak_rss_mb().map_err(io_err)?;
    let (updates, updates_failed) = if w.has_writer() {
        (window.updates, window.updates_failed)
    } else {
        probe_updates(&ready, seed)
    };
    let sheds = ready.service.server.metrics().counter("serve.shed") - sheds_before;

    // Verification starts here, after the memory high-water mark is read.
    let reply_variants = window.checker.reply_variants();
    let (attempted, failed, notes) = tear_down_and_verify(w, ready, window.checker)?;
    let attempted = attempted + updates.len() as u64;
    let failed = failed + updates_failed;

    // The remaining set-ups only time set-up. They come last so that the
    // memory high-water mark above is that of one service, not of five.
    for _ in 1..sizing.setups {
        let (again, times) = set_up(w, seed).map_err(io_err)?;
        setup_s.push(times.total_s());
        again.tear_down().map_err(io_err)?;
    }

    let latencies = sorted(window.latencies_ms);
    let update_latencies = sorted(updates.iter().map(|u| u.latency_ms).collect());
    if latencies.is_empty() || update_latencies.is_empty() {
        return Err("the window answered no request or ran no update".into());
    }
    let answered = latencies.len() as f64;
    let metrics = vec![
        ("throughput_qps", answered / window.elapsed.as_secs_f64()),
        ("query_p50_ms", percentile(&latencies, 0.50)),
        ("query_p90_ms", percentile(&latencies, 0.90)),
        ("update_p50_ms", percentile(&update_latencies, 0.50)),
        ("peak_rss_mb", peak_rss),
        ("setup_s", median(&setup_s)),
    ];
    let mut info = vec![
        ("query_samples".to_string(), answered),
        ("update_samples".to_string(), update_latencies.len() as f64),
        ("error_rate".to_string(), failed as f64 / attempted as f64),
        ("sheds".to_string(), sheds as f64),
        ("reply_variants".to_string(), reply_variants as f64),
        ("window_s".to_string(), window.elapsed.as_secs_f64()),
        (
            "writer_lag_ms_max".to_string(),
            updates.iter().map(|u| u.lag_ms).fold(0.0, f64::max),
        ),
        (
            "query_mean_ms".to_string(),
            latencies.iter().sum::<f64>() / answered,
        ),
    ];
    for (samples, prefix) in [(&latencies, "query"), (&update_latencies, "update")] {
        for (label, q) in supported_tails(samples.len()) {
            let name = format!("{prefix}_{label}_ms");
            if metrics.iter().all(|(gated, _)| *gated != name) {
                info.push((name, percentile(samples, q)));
            }
        }
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_are_timed_from_when_they_were_due() {
        // Each update takes 30 ms on a 10 ms schedule, so update k begins
        // at least 30k ms after start but was due 10k ms after it.
        let start = Instant::now();
        let samples = paced(
            start,
            Duration::from_millis(10),
            start + Duration::from_millis(25),
            || std::thread::sleep(Duration::from_millis(30)),
        );
        assert_eq!(samples.len(), 3);
        assert!(samples[0].latency_ms >= 30.0, "{samples:?}");
        assert!(
            samples[1].latency_ms >= 50.0 && samples[1].lag_ms >= 20.0,
            "{samples:?}"
        );
        assert!(
            samples[2].latency_ms >= 70.0 && samples[2].lag_ms >= 40.0,
            "{samples:?}"
        );
    }

    #[test]
    fn on_time_updates_report_their_own_duration() {
        let start = Instant::now();
        let samples = paced(
            start,
            Duration::from_millis(20),
            start + Duration::from_millis(50),
            || std::thread::sleep(Duration::from_millis(2)),
        );
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(
                s.lag_ms >= 0.0 && s.latency_ms >= s.lag_ms + 2.0,
                "{samples:?}"
            );
        }
    }
}
