//! The traced run: per-layer metrics, taken from outside the program.
//!
//! One thread replays the workload's pool, first over TCP in the same
//! closed loop as the end-to-end run, then once per layer boundary the
//! public API exposes — `Server::handle_line`, `Request::parse`,
//! `parser::parse` and `Database::run` (untraced, then with
//! `TraceLevel::Spans`) — with a span around each call. A nested span's
//! duration is measured; its position inside its parent is laid out (the
//! calls are separate executions of the same request), so a layer's self
//! time is its span minus the children laid out inside it.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use mpf_engine::parser::{parse, Statement};
use mpf_engine::{QueryRequest, TraceLevel, TraceSpan};
use mpf_semiring::Aggregate;
use mpf_serve::protocol::Request;

use crate::check::{Checker, Mode};
use crate::run::{set_up, tear_down_and_verify, Report, Sizing, Updater, UPDATE_INTERVAL};
use crate::service::{db_heap_bytes, query_limits};
use crate::stats::median;
use crate::trace::{self_times, write_jsonl, Span};
use crate::wire::{Acks, Conn};
use crate::workload::{Draw, Workload};

/// Updates timed on the idle service by the workloads without a writer.
const IDLE_UPDATES: usize = 30;
/// Elimination-tree builds timed for `infer.tree_build_us`.
const TREE_BUILDS: usize = 3;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Appends one request's spans, nesting each under the span that caused
/// it.
struct RequestSpans {
    req: u64,
    spans: Vec<Span>,
}

impl RequestSpans {
    fn push(&mut self, parent: Option<u32>, name: &str, start_us: f64, duration_us: f64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req: self.req,
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us: start_us + duration_us.max(0.0),
        });
        id
    }

    /// Operator spans of an `Answer::trace`, laid out back to back from
    /// `start_us` under `parent`.
    fn push_operators(&mut self, parent: u32, spans: &[TraceSpan], mut start_us: f64) {
        for s in spans {
            let kind = if s.fused { "join_agg" } else { s.kind.name() };
            let name = format!("algebra.op.{kind}.{}", s.repr.name());
            let id = self.push(Some(parent), &name, start_us, us(s.elapsed));
            self.push_operators(id, &s.children, start_us);
            start_us += us(s.elapsed);
        }
    }
}

/// Samples per metric, one per replayed request.
#[derive(Default)]
struct Samples {
    roundtrip: Vec<f64>,
    transport: Vec<f64>,
    wire_parse: Vec<f64>,
    serve_self: Vec<f64>,
    sql_parse: Vec<f64>,
    engine_self: Vec<f64>,
    run: Vec<f64>,
    run_traced: Vec<f64>,
    optimize: Vec<f64>,
    execute: Vec<f64>,
    join: Vec<f64>,
    group_by: Vec<f64>,
    join_agg: Vec<f64>,
    dense_us: f64,
    sparse_us: f64,
    operator_us: f64,
    converts: u64,
    kernel_ops: u64,
    rows_processed: u64,
    max_intermediate_rows: u64,
    answer_rows: u64,
}

impl Samples {
    /// Fold one request's spans into the per-layer samples.
    fn absorb(&mut self, spans: &[Span]) {
        let selfs = self_times(spans);
        let (mut join, mut group_by, mut join_agg) = (0.0, 0.0, 0.0);
        for (s, self_us) in spans.iter().zip(selfs) {
            match s.name.as_str() {
                "wire.roundtrip" => {
                    self.roundtrip.push(s.duration_us());
                    self.transport.push(self_us);
                }
                "serve.handle_line" => self.serve_self.push(self_us),
                "serve.wire_parse" => self.wire_parse.push(s.duration_us()),
                "engine.sql_parse" => self.sql_parse.push(s.duration_us()),
                "engine.run" => {
                    self.run.push(s.duration_us());
                    self.engine_self.push(self_us);
                }
                "optimizer.optimize" => self.optimize.push(s.duration_us()),
                "algebra.execute" => self.execute.push(s.duration_us()),
                op => {
                    let Some(rest) = op.strip_prefix("algebra.op.") else {
                        continue;
                    };
                    let (kind, repr) = rest.split_once('.').unwrap_or((rest, ""));
                    match kind {
                        "join" => join += self_us,
                        "group_by" => group_by += self_us,
                        "join_agg" => join_agg += self_us,
                        _ => {}
                    }
                    self.operator_us += self_us;
                    match repr {
                        "dense" => self.dense_us += self_us,
                        "sparse" => self.sparse_us += self_us,
                        _ => {}
                    }
                }
            }
        }
        self.join.push(join);
        self.group_by.push(group_by);
        self.join_agg.push(join_agg);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run of one workload. Writes `trace-<workload>.jsonl` into
/// the existing directory `out_dir`.
pub fn per_layer(w: Workload, seed: u64, sizing: Sizing, out_dir: &Path) -> Result<Report, String> {
    let io_err = |e: io::Error| e.to_string();
    let (mut ready, setup) = set_up(w, seed).map_err(io_err)?;
    let server = ready.service.server.clone();
    let db = server.db().clone();
    let metrics = server.metrics().clone();
    let limits = query_limits();
    let counter = |name: &str| metrics.counter(name) as f64;
    let counters_before = COUNTERS.map(counter);

    let mut checker = Checker::new(ready.pool.len(), Mode::while_writing(w.has_writer()));
    let mut samples = Samples::default();
    let mut kept: Vec<Span> = Vec::new();
    let mut updater = Updater::new(&db, &ready.data, seed);
    let mut update_us: Vec<f64> = Vec::new();
    let mut timed_update = |updater: &mut Updater| {
        let t = Instant::now();
        updater.update();
        update_us.push(us(t.elapsed()));
    };
    let mut reply = Vec::new();
    let began = Instant::now();
    let mut next_update = began;
    // The writer's schedule, run between requests: its cost is taken
    // with no reader running.
    let mut update_if_due = |updater: &mut Updater| {
        if w.has_writer() && Instant::now() >= next_update {
            timed_update(updater);
            next_update += UPDATE_INTERVAL;
        }
    };

    // First the wire, in the closed loop the end-to-end run uses: how a
    // socket behaves depends on the gaps between its requests, so the
    // in-process probes must not sit between them.
    let mut closed_loop = |conn: &mut Conn, length: Duration, at_most: usize| {
        let deadline = Instant::now() + length;
        let mut trips: Vec<(usize, Instant, Duration)> = Vec::new();
        for idx in Draw::new(ready.pool.len(), seed).take(at_most) {
            if Instant::now() >= deadline && trips.len() >= ready.pool.len() {
                break;
            }
            update_if_due(&mut updater);
            let t0 = Instant::now();
            let outcome = conn.round_trip(&ready.lines[idx], &mut reply);
            trips.push((idx, t0, t0.elapsed()));
            checker.observe(idx, &outcome, &reply);
            if outcome.is_err() {
                break;
            }
        }
        trips
    };
    let on_wire = closed_loop(&mut ready.conns[0], sizing.window / 3, usize::MAX);
    // The same walk from a client that leaves acknowledgement to its
    // kernel: what it waits longer is the delayed-ACK stall.
    let mut plain = Conn::connect(ready.service.addr, Acks::Kernel).map_err(io_err)?;
    let plain_trips = closed_loop(&mut plain, sizing.window / 6, on_wire.len());
    drop(plain);
    let stall_us: Vec<f64> = plain_trips
        .iter()
        .zip(&on_wire)
        .map(|(plain, prompt)| us(plain.2) - us(prompt.2))
        .collect();

    // Then the same requests again, once per layer boundary.
    let deadline = Instant::now() + sizing.window / 2;
    for (req, &(idx, t0, roundtrip)) in on_wire.iter().enumerate() {
        if Instant::now() >= deadline && req >= ready.pool.len() {
            break;
        }
        update_if_due(&mut updater);
        let line = &ready.lines[idx];
        let sql = &ready.pool[idx];

        let t = Instant::now();
        let (lines_out, _) = server.handle_line(line);
        let handle = t.elapsed();
        samples.answer_rows += lines_out.len().saturating_sub(2) as u64;

        let t = Instant::now();
        let parsed = Request::parse(line);
        let wire_parse = t.elapsed();
        std::hint::black_box(&parsed);

        let t = Instant::now();
        let statement = parse(sql);
        let sql_parse = t.elapsed();
        let Ok(Statement::Select(query)) = statement else {
            return Err(format!("pool statement `{sql}` is not a select"));
        };

        let t = Instant::now();
        let answer = db
            .run(QueryRequest::from(query.clone()).limits(limits.clone()))
            .map_err(|e| format!("`{sql}`: {e}"))?;
        let run = t.elapsed();

        let t = Instant::now();
        let traced = db
            .run(
                QueryRequest::from(query)
                    .limits(limits.clone())
                    .trace(TraceLevel::Spans),
            )
            .map_err(|e| format!("`{sql}` traced: {e}"))?;
        samples.run_traced.push(us(t.elapsed()));

        let stats = &answer.stats;
        samples.converts += stats.dense_converts + stats.sparse_converts;
        samples.kernel_ops +=
            stats.dense_joins + stats.dense_group_bys + stats.sparse_joins + stats.sparse_group_bys;
        samples.rows_processed += stats.rows_processed;
        samples.max_intermediate_rows = samples
            .max_intermediate_rows
            .max(stats.max_intermediate_rows);

        // Lay the measured durations out as one nested timeline. The
        // transport's two legs flank the server's handling; everything
        // else runs back to back from its parent's start.
        let mut spans = RequestSpans {
            req: req as u64,
            spans: Vec::new(),
        };
        let at = us(t0 - began);
        let wire = spans.push(None, "wire.roundtrip", at, us(roundtrip));
        let handle_at = at + (us(roundtrip) - us(handle)).max(0.0) / 2.0;
        let handled = spans.push(Some(wire), "serve.handle_line", handle_at, us(handle));
        spans.push(Some(handled), "serve.wire_parse", handle_at, us(wire_parse));
        let sql_at = handle_at + us(wire_parse);
        spans.push(Some(handled), "engine.sql_parse", sql_at, us(sql_parse));
        let run_at = sql_at + us(sql_parse);
        let ran = spans.push(Some(handled), "engine.run", run_at, us(run));
        spans.push(
            Some(ran),
            "optimizer.optimize",
            run_at,
            us(answer.optimize_time),
        );
        let exec_at = run_at + us(answer.optimize_time);
        let executed = spans.push(
            Some(ran),
            "algebra.execute",
            exec_at,
            us(answer.execute_time),
        );
        if let Some(tree) = &traced.trace {
            spans.push_operators(executed, &tree.roots, exec_at);
        }
        samples.absorb(&spans.spans);
        if req < sizing.traced_requests {
            kept.extend(spans.spans);
        }
    }
    let requests = samples.roundtrip.len();
    if requests == 0 {
        return Err("the replay answered no request".into());
    }

    let [ok, err, shed, hits, misses, patched_in_replay, evictions] =
        std::array::from_fn(|i| counter(COUNTERS[i]) - counters_before[i]);

    // Update cost on the idle service, where no writer ran in the replay.
    let mut patched = patched_in_replay;
    if !w.has_writer() {
        let before = counter("engine.cache.patched");
        for _ in 0..IDLE_UPDATES {
            timed_update(&mut updater);
        }
        // The registry only refreshes its cache gauges on a query.
        let _ = server.handle_line(&ready.lines[0]);
        patched = counter("engine.cache.patched") - before;
    }
    let heap_mb = db_heap_bytes(&db) as f64 / (1 << 20) as f64;

    let mut tree_build_us = Vec::new();
    for k in 0..TREE_BUILDS {
        let t = Instant::now();
        let tree = db
            .build_cache("invest", Aggregate::Sum, None)
            .map_err(|e| e.to_string())?;
        let built = t.elapsed();
        std::hint::black_box(&tree);
        tree_build_us.push(us(built));
        kept.push(Span {
            req: (requests + k) as u64,
            id: 0,
            parent: None,
            name: "infer.tree_build".into(),
            start_us: us(t - began),
            end_us: us(t - began) + us(built),
        });
    }

    let (attempted, failed, notes) = tear_down_and_verify(w, ready, checker)?;
    let attempted = attempted + update_us.len() as u64;
    let failed = failed + updater.failed;

    write_jsonl(&out_dir.join(format!("trace-{}.jsonl", w.name())), &kept).map_err(io_err)?;

    let m = median;
    let run_us = m(&samples.run);
    let layer_sum = m(&samples.transport)
        + m(&samples.wire_parse)
        + m(&samples.serve_self)
        + m(&samples.sql_parse)
        + m(&samples.engine_self)
        + m(&samples.optimize)
        + m(&samples.execute);
    let metrics = vec![
        ("wire.roundtrip_us", m(&samples.roundtrip)),
        ("wire.transport_us", m(&samples.transport)),
        ("wire.delayed_ack_stall_us", m(&stall_us)),
        ("serve.wire_parse_us", m(&samples.wire_parse)),
        ("serve.self_us", m(&samples.serve_self)),
        ("serve.ok", ok),
        ("serve.err", err),
        ("serve.shed", shed),
        ("engine.sql_parse_us", m(&samples.sql_parse)),
        ("engine.self_us", m(&samples.engine_self)),
        ("engine.run_us", run_us),
        ("engine.cache.hit_ratio", ratio(hits, hits + misses)),
        ("engine.cache.patched", patched),
        ("engine.cache.evictions", evictions),
        (
            "engine.cache.bytes_resident",
            counter("engine.cache.bytes_resident"),
        ),
        ("engine.update_us", m(&update_us)),
        ("engine.update_us_per_db_mb", ratio(m(&update_us), heap_mb)),
        ("optimizer.optimize_us", m(&samples.optimize)),
        (
            "optimizer.share_pct",
            100.0 * ratio(m(&samples.optimize), run_us),
        ),
        ("algebra.execute_us", m(&samples.execute)),
        (
            "algebra.share_pct",
            100.0 * ratio(m(&samples.execute), run_us),
        ),
        ("algebra.join_us", m(&samples.join)),
        ("algebra.groupby_us", m(&samples.group_by)),
        ("algebra.joinagg_us", m(&samples.join_agg)),
        (
            "algebra.dense_pct",
            100.0 * ratio(samples.dense_us, samples.operator_us),
        ),
        (
            "algebra.sparse_pct",
            100.0 * ratio(samples.sparse_us, samples.operator_us),
        ),
        (
            "algebra.converts_per_op",
            ratio(samples.converts as f64, samples.kernel_ops as f64),
        ),
        (
            "algebra.rows_processed",
            samples.rows_processed as f64 / requests as f64,
        ),
        (
            "algebra.max_intermediate_rows",
            samples.max_intermediate_rows as f64,
        ),
        ("infer.tree_build_us", m(&tree_build_us)),
        ("storage.db_heap_mb", heap_mb),
        (
            "storage.answer_rows",
            samples.answer_rows as f64 / requests as f64,
        ),
        ("setup.datagen_s", setup.datagen_s),
        ("setup.load_s", setup.load_s),
        ("setup.warm_s", setup.warm_s),
        (
            "trace.overhead_pct",
            100.0 * ratio(m(&samples.run_traced) - run_us, run_us),
        ),
        (
            "trace.coverage_pct",
            100.0 * ratio(layer_sum, m(&samples.roundtrip)),
        ),
    ];
    let info = vec![
        ("replayed_requests".to_string(), requests as f64),
        ("update_samples".to_string(), update_us.len() as f64),
        ("spans_written".to_string(), kept.len() as f64),
    ];
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
        notes,
    })
}

/// Registry counters whose change over the replay is reported.
const COUNTERS: [&str; 7] = [
    "serve.ok",
    "serve.err",
    "serve.shed",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.patched",
    "engine.cache.evictions",
];
