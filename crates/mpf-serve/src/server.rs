//! The service loop: admission-gated request handling over any
//! line-oriented transport (TCP socket or stdin/stdout).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf_engine::parser::{parse, Statement};
use mpf_engine::{Answer, Database, MetricsRegistry, QueryRequest, Scenario, ScenarioReport};

use crate::admission::{AdmissionController, Shed};
use crate::config::ServeConfig;
use crate::protocol::{encode_engine_err, encode_err, parse_scenario_line, Request};

/// A multi-tenant query server over one shared [`Database`].
///
/// All state is behind `Arc`s, so one `Server` can be driven from many
/// transport threads at once; the database's snapshot storage keeps
/// concurrent queries and `run_sql` updates consistent, and the
/// [`AdmissionController`] keeps their resource usage inside the
/// configured pool.
pub struct Server {
    db: Arc<Database>,
    config: ServeConfig,
    admission: Arc<AdmissionController>,
    metrics: Arc<MetricsRegistry>,
    draining: AtomicBool,
}

impl Server {
    /// Wrap a configured database. The server attaches its own
    /// [`MetricsRegistry`], so per-query engine metrics and the service
    /// counters land in one exportable registry.
    pub fn new(db: Database, config: ServeConfig) -> Arc<Server> {
        let metrics = Arc::new(MetricsRegistry::new());
        let db = db.with_metrics(Arc::clone(&metrics));
        let admission = AdmissionController::new(&config);
        Arc::new(Server {
            db: Arc::new(db),
            config,
            admission,
            metrics,
            draining: AtomicBool::new(false),
        })
    }

    /// The shared database (tests seed data through this).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The combined service + engine metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The admission gate (for observability in tests).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Whether a `SHUTDOWN` has been received.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Handle one request line. Returns the response lines and whether
    /// this request asked the service to shut down.
    ///
    /// A `SCENARIOS` request needs its continuation lines and therefore a
    /// block-aware caller ([`Server::handle_block`]); arriving here alone
    /// it is answered with the count-mismatch protocol error.
    pub fn handle_line(&self, line: &str) -> (Vec<String>, bool) {
        self.handle_block(&[line.to_string()])
    }

    /// Handle one request block: a request line plus any continuation
    /// lines (`SCENARIO` lines of a `SCENARIOS <n>` request). Returns the
    /// response lines and whether the block asked the service to shut
    /// down.
    pub fn handle_block(&self, lines: &[String]) -> (Vec<String>, bool) {
        let Some(first) = lines.first() else {
            return (Vec::new(), false);
        };
        let req = match Request::parse(first) {
            Ok(req) => req,
            Err(err_line) => return (vec![err_line], false),
        };
        if lines.len() > 1 && !matches!(req, Request::ScenarioQuery { .. }) {
            let err = encode_err(
                "protocol",
                false,
                0,
                "this request form takes no continuation lines",
            );
            return (vec![err], false);
        }
        match req {
            Request::Ping => (vec!["PONG".to_string()], false),
            Request::Metrics => (
                vec![
                    "OK metrics".to_string(),
                    self.metrics.to_json(),
                    "END".to_string(),
                ],
                false,
            ),
            Request::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                (vec!["BYE".to_string()], true)
            }
            Request::Query { tenant, sql } => (self.run_query(&tenant, &sql), false),
            Request::ScenarioQuery { tenant, sql, count } => {
                let given = lines.len() - 1;
                if given != count {
                    let err = encode_err(
                        "protocol",
                        false,
                        0,
                        &format!("SCENARIOS {count} expects {count} SCENARIO lines, got {given}"),
                    );
                    return (vec![err], false);
                }
                let mut scenarios = Vec::with_capacity(count);
                for line in &lines[1..] {
                    match parse_scenario_line(line) {
                        Ok(sc) => scenarios.push(sc),
                        Err(err_line) => return (vec![err_line], false),
                    }
                }
                (self.run_scenario_query(&tenant, &sql, scenarios), false)
            }
        }
    }

    fn run_query(&self, tenant: &str, sql: &str) -> Vec<String> {
        self.metrics.inc("serve.query");
        if self.draining() {
            self.metrics.inc("serve.err");
            return vec![encode_err(
                "shutting-down",
                false,
                0,
                "service is draining; no new queries",
            )];
        }
        let limits = self.config.limits_for(tenant).clone();
        let start = Instant::now();
        let grant = match self.admission.admit(
            tenant,
            limits.max_inflight,
            limits.cells_per_query,
            limits.threads_per_query,
        ) {
            Ok(grant) => grant,
            Err(shed) => {
                self.metrics.inc("serve.shed");
                return vec![shed_line(&shed)];
            }
        };
        let mut exec = grant.limits();
        if let Some(t) = limits.query_timeout {
            exec = exec.with_timeout(t);
        }
        let out = match parse(sql) {
            Ok(Statement::Select(q)) => self
                .db
                .run(QueryRequest::from(q).limits(exec))
                .map(|ans| self.encode_answer(&ans)),
            // DDL re-parses inside run_sql; the statement text is tiny
            // next to the catalog clone the mutation does anyway.
            Ok(Statement::CreateView { .. }) => self.db.run_sql(sql).map(|outcome| match outcome {
                mpf_engine::SqlOutcome::ViewCreated(name) => {
                    vec![format!("OK view={name}"), "END".to_string()]
                }
                mpf_engine::SqlOutcome::Answer(ans) => self.encode_answer(&ans),
            }),
            Err(e) => Err(e),
        };
        // The grant (pool lease + tenant share) is held across parse and
        // execution; release before encoding the response.
        drop(grant);
        self.metrics.observe("serve.latency", start.elapsed());
        match out {
            Ok(lines) => {
                self.metrics.inc("serve.ok");
                lines
            }
            Err(e) => {
                self.metrics.inc("serve.err");
                vec![encode_engine_err(&e)]
            }
        }
    }

    /// Run one query under a batch of scenarios. One admission grant
    /// covers the whole batch: the engine's scenario fan-out shares the
    /// grant's cell/thread budget across the shared trunk and every
    /// frontier, so a 100-scenario batch cannot out-consume 100 admitted
    /// singles.
    fn run_scenario_query(&self, tenant: &str, sql: &str, scenarios: Vec<Scenario>) -> Vec<String> {
        self.metrics.inc("serve.query");
        self.metrics.inc("serve.scenario_batch");
        if self.draining() {
            self.metrics.inc("serve.err");
            return vec![encode_err(
                "shutting-down",
                false,
                0,
                "service is draining; no new queries",
            )];
        }
        let limits = self.config.limits_for(tenant).clone();
        let start = Instant::now();
        let grant = match self.admission.admit(
            tenant,
            limits.max_inflight,
            limits.cells_per_query,
            limits.threads_per_query,
        ) {
            Ok(grant) => grant,
            Err(shed) => {
                self.metrics.inc("serve.shed");
                return vec![shed_line(&shed)];
            }
        };
        let mut exec = grant.limits();
        if let Some(t) = limits.query_timeout {
            exec = exec.with_timeout(t);
        }
        let out = match parse(sql) {
            Ok(Statement::Select(q)) => {
                let mut req = QueryRequest::from(q).limits(exec);
                for sc in scenarios {
                    req = req.scenario(sc);
                }
                self.db
                    .run_scenarios(req)
                    .map(|report| self.encode_scenario_report(&report))
            }
            Ok(Statement::CreateView { .. }) => {
                drop(grant);
                self.metrics.inc("serve.err");
                return vec![encode_err(
                    "protocol",
                    false,
                    0,
                    "SCENARIOS applies to select queries, not DDL",
                )];
            }
            Err(e) => Err(e),
        };
        drop(grant);
        self.metrics.observe("serve.latency", start.elapsed());
        match out {
            Ok(lines) => {
                self.metrics.inc("serve.ok");
                lines
            }
            Err(e) => {
                self.metrics.inc("serve.err");
                vec![encode_engine_err(&e)]
            }
        }
    }

    /// Frame a [`ScenarioReport`]: a batch header, per-scenario tagged
    /// rows, then one `DIVERGENT`/`INVARIANT` summary line per scenario —
    /// divergent ones first, ranked by their largest group shift.
    fn encode_scenario_report(&self, report: &ScenarioReport) -> Vec<String> {
        let catalog = self.db.catalog();
        let names: Vec<&str> = report
            .baseline
            .relation
            .schema()
            .iter()
            .map(|v| catalog.name(v))
            .collect();
        let total_rows: usize = report
            .outcomes
            .iter()
            .map(|o| o.answer.relation.len())
            .sum();
        let mut lines = Vec::with_capacity(total_rows + report.outcomes.len() + 2);
        lines.push(format!(
            "OK scenarios={} rows={total_rows} strategy={:?}",
            report.outcomes.len(),
            report.baseline.served_by
        ));
        for outcome in &report.outcomes {
            for (row, measure) in outcome.answer.relation.rows() {
                let mut line = format!("ROW scenario={}", outcome.name);
                for (name, value) in names.iter().zip(row) {
                    line.push_str(&format!(" {name}={value}"));
                }
                line.push_str(&format!(" m={measure}"));
                lines.push(line);
            }
        }
        for outcome in report.divergent() {
            lines.push(format!(
                "DIVERGENT scenario={} groups={} max_shift={}",
                outcome.name,
                outcome.divergence.moved(),
                outcome.divergence.max_shift()
            ));
        }
        for outcome in report.invariant() {
            lines.push(format!("INVARIANT scenario={}", outcome.name));
        }
        lines.push("END".to_string());
        lines
    }

    fn encode_answer(&self, ans: &Answer) -> Vec<String> {
        let catalog = self.db.catalog();
        let rel = &ans.relation;
        let names: Vec<&str> = rel.schema().iter().map(|v| catalog.name(v)).collect();
        let mut lines = Vec::with_capacity(rel.len() + 2);
        lines.push(format!(
            "OK rows={} strategy={:?}",
            rel.len(),
            ans.served_by
        ));
        for (row, measure) in rel.rows() {
            let mut line = String::from("ROW");
            for (name, value) in names.iter().zip(row) {
                line.push_str(&format!(" {name}={value}"));
            }
            line.push_str(&format!(" m={measure}"));
            lines.push(line);
        }
        lines.push("END".to_string());
        lines
    }

    /// Serve one line-oriented connection until EOF or `SHUTDOWN`.
    /// Returns whether the peer requested shutdown.
    pub fn serve_lines(&self, reader: impl BufRead, mut writer: impl Write) -> bool {
        let mut lines_iter = reader.lines();
        while let Some(line) = lines_iter.next() {
            let line = match line {
                Ok(l) => l,
                Err(_) => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            let mut block = vec![line];
            // A `SCENARIOS <n>` request owns its next `n` lines. On EOF
            // mid-block, handle_block reports the count mismatch as a
            // typed protocol error.
            if let Ok(Request::ScenarioQuery { count, .. }) = Request::parse(&block[0]) {
                for _ in 0..count {
                    match lines_iter.next() {
                        Some(Ok(l)) => block.push(l),
                        _ => break,
                    }
                }
            }
            let (out, shutdown) = self.handle_block(&block);
            for l in &out {
                if writeln!(writer, "{l}").is_err() {
                    return shutdown;
                }
            }
            if writer.flush().is_err() || shutdown {
                return shutdown;
            }
        }
        false
    }

    /// Accept TCP connections until `SHUTDOWN`, then drain: stop
    /// accepting, let in-flight connections finish, and return.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let open = Arc::new(AtomicUsize::new(0));
        loop {
            match listener.accept() {
                Ok((stream, _)) if !self.draining() => {
                    stream.set_nonblocking(false)?;
                    let server = Arc::clone(self);
                    let open = Arc::clone(&open);
                    open.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        server.serve_conn(stream);
                        open.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Ok((stream, _)) => {
                    // Draining: refuse new connections with a typed line.
                    let mut stream = stream;
                    let _ = writeln!(
                        stream,
                        "{}",
                        encode_err("shutting-down", false, 0, "service is draining")
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.draining() && open.load(Ordering::SeqCst) == 0 {
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn serve_conn(&self, stream: TcpStream) {
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        self.serve_lines(reader, stream);
    }
}

fn shed_line(shed: &Shed) -> String {
    encode_err(
        shed.reason.kind(),
        shed.retriable,
        shed.backoff_ms,
        &shed.to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantLimits;
    use mpf_semiring::Combine;
    use mpf_storage::{FunctionalRelation, Schema};

    fn seeded_server(config: ServeConfig) -> Arc<Server> {
        let db = Database::new();
        let a = db.add_var("a", 2).unwrap();
        let b = db.add_var("b", 2).unwrap();
        db.insert_relation(
            FunctionalRelation::complete("r1", Schema::new(vec![a, b]).unwrap(), &db.catalog(), |r| {
                (r[0] + 2 * r[1] + 1) as f64
            }),
        )
        .unwrap();
        db.create_view("v", &["r1"], Combine::Product).unwrap();
        Server::new(db, config)
    }

    #[test]
    fn query_streams_rows_and_end() {
        let server = seeded_server(ServeConfig::default());
        let (out, shutdown) = server.handle_line("QUERY t1 select a, sum(f) from v group by a");
        assert!(!shutdown);
        assert!(out[0].starts_with("OK rows=2 strategy="), "{out:?}");
        assert!(out.iter().any(|l| l.starts_with("ROW a=0 m=")), "{out:?}");
        assert_eq!(out.last().unwrap(), "END");
        assert_eq!(server.metrics().counter("serve.ok"), 1);
    }

    #[test]
    fn ddl_and_reads_share_the_service() {
        let server = seeded_server(ServeConfig::default());
        let (out, _) = server.handle_line(
            "QUERY t1 create mpfview v2 as (select a, b, measure = (* r1.f) from r1)",
        );
        assert_eq!(out, vec!["OK view=v2".to_string(), "END".to_string()]);
        let (out, _) = server.handle_line("QUERY t2 select b, sum(f) from v2 group by b");
        assert!(out[0].starts_with("OK rows=2"), "{out:?}");
    }

    #[test]
    fn tenant_cell_budget_trips_as_typed_wire_error() {
        let config = ServeConfig::default().with_tenant(
            "tiny",
            TenantLimits {
                cells_per_query: 1,
                ..TenantLimits::default()
            },
        );
        let server = seeded_server(config);
        let (out, _) = server.handle_line("QUERY tiny select a, sum(f) from v group by a");
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("ERR kind=budget-cells"), "{out:?}");
        assert!(out[0].contains("limit 1 cells"), "{out:?}");
        assert_eq!(server.metrics().counter("serve.err"), 1);
    }

    #[test]
    fn metrics_frame_carries_update_and_patch_metrics() {
        let db = Database::new().with_cache_bytes(1 << 20);
        let a = db.add_var("a", 2).unwrap();
        let b = db.add_var("b", 2).unwrap();
        let r1 = FunctionalRelation::complete(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            &db.catalog(),
            |r| (r[0] + 2 * r[1] + 1) as f64,
        );
        db.insert_relation(r1).unwrap();
        db.create_view("v", &["r1"], Combine::Product).unwrap();
        let server = Server::new(db, ServeConfig::default());
        // Two misses admit the base tree; the filtered query derives a
        // conditioned one from it.
        for sql in [
            "select a, sum(f) from v group by a",
            "select a, sum(f) from v group by a",
            "select a, sum(f) from v where b = 1 group by a",
        ] {
            let (out, _) = server.handle_line(&format!("QUERY t1 {sql}"));
            assert_eq!(out.last().unwrap(), "END", "{out:?}");
        }
        server.db().update_measure("r1", &[1, 1], 8.0).unwrap();

        let m = server.metrics();
        assert_eq!(m.histogram("engine.update_us").unwrap().count, 1);
        assert!(m.histogram("engine.writer_lock_hold_us").unwrap().count >= 1);
        assert_eq!(m.counter("engine.cache.patched"), 2);
        assert_eq!(m.counter("engine.cache.patched_conditioned"), 1);
        assert!(m.counter("engine.cache.patched_rows") >= 2);
        // No request held a tree across the update: both patched in place.
        assert_eq!(m.counter("engine.cache.patch_copies"), 0);
        let (frame, _) = server.handle_line("METRICS");
        for name in [
            "engine.update_us",
            "engine.writer_lock_hold_us",
            "engine.cache.patch_us",
            "engine.cache.patch_copies",
            "engine.cache.patched_rows",
            "engine.cache.patched_conditioned",
        ] {
            assert!(frame[1].contains(name), "METRICS lacks {name}: {}", frame[1]);
        }
    }

    #[test]
    fn ping_metrics_and_shutdown_frames() {
        let server = seeded_server(ServeConfig::default());
        assert_eq!(server.handle_line("PING").0, vec!["PONG"]);
        let (m, _) = server.handle_line("METRICS");
        assert_eq!(m[0], "OK metrics");
        assert!(m[1].starts_with('{'), "{m:?}");
        let (bye, shutdown) = server.handle_line("SHUTDOWN");
        assert_eq!(bye, vec!["BYE"]);
        assert!(shutdown && server.draining());
        let (out, _) = server.handle_line("QUERY t1 select a, sum(f) from v group by a");
        assert!(out[0].starts_with("ERR kind=shutting-down"), "{out:?}");
    }

    #[test]
    fn scenario_batch_streams_tagged_rows_and_summaries() {
        let server = seeded_server(ServeConfig::default());
        let block = vec![
            "QUERY t1 select a, sum(f) from v group by a SCENARIOS 2".to_string(),
            "SCENARIO shock MEASURE r1 0,0 9".to_string(),
            "SCENARIO noop MEASURE r1 0,0 1".to_string(),
        ];
        let (out, shutdown) = server.handle_block(&block);
        assert!(!shutdown);
        assert!(out[0].starts_with("OK scenarios=2 rows=4 strategy="), "{out:?}");
        assert!(
            out.iter().any(|l| l.starts_with("ROW scenario=shock a=0 m=")),
            "{out:?}"
        );
        assert!(
            out.iter().any(|l| l.starts_with("ROW scenario=noop a=1 m=")),
            "{out:?}"
        );
        // r1(0,0) has measure 1, so `shock` moves group a=0 and `noop`
        // is bit-identical to the baseline.
        assert!(
            out.iter()
                .any(|l| l.starts_with("DIVERGENT scenario=shock groups=1 max_shift=")),
            "{out:?}"
        );
        assert!(out.contains(&"INVARIANT scenario=noop".to_string()), "{out:?}");
        assert_eq!(out.last().unwrap(), "END");
        assert_eq!(server.metrics().counter("serve.scenario_batch"), 1);
        assert_eq!(server.metrics().counter("serve.ok"), 1);
    }

    #[test]
    fn scenario_batch_defects_are_typed_protocol_errors() {
        let server = seeded_server(ServeConfig::default());
        // Count mismatch: the request line alone.
        let (out, _) =
            server.handle_line("QUERY t1 select a, sum(f) from v group by a SCENARIOS 2");
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("expects 2 SCENARIO lines, got 0"), "{out:?}");
        // A malformed scenario line fails the whole batch.
        let block = vec![
            "QUERY t1 select a, sum(f) from v group by a SCENARIOS 1".to_string(),
            "SCENARIO s MEASURE r1 0,zero 9".to_string(),
        ];
        let (out, _) = server.handle_block(&block);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("ERR kind=protocol"), "{out:?}");
        // Continuation lines on a non-scenario request are rejected.
        let block = vec!["PING".to_string(), "SCENARIO s".to_string()];
        let (out, _) = server.handle_block(&block);
        assert!(out[0].contains("takes no continuation lines"), "{out:?}");
        // DDL cannot carry scenarios.
        let block = vec![
            "QUERY t1 create mpfview v3 as (select a, b, measure = (* r1.f) from r1) SCENARIOS 1"
                .to_string(),
            "SCENARIO s".to_string(),
        ];
        let (out, _) = server.handle_block(&block);
        assert!(out[0].contains("SCENARIOS applies to select queries"), "{out:?}");
    }

    #[test]
    fn serve_lines_slurps_scenario_blocks() {
        let server = seeded_server(ServeConfig::default());
        let input = b"QUERY t1 select a, sum(f) from v group by a SCENARIOS 1\n\
                      SCENARIO shock MEASURE r1 0,0 9\n\
                      PING\nSHUTDOWN\n" as &[u8];
        let mut out = Vec::new();
        let shutdown = server.serve_lines(input, &mut out);
        assert!(shutdown);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("OK scenarios=1"), "{text}");
        assert!(text.contains("ROW scenario=shock"), "{text}");
        // The SCENARIO line was consumed by the block, not re-parsed as a
        // request; PING still answers.
        assert!(text.contains("\nPONG\n"), "{text}");
        assert!(text.trim_end().ends_with("BYE"), "{text}");
    }

    #[test]
    fn serve_lines_round_trips_a_session() {
        let server = seeded_server(ServeConfig::default());
        let input = b"PING\nQUERY t1 select a, sum(f) from v group by a\nSHUTDOWN\n" as &[u8];
        let mut out = Vec::new();
        let shutdown = server.serve_lines(input, &mut out);
        assert!(shutdown);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("PONG\nOK rows=2"), "{text}");
        assert!(text.trim_end().ends_with("BYE"), "{text}");
    }
}
