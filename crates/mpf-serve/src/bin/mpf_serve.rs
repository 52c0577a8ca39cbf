//! `mpf_serve` — the multi-tenant MPF query service.
//!
//! ```text
//! mpf_serve [--listen ADDR] [--demo] [--init FILE]
//!           [--pool-cells N] [--pool-threads N]
//!           [--queue-depth N] [--queue-deadline-ms N]
//! ```
//!
//! Without `--listen` the service speaks the line protocol on
//! stdin/stdout (one request per line, framed responses), which is what
//! the CI smoke job scripts. With `--listen HOST:PORT` it accepts
//! concurrent TCP connections, one session per connection.
//!
//! Startup is strict about configuration: malformed `MPF_THREADS` /
//! `MPF_CACHE_BYTES` values (or malformed flags) print a typed
//! configuration error and exit with status 2 instead of silently
//! running with defaults. Other `MPF_*` variables (`MPF_DENSE` among
//! them) are ignored.

use std::io::{stdin, stdout, BufReader};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use mpf_engine::Database;
use mpf_semiring::Combine;
use mpf_serve::{ServeConfig, Server};
use mpf_storage::{FunctionalRelation, Schema};

struct Options {
    listen: Option<String>,
    demo: bool,
    init: Option<String>,
    config: ServeConfig,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        listen: None,
        demo: false,
        init: None,
        config: ServeConfig::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match arg.as_str() {
            "--listen" => opts.listen = Some(value_of("--listen")?),
            "--demo" => opts.demo = true,
            "--init" => opts.init = Some(value_of("--init")?),
            "--pool-cells" => {
                opts.config.pool_cells = parse_num(&value_of("--pool-cells")?, "--pool-cells")?
            }
            "--pool-threads" => {
                opts.config.pool_threads =
                    parse_num(&value_of("--pool-threads")?, "--pool-threads")? as usize
            }
            "--queue-depth" => {
                opts.config.queue_depth =
                    parse_num(&value_of("--queue-depth")?, "--queue-depth")? as usize
            }
            "--queue-deadline-ms" => {
                opts.config.queue_deadline = Duration::from_millis(parse_num(
                    &value_of("--queue-deadline-ms")?,
                    "--queue-deadline-ms",
                )?)
            }
            other => return Err(format!("unrecognized flag `{other}`")),
        }
    }
    Ok(opts)
}

fn parse_num(value: &str, flag: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("invalid {flag}=`{value}`: expected a non-negative integer"))
}

/// Seed a small complete-relation workload so the service answers
/// queries out of the box (`--demo`): `v = r1(a,b) * r2(b,c)`.
fn seed_demo(db: &Database) -> mpf_engine::Result<()> {
    let a = db.add_var("a", 3)?;
    let b = db.add_var("b", 3)?;
    let c = db.add_var("c", 3)?;
    db.insert_relation(FunctionalRelation::complete(
        "r1",
        Schema::new(vec![a, b])?,
        &db.catalog(),
        |row| 1.0 + (row[0] * 3 + row[1]) as f64 / 4.0,
    ))?;
    db.insert_relation(FunctionalRelation::complete(
        "r2",
        Schema::new(vec![b, c])?,
        &db.catalog(),
        |row| 0.5 + (row[0] + 2 * row[1]) as f64 / 3.0,
    ))?;
    db.create_view("v", &["r1", "r2"], Combine::Product)?;
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    // Strict knob validation: refuse to start on malformed MPF_THREADS /
    // MPF_CACHE_BYTES rather than serving with silently different settings.
    let db = Database::from_env().map_err(|e| e.to_string())?;
    if opts.demo {
        seed_demo(&db).map_err(|e| format!("demo seed failed: {e}"))?;
    }
    if let Some(path) = &opts.init {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            db.run_sql(line)
                .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        }
    }

    let server = Server::new(db, opts.config);
    match &opts.listen {
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!("mpf_serve listening on {addr}");
            server
                .serve_tcp(listener)
                .map_err(|e| format!("accept loop failed: {e}"))?;
        }
        None => {
            server.serve_lines(BufReader::new(stdin().lock()), stdout().lock());
        }
    }
    eprintln!("mpf_serve drained; bye");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mpf_serve: {msg}");
            ExitCode::from(2)
        }
    }
}
