//! Generated data, the database built from it, and the embedded
//! `mpf_serve` service the workloads drive.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mpf_algebra::{ExecLimits, RelationStore};
use mpf_datagen::supply_chain::RELATION_NAMES;
use mpf_datagen::{SupplyChain, SupplyChainConfig};
use mpf_engine::Database;
use mpf_semiring::Combine;
use mpf_serve::{ServeConfig, Server, TenantLimits};
use mpf_storage::{Catalog, FunctionalRelation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::wire::{Acks, Conn};

/// Supply-chain scale (× Table 1): ≈56 k rows behind the `invest` view.
pub const SCALE: f64 = 0.05;
/// Side of the dense triangle view `tri = r1(a,b)·r2(b,c)·r3(c,a)`.
pub const TRI_D: u32 = 256;
/// View-cache budget of the cache-on workloads.
pub const CACHE_BYTES: u64 = 64 << 20;
/// Tenant name the harness bills every query to.
pub const TENANT: &str = "bench";

/// Everything generated from `--seed`; the service only ever sees this.
pub struct Data {
    pub catalog: Catalog,
    pub store: RelationStore,
    /// `contracts` rows (`[pid, sid]`, price) — the writer's update targets.
    pub contracts: Vec<([Value; 2], f64)>,
    /// Domain size per `invest` variable, for drawing evidence constants.
    pub domains: Vec<(&'static str, u32)>,
    /// Row-major `D×D` measure grids of `r1(a,b)`, `r2(b,c)`, `r3(c,a)`.
    pub tri: [Vec<f64>; 3],
}

/// Generate both datasets. Every tenant shares one service, so both live
/// in every workload's database — which is what makes an O(database)
/// snapshot clone visible on a workload that only queries one of them.
pub fn generate(seed: u64) -> Data {
    let supply = SupplyChain::generate(SupplyChainConfig {
        seed,
        ..SupplyChainConfig::at_scale(SCALE)
    });
    let mut catalog = supply.catalog.clone();
    let mut store = supply.store.clone();
    let domains = ["pid", "sid", "wid", "cid", "tid"]
        .map(|v| (v, catalog.domain_size(supply.var(v)) as u32))
        .to_vec();
    let contracts = relation_of(&store, "contracts")
        .rows()
        .map(|(row, m)| ([row[0], row[1]], m))
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7219_a5e1);
    let [a, b, c] = ["a", "b", "c"].map(|v| {
        catalog
            .add_var(v, u64::from(TRI_D))
            .expect("fresh variable name")
    });
    let cells = (TRI_D * TRI_D) as usize;
    let tri = [(); 3].map(|()| {
        (0..cells)
            .map(|_| rng.random_range(0.5..1.5))
            .collect::<Vec<f64>>()
    });
    for (name, vars, grid) in [
        ("r1", [a, b], &tri[0]),
        ("r2", [b, c], &tri[1]),
        ("r3", [c, a], &tri[2]),
    ] {
        let schema = Schema::new(vars.to_vec()).expect("two distinct variables");
        let rel = FunctionalRelation::complete(name, schema, &catalog, |row| {
            grid[(row[0] * TRI_D + row[1]) as usize]
        });
        store.insert(rel);
    }
    Data {
        catalog,
        store,
        contracts,
        domains,
        tri,
    }
}

fn relation_of<'a>(store: &'a RelationStore, name: &str) -> &'a FunctionalRelation {
    store
        .iter()
        .find(|r| r.name() == name)
        .unwrap_or_else(|| panic!("generated store holds `{name}`"))
}

/// Load a store into a fresh database with both views defined.
/// `cache_bytes = 0` detaches the view cache.
pub fn load(catalog: Catalog, store: RelationStore, cache_bytes: u64) -> Database {
    let db = Database::from_parts(catalog, store)
        .with_cache_bytes(cache_bytes)
        .with_limits(ExecLimits::none().with_threads(1));
    db.create_view("invest", &RELATION_NAMES, Combine::Product)
        .expect("invest view over generated relations");
    db.create_view("tri", &["r1", "r2", "r3"], Combine::Product)
        .expect("tri view over generated relations");
    db
}

/// Bytes held by the base relations of the current snapshot.
pub fn db_heap_bytes(db: &Database) -> usize {
    db.snapshot()
        .store()
        .iter()
        .map(FunctionalRelation::heap_bytes)
        .sum()
}

/// The per-query grant every request runs under.
pub fn tenant_limits() -> TenantLimits {
    TenantLimits {
        max_inflight: 4,
        cells_per_query: 1 << 28,
        threads_per_query: 1,
        query_timeout: Some(Duration::from_secs(10)),
    }
}

/// The service configuration of every workload (recorded in
/// `BENCHMARK.json`): budgets sized so steady state never sheds.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        pool_cells: 1 << 31,
        pool_threads: 8,
        queue_depth: 32,
        queue_deadline: Duration::from_millis(500),
        default_tenant: tenant_limits(),
        tenants: Default::default(),
    }
}

/// The execution limits `Server` derives from [`tenant_limits`], for the
/// layer probes that call `Database::run` directly.
pub fn query_limits() -> ExecLimits {
    let t = tenant_limits();
    ExecLimits::none()
        .with_max_total_cells(t.cells_per_query)
        .with_threads(t.threads_per_query)
        .with_timeout(t.query_timeout.expect("tenant_limits sets a timeout"))
}

/// A real `mpf_serve::Server` accepting on a loopback port.
pub struct Service {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    accept_loop: JoinHandle<io::Result<()>>,
}

impl Service {
    pub fn start(db: Database) -> io::Result<Service> {
        let server = Server::new(db, serve_config());
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let accept_loop = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_tcp(listener))
        };
        Ok(Service {
            server,
            addr,
            accept_loop,
        })
    }

    /// Ask the service to drain and wait for its accept loop to return.
    /// Every client connection must be closed first: the drain waits for
    /// them.
    pub fn stop(self) -> io::Result<()> {
        let mut reply = Vec::new();
        Conn::connect(self.addr, Acks::Kernel)?.round_trip("SHUTDOWN", &mut reply)?;
        if reply != b"BYE\n" {
            return Err(io::Error::other(format!(
                "SHUTDOWN answered {:?}",
                String::from_utf8_lossy(&reply)
            )));
        }
        self.accept_loop
            .join()
            .map_err(|_| io::Error::other("accept loop panicked"))?
    }
}
