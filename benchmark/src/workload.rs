//! The four workloads: their service configuration, their seeded query
//! pools, and why each exists.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::service::{Data, CACHE_BYTES, TRI_D};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdAdhoc,
    WarmDashboard,
    UpdateStorm,
    DenseInference,
}

pub const ALL: [Workload; 4] = [
    Workload::ColdAdhoc,
    Workload::WarmDashboard,
    Workload::UpdateStorm,
    Workload::DenseInference,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAdhoc => "cold_adhoc",
            Workload::WarmDashboard => "warm_dashboard",
            Workload::UpdateStorm => "update_storm",
            Workload::DenseInference => "dense_inference",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence on why the workload exists (mirrored in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdAdhoc => {
                "view cache off, 40 distinct invest queries: every request plans and executes, so mpf-optimizer and mpf-algebra do nearly all the work"
            }
            Workload::WarmDashboard => {
                "12 cache-covered queries on a 64 MiB view cache: engine time is microseconds, so wire, parse, admission and encode in mpf-serve dominate"
            }
            Workload::UpdateStorm => {
                "warm_dashboard pool with 1 reader beside a writer paced at 4 update_measure/s: snapshot clone, install and cache patching under read load"
            }
            Workload::DenseInference => {
                "view cache off, marginal and MPE queries on a dense 256^3 triangle: dense kernels and fused JoinAgg in mpf-algebra do over 80% of the work"
            }
        }
    }

    pub fn cache_bytes(self) -> u64 {
        match self {
            Workload::WarmDashboard | Workload::UpdateStorm => CACHE_BYTES,
            Workload::ColdAdhoc | Workload::DenseInference => 0,
        }
    }

    /// Closed-loop reader connections. Never more than the recorder's
    /// two cores; `update_storm` gives one of them to its writer.
    pub fn connections(self) -> usize {
        match self {
            Workload::UpdateStorm => 1,
            _ => 2,
        }
    }

    /// Whether a paced writer runs beside the readers during the window.
    pub fn has_writer(self) -> bool {
        self == Workload::UpdateStorm
    }

    /// The workload's SQL statements. Only constants depend on the seed:
    /// the shapes are fixed so that runs on different seeds do the same
    /// kind of work.
    pub fn pool(self, data: &Data, seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9001_5eed);
        match self {
            Workload::ColdAdhoc => adhoc_pool(data, &mut rng),
            Workload::WarmDashboard | Workload::UpdateStorm => dashboard_pool(data, &mut rng),
            Workload::DenseInference => inference_pool(&mut rng),
        }
    }
}

fn constant(data: &Data, var: &str, rng: &mut StdRng) -> u32 {
    let (_, domain) = data
        .domains
        .iter()
        .find(|(v, _)| *v == var)
        .unwrap_or_else(|| panic!("`{var}` is an invest variable"));
    rng.random_range(0..*domain)
}

/// 40 distinct ad-hoc statements over `invest`: single- and pair-variable
/// group-bys over all five variables, evidence with seeded constants,
/// `having`, and all three aggregates, under the default strategy.
fn adhoc_pool(data: &Data, rng: &mut StdRng) -> Vec<String> {
    let mut pool = Vec::new();
    for v in ["pid", "sid", "wid", "cid", "tid"] {
        pool.push(format!("select {v}, sum(f) from invest group by {v}"));
    }
    for agg in ["min", "max"] {
        for v in ["wid", "cid", "tid"] {
            pool.push(format!("select {v}, {agg}(f) from invest group by {v}"));
        }
    }
    for (x, y) in [("cid", "tid"), ("wid", "cid"), ("wid", "tid")] {
        pool.push(format!(
            "select {x}, {y}, sum(f) from invest group by {x}, {y}"
        ));
    }
    // One evidence constant: every (group, evidence) pair below, twice.
    for (g, e) in [
        ("wid", "tid"),
        ("cid", "tid"),
        ("sid", "tid"),
        ("tid", "cid"),
        ("wid", "cid"),
        ("pid", "cid"),
        ("cid", "wid"),
        ("tid", "sid"),
    ] {
        for agg in ["sum", "max"] {
            let c = constant(data, e, rng);
            pool.push(format!(
                "select {g}, {agg}(f) from invest where {e} = {c} group by {g}"
            ));
        }
    }
    // Two evidence constants.
    for (g, e1, e2) in [
        ("wid", "cid", "tid"),
        ("sid", "wid", "tid"),
        ("pid", "cid", "tid"),
        ("tid", "sid", "wid"),
    ] {
        let (c1, c2) = (constant(data, e1, rng), constant(data, e2, rng));
        pool.push(format!(
            "select {g}, sum(f) from invest where {e1} = {c1} and {e2} = {c2} group by {g}"
        ));
    }
    // Constrained range, bounded near the mean group total so that the
    // filter keeps roughly half the groups on any seed.
    let total: f64 = invest_total(data);
    for (g, op) in [
        ("wid", ">"),
        ("cid", "<"),
        ("tid", ">="),
        ("sid", "<="),
        ("wid", "<"),
        ("cid", ">"),
    ] {
        let groups = data
            .domains
            .iter()
            .find(|(v, _)| *v == g)
            .map_or(1, |d| d.1);
        let bound = total / f64::from(groups) * rng.random_range(0.8..1.2);
        pool.push(format!(
            "select {g}, sum(f) from invest group by {g} having f {op} {bound}"
        ));
    }
    pool
}

/// Approximate `sum(f)` over all of `invest`: the mean of each factor's
/// generator range times the joint row count (one row per `location` row
/// and transporter).
fn invest_total(data: &Data) -> f64 {
    let location_rows = data
        .store
        .iter()
        .find(|r| r.name() == "location")
        .map_or(0, |r| r.len());
    let tids = data.domains[4].1;
    50.5 * 25.5 * 1.25 * 0.75 * 1.15 * location_rows as f64 * f64::from(tids)
}

/// 12 `sum` statements a resident elimination tree of `invest` covers:
/// three marginals, one covered pair, and eight evidence constants that
/// each become a derived tree.
fn dashboard_pool(data: &Data, rng: &mut StdRng) -> Vec<String> {
    let mut pool = vec![
        "select wid, sum(f) from invest group by wid".to_string(),
        "select sid, sum(f) from invest group by sid".to_string(),
        "select cid, sum(f) from invest group by cid".to_string(),
        "select wid, cid, sum(f) from invest group by wid, cid".to_string(),
    ];
    let (_, tids) = data.domains[4];
    let (_, cids) = data.domains[3];
    for c in distinct(rng, tids, 4) {
        pool.push(format!(
            "select wid, sum(f) from invest where tid = {c} group by wid"
        ));
    }
    for c in distinct(rng, cids, 4) {
        pool.push(format!(
            "select sid, sum(f) from invest where cid = {c} group by sid"
        ));
    }
    pool
}

/// Marginal (`sum`) and MPE (`max`) statements over `tri`: six without
/// evidence, which contract the full `D³` space, and three with one
/// evidence constant. Evidence cuts the work to `D²`, so those are kept a
/// minority: the median request is always a full contraction.
fn inference_pool(rng: &mut StdRng) -> Vec<String> {
    let mut pool = Vec::new();
    for agg in ["sum", "max"] {
        for v in ["a", "b", "c"] {
            pool.push(format!("select {v}, {agg}(f) from tri group by {v}"));
        }
    }
    for (g, e, agg) in [("a", "b", "sum"), ("b", "c", "max"), ("c", "a", "sum")] {
        let c = rng.random_range(0..TRI_D);
        pool.push(format!(
            "select {g}, {agg}(f) from tri where {e} = {c} group by {g}"
        ));
    }
    pool
}

fn distinct(rng: &mut StdRng, domain: u32, k: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..domain).collect();
    all.shuffle(rng);
    all.truncate(k);
    all
}

/// An endless seeded walk over pool indices: one shuffled pass after
/// another, so every pass issues each statement exactly once and the mix
/// does not depend on the seed.
pub struct Draw {
    rng: StdRng,
    order: Vec<usize>,
    next: usize,
}

impl Draw {
    pub fn new(pool_len: usize, seed: u64) -> Draw {
        Draw {
            rng: StdRng::seed_from_u64(seed),
            order: (0..pool_len).collect(),
            next: pool_len,
        }
    }
}

impl Iterator for Draw {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.next == self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        Some(self.order[self.next - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_covers_the_pool_once_per_pass_and_repeats_per_seed() {
        let mut pass: Vec<usize> = Draw::new(7, 3).take(7).collect();
        pass.sort_unstable();
        assert_eq!(pass, (0..7).collect::<Vec<_>>());
        let a: Vec<usize> = Draw::new(7, 3).take(30).collect();
        let b: Vec<usize> = Draw::new(7, 3).take(30).collect();
        let c: Vec<usize> = Draw::new(7, 4).take(30).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
