//! Ablation: all-hash vs. cost-based physical operators.
//!
//! The paper notes that the relational setting — unlike GDL — offers
//! multiple algorithms per logical operation, chosen by cost. This harness
//! takes the nonlinear CS+ plan for Q1 on the supply chain and executes it
//! with (a) the hash operators everywhere and (b) the per-operator choice
//! of `choose_physical` under its default configuration (dense and sparse
//! kernels where the operands qualify, hash operators elsewhere).
//!
//! Usage: `ablation_operators [--scale <f>]`

use mpf_algebra::{Executor, PhysicalPlan};
use mpf_bench::{ms, Args};
use mpf_datagen::{SupplyChain, SupplyChainConfig};
use mpf_optimizer::{choose_physical, optimize, Algorithm, CostModel, PhysicalConfig, QuerySpec};
use mpf_semiring::SemiringKind;

fn main() {
    let args = Args::capture();
    let scale: f64 = args.get("scale", 0.05);
    let sc = SupplyChain::generate(SupplyChainConfig::proportional(scale));
    let ctx = sc.ctx(QuerySpec::group_by([sc.var("cid")]), CostModel::Io);
    let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
    let exec = Executor::new(&sc.store, SemiringKind::SumProduct);

    println!("Operator-algorithm ablation (scale {scale}, Q1 = group by cid)");
    println!("{:<28} {:>12} {:>14}", "variant", "exec ms", "work rows");

    let run = |label: &str, phys: &PhysicalPlan| {
        let t = std::time::Instant::now();
        let (_, stats) = exec.execute_physical(phys).expect("plan executes");
        println!(
            "{:<28} {:>12} {:>14}",
            label,
            ms(t.elapsed()),
            stats.rows_processed
        );
    };

    run("all hash", &PhysicalPlan::default_hash(&plan));
    run(
        "cost-based (default)",
        &choose_physical(&ctx, &plan, PhysicalConfig::default()),
    );
}
