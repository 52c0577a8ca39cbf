//! Validation sweep for the Section 5.1 plan-linearity test (Eq. 1).
//!
//! The paper derives Eq. 1 as a *conservative* test: when it fails, only a
//! nonlinear plan can pre-reduce the smallest relation containing the query
//! variable. This harness sweeps the query variable's domain size against a
//! fixed relation layout, and reports whether the Eq. 1 verdict predicts
//! when the nonlinear CS+ plan is strictly cheaper than the best linear
//! plan — an ablation of the test's predictive power that the paper
//! demonstrates on just two points (Q1, Q2 of Figure 7).
//!
//! Usage: `eq1_validation [--steps <n>]`

use mpf_bench::Args;
use mpf_optimizer::{
    linearity::linearity_test, optimize, Algorithm, BaseRel, CostModel, OptContext, QuerySpec,
};
use mpf_storage::{Catalog, Schema};

fn main() {
    let args = Args::capture();
    let steps: u32 = args.get("steps", 10);

    println!("Eq. 1 validation: x appears in s1 (200k rows) and s2 (50k rows)");
    println!();
    println!(
        "{:>10} {:>10} {:>6}  {:>14} {:>14}  {:>9} {:>9}",
        "sigma", "sigma_hat", "Eq.1", "linear cost", "nonlin cost", "gain", "agree"
    );

    let mut agreements = 0u32;
    for step in 0..steps {
        // Sweep |dom(x)| from tiny (nonlinear pays) to huge (linear fine).
        let sigma = 10u64.saturating_mul(6u64.saturating_pow(step));
        let mut cat = Catalog::new();
        let x = cat.add_var("x", sigma).unwrap();
        let u = cat.add_var("u", 2000).unwrap();
        let w = cat.add_var("w", 2000).unwrap();
        let rels = vec![
            BaseRel {
                name: "s1".into(),
                schema: Schema::new(vec![x, u]).unwrap(),
                cardinality: 200_000,
                fd_lhs: None,
                grid: false,
            },
            BaseRel {
                name: "s2".into(),
                schema: Schema::new(vec![x, w]).unwrap(),
                cardinality: 50_000,
                fd_lhs: None,
                grid: false,
            },
            BaseRel {
                name: "s3".into(),
                schema: Schema::new(vec![u]).unwrap(),
                cardinality: 2000,
                fd_lhs: None,
                grid: false,
            },
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([x]), CostModel::Io);
        let t = linearity_test(&ctx, x);
        let lin = optimize(&ctx, Algorithm::CsPlusLinear).est_cost;
        let non = optimize(&ctx, Algorithm::CsPlusNonlinear).est_cost;
        let gain = lin / non;
        // Eq. 1 is conservative: "admissible" predicts no *substantial*
        // nonlinear gain; failure predicts a real gain.
        let agree = if t.linear_admissible {
            gain < 1.10
        } else {
            gain > 1.0 + 1e-9
        };
        agreements += agree as u32;
        println!(
            "{:>10} {:>10} {:>6}  {:>14.0} {:>14.0}  {:>8.2}x {:>9}",
            t.sigma, t.sigma_hat, t.linear_admissible, lin, non, gain, agree
        );
    }
    println!();
    println!("verdict agreement: {agreements}/{steps}");
}
