//! Budget and fault coverage of the inference entry points: VE-cache
//! construction, BP calibration, junction-tree population, and Bayesian
//! marginals all run inside an [`ExecContext`], so cell budgets, deadlines,
//! and injected faults trip with typed errors instead of unbounded work.
//!
//! Fault arms additionally need `--features fault-injection`.

use std::sync::{Mutex, MutexGuard};

use mpf_algebra::{AlgebraError, ExecContext, ExecLimits, ResourceKind};
use mpf_infer::{bp, BayesNet, InferError, JunctionTree, VeCache};
use mpf_optimizer::{Algorithm, Heuristic};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};

/// The fault registry is process-global. Under `fault-injection` every test
/// here holds this lock while it runs, so a fault armed by the tests in
/// `faults` never fires inside another test's operators.
fn lock() -> Option<MutexGuard<'static, ()>> {
    static LOCK: Mutex<()> = Mutex::new(());
    cfg!(feature = "fault-injection").then(|| LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// r0(x0, x1), r1(x1, x2), ... — an acyclic chain of complete relations.
fn chain(cat: &mut Catalog, n: usize, dom: u64) -> Vec<FunctionalRelation> {
    let vars: Vec<VarId> = (0..=n)
        .map(|i| cat.add_var(&format!("x{i}"), dom).unwrap())
        .collect();
    (0..n)
        .map(|i| {
            FunctionalRelation::complete(
                format!("r{i}"),
                Schema::new(vec![vars[i], vars[i + 1]]).unwrap(),
                cat,
                |row| ((row[0] * 3 + row[1] * 7 + i as u32) % 5 + 1) as f64 / 2.0,
            )
        })
        .collect()
}

/// The Figure 12 cyclic supply chain — forces multi-relation cliques, so
/// junction-tree population actually joins.
fn cyclic_family(cat: &mut Catalog) -> Vec<FunctionalRelation> {
    let pid = cat.add_var("pid", 2).unwrap();
    let sid = cat.add_var("sid", 2).unwrap();
    let wid = cat.add_var("wid", 2).unwrap();
    let cid = cat.add_var("cid", 2).unwrap();
    let tid = cat.add_var("tid", 2).unwrap();
    let mk = |name: &str, vars: Vec<VarId>, salt: u32| {
        FunctionalRelation::complete(name, Schema::new(vars).unwrap(), cat, move |row| {
            ((row.iter().sum::<u32>() + salt) % 3 + 1) as f64 / 2.0
        })
    };
    vec![
        mk("contracts", vec![pid, sid], 0),
        mk("warehouses", vec![wid, cid], 1),
        mk("transporters", vec![tid], 2),
        mk("location", vec![pid, wid], 3),
        mk("ctdeals", vec![cid, tid], 4),
        mk("stdeals", vec![sid, tid], 5),
    ]
}

fn tripped_on_cells(err: InferError) -> bool {
    matches!(
        err,
        InferError::Algebra(AlgebraError::ResourceExhausted {
            resource: ResourceKind::TotalCells,
            ..
        })
    )
}

fn tiny_cells(sr: SemiringKind) -> ExecContext<'static> {
    ExecContext::with_limits(sr, ExecLimits::none().with_max_total_cells(4))
}

#[test]
fn vecache_build_respects_cell_budget() {
    let _g = lock();
    let mut cat = Catalog::new();
    let rels = chain(&mut cat, 4, 3);
    let refs: Vec<&FunctionalRelation> = rels.iter().collect();
    let sr = SemiringKind::SumProduct;

    let mut cx = tiny_cells(sr);
    assert!(tripped_on_cells(
        VeCache::build_in(&mut cx, &refs, None).unwrap_err()
    ));

    // The same construction under no limits succeeds and reports its work
    // in the caller's context.
    let mut cx = ExecContext::new(sr);
    let cache = VeCache::build_in(&mut cx, &refs, None).unwrap();
    assert!(!cache.tables().is_empty());
    assert!(cx.stats().group_bys > 0, "forward-pass eliminations recorded");
    assert!(cx.stats().rows_processed > 0);
}

#[test]
fn bp_calibration_respects_cell_budget() {
    let _g = lock();
    let mut cat = Catalog::new();
    let rels = chain(&mut cat, 4, 3);
    let refs: Vec<&FunctionalRelation> = rels.iter().collect();
    let sr = SemiringKind::SumProduct;

    let mut cx = tiny_cells(sr);
    assert!(tripped_on_cells(
        bp::bp_acyclic_in(&mut cx, &refs).unwrap_err()
    ));

    let mut cx = ExecContext::new(sr);
    let (tables, program) = bp::bp_acyclic_in(&mut cx, &refs).unwrap();
    assert_eq!(tables.len(), refs.len());
    assert!(!program.is_empty());
    // Semijoins decompose into joins + group-bys, all on the context.
    assert!(cx.stats().joins > 0);
    assert!(cx.stats().group_bys > 0);
}

#[test]
fn junction_population_respects_cell_budget() {
    let _g = lock();
    let mut cat = Catalog::new();
    let rels = cyclic_family(&mut cat);
    let schemas: Vec<Schema> = rels.iter().map(|r| r.schema().clone()).collect();
    let jt = JunctionTree::from_schemas(&schemas, None).unwrap();
    let refs: Vec<&FunctionalRelation> = rels.iter().collect();
    let sr = SemiringKind::SumProduct;

    let mut cx = tiny_cells(sr);
    assert!(tripped_on_cells(
        jt.populate_in(&mut cx, &refs, &cat).unwrap_err()
    ));

    let mut cx = ExecContext::new(sr);
    let tables = jt.populate_in(&mut cx, &refs, &cat).unwrap();
    assert_eq!(tables.len(), jt.cliques.len());
    assert!(cx.stats().joins > 0, "clique population joins recorded");
}

#[test]
fn bayes_marginal_respects_cell_budget() {
    let _g = lock();
    let bn = BayesNet::sprinkler();
    let wet = bn.catalog().var("wet").unwrap();
    let algo = Algorithm::Ve(Heuristic::Degree);

    let err = bn
        .marginal(&[wet], &[], algo, ExecLimits::none().with_max_total_cells(2))
        .unwrap_err();
    assert!(tripped_on_cells(err));

    let (rel, stats) = bn.marginal(&[wet], &[], algo, ExecLimits::none()).unwrap();
    assert_eq!(rel.len(), 2);
    assert!(stats.rows_scanned > 0);
    assert!(stats.joins > 0);
    assert!(stats.group_bys > 0);
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;

    use mpf_algebra::fault;

    fn injected(err: InferError) -> bool {
        matches!(err, InferError::Algebra(AlgebraError::FaultInjected(_)))
    }

    /// Every inference entry point has its own fault site: arming it fails
    /// exactly that call, and the arm disarms after firing so a retry
    /// succeeds (the engine's fallback-chain contract).
    #[test]
    fn inference_entry_sites_fire_and_disarm() {
        let _g = lock();
        fault::clear_all();
        let mut cat = Catalog::new();
        let rels = chain(&mut cat, 3, 2);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;

        fault::inject("vecache::build", 1);
        assert!(injected(VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap_err()));
        assert!(VeCache::build_in(&mut ExecContext::new(sr), &refs, None).is_ok());

        fault::inject("bp::calibrate", 1);
        assert!(injected(bp::bp_acyclic(sr, &refs).unwrap_err()));
        assert!(bp::bp_acyclic(sr, &refs).is_ok());

        let schemas: Vec<Schema> = rels.iter().map(|r| r.schema().clone()).collect();
        let jt = JunctionTree::from_schemas(&schemas, None).unwrap();
        fault::inject("junction::populate", 1);
        assert!(injected(jt.populate_in(&mut ExecContext::new(sr), &refs, &cat).unwrap_err()));
        assert!(jt.populate_in(&mut ExecContext::new(sr), &refs, &cat).is_ok());

        let bn = BayesNet::sprinkler();
        let wet = bn.catalog().var("wet").unwrap();
        let algo = Algorithm::Ve(Heuristic::Degree);
        fault::inject("bayes::marginal", 1);
        assert!(injected(
            bn.marginal(&[wet], &[], algo, ExecLimits::none()).unwrap_err()
        ));
        assert!(bn.marginal(&[wet], &[], algo, ExecLimits::none()).is_ok());
        fault::clear_all();
    }

    /// A fault deep inside a construction does not lose the work already
    /// recorded on the caller's context.
    #[test]
    fn fault_mid_build_keeps_accumulated_stats() {
        let _g = lock();
        fault::clear_all();
        let mut cat = Catalog::new();
        let rels = chain(&mut cat, 3, 2);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();

        // Fail the backward pass's first update semijoin: by then the
        // forward pass has already run its eliminations.
        fault::inject("update_semijoin", 1);
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        assert!(injected(VeCache::build_in(&mut cx, &refs, None).unwrap_err()));
        assert!(
            cx.stats().group_bys > 0,
            "forward-pass work survives the fault"
        );
        fault::clear_all();
    }
}
