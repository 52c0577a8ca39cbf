//! Bayesian networks as MPF views (Section 4).
//!
//! A Bayesian network factors a joint distribution into local conditional
//! distributions `Pr(node | parents)`, each stored as a *complete*
//! functional relation over `{parents..., node}` with the probability as
//! measure. The joint distribution is then exactly the MPF view
//! `cpt_1 ⨝* cpt_2 ⨝* ... ⨝* cpt_n` in the sum-product semiring, and
//! inference queries are MPF queries:
//!
//! ```sql
//! select C, SUM(p) from joint where A = 0 group by C   -- Pr(C | A = 0)
//! ```
//!
//! [`BayesNet::posterior`] compiles such a query, evaluates it with a
//! cost-based plan from `mpf-optimizer`, and normalizes;
//! [`BayesNet::joint`] provides the brute-force enumeration oracle used to
//! validate exactness.

use mpf_algebra::{ExecContext, ExecLimits, ExecStats, Executor, Plan, RelationStore};
use mpf_optimizer::physical::{choose_physical, PhysicalConfig};
use mpf_optimizer::{optimize, Algorithm, BaseRel, CostModel, OptContext, QuerySpec};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, Value, VarId};
use rand::Rng;
use rand::SeedableRng;

use crate::{InferError, Result};

/// A discrete Bayesian network over variables registered in its own catalog.
#[derive(Debug, Clone)]
pub struct BayesNet {
    catalog: Catalog,
    nodes: Vec<VarId>,
    parents: Vec<Vec<VarId>>,
    cpts: Vec<FunctionalRelation>,
}

/// Incremental builder for [`BayesNet`].
#[derive(Debug, Clone, Default)]
pub struct BayesNetBuilder {
    catalog: Catalog,
    nodes: Vec<VarId>,
    parents: Vec<Vec<VarId>>,
    tables: Vec<Option<Vec<f64>>>,
}

impl BayesNetBuilder {
    /// Start an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a variable with the given domain size. Returns its id.
    pub fn variable(&mut self, name: &str, domain: u64) -> Result<VarId> {
        let id = self.catalog.add_var(name, domain)?;
        self.nodes.push(id);
        self.parents.push(Vec::new());
        self.tables.push(None);
        Ok(id)
    }

    /// Attach a CPT to `node`. `probs` is indexed in odometer order over
    /// `(parents..., node)` — i.e. the probabilities of the node's values
    /// for one parent configuration are contiguous and must sum to 1.
    pub fn cpt(&mut self, node: VarId, parents: &[VarId], probs: Vec<f64>) -> Result<()> {
        let idx = self
            .nodes
            .iter()
            .position(|&n| n == node)
            .ok_or_else(|| InferError::MissingCpt(format!("{node}")))?;
        self.parents[idx] = parents.to_vec();
        self.tables[idx] = Some(probs);
        Ok(())
    }

    /// Validate and build the network.
    pub fn build(self) -> Result<BayesNet> {
        // Check topological consistency (parents declared before use is NOT
        // required, but the parent graph must be acyclic).
        let order = topo_order(&self.nodes, &self.parents).ok_or(InferError::CyclicNetwork)?;

        let mut cpts = Vec::with_capacity(self.nodes.len());
        for (i, &node) in self.nodes.iter().enumerate() {
            let name = self.catalog.name(node).to_string();
            let probs = self.tables[i]
                .clone()
                .ok_or_else(|| InferError::MissingCpt(name.clone()))?;
            let parents = &self.parents[i];
            let mut schema_vars = parents.clone();
            schema_vars.push(node);
            let schema = Schema::new(schema_vars)?;
            let expected: u64 = schema
                .iter()
                .map(|v| self.catalog.domain_size(v))
                .product();
            if probs.len() as u64 != expected {
                return Err(InferError::InvalidCpt(name));
            }
            let node_dom = self.catalog.domain_size(node) as usize;
            for chunk in probs.chunks(node_dom) {
                let sum: f64 = chunk.iter().sum();
                if chunk.iter().any(|&p| !(0.0..=1.0 + 1e-9).contains(&p))
                    || (sum - 1.0).abs() > 1e-6
                {
                    return Err(InferError::InvalidCpt(name));
                }
            }
            let mut iter = probs.into_iter();
            let cpt = FunctionalRelation::complete(
                format!("cpt_{name}"),
                schema,
                &self.catalog,
                |_| iter.next().expect("length validated"),
            );
            cpts.push(cpt);
        }
        let _ = order;
        Ok(BayesNet {
            catalog: self.catalog,
            nodes: self.nodes,
            parents: self.parents,
            cpts,
        })
    }
}

fn topo_order(nodes: &[VarId], parents: &[Vec<VarId>]) -> Option<Vec<VarId>> {
    let idx_of = |v: VarId| nodes.iter().position(|&n| n == v);
    let n = nodes.len();
    let mut indegree = vec![0usize; n];
    for (i, ps) in parents.iter().enumerate() {
        let _ = i;
        for &p in ps {
            idx_of(p)?;
        }
        indegree[i] = ps.len();
    }
    let mut order = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut removed = vec![false; n];
    while let Some(i) = ready.pop() {
        removed[i] = true;
        order.push(nodes[i]);
        for (j, ps) in parents.iter().enumerate() {
            if !removed[j] && ps.contains(&nodes[i]) {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
    }
    (order.len() == n).then_some(order)
}

impl BayesNet {
    /// The network's variable catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The network's variables in declaration order.
    pub fn nodes(&self) -> &[VarId] {
        &self.nodes
    }

    /// The parents of each node, parallel to [`BayesNet::nodes`].
    pub fn parents(&self) -> &[Vec<VarId>] {
        &self.parents
    }

    /// The CPTs — the base functional relations of the joint MPF view.
    pub fn cpts(&self) -> &[FunctionalRelation] {
        &self.cpts
    }

    /// Brute-force joint distribution (product join of every CPT) — the
    /// exponential-size oracle the MPF machinery is designed to avoid.
    pub fn joint(&self) -> Result<FunctionalRelation> {
        let cx = &mut ExecContext::new(SemiringKind::SumProduct);
        let mut acc = self.cpts[0].clone();
        for cpt in &self.cpts[1..] {
            acc = mpf_algebra::ops::product_join(cx, &acc, cpt)?;
        }
        Ok(acc.with_name("joint"))
    }

    /// Exact posterior `Pr(target | evidence)` computed as an MPF query
    /// (`select target, SUM(p) from joint where evidence group by target`)
    /// optimized with `algorithm` and normalized. Returns the distribution
    /// indexed by the target's domain values.
    pub fn posterior(
        &self,
        target: VarId,
        evidence: &[(VarId, Value)],
        algorithm: Algorithm,
    ) -> Result<Vec<f64>> {
        let (marginal, _) = self.marginal(&[target], evidence, algorithm, ExecLimits::none())?;
        let dom = self.catalog.domain_size(target) as usize;
        let mut out = vec![0.0; dom];
        for (row, m) in marginal.rows() {
            out[row[0] as usize] = m;
        }
        let z: f64 = out.iter().sum();
        if z > 0.0 {
            for p in &mut out {
                *p /= z;
            }
        }
        Ok(out)
    }

    /// Run an arbitrary (unnormalized) MPF query against the joint view
    /// under explicit [`ExecLimits`] (pass [`ExecLimits::none`] for an
    /// unbounded run): the optimized plan is lowered and interpreted
    /// inside one [`ExecContext`], so row and cell budgets, deadlines,
    /// and cancellation bound the inference work, and the returned
    /// [`ExecStats`] report it.
    pub fn marginal(
        &self,
        group_vars: &[VarId],
        evidence: &[(VarId, Value)],
        algorithm: Algorithm,
        limits: ExecLimits,
    ) -> Result<(FunctionalRelation, ExecStats)> {
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::with_limits(sr, limits);
        cx.fault("bayes::marginal")?;
        let store: RelationStore = self.cpts.iter().cloned().collect();
        let base: Vec<BaseRel> = self.cpts.iter().map(BaseRel::of).collect();
        let mut spec = QuerySpec::group_by(group_vars.iter().copied());
        for &(v, c) in evidence {
            spec = spec.filter(v, c);
        }
        let ctx = OptContext::new(&self.catalog, base, spec, CostModel::Io);
        let plan = optimize(&ctx, algorithm);
        let exec = Executor::new(&store, sr);
        // Cost-based physical selection (instead of the executor's default
        // hash lowering) so elimination steps over dense CPT grids run the
        // fused join→marginalize kernel and the sparse operators apply
        // where their estimates say they pay off.
        let physical = choose_physical(&ctx, &plan.plan, PhysicalConfig::default());
        let rel = exec.execute_physical_in(&mut cx, &physical)?;
        Ok((rel, cx.take_stats()))
    }

    /// The optimized plan for a posterior query (for inspection/EXPLAIN).
    pub fn plan(
        &self,
        group_vars: &[VarId],
        evidence: &[(VarId, Value)],
        algorithm: Algorithm,
    ) -> Plan {
        let base: Vec<BaseRel> = self.cpts.iter().map(BaseRel::of).collect();
        let mut spec = QuerySpec::group_by(group_vars.iter().copied());
        for &(v, c) in evidence {
            spec = spec.filter(v, c);
        }
        let ctx = OptContext::new(&self.catalog, base, spec, CostModel::Io);
        optimize(&ctx, algorithm).plan
    }

    /// Draw `n` ancestral samples. Returns rows in node declaration order.
    pub fn sample(&self, n: usize, seed: u64) -> Result<Vec<Vec<Value>>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let order = topo_order(&self.nodes, &self.parents).ok_or(InferError::CyclicNetwork)?;
        let cx = &mut ExecContext::new(SemiringKind::SumProduct);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut assignment: std::collections::HashMap<VarId, Value> = Default::default();
            for &node in &order {
                let i = self.nodes.iter().position(|&x| x == node).unwrap();
                let cpt = &self.cpts[i];
                // Filter CPT rows matching the sampled parent values.
                let preds: Vec<(VarId, Value)> = self.parents[i]
                    .iter()
                    .map(|&p| (p, assignment[&p]))
                    .collect();
                let cond = mpf_algebra::ops::select_eq(cx, cpt, &preds)?;
                let node_pos = cond.schema().position(node)?;
                let u: f64 = rng.random();
                let mut acc = 0.0;
                let mut chosen = 0;
                for (row, m) in cond.rows() {
                    acc += m;
                    chosen = row[node_pos];
                    if u <= acc {
                        break;
                    }
                }
                assignment.insert(node, chosen);
            }
            out.push(self.nodes.iter().map(|v| assignment[v]).collect());
        }
        Ok(out)
    }

    /// Estimate a network with the same structure as `structure` from
    /// complete-data samples (rows in node declaration order), by maximum
    /// likelihood with Laplace smoothing `alpha`.
    ///
    /// Section 4 of the paper observes that both structure scoring and
    /// parameter estimation need *counts from data*, and that "the MPF
    /// setting can be used to compute the required counts": the samples are
    /// loaded as one functional relation whose measure is the occurrence
    /// count, and each CPT's sufficient statistics are MPF `SUM` queries
    /// (group-bys) against it in the sum-product semiring.
    pub fn fit(structure: &BayesNet, samples: &[Vec<Value>], alpha: f64) -> Result<BayesNet> {
        assert!(alpha >= 0.0);
        let cx = &mut ExecContext::new(SemiringKind::SumProduct);
        // Aggregate duplicate samples: the data relation is functional with
        // the count as measure.
        let all_vars = Schema::new(structure.nodes.to_vec())?;
        let mut counts: std::collections::HashMap<Vec<Value>, f64> = Default::default();
        for s in samples {
            *counts.entry(s.clone()).or_insert(0.0) += 1.0;
        }
        let data = FunctionalRelation::from_rows("data", all_vars, counts)?;

        let mut cpts = Vec::with_capacity(structure.nodes.len());
        for (i, &node) in structure.nodes.iter().enumerate() {
            let parents = &structure.parents[i];
            let mut family = parents.clone();
            family.push(node);
            // MPF count queries: joint family counts and parent counts.
            let family_counts = mpf_algebra::ops::group_by(cx, &data, &family)?;
            let parent_counts = mpf_algebra::ops::group_by(cx, &data, parents)?;
            let node_dom = structure.catalog.domain_size(node) as f64;

            let schema = Schema::new(family.clone())?;
            let cpt = FunctionalRelation::complete(
                format!("cpt_{}", structure.catalog.name(node)),
                schema,
                &structure.catalog,
                |row| {
                    let fam = family_counts.lookup(row).unwrap_or(0.0);
                    let par = parent_counts
                        .lookup(&row[..row.len() - 1])
                        .unwrap_or(0.0);
                    (fam + alpha) / (par + alpha * node_dom)
                },
            );
            cpts.push(cpt);
        }
        Ok(BayesNet {
            catalog: structure.catalog.clone(),
            nodes: structure.nodes.clone(),
            parents: structure.parents.clone(),
            cpts,
        })
    }

    /// Log-likelihood of complete-data `samples` under this network,
    /// computed from family counts (each an MPF `SUM` query against the
    /// aggregated sample relation).
    pub fn log_likelihood(&self, samples: &[Vec<Value>]) -> Result<f64> {
        let mut ll = 0.0;
        'sample: for s in samples {
            let mut lp = 0.0;
            for (i, cpt) in self.cpts.iter().enumerate() {
                let mut family_row: Vec<Value> = self.parents[i]
                    .iter()
                    .map(|p| {
                        let idx = self.nodes.iter().position(|&n| n == *p).unwrap();
                        s[idx]
                    })
                    .collect();
                family_row.push(s[i]);
                let p = cpt.lookup(&family_row).unwrap_or(0.0);
                if p <= 0.0 {
                    ll += f64::NEG_INFINITY;
                    continue 'sample;
                }
                lp += p.ln();
            }
            ll += lp;
        }
        Ok(ll)
    }

    /// BIC score of a candidate structure on `samples`: the maximized
    /// log-likelihood minus `(ln N / 2) · k`, where `k` is the number of
    /// free CPT parameters. Higher is better.
    pub fn bic_score(structure: &BayesNet, samples: &[Vec<Value>]) -> Result<f64> {
        let fitted = BayesNet::fit(structure, samples, 1e-4)?;
        let ll = fitted.log_likelihood(samples)?;
        let n = samples.len().max(1) as f64;
        let mut params = 0.0;
        for (i, &node) in structure.nodes.iter().enumerate() {
            let node_dom = structure.catalog.domain_size(node) as f64;
            let parent_dom: f64 = structure.parents[i]
                .iter()
                .map(|&p| structure.catalog.domain_size(p) as f64)
                .product();
            params += parent_dom * (node_dom - 1.0);
        }
        Ok(ll - 0.5 * n.ln() * params)
    }

    /// Greedy structure learning under a fixed variable ordering (the
    /// classical K2-style search): each node independently selects the
    /// parent subset (among its predecessors in `order`, at most
    /// `max_parents` wide) that maximizes the family's BIC contribution.
    ///
    /// This makes Section 4's remark operational: the conditional
    /// independencies that license the MPF factorization are themselves
    /// *estimated from data*, and every sufficient statistic involved is an
    /// MPF count query.
    pub fn learn_structure(
        catalog: &Catalog,
        order: &[VarId],
        samples: &[Vec<Value>],
        max_parents: usize,
    ) -> Result<BayesNet> {
        assert!(!order.is_empty());
        // `samples` rows follow `order`.
        let mut b = BayesNetBuilder::new();
        let mut ids = Vec::with_capacity(order.len());
        for &v in order {
            ids.push(b.variable(catalog.name(v), catalog.domain_size(v))?);
        }
        // Placeholder CPTs; real ones are fitted after parents are chosen.
        let mut chosen_parents: Vec<Vec<VarId>> = Vec::with_capacity(order.len());
        for (i, &node) in ids.iter().enumerate() {
            let mut best: Option<(f64, Vec<VarId>)> = None;
            for subset in subsets_up_to(&ids[..i], max_parents) {
                let score =
                    family_bic(&b.catalog, node, &subset, &ids, samples)?;
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, subset));
                }
            }
            chosen_parents.push(best.expect("empty subset always scored").1);
        }
        for (i, &node) in ids.iter().enumerate() {
            // Uniform placeholder; replaced by the final fit.
            let dom = b.catalog.domain_size(node);
            let rows: u64 = chosen_parents[i]
                .iter()
                .map(|&p| b.catalog.domain_size(p))
                .product();
            let uniform = vec![1.0 / dom as f64; (rows * dom) as usize];
            let parents = chosen_parents[i].clone();
            b.cpt(node, &parents, uniform)?;
        }
        let skeleton = b.build()?;
        BayesNet::fit(&skeleton, samples, 1.0)
    }

    /// The classic two-parent "sprinkler" network
    /// (cloudy → sprinkler, cloudy → rain, {sprinkler, rain} → wet grass).
    pub fn sprinkler() -> BayesNet {
        let mut b = BayesNetBuilder::new();
        let cloudy = b.variable("cloudy", 2).unwrap();
        let sprinkler = b.variable("sprinkler", 2).unwrap();
        let rain = b.variable("rain", 2).unwrap();
        let wet = b.variable("wet", 2).unwrap();
        b.cpt(cloudy, &[], vec![0.5, 0.5]).unwrap();
        // Pr(sprinkler | cloudy): cloudy=0 -> (0.5, 0.5); cloudy=1 -> (0.9, 0.1).
        b.cpt(sprinkler, &[cloudy], vec![0.5, 0.5, 0.9, 0.1])
            .unwrap();
        // Pr(rain | cloudy): cloudy=0 -> (0.8, 0.2); cloudy=1 -> (0.2, 0.8).
        b.cpt(rain, &[cloudy], vec![0.8, 0.2, 0.2, 0.8]).unwrap();
        // Pr(wet | sprinkler, rain).
        b.cpt(
            wet,
            &[sprinkler, rain],
            vec![1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99],
        )
        .unwrap();
        b.build().unwrap()
    }

    /// A random network: `n` nodes with the given domain size, each with at
    /// most `max_parents` parents among earlier nodes, CPT rows drawn
    /// uniformly and normalized. Deterministic in `seed`.
    pub fn random(n: usize, domain: u64, max_parents: usize, seed: u64) -> BayesNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = BayesNetBuilder::new();
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            ids.push(b.variable(&format!("n{i}"), domain).unwrap());
        }
        for i in 0..n {
            let k = if i == 0 {
                0
            } else {
                rng.random_range(0..=max_parents.min(i))
            };
            // Choose k distinct earlier nodes.
            let mut parents: Vec<VarId> = Vec::new();
            while parents.len() < k {
                let p = ids[rng.random_range(0..i)];
                if !parents.contains(&p) {
                    parents.push(p);
                }
            }
            let rows: u64 = parents.iter().map(|&p| domain_of(&b, p)).product::<u64>();
            let mut probs = Vec::with_capacity((rows * domain) as usize);
            for _ in 0..rows {
                let raw: Vec<f64> = (0..domain).map(|_| rng.random_range(0.05..1.0)).collect();
                let z: f64 = raw.iter().sum();
                probs.extend(raw.into_iter().map(|p| p / z));
            }
            b.cpt(ids[i], &parents, probs).unwrap();
        }
        b.build().unwrap()
    }
}

fn domain_of(b: &BayesNetBuilder, v: VarId) -> u64 {
    b.catalog.domain_size(v)
}

/// All subsets of `pool` with at most `k` elements (including the empty
/// set). `pool` is small (predecessor lists in K2 search).
fn subsets_up_to(pool: &[VarId], k: usize) -> Vec<Vec<VarId>> {
    let mut out = vec![vec![]];
    for &v in pool {
        let mut extra = Vec::new();
        for s in &out {
            if s.len() < k {
                let mut t = s.clone();
                t.push(v);
                extra.push(t);
            }
        }
        out.extend(extra);
    }
    out
}

/// BIC contribution of one family `parents -> node`, from sample counts:
/// `Σ_config N(config) · ln θ̂(config) − (ln N / 2) · |params|`.
fn family_bic(
    catalog: &Catalog,
    node: VarId,
    parents: &[VarId],
    all_nodes: &[VarId],
    samples: &[Vec<Value>],
) -> crate::Result<f64> {
    let cx = &mut ExecContext::new(SemiringKind::SumProduct);
    // Aggregate samples into a count relation (MPF counting view).
    let schema = Schema::new(all_nodes.to_vec())?;
    let mut counts: std::collections::HashMap<Vec<Value>, f64> = Default::default();
    for s in samples {
        *counts.entry(s.clone()).or_insert(0.0) += 1.0;
    }
    let data = FunctionalRelation::from_rows("data", schema, counts)?;

    let mut family = parents.to_vec();
    family.push(node);
    let fam_counts = mpf_algebra::ops::group_by(cx, &data, &family)?;
    let par_counts = mpf_algebra::ops::group_by(cx, &data, parents)?;

    let mut ll = 0.0;
    for (row, n_fam) in fam_counts.rows() {
        let n_par = par_counts
            .lookup(&row[..row.len() - 1])
            .expect("family count implies parent count");
        if n_fam > 0.0 {
            ll += n_fam * (n_fam / n_par).ln();
        }
    }
    let n = samples.len().max(1) as f64;
    let node_dom = catalog.domain_size(node) as f64;
    let parent_dom: f64 = parents
        .iter()
        .map(|&p| catalog.domain_size(p) as f64)
        .product();
    Ok(ll - 0.5 * n.ln() * parent_dom * (node_dom - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_optimizer::Heuristic;
    use mpf_semiring::approx_eq;

    #[test]
    fn sprinkler_joint_sums_to_one() {
        let bn = BayesNet::sprinkler();
        let joint = bn.joint().unwrap();
        assert_eq!(joint.len(), 16);
        let total: f64 = joint.measures().iter().sum();
        assert!(approx_eq(total, 1.0));
    }

    #[test]
    fn paper_figure_2_network() {
        // Figure 2: Pr(A)Pr(B|A)Pr(C|A)Pr(D|B,C) over binary variables,
        // with the inference task `select C, SUM(p) from joint where A=0
        // group by C`.
        let mut b = BayesNetBuilder::new();
        let a = b.variable("A", 2).unwrap();
        let bb = b.variable("B", 2).unwrap();
        let c = b.variable("C", 2).unwrap();
        let d = b.variable("D", 2).unwrap();
        b.cpt(a, &[], vec![0.3, 0.7]).unwrap();
        b.cpt(bb, &[a], vec![0.6, 0.4, 0.1, 0.9]).unwrap();
        b.cpt(c, &[a], vec![0.2, 0.8, 0.5, 0.5]).unwrap();
        b.cpt(d, &[bb, c], vec![0.9, 0.1, 0.4, 0.6, 0.3, 0.7, 0.05, 0.95])
            .unwrap();
        let bn = b.build().unwrap();

        let post = bn
            .posterior(c, &[(a, 0)], Algorithm::Ve(Heuristic::Degree))
            .unwrap();
        // Pr(C | A=0) = CPT row directly: (0.2, 0.8).
        assert!(approx_eq(post[0], 0.2));
        assert!(approx_eq(post[1], 0.8));
    }

    #[test]
    fn posterior_matches_enumeration() {
        let bn = BayesNet::sprinkler();
        let wet = bn.catalog().var("wet").unwrap();
        let rain = bn.catalog().var("rain").unwrap();

        // Enumeration: Pr(rain | wet = 1).
        let cx = &mut ExecContext::new(SemiringKind::SumProduct);
        let joint = bn.joint().unwrap();
        let cond = mpf_algebra::ops::select_eq(cx, &joint, &[(wet, 1)]).unwrap();
        let marg = mpf_algebra::ops::group_by(cx, &cond, &[rain]).unwrap();
        let z: f64 = marg.measures().iter().sum();
        let want: Vec<f64> = (0..2).map(|v| marg.lookup(&[v]).unwrap() / z).collect();

        for algo in [
            Algorithm::Cs,
            Algorithm::CsPlusNonlinear,
            Algorithm::Ve(Heuristic::Degree),
            Algorithm::VePlus(Heuristic::Width),
        ] {
            let got = bn.posterior(rain, &[(wet, 1)], algo).unwrap();
            assert!(approx_eq(got[0], want[0]), "{}: {got:?} vs {want:?}", algo.label());
            assert!(approx_eq(got[1], want[1]));
        }
    }

    #[test]
    fn random_networks_are_valid_distributions() {
        for seed in 0..5 {
            let bn = BayesNet::random(6, 2, 2, seed);
            let joint = bn.joint().unwrap();
            let total: f64 = joint.measures().iter().sum();
            assert!(approx_eq(total, 1.0), "seed {seed}: total {total}");
        }
    }

    #[test]
    fn sampling_tracks_marginals() {
        let bn = BayesNet::sprinkler();
        let cloudy = bn.catalog().var("cloudy").unwrap();
        let samples = bn.sample(4000, 7).unwrap();
        let idx = bn.nodes().iter().position(|&v| v == cloudy).unwrap();
        let freq = samples.iter().filter(|s| s[idx] == 1).count() as f64 / 4000.0;
        assert!((freq - 0.5).abs() < 0.05, "cloudy frequency {freq}");
    }

    #[test]
    fn fitting_recovers_distribution_from_samples() {
        let truth = BayesNet::sprinkler();
        let samples = truth.sample(30_000, 11).unwrap();
        let fitted = BayesNet::fit(&truth, &samples, 1.0).unwrap();

        // Fitted CPT rows are valid conditional distributions.
        for (i, cpt) in fitted.cpts().iter().enumerate() {
            let node = fitted.nodes()[i];
            let parents = &fitted.parents()[i];
            let totals = mpf_algebra::ops::group_by(
                &mut ExecContext::new(SemiringKind::SumProduct),
                cpt,
                parents,
            )
            .unwrap();
            for (_, total) in totals.rows() {
                assert!(approx_eq(total, 1.0), "node {node}: rows sum to {total}");
            }
        }

        // Posteriors agree with the true network within sampling error.
        let rain = truth.catalog().var("rain").unwrap();
        let wet = truth.catalog().var("wet").unwrap();
        let algo = Algorithm::Ve(Heuristic::Degree);
        let want = truth.posterior(rain, &[(wet, 1)], algo).unwrap();
        let got = fitted.posterior(rain, &[(wet, 1)], algo).unwrap();
        assert!(
            (want[1] - got[1]).abs() < 0.03,
            "true {} vs fitted {}",
            want[1],
            got[1]
        );
    }

    #[test]
    fn structure_learning_recovers_sprinkler_edges() {
        let truth = BayesNet::sprinkler();
        // Samples follow node declaration order, which is a topological
        // order for the sprinkler net.
        let samples = truth.sample(25_000, 3).unwrap();
        let learned = BayesNet::learn_structure(
            truth.catalog(),
            truth.nodes(),
            &samples,
            2,
        )
        .unwrap();
        // Compare parent sets (learned catalog ids are fresh but names and
        // order match).
        let name = |bn: &BayesNet, v: VarId| bn.catalog().name(v).to_string();
        for (i, want_parents) in truth.parents().iter().enumerate() {
            let mut want: Vec<String> =
                want_parents.iter().map(|&p| name(&truth, p)).collect();
            let mut got: Vec<String> = learned.parents()[i]
                .iter()
                .map(|&p| name(&learned, p))
                .collect();
            want.sort();
            got.sort();
            assert_eq!(
                want, got,
                "node {} has wrong parents",
                name(&truth, truth.nodes()[i])
            );
        }
        // BIC prefers the true structure to the empty one.
        let mut empty_b = BayesNetBuilder::new();
        let mut ids = Vec::new();
        for &v in truth.nodes() {
            ids.push(
                empty_b
                    .variable(truth.catalog().name(v), truth.catalog().domain_size(v))
                    .unwrap(),
            );
        }
        for &v in &ids {
            empty_b.cpt(v, &[], vec![0.5, 0.5]).unwrap();
        }
        let empty = empty_b.build().unwrap();
        let bic_true = BayesNet::bic_score(&truth, &samples).unwrap();
        let bic_empty = BayesNet::bic_score(&empty, &samples).unwrap();
        assert!(bic_true > bic_empty);
    }

    #[test]
    fn log_likelihood_prefers_true_model() {
        let truth = BayesNet::sprinkler();
        let samples = truth.sample(5_000, 5).unwrap();
        let fitted = BayesNet::fit(&truth, &samples, 1.0).unwrap();
        let ll_true = fitted.log_likelihood(&samples).unwrap();
        // A shuffled-CPT model explains the data worse.
        let random = BayesNet::random(4, 2, 2, 99);
        let ll_rand = random.log_likelihood(&samples).unwrap();
        assert!(ll_true > ll_rand, "{ll_true} vs {ll_rand}");
        assert!(ll_true.is_finite());
    }

    #[test]
    fn fitting_with_no_data_gives_uniform_cpts() {
        let truth = BayesNet::sprinkler();
        let fitted = BayesNet::fit(&truth, &[], 1.0).unwrap();
        for cpt in fitted.cpts() {
            for (_, p) in cpt.rows() {
                assert!(approx_eq(p, 0.5), "binary uniform expected, got {p}");
            }
        }
    }

    #[test]
    fn builder_rejects_bad_cpts() {
        let mut b = BayesNetBuilder::new();
        let a = b.variable("A", 2).unwrap();
        // Does not sum to 1.
        b.cpt(a, &[], vec![0.3, 0.3]).unwrap();
        assert!(matches!(b.build(), Err(InferError::InvalidCpt(_))));

        let mut b = BayesNetBuilder::new();
        let a = b.variable("A", 2).unwrap();
        // Wrong length.
        b.cpt(a, &[], vec![1.0]).unwrap();
        assert!(matches!(b.build(), Err(InferError::InvalidCpt(_))));

        let mut b = BayesNetBuilder::new();
        let _ = b.variable("A", 2).unwrap();
        // Missing CPT.
        assert!(matches!(b.build(), Err(InferError::MissingCpt(_))));
    }

    #[test]
    fn builder_rejects_cycles() {
        let mut b = BayesNetBuilder::new();
        let a = b.variable("A", 2).unwrap();
        let c = b.variable("B", 2).unwrap();
        b.cpt(a, &[c], vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        b.cpt(c, &[a], vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        assert!(matches!(b.build(), Err(InferError::CyclicNetwork)));
    }
}
