//! Elimination-order heuristics for Variable Elimination (Section 5.5).
//!
//! * **degree** — estimates the size of the *post*-elimination relation
//!   (`p` in line 6 of Algorithm 2) as the product of the effective domain
//!   sizes of the neighbours of `v`; greedily minimizes the size of join
//!   operands higher in the tree.
//! * **width** — estimates the size of the *pre*-elimination relation
//!   `joinplan(rels(v, S))` as the product of domain sizes including `v`.
//! * **elimination cost** — estimates the actual cost of the plan required
//!   to eliminate `v`. Per the paper's implementation note, this is an
//!   *overestimate*: a fixed linear join ordering (smallest first) is
//!   assumed and costed with the context's cost model.
//! * **deg & width**, **deg & elim_cost** — normalized products of two
//!   heuristics (each candidate's score is divided by the largest among
//!   candidates, then multiplied; footnote 1 of the paper).
//! * **random** — a seeded random order (the Table 3 experiment).

use mpf_storage::VarId;

use crate::memo::{Memo, NodeId};

/// An elimination-order heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Heuristic {
    /// Minimize the post-elimination relation size.
    Degree,
    /// Minimize the pre-elimination (joined) relation size.
    Width,
    /// Minimize the estimated cost of the elimination plan (overestimated
    /// with a fixed smallest-first linear ordering).
    ElimCost,
    /// Normalized product of degree and width.
    DegreeWidth,
    /// Normalized product of degree and elimination cost.
    DegreeElimCost,
    /// Uniformly random order from the given seed.
    Random(u64),
}

impl Heuristic {
    /// All deterministic heuristics, in the order of the paper's Table 2.
    pub const DETERMINISTIC: [Heuristic; 5] = [
        Heuristic::Degree,
        Heuristic::Width,
        Heuristic::ElimCost,
        Heuristic::DegreeWidth,
        Heuristic::DegreeElimCost,
    ];

    /// Short label matching the paper's table rows.
    pub fn label(&self) -> String {
        match self {
            Heuristic::Degree => "deg".into(),
            Heuristic::Width => "width".into(),
            Heuristic::ElimCost => "elim_cost".into(),
            Heuristic::DegreeWidth => "deg & width".into(),
            Heuristic::DegreeElimCost => "deg & elim_cost".into(),
            Heuristic::Random(_) => "random".into(),
        }
    }
}

/// The degree score of eliminating `v` given the live factor set: product of
/// effective domains of the union schema of `rels(v)` minus `v` itself. With
/// `width`, the width score: the same product including `v`.
///
/// `eliminated` lists variables already processed; extended VE *delays*
/// their group-by, so they may linger in factor schemas — they are excluded
/// from scores because the next group-by drops them for free.
pub(crate) fn domain_score(
    memo: &Memo<'_, '_>,
    factors: &[NodeId],
    v: VarId,
    eliminated: &[VarId],
    width: bool,
) -> f64 {
    let lv = memo.local(v);
    let holds_v = |f: NodeId| lv.is_some_and(|l| memo.has(f, l));
    // The union schema in first-appearance order: each factor containing
    // v adds the variables no earlier such factor has.
    let mut product = 1.0;
    for (i, &f) in factors.iter().enumerate().filter(|&(_, &f)| holds_v(f)) {
        for &u in memo.schema(f) {
            let var = memo.var(u);
            let fresh = !factors[..i].iter().any(|&g| holds_v(g) && memo.has(g, u));
            if fresh && (width || var != v) && !eliminated.contains(&var) {
                product *= memo.ctx.effective_domain(var);
            }
        }
    }
    product
}

/// The elimination-cost score: estimated cost of joining `rels(v)` in a
/// fixed smallest-first linear order and grouping `v` away (together with
/// any already-eliminated stragglers the group-by would drop anyway). The
/// joins are built in `memo` and dropped again.
pub(crate) fn elim_cost_score(
    memo: &mut Memo<'_, '_>,
    factors: &[NodeId],
    v: VarId,
    eliminated: &[VarId],
) -> f64 {
    let mut parts: Vec<NodeId> = factors
        .iter()
        .copied()
        .filter(|&f| memo.contains(f, v))
        .collect();
    if parts.is_empty() {
        return 0.0;
    }
    parts.sort_by(|&a, &b| {
        memo.rows(a)
            .total_cmp(&memo.rows(b))
            .then(memo.schema(a).len().cmp(&memo.schema(b).len()))
    });
    let model = memo.ctx.cost_model;
    let mark = memo.mark();
    let mut acc = parts[0];
    let mut cost = 0.0;
    for &p in &parts[1..] {
        let joined = memo.join(acc, p);
        cost += model.join(memo.rows(acc), memo.rows(p), memo.rows(joined));
        acc = joined;
    }
    let mut keep = memo.set(acc).to_vec();
    for l in eliminated.iter().chain([&v]).filter_map(|&u| memo.local(u)) {
        keep[(l / 64) as usize] &= !(1 << (l % 64));
    }
    let grouped = memo.group(acc, &keep);
    let score = cost + model.group_by(memo.rows(acc), memo.rows(grouped));
    memo.truncate(mark);
    score
}

/// Select the next variable to eliminate from `candidates` under a
/// deterministic heuristic (Random orders are pre-shuffled by the caller).
///
/// Ties break toward the smaller `VarId` for reproducibility.
///
/// # Panics
/// Panics if called with [`Heuristic::Random`] or empty `candidates`.
pub(crate) fn select_next(
    memo: &mut Memo<'_, '_>,
    heuristic: Heuristic,
    factors: &[NodeId],
    candidates: &[VarId],
    eliminated: &[VarId],
) -> VarId {
    assert!(!candidates.is_empty());
    let mut each = |h: Heuristic| -> Vec<f64> {
        candidates
            .iter()
            .map(|&v| match h {
                Heuristic::Degree => domain_score(memo, factors, v, eliminated, false),
                Heuristic::Width => domain_score(memo, factors, v, eliminated, true),
                _ => elim_cost_score(memo, factors, v, eliminated),
            })
            .collect()
    };
    let scores = match heuristic {
        Heuristic::DegreeWidth => {
            normalized_product(&each(Heuristic::Degree), &each(Heuristic::Width))
        }
        Heuristic::DegreeElimCost => {
            normalized_product(&each(Heuristic::Degree), &each(Heuristic::ElimCost))
        }
        Heuristic::Random(_) => panic!("random orders are pre-shuffled by the VE driver"),
        single => each(single),
    };
    let mut best = 0;
    for i in 1..candidates.len() {
        if scores[i] < scores[best]
            || (scores[i] == scores[best] && candidates[i] < candidates[best])
        {
            best = i;
        }
    }
    candidates[best]
}

/// Combine two score vectors by normalizing each (dividing by its maximum
/// over the candidates) and multiplying pointwise — footnote 1 of the paper.
fn normalized_product(a: &[f64], b: &[f64]) -> Vec<f64> {
    let max_a = a.iter().copied().fold(f64::MIN, f64::max).max(1e-300);
    let max_b = b.iter().copied().fold(f64::MIN, f64::max).max(1e-300);
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x / max_a) * (y / max_b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseRel, CostModel, OptContext, QuerySpec};
    use mpf_storage::Catalog;

    /// Run `f` over the leaves of a view whose relations are `factors`
    /// (schema, row count).
    fn with_factors<R>(
        cat: &Catalog,
        factors: &[(Vec<VarId>, u64)],
        f: impl FnOnce(&mut Memo<'_, '_>, &[NodeId]) -> R,
    ) -> R {
        let rels = (factors.iter().enumerate())
            .map(|(i, (vars, rows))| BaseRel::fixture(&format!("f{i}"), vars.clone(), *rows));
        let ctx = OptContext::new(cat, rels, QuerySpec::default(), CostModel::Io);
        let mut memo = Memo::new(&ctx);
        let leaves: Vec<NodeId> = (0..factors.len()).collect();
        f(&mut memo, &leaves)
    }

    #[test]
    fn degree_vs_width() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 100).unwrap();
        let c = cat.add_var("c", 5).unwrap();
        let factors = [(vec![a, b], 1000), (vec![b, c], 500)];
        with_factors(&cat, &factors, |memo, fs| {
            // Eliminating b joins both factors: neighbourhood {a, b, c},
            // degree 10 * 5, width 10 * 100 * 5.
            assert_eq!(domain_score(memo, fs, b, &[], false), 50.0);
            assert_eq!(domain_score(memo, fs, b, &[], true), 5000.0);
            // Eliminating a touches only the first factor.
            assert_eq!(domain_score(memo, fs, a, &[], false), 100.0);
            assert_eq!(domain_score(memo, fs, a, &[], true), 1000.0);
        });
    }

    #[test]
    fn elim_cost_counts_joins_and_group() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 100).unwrap();
        with_factors(&cat, &[(vec![a, b], 1000), (vec![b], 100)], |memo, fs| {
            // join rows = 1000*100/100 = 1000; join cost = 100+1000+1000 = 2100
            // group to {a}: out=10, cost = 1000+10 = 1010; total 3110.
            let nodes = memo.mark();
            let score = elim_cost_score(memo, fs, b, &[]);
            assert!((score - 3110.0).abs() < 1e-9, "got {score}");
            assert_eq!(memo.mark(), nodes, "scoring leaves no nodes behind");
        });
    }

    #[test]
    fn select_prefers_cheap_variable() {
        let mut cat = Catalog::new();
        let hub = cat.add_var("hub", 10).unwrap();
        let x1 = cat.add_var("x1", 10).unwrap();
        let x2 = cat.add_var("x2", 10).unwrap();
        let x3 = cat.add_var("x3", 10).unwrap();
        // Star: hub appears everywhere; x2 in two factors, x1/x3 in one.
        let factors = [(vec![x1, x2, hub], 1000), (vec![x2, x3, hub], 1000)];
        with_factors(&cat, &factors, |memo, fs| {
            // Width of hub = 10^4 (all vars); width of x1 = 10^3.
            let pick = select_next(memo, Heuristic::Width, fs, &[hub, x1, x2, x3], &[]);
            assert!(
                pick == x1 || pick == x3,
                "width must avoid the hub, got {pick}"
            );
            // Degree of hub = 10^3 (x1,x2,x3); degree of x1 = 10^2 (x2,hub).
            let pick = select_next(memo, Heuristic::Degree, fs, &[hub, x1, x2, x3], &[]);
            assert!(
                pick == x1 || pick == x3,
                "degree avoids the hub here, got {pick}"
            );
        });
    }

    #[test]
    fn normalized_product_combines() {
        let combined = normalized_product(&[1.0, 2.0, 4.0], &[8.0, 2.0, 1.0]);
        // normalized a: .25, .5, 1 ; normalized b: 1, .25, .125
        assert_eq!(combined, vec![0.25, 0.125, 0.125]);
    }

    #[test]
    fn deterministic_tiebreak() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 10).unwrap();
        with_factors(&cat, &[(vec![a, b], 100)], |memo, fs| {
            // Symmetric scores: the smaller VarId wins.
            assert_eq!(select_next(memo, Heuristic::Degree, fs, &[b, a], &[]), a);
        });
    }
}
