//! The dynamic programs' memo: an arena of plan nodes — leaf `j` scans
//! base relation `j`, the rest join two nodes or group one — built without
//! cloning subtrees and turned into one [`Plan`] at the end
//! ([`Memo::optimized`]). Variable sets are bitmasks over view-local
//! variable indices; each node also keeps its schema in plan order, and
//! every domain product is taken in that order, so estimates carry the same
//! `f64` bits the [`crate::estimate`] functions give on the finished plan.
//! DESIGN.md §3.9 "Pareto DP" describes the representation.

use mpf_algebra::Plan;
use mpf_storage::VarId;

use crate::{estimate, OptContext, OptimizedPlan};

/// Index of a node in a [`Memo`].
pub(crate) type NodeId = usize;

/// Whether variable `v` is in the bitmask `set`.
fn has(set: &[u64], v: u32) -> bool {
    set[(v / 64) as usize] >> (v % 64) & 1 == 1
}

enum Op {
    Leaf(usize),
    Join(NodeId, NodeId),
    Group(NodeId),
}

struct Node {
    op: Op,
    rows: f64,
    cost: f64,
    /// The schema is `order[start..end]`.
    start: usize,
    end: usize,
}

pub(crate) struct Memo<'c, 'a> {
    pub(crate) ctx: &'c OptContext<'a>,
    /// `u64` words per variable set.
    words: usize,
    /// Variable of each view-local index, and its effective domain.
    vars: Vec<VarId>,
    domain: Vec<f64>,
    /// The query's group variables.
    query: Vec<u64>,
    nodes: Vec<Node>,
    /// Concatenated node schemas, as view-local indices.
    order: Vec<u32>,
    /// Node variable sets, `words` per node.
    bits: Vec<u64>,
}

impl<'c, 'a> Memo<'c, 'a> {
    /// An arena holding the leaves: each base relation's scan, selected on
    /// the query's equality predicates that mention its variables
    /// (selection commutes with product join and with marginalization of
    /// other variables).
    pub(crate) fn new(ctx: &'c OptContext<'a>) -> Self {
        let vars = ctx.all_vars();
        let words = vars.len().div_ceil(64).max(1);
        let mut memo = Memo {
            ctx,
            words,
            domain: vars.iter().map(|&v| ctx.effective_domain(v)).collect(),
            vars,
            query: vec![0; words],
            nodes: Vec::new(),
            order: Vec::new(),
            bits: Vec::new(),
        };
        for &v in &ctx.query.group_vars {
            if let Some(l) = memo.local(v) {
                memo.query[(l / 64) as usize] |= 1 << (l % 64);
            }
        }
        for (j, rel) in ctx.rels.iter().enumerate() {
            let scan_rows = rel.cardinality as f64;
            let rows = estimate::base_rows(ctx, j);
            let mut cost = ctx.cost_model.scan(scan_rows);
            if !ctx.applicable_predicates(&rel.schema).is_empty() {
                cost += ctx.cost_model.select(scan_rows, rows);
            }
            let start = memo.order.len();
            for v in rel.schema.iter() {
                let l = memo.local(v).expect("base variables are view variables");
                memo.order.push(l);
            }
            memo.push(Op::Leaf(j), rows, cost, start);
        }
        memo
    }

    /// The view-local index of `v`, if `v` occurs in the view.
    pub(crate) fn local(&self, v: VarId) -> Option<u32> {
        self.vars.iter().position(|&u| u == v).map(|i| i as u32)
    }

    /// The variable behind a view-local index.
    pub(crate) fn var(&self, v: u32) -> VarId {
        self.vars[v as usize]
    }

    pub(crate) fn rows(&self, n: NodeId) -> f64 {
        self.nodes[n].rows
    }

    pub(crate) fn cost(&self, n: NodeId) -> f64 {
        self.nodes[n].cost
    }

    /// The node's schema, as view-local indices in plan order.
    pub(crate) fn schema(&self, n: NodeId) -> &[u32] {
        &self.order[self.nodes[n].start..self.nodes[n].end]
    }

    /// The node's variable set.
    pub(crate) fn set(&self, n: NodeId) -> &[u64] {
        &self.bits[n * self.words..(n + 1) * self.words]
    }

    /// Whether view-local variable `v` is in the node's schema.
    pub(crate) fn has(&self, n: NodeId, v: u32) -> bool {
        has(self.set(n), v)
    }

    /// Whether `v` is in the node's schema.
    pub(crate) fn contains(&self, n: NodeId, v: VarId) -> bool {
        self.local(v).is_some_and(|l| self.has(n, l))
    }

    /// Product join: `|l|·|r| / ∏ dom(shared)` rows (shared variables in
    /// `l`'s order), schema `l ∪ r`.
    pub(crate) fn join(&mut self, l: NodeId, r: NodeId) -> NodeId {
        let denom = self
            .schema(l)
            .iter()
            .filter(|&&v| self.has(r, v))
            .map(|&v| self.domain[v as usize])
            .product::<f64>()
            .max(1.0);
        let (lr, rr) = (self.rows(l), self.rows(r));
        let rows = (lr * rr / denom).max(1.0);
        let cost = self.cost(l) + self.cost(r) + self.ctx.cost_model.join(lr, rr, rows);
        let start = self.order.len();
        let (ls, le) = (self.nodes[l].start, self.nodes[l].end);
        self.order.extend_from_within(ls..le);
        for i in self.nodes[r].start..self.nodes[r].end {
            let v = self.order[i];
            if !self.has(l, v) {
                self.order.push(v);
            }
        }
        self.push(Op::Join(l, r), rows, cost, start)
    }

    /// Group `input` onto its variables in `keep`, in the input's order.
    pub(crate) fn group(&mut self, input: NodeId, keep: &[u64]) -> NodeId {
        let start = self.order.len();
        for i in self.nodes[input].start..self.nodes[input].end {
            let v = self.order[i];
            if has(keep, v) {
                self.order.push(v);
            }
        }
        let dom = self.order[start..]
            .iter()
            .map(|&v| self.domain[v as usize])
            .product::<f64>();
        let in_rows = self.rows(input);
        let rows = in_rows.min(dom).max(1.0);
        let cost = self.cost(input) + self.ctx.cost_model.group_by(in_rows, rows);
        self.push(Op::Group(input), rows, cost, start)
    }

    /// Append a node whose schema is `order[start..]`.
    fn push(&mut self, op: Op, rows: f64, cost: f64, start: usize) -> NodeId {
        let at = self.bits.len();
        self.bits.resize(at + self.words, 0);
        for &v in &self.order[start..] {
            self.bits[at + (v / 64) as usize] |= 1 << (v % 64);
        }
        self.nodes.push(Node {
            op,
            rows,
            cost,
            start,
            end: self.order.len(),
        });
        self.nodes.len() - 1
    }

    /// The index the next node will get.
    pub(crate) fn mark(&self) -> NodeId {
        self.nodes.len()
    }

    /// Drop every node from `mark` on.
    pub(crate) fn truncate(&mut self, mark: NodeId) {
        debug_assert!(mark >= self.ctx.rels.len(), "leaves are permanent");
        self.order.truncate(self.nodes[mark].start);
        self.bits.truncate(mark * self.words);
        self.nodes.truncate(mark);
    }

    /// `out` = the query's group variables plus the variables of `nodes`:
    /// what a subplan with `nodes` outside it must keep (line 3 of
    /// Algorithm 1).
    pub(crate) fn needed(&self, nodes: impl IntoIterator<Item = NodeId>, out: &mut Vec<u64>) {
        out.clone_from(&self.query);
        for n in nodes {
            out.iter_mut().zip(self.set(n)).for_each(|(o, s)| *o |= s);
        }
    }

    /// [`Memo::needed`] for a subplan over the relation subset `mask`:
    /// everything outside it is the leaves of the other relations.
    pub(crate) fn needed_outside(&self, mask: u32, out: &mut Vec<u64>) {
        self.needed(
            (0..self.ctx.rels.len()).filter(|&i| mask & (1 << i) == 0),
            out,
        );
    }

    /// The group-by-reduced variant of `n`: marginalize onto the variables
    /// of `needed` it has, or `None` if that drops nothing.
    pub(crate) fn reduced(&mut self, n: NodeId, needed: &[u64]) -> Option<NodeId> {
        let drops = self.set(n).iter().zip(needed).any(|(s, k)| s & !k != 0);
        drops.then(|| self.group(n, needed))
    }

    /// Insert `cand` into a Pareto set of nodes for one relation subset.
    ///
    /// Nodes are comparable only when they produce the same variable set;
    /// among those, one dominates if it is no worse in both estimated cost
    /// and estimated rows. Keeping the full frontier (instead of a single
    /// min-cost plan) is what makes the dynamic programs *monotone*: a plan
    /// that is cheaper but wider (more columns, more rows) cannot shadow
    /// the narrower plan a later join needs. This strengthens the paper's
    /// greedy-conservative heuristic — see DESIGN.md §"Pareto DP". A
    /// dominated candidate that is the newest node leaves the arena again.
    pub(crate) fn pareto_insert(&mut self, set: &mut Vec<NodeId>, cand: NodeId) {
        let (cost, rows) = (self.cost(cand), self.rows(cand));
        let same = |e: NodeId| self.set(e) == self.set(cand);
        if set
            .iter()
            .any(|&e| same(e) && self.cost(e) <= cost && self.rows(e) <= rows)
        {
            if cand + 1 == self.nodes.len() {
                self.truncate(cand);
            }
            return;
        }
        set.retain(|&e| !(same(e) && cost <= self.cost(e) && rows <= self.rows(e)));
        set.push(cand);
    }

    /// Group each of `entries` onto the query variables and return the
    /// cheapest (the first among equals).
    pub(crate) fn root(&mut self, entries: &[NodeId]) -> NodeId {
        let query = self.query.clone();
        let roots: Vec<NodeId> = entries.iter().map(|&e| self.group(e, &query)).collect();
        let cheapest = roots
            .into_iter()
            .min_by(|&a, &b| self.cost(a).total_cmp(&self.cost(b)));
        cheapest.expect("full relation set has at least one plan")
    }

    /// Among the four candidate joins of the nonlinear CS+ comparison
    /// (Section 5.1: no group-by / group-by left / group-by right / both),
    /// return the cheapest (the first among equals). Each side is reduced
    /// onto its `needed` set: the query variables plus those of everything
    /// outside it (each side's "future" includes the opposite operand).
    pub(crate) fn best_join_of_four(
        &mut self,
        l: NodeId,
        r: NodeId,
        needed_l: &[u64],
        needed_r: &[u64],
    ) -> NodeId {
        let gl = self.reduced(l, needed_l);
        let gr = self.reduced(r, needed_r);
        let mut best = self.join(l, r);
        for (a, b) in [gl.map(|a| (a, r)), gr.map(|b| (l, b)), gl.zip(gr)]
            .into_iter()
            .flatten()
        {
            let cand = self.join(a, b);
            if self.cost(cand) < self.cost(best) {
                best = cand;
            }
        }
        best
    }

    /// Materialize node `n` as a [`Plan`].
    fn plan(&self, n: NodeId) -> Plan {
        match self.nodes[n].op {
            Op::Leaf(j) => {
                let rel = &self.ctx.rels[j];
                let preds = self.ctx.applicable_predicates(&rel.schema);
                Plan::select(Plan::scan(rel.name.clone()), preds)
            }
            Op::Join(l, r) => Plan::join(self.plan(l), self.plan(r)),
            Op::Group(input) => Plan::group_by(
                self.plan(input),
                self.schema(n).iter().map(|&v| self.var(v)).collect(),
            ),
        }
    }

    /// The finished plan of node `n` with its estimates.
    pub(crate) fn optimized(&self, n: NodeId) -> OptimizedPlan {
        OptimizedPlan {
            plan: self.plan(n),
            est_cost: self.cost(n),
            est_rows: self.rows(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseRel, CostModel, QuerySpec};
    use mpf_storage::Catalog;

    #[test]
    fn leaf_applies_predicates() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 10).unwrap();
        let q = QuerySpec::group_by([b]).filter(a, 1);
        let ctx = OptContext::new(
            &cat,
            [BaseRel::fixture("r", vec![a, b], 100)],
            q,
            CostModel::Io,
        );
        let memo = Memo::new(&ctx);
        assert!(matches!(memo.plan(0), Plan::Select { .. }));
        assert_eq!(memo.rows(0), 10.0);
    }

    #[test]
    fn reduction_keeps_query_and_future_join_vars() {
        let mut cat = Catalog::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|v| cat.add_var(v, 10).unwrap());
        let rels = [
            BaseRel::fixture("inside", vec![a, b, c], 1000),
            BaseRel::fixture("future", vec![c, d], 100),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let mut memo = Memo::new(&ctx);
        let mut needed = Vec::new();
        // a is a query var, c joins with the future relation; b is droppable.
        memo.needed([1], &mut needed);
        let red = memo.reduced(0, &needed).unwrap();
        let kept: Vec<VarId> = memo.schema(red).iter().map(|&v| memo.var(v)).collect();
        assert_eq!(kept, vec![a, c]);
        // Seen from the other side, only d is droppable.
        memo.needed([0], &mut needed);
        let red = memo.reduced(1, &needed).unwrap();
        assert_eq!(memo.schema(red), &[memo.local(c).unwrap()]);
        // A reduced node keeps everything it has left.
        assert_eq!(memo.reduced(red, &needed), None);
    }

    #[test]
    fn four_way_prefers_reducing_group_by() {
        // One big relation over (a, b) with a tiny query variable domain:
        // grouping it before joining must win under the IO model.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 100_000).unwrap();
        let c = cat.add_var("c", 2).unwrap();
        let rels = [
            BaseRel::fixture("big", vec![a, b], 200_000),
            BaseRel::fixture("small", vec![a, c], 4),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([c]), CostModel::Io);
        let mut memo = Memo::new(&ctx);
        let (mut needed_l, mut needed_r) = (Vec::new(), Vec::new());
        memo.needed([1], &mut needed_l);
        memo.needed([0], &mut needed_r);
        let best = memo.best_join_of_four(0, 1, &needed_l, &needed_r);
        // The winning plan groups `big` onto {a} (b eliminated) first.
        assert_eq!(memo.plan(best).group_by_count(), 1);
        let plain = memo.join(0, 1);
        assert!(memo.cost(best) < memo.cost(plain));
    }

    #[test]
    fn dominated_candidates_leave_the_arena() {
        let mut cat = Catalog::new();
        let [a, b] = ["a", "b"].map(|v| cat.add_var(v, 10).unwrap());
        let rels = [
            BaseRel::fixture("r1", vec![a, b], 100),
            BaseRel::fixture("r2", vec![a, b], 100),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let mut memo = Memo::new(&ctx);
        let mut set = Vec::new();
        let first = memo.join(0, 1);
        memo.pareto_insert(&mut set, first);
        // The mirrored join has the same variables, cost and rows.
        let mirrored = memo.join(1, 0);
        memo.pareto_insert(&mut set, mirrored);
        assert_eq!(set, vec![first]);
        assert_eq!(memo.mark(), mirrored, "the dominated join was dropped");
    }
}
