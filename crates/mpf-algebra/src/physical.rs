//! Physical plans: logical plans whose elimination steps carry the
//! representation they are planned to run on.
//!
//! The logical [`Plan`](crate::Plan) fixes *where* joins and group-bys sit;
//! the physical plan additionally fixes *how* each is executed — hash,
//! dense grid or sparse tensor — which is exactly
//! the degree of freedom the paper points out distinguishes the
//! relational setting from the GDL setting. Every join and every
//! marginalization is one node, the elimination step
//! [`PhysicalPlan::Step`] (the paper's GroupBy∘ProductJoin): a product
//! join is the step that keeps every variable, a marginalization the step
//! over one input, and a fused join→marginalize the full step.
//! [`PhysicalPlan::from_logical`] annotates a logical plan with a
//! caller-supplied chooser (the optimizer's cost-based
//! `choose_physical`); [`PhysicalPlan::default_hash`] maps everything to
//! the hash operators, which is what [`Executor`](crate::Executor) does
//! for bare logical plans.

use mpf_storage::{Value, VarId};

use crate::{OpRepr, Plan};

/// A logical plan with per-step representation annotations.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan a base relation.
    Scan {
        /// Base relation name.
        relation: String,
    },
    /// Filter by conjunctive equality predicates.
    Select {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicates.
        predicates: Vec<(VarId, Value)>,
    },
    /// One elimination step `GroupBy_X(⨝* inputs)`, run by
    /// [`crate::ops::step`] starting its fallback chain (dense → sparse →
    /// hash) at `repr`. Its degenerate forms are the product join (two
    /// inputs, every variable kept: `group_vars` is `None`) and the
    /// marginalization (one input). A two-input step with group variables
    /// is the fused join→marginalize — the canonical VE elimination step,
    /// which never materializes the join intermediate and accounts as one
    /// join *plus* one group-by so stats reconcile with the unfused pair.
    Step {
        /// One or two input plans.
        inputs: Vec<PhysicalPlan>,
        /// The variables kept (any subset of the inputs' union schema), or
        /// `None` to keep every variable — the product join.
        group_vars: Option<Vec<VarId>>,
        /// The representation the fallback chain starts at.
        repr: OpRepr,
    },
}

/// The algorithm name a step of representation `repr` renders with: the
/// join names for steps over two inputs, the aggregation names for
/// one-input steps. Plan renderings, and so the digests over them, depend
/// on these exact strings.
pub(crate) fn algo_label(repr: OpRepr, inputs: usize) -> &'static str {
    match (repr, inputs) {
        (OpRepr::Rows, 1) => "HashAgg",
        (OpRepr::Dense, 1) => "DenseAgg",
        (OpRepr::Sparse, 1) => "SparseAgg",
        (OpRepr::Rows, _) => "Hash",
        (OpRepr::Dense, _) => "Dense",
        (OpRepr::Sparse, _) => "SparseTensor",
    }
}

impl PhysicalPlan {
    /// Annotate a logical plan, consulting `choose` at each join and
    /// group-by node (called before the node's inputs are lowered).
    pub fn from_logical(plan: &Plan, choose: &mut impl FnMut(&Plan) -> OpRepr) -> PhysicalPlan {
        match plan {
            Plan::Scan { relation } => PhysicalPlan::Scan {
                relation: relation.clone(),
            },
            Plan::Select { input, predicates } => PhysicalPlan::Select {
                input: Box::new(Self::from_logical(input, choose)),
                predicates: predicates.clone(),
            },
            Plan::Join { left, right } => {
                let repr = choose(plan);
                PhysicalPlan::Step {
                    inputs: vec![
                        Self::from_logical(left, choose),
                        Self::from_logical(right, choose),
                    ],
                    group_vars: None,
                    repr,
                }
            }
            Plan::GroupBy { input, group_vars } => {
                let repr = choose(plan);
                PhysicalPlan::Step {
                    inputs: vec![Self::from_logical(input, choose)],
                    group_vars: Some(group_vars.clone()),
                    repr,
                }
            }
        }
    }

    /// Annotate with hash operators everywhere (the default pipeline).
    pub fn default_hash(plan: &Plan) -> PhysicalPlan {
        Self::from_logical(plan, &mut |_| OpRepr::Rows)
    }

    /// The node's child plans.
    fn children(&self) -> &[PhysicalPlan] {
        match self {
            PhysicalPlan::Scan { .. } => &[],
            PhysicalPlan::Select { input, .. } => std::slice::from_ref(input.as_ref()),
            PhysicalPlan::Step { inputs, .. } => inputs,
        }
    }

    /// The plan's nesting depth (a scan is depth 1), computed without
    /// recursion so adversarially deep plans can be rejected against
    /// [`crate::MAX_PLAN_DEPTH`] before evaluation.
    pub fn depth(&self) -> usize {
        let mut max = 0;
        let mut stack = vec![(self, 1usize)];
        while let Some((node, d)) = stack.pop() {
            max = max.max(d);
            stack.extend(node.children().iter().map(|c| (c, d + 1)));
        }
        max
    }

    /// The underlying logical plan (strip annotations): a step is the
    /// product join of its inputs, marginalized onto its group variables
    /// unless it keeps every variable.
    pub fn to_logical(&self) -> Plan {
        match self {
            PhysicalPlan::Scan { relation } => Plan::scan(relation.clone()),
            PhysicalPlan::Select { input, predicates } => {
                Plan::select(input.to_logical(), predicates.clone())
            }
            PhysicalPlan::Step {
                inputs, group_vars, ..
            } => {
                let joined = inputs
                    .iter()
                    .map(PhysicalPlan::to_logical)
                    .reduce(Plan::join)
                    .expect("a step has inputs");
                match group_vars {
                    Some(g) => Plan::group_by(joined, g.clone()),
                    None => joined,
                }
            }
        }
    }

    /// Count the logical operators (joins and group-bys) in the subtree
    /// whose step runs on a representation `counted` accepts. A step over
    /// `k` inputs is `k − 1` joins, plus one group-by when it names its
    /// group variables.
    fn count_ops(&self, counted: &dyn Fn(OpRepr) -> bool) -> usize {
        let own = match self {
            PhysicalPlan::Step {
                inputs,
                group_vars,
                repr,
            } if counted(*repr) => inputs.len() - 1 + group_vars.is_some() as usize,
            _ => 0,
        };
        own + self.children().iter().map(|c| c.count_ops(counted)).sum::<usize>()
    }

    /// Count operators annotated dense; a fused step counts as both of
    /// its operators.
    pub fn dense_operator_count(&self) -> usize {
        self.count_ops(&|r| r == OpRepr::Dense)
    }

    /// Count operators annotated sparse; a fused step counts as both of
    /// its operators.
    pub fn sparse_operator_count(&self) -> usize {
        self.count_ops(&|r| r == OpRepr::Sparse)
    }

    /// Count the real work operators (joins and group-bys) in the
    /// subtree.
    pub fn operator_count(&self) -> usize {
        self.count_ops(&|_| true)
    }

    /// Names of the base relations scanned anywhere in this subtree, in
    /// sorted order.
    pub fn scan_set(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            if let PhysicalPlan::Scan { relation } = node {
                out.insert(relation.clone());
            }
            stack.extend(node.children());
        }
        out
    }

    /// Whether any scan in this subtree names a relation for which
    /// `touched` returns true.
    fn touches(&self, touched: &dyn Fn(&str) -> bool) -> bool {
        match self {
            PhysicalPlan::Scan { relation } => touched(relation),
            _ => self.children().iter().any(|c| c.touches(touched)),
        }
    }

    /// Partition this plan into a shared trunk and a residual frontier.
    ///
    /// Every *maximal* subtree that (a) contains at least one real work
    /// operator (join or group-by — the same threshold the concurrent
    /// scheduler uses) and (b) scans no relation for which `touched`
    /// returns true is handed to `assign`, which returns the synthetic
    /// scan name the caller will serve that subtree's materialized output
    /// under. The returned residual plan has each such subtree replaced by
    /// `Scan { relation: <assigned name> }`; untouched scans and bare
    /// selections below the operator threshold are left in place (they are
    /// cheap, and the provider resolves their base names unchanged).
    ///
    /// The whole-plan case is included: if nothing is touched the entire
    /// plan becomes one trunk scan. `assign` is the caller's memo hook —
    /// structurally identical subtrees (the full `Debug` rendering is a
    /// faithful structural key) should be assigned the same name so their
    /// output is computed once per batch.
    pub fn extract_shared(
        &self,
        touched: &dyn Fn(&str) -> bool,
        assign: &mut dyn FnMut(&PhysicalPlan) -> String,
    ) -> PhysicalPlan {
        if self.operator_count() >= 1 && !self.touches(touched) {
            return PhysicalPlan::Scan {
                relation: assign(self),
            };
        }
        match self {
            PhysicalPlan::Scan { .. } => self.clone(),
            PhysicalPlan::Select { input, predicates } => PhysicalPlan::Select {
                input: Box::new(input.extract_shared(touched, assign)),
                predicates: predicates.clone(),
            },
            PhysicalPlan::Step {
                inputs,
                group_vars,
                repr,
            } => PhysicalPlan::Step {
                inputs: inputs.iter().map(|i| i.extract_shared(touched, assign)).collect(),
                group_vars: group_vars.clone(),
                repr: *repr,
            },
        }
    }

    /// Render as an indented tree with algorithm annotations.
    pub fn render(&self, var_name: &dyn Fn(VarId) -> String) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, var_name);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, var_name: &dyn Fn(VarId) -> String) {
        let indent = "  ".repeat(depth);
        let names = |vars: &[VarId]| {
            vars.iter().map(|&v| var_name(v)).collect::<Vec<_>>().join(", ")
        };
        match self {
            PhysicalPlan::Scan { relation } => {
                out.push_str(&format!("{indent}Scan {relation}\n"));
            }
            PhysicalPlan::Select { predicates, .. } => {
                let preds: Vec<String> = predicates
                    .iter()
                    .map(|(v, c)| format!("{}={}", var_name(*v), c))
                    .collect();
                out.push_str(&format!("{indent}Select [{}]\n", preds.join(", ")));
            }
            PhysicalPlan::Step {
                inputs,
                group_vars,
                repr,
            } => {
                let algo = algo_label(*repr, inputs.len());
                out.push_str(&match (group_vars, inputs.len()) {
                    (None, _) => format!("{indent}ProductJoin ({algo})\n"),
                    (Some(g), 1) => format!("{indent}GroupBy [{}] ({algo})\n", names(g)),
                    (Some(g), _) => format!("{indent}JoinAgg [{}] (Fused {algo})\n", names(g)),
                });
            }
        }
        for child in self.children() {
            child.render_into(out, depth + 1, var_name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn logical() -> Plan {
        Plan::group_by(
            Plan::join(Plan::scan("a"), Plan::group_by(Plan::scan("b"), vec![v(1)])),
            vec![v(0)],
        )
    }

    fn scan(name: &str) -> PhysicalPlan {
        PhysicalPlan::Scan { relation: name.into() }
    }

    #[test]
    fn default_is_all_hash() {
        let p = PhysicalPlan::default_hash(&logical());
        assert_eq!(p.dense_operator_count(), 0);
        assert_eq!(p.sparse_operator_count(), 0);
        assert_eq!(p.to_logical(), logical());
    }

    #[test]
    fn chooser_is_consulted_per_operator() {
        let (mut joins, mut aggs) = (0, 0);
        let p = PhysicalPlan::from_logical(&logical(), &mut |node| {
            match node {
                Plan::Join { .. } => joins += 1,
                _ => aggs += 1,
            }
            OpRepr::Sparse
        });
        assert_eq!((joins, aggs), (1, 2));
        assert_eq!(p.sparse_operator_count(), 3);
    }

    /// Every step shape under every representation: its rendered label
    /// (pinned byte for byte — plan digests hash these strings), its
    /// operator counts per representation, and its logical plan.
    #[test]
    fn every_shape_and_repr_renders_counts_and_round_trips() {
        let join = || Plan::join(Plan::scan("a"), Plan::scan("b"));
        let shapes = [
            (vec![scan("a"), scan("b")], None, join(), 1),
            (
                vec![scan("a")],
                Some(vec![v(0), v(1)]),
                Plan::group_by(Plan::scan("a"), vec![v(0), v(1)]),
                1,
            ),
            (vec![scan("a"), scan("b")], Some(vec![v(0)]), Plan::group_by(join(), vec![v(0)]), 2),
        ];
        let labels = [
            ["ProductJoin (Hash)", "ProductJoin (SparseTensor)", "ProductJoin (Dense)"],
            [
                "GroupBy [x0, x1] (HashAgg)",
                "GroupBy [x0, x1] (SparseAgg)",
                "GroupBy [x0, x1] (DenseAgg)",
            ],
            [
                "JoinAgg [x0] (Fused Hash)",
                "JoinAgg [x0] (Fused SparseTensor)",
                "JoinAgg [x0] (Fused Dense)",
            ],
        ];
        for ((inputs, group_vars, logical, ops), labels) in shapes.into_iter().zip(labels) {
            let reprs = [OpRepr::Rows, OpRepr::Sparse, OpRepr::Dense];
            for (repr, label) in reprs.into_iter().zip(labels) {
                let p = PhysicalPlan::Step {
                    inputs: inputs.clone(),
                    group_vars: group_vars.clone(),
                    repr,
                };
                let text = p.render(&|v| format!("x{}", v.0));
                let children: String =
                    inputs.iter().map(|i| format!("  {}", i.render(&|_| unreachable!()))).collect();
                assert_eq!(text, format!("{label}\n{children}"));
                assert_eq!(p.operator_count(), ops, "{label}");
                let counted = |r| ops * usize::from(repr == r);
                assert_eq!(p.dense_operator_count(), counted(OpRepr::Dense), "{label}");
                assert_eq!(p.sparse_operator_count(), counted(OpRepr::Sparse), "{label}");
                assert_eq!(p.to_logical(), logical, "{label}");
            }
        }
    }

    #[test]
    fn scan_set_collects_all_relations() {
        let p = PhysicalPlan::default_hash(&logical());
        let names: Vec<String> = p.scan_set().into_iter().collect();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn extract_shared_replaces_maximal_untouched_subtree() {
        // GroupBy(Join(a, GroupBy(b))) with `a` touched: the inner
        // GroupBy(Scan b) is the maximal untouched subtree with an
        // operator; `Scan a` stays in place (no operator below it).
        let p = PhysicalPlan::default_hash(&logical());
        let mut assigned = Vec::new();
        let residual = p.extract_shared(&|name| name == "a", &mut |sub| {
            assigned.push(sub.clone());
            format!("__trunk{}", assigned.len() - 1)
        });
        assert_eq!(assigned.len(), 1);
        assert_eq!(assigned[0].scan_set().into_iter().collect::<Vec<_>>(), ["b"]);
        let names: Vec<String> = residual.scan_set().into_iter().collect();
        assert_eq!(names, vec!["__trunk0".to_string(), "a".to_string()]);
        // The residual still carries the outer join + group-by.
        assert_eq!(residual.operator_count(), 2);
    }

    #[test]
    fn extract_shared_whole_plan_when_nothing_touched() {
        let p = PhysicalPlan::default_hash(&logical());
        let mut count = 0;
        let residual = p.extract_shared(&|_| false, &mut |_| {
            count += 1;
            "__root".to_string()
        });
        assert_eq!(count, 1);
        assert_eq!(residual, scan("__root"));
    }

    #[test]
    fn extract_shared_identity_when_everything_touched() {
        let p = PhysicalPlan::default_hash(&logical());
        let residual = p.extract_shared(&|_| true, &mut |_| unreachable!("no trunk"));
        assert_eq!(residual, p);
    }
}
