//! Physical plans: logical plans annotated with operator algorithms.
//!
//! The logical [`Plan`](crate::Plan) fixes *where* joins and group-bys sit;
//! the physical plan additionally fixes *how* each is executed — hash,
//! dense grid or sparse tensor — which is exactly
//! the degree of freedom the paper points out distinguishes the
//! relational setting from the GDL setting. [`PhysicalPlan::from_logical`] annotates a logical plan with a
//! caller-supplied chooser (the optimizer's cost-based
//! `choose_physical`); [`PhysicalPlan::default_hash`] maps everything to
//! the hash operators, which is what [`Executor`](crate::Executor) does
//! for bare logical plans.

use mpf_storage::{Value, VarId};

use crate::Plan;

/// Join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Build a hash index on the smaller side, probe with the larger.
    Hash,
    /// Dense odometer-indexed join: both operands are read in place as
    /// their inferred domain grids and the dense elimination step runs
    /// with nothing eliminated, one stride-aligned product per output
    /// cell ([`crate::dense::join`]). Falls back to the hash join at
    /// runtime if the output grid turns out infeasible.
    Dense,
    /// Sparse-tensor join: both operands become sorted coordinate
    /// tensors and merge on shared-variable coordinate prefixes
    /// ([`crate::sparse::join`]). Falls back to the hash join at runtime
    /// if the coordinate space turns out infeasible or a side is not
    /// functional.
    SparseTensor,
}

impl JoinAlgo {
    /// Short display name.
    pub fn label(&self) -> &'static str {
        match self {
            JoinAlgo::Hash => "Hash",
            JoinAlgo::Dense => "Dense",
            JoinAlgo::SparseTensor => "SparseTensor",
        }
    }
}

/// Aggregation algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggAlgo {
    /// Hash table keyed by the grouping values.
    HashAgg,
    /// Dense odometer-indexed marginalization: the dense elimination step
    /// over one operand, read in place as its grid, each output cell
    /// folding its eliminated-variable subgrid in a fixed index order
    /// ([`crate::dense::agg`]). Falls back to the hash aggregate at
    /// runtime if the grid turns out infeasible.
    DenseAgg,
    /// Sparse-tensor marginalization: the input becomes a sorted
    /// coordinate tensor in `[group, eliminated]` axis order and runs of
    /// equal group prefix collapse in one pass
    /// ([`crate::sparse::agg`]). Falls back to the hash aggregate at
    /// runtime on infeasibility.
    SparseAgg,
}

impl AggAlgo {
    /// Short display name.
    pub fn label(&self) -> &'static str {
        match self {
            AggAlgo::HashAgg => "HashAgg",
            AggAlgo::DenseAgg => "DenseAgg",
            AggAlgo::SparseAgg => "SparseAgg",
        }
    }
}

/// A logical plan with per-operator algorithm annotations.
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
    /// Product join with a chosen algorithm.
    Join {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// The join implementation.
        algo: JoinAlgo,
    },
    /// Marginalization with a chosen algorithm.
    GroupBy {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping variables.
        group_vars: Vec<VarId>,
        /// The aggregation implementation.
        algo: AggAlgo,
    },
    /// Fused join→marginalize: `GroupBy_X(left ⨝* right)` contracted in
    /// one operator, never materializing the join intermediate — the
    /// canonical VE elimination step. `algo` is the fused pair's join
    /// algorithm and picks where the fallback chain starts: `Dense` runs
    /// the dense fused kernel when both sides densify
    /// ([`crate::dense::join_agg_auto`]), `SparseTensor` the sparse one
    /// ([`crate::sparse::join_agg`]), and either falls through to the
    /// next (dense → sparse → hash [`crate::ops::join_group_by`]) when
    /// its kernel declines; `Hash` runs the fused hash
    /// operator. Accounts as one join *plus* one group-by so stats
    /// reconcile with the unfused plan.
    JoinAgg {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Grouping variables (must drop at least the join-only ones for
        /// the planner to pick this node; any subset of the union schema
        /// is executable).
        group_vars: Vec<VarId>,
        /// The join algorithm of the fused pair.
        algo: JoinAlgo,
    },
}

impl PhysicalPlan {
    /// Annotate a logical plan, consulting `choose_join` / `choose_agg` at
    /// each operator (called bottom-up).
    pub fn from_logical(
        plan: &Plan,
        choose_join: &mut impl FnMut(&Plan, &Plan) -> JoinAlgo,
        choose_agg: &mut impl FnMut(&Plan, &[VarId]) -> AggAlgo,
    ) -> PhysicalPlan {
        match plan {
            Plan::Scan { relation } => PhysicalPlan::Scan {
                relation: relation.clone(),
            },
            Plan::Select { input, predicates } => PhysicalPlan::Select {
                input: Box::new(Self::from_logical(input, choose_join, choose_agg)),
                predicates: predicates.clone(),
            },
            Plan::Join { left, right } => {
                let algo = choose_join(left, right);
                PhysicalPlan::Join {
                    left: Box::new(Self::from_logical(left, choose_join, choose_agg)),
                    right: Box::new(Self::from_logical(right, choose_join, choose_agg)),
                    algo,
                }
            }
            Plan::GroupBy { input, group_vars } => {
                let algo = choose_agg(input, group_vars);
                PhysicalPlan::GroupBy {
                    input: Box::new(Self::from_logical(input, choose_join, choose_agg)),
                    group_vars: group_vars.clone(),
                    algo,
                }
            }
        }
    }

    /// Annotate with hash operators everywhere (the default pipeline).
    pub fn default_hash(plan: &Plan) -> PhysicalPlan {
        Self::from_logical(plan, &mut |_, _| JoinAlgo::Hash, &mut |_, _| {
            AggAlgo::HashAgg
        })
    }

    /// The plan's nesting depth (a scan is depth 1), computed without
    /// recursion so adversarially deep plans can be rejected against
    /// [`crate::MAX_PLAN_DEPTH`] before evaluation.
    pub fn depth(&self) -> usize {
        let mut max = 0;
        let mut stack = vec![(self, 1usize)];
        while let Some((node, d)) = stack.pop() {
            max = max.max(d);
            match node {
                PhysicalPlan::Scan { .. } => {}
                PhysicalPlan::Select { input, .. } | PhysicalPlan::GroupBy { input, .. } => {
                    stack.push((input, d + 1));
                }
                PhysicalPlan::Join { left, right, .. }
                | PhysicalPlan::JoinAgg { left, right, .. } => {
                    stack.push((left, d + 1));
                    stack.push((right, d + 1));
                }
            }
        }
        max
    }

    /// The underlying logical plan (strip annotations).
    pub fn to_logical(&self) -> Plan {
        match self {
            PhysicalPlan::Scan { relation } => Plan::scan(relation.clone()),
            PhysicalPlan::Select { input, predicates } => {
                Plan::select(input.to_logical(), predicates.clone())
            }
            PhysicalPlan::Join { left, right, .. } => {
                Plan::join(left.to_logical(), right.to_logical())
            }
            PhysicalPlan::GroupBy {
                input, group_vars, ..
            } => Plan::group_by(input.to_logical(), group_vars.clone()),
            PhysicalPlan::JoinAgg {
                left,
                right,
                group_vars,
                ..
            } => Plan::group_by(
                Plan::join(left.to_logical(), right.to_logical()),
                group_vars.clone(),
            ),
        }
    }

    /// Count operators annotated with dense algorithms.
    pub fn dense_operator_count(&self) -> usize {
        match self {
            PhysicalPlan::Scan { .. } => 0,
            PhysicalPlan::Select { input, .. } => input.dense_operator_count(),
            PhysicalPlan::Join {
                left, right, algo, ..
            } => {
                (*algo == JoinAlgo::Dense) as usize
                    + left.dense_operator_count()
                    + right.dense_operator_count()
            }
            PhysicalPlan::GroupBy { input, algo, .. } => {
                (*algo == AggAlgo::DenseAgg) as usize + input.dense_operator_count()
            }
            // A fused dense pair still counts as both operators.
            PhysicalPlan::JoinAgg {
                left, right, algo, ..
            } => {
                2 * (*algo == JoinAlgo::Dense) as usize
                    + left.dense_operator_count()
                    + right.dense_operator_count()
            }
        }
    }

    /// Count operators annotated with sparse-tensor algorithms.
    pub fn sparse_operator_count(&self) -> usize {
        match self {
            PhysicalPlan::Scan { .. } => 0,
            PhysicalPlan::Select { input, .. } => input.sparse_operator_count(),
            PhysicalPlan::Join {
                left, right, algo, ..
            } => {
                (*algo == JoinAlgo::SparseTensor) as usize
                    + left.sparse_operator_count()
                    + right.sparse_operator_count()
            }
            PhysicalPlan::GroupBy { input, algo, .. } => {
                (*algo == AggAlgo::SparseAgg) as usize + input.sparse_operator_count()
            }
            PhysicalPlan::JoinAgg {
                left, right, algo, ..
            } => {
                2 * (*algo == JoinAlgo::SparseTensor) as usize
                    + left.sparse_operator_count()
                    + right.sparse_operator_count()
            }
        }
    }

    /// Count the real work operators (joins and group-bys) in the
    /// subtree. The concurrent subplan scheduler only forks a worker for
    /// a subtree that contains at least one — spawning a thread to run a
    /// bare scan or selection costs more than it saves.
    pub fn operator_count(&self) -> usize {
        match self {
            PhysicalPlan::Scan { .. } => 0,
            PhysicalPlan::Select { input, .. } => input.operator_count(),
            PhysicalPlan::Join { left, right, .. } => {
                1 + left.operator_count() + right.operator_count()
            }
            PhysicalPlan::GroupBy { input, .. } => 1 + input.operator_count(),
            // One join plus one group-by, performed as one contraction.
            PhysicalPlan::JoinAgg { left, right, .. } => {
                2 + left.operator_count() + right.operator_count()
            }
        }
    }

    /// Names of the base relations scanned anywhere in this subtree, in
    /// sorted order.
    pub fn scan_set(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            match node {
                PhysicalPlan::Scan { relation } => {
                    out.insert(relation.clone());
                }
                PhysicalPlan::Select { input, .. } | PhysicalPlan::GroupBy { input, .. } => {
                    stack.push(input);
                }
                PhysicalPlan::Join { left, right, .. }
                | PhysicalPlan::JoinAgg { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
            }
        }
        out
    }

    /// Whether any scan in this subtree names a relation for which
    /// `touched` returns true.
    fn touches(&self, touched: &dyn Fn(&str) -> bool) -> bool {
        match self {
            PhysicalPlan::Scan { relation } => touched(relation),
            PhysicalPlan::Select { input, .. } | PhysicalPlan::GroupBy { input, .. } => {
                input.touches(touched)
            }
            PhysicalPlan::Join { left, right, .. }
            | PhysicalPlan::JoinAgg { left, right, .. } => {
                left.touches(touched) || right.touches(touched)
            }
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
            PhysicalPlan::Join { left, right, algo } => PhysicalPlan::Join {
                left: Box::new(left.extract_shared(touched, assign)),
                right: Box::new(right.extract_shared(touched, assign)),
                algo: *algo,
            },
            PhysicalPlan::GroupBy {
                input,
                group_vars,
                algo,
            } => PhysicalPlan::GroupBy {
                input: Box::new(input.extract_shared(touched, assign)),
                group_vars: group_vars.clone(),
                algo: *algo,
            },
            PhysicalPlan::JoinAgg {
                left,
                right,
                group_vars,
                algo,
            } => PhysicalPlan::JoinAgg {
                left: Box::new(left.extract_shared(touched, assign)),
                right: Box::new(right.extract_shared(touched, assign)),
                group_vars: group_vars.clone(),
                algo: *algo,
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
        match self {
            PhysicalPlan::Scan { relation } => {
                out.push_str(&format!("{indent}Scan {relation}\n"));
            }
            PhysicalPlan::Select { input, predicates } => {
                let preds: Vec<String> = predicates
                    .iter()
                    .map(|(v, c)| format!("{}={}", var_name(*v), c))
                    .collect();
                out.push_str(&format!("{indent}Select [{}]\n", preds.join(", ")));
                input.render_into(out, depth + 1, var_name);
            }
            PhysicalPlan::Join { left, right, algo } => {
                out.push_str(&format!("{indent}ProductJoin ({algo:?})\n"));
                left.render_into(out, depth + 1, var_name);
                right.render_into(out, depth + 1, var_name);
            }
            PhysicalPlan::GroupBy {
                input,
                group_vars,
                algo,
            } => {
                let vars: Vec<String> = group_vars.iter().map(|&v| var_name(v)).collect();
                out.push_str(&format!("{indent}GroupBy [{}] ({algo:?})\n", vars.join(", ")));
                input.render_into(out, depth + 1, var_name);
            }
            PhysicalPlan::JoinAgg {
                left,
                right,
                group_vars,
                algo,
            } => {
                let vars: Vec<String> = group_vars.iter().map(|&v| var_name(v)).collect();
                out.push_str(&format!("{indent}JoinAgg [{}] (Fused {algo:?})\n", vars.join(", ")));
                left.render_into(out, depth + 1, var_name);
                right.render_into(out, depth + 1, var_name);
            }
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

    #[test]
    fn default_is_all_hash() {
        let p = PhysicalPlan::default_hash(&logical());
        assert_eq!(p.dense_operator_count(), 0);
        assert_eq!(p.sparse_operator_count(), 0);
        assert_eq!(p.to_logical(), logical());
    }

    #[test]
    fn chooser_is_consulted_per_operator() {
        let mut joins = 0;
        let mut aggs = 0;
        let p = PhysicalPlan::from_logical(
            &logical(),
            &mut |_, _| {
                joins += 1;
                JoinAlgo::SparseTensor
            },
            &mut |_, _| {
                aggs += 1;
                AggAlgo::SparseAgg
            },
        );
        assert_eq!(joins, 1);
        assert_eq!(aggs, 2);
        assert_eq!(p.sparse_operator_count(), 3);
    }

    #[test]
    fn dense_annotations_are_counted_and_rendered() {
        let p = PhysicalPlan::from_logical(
            &logical(),
            &mut |_, _| JoinAlgo::Dense,
            &mut |_, _| AggAlgo::DenseAgg,
        );
        assert_eq!(p.dense_operator_count(), 3);
        assert_eq!(p.sparse_operator_count(), 0);
        assert_eq!(p.to_logical(), logical());
        let text = p.render(&|v| format!("x{}", v.0));
        assert!(text.contains("(Dense)"));
        assert!(text.contains("(DenseAgg)"));
        assert_eq!(JoinAlgo::Dense.label(), "Dense");
        assert_eq!(AggAlgo::DenseAgg.label(), "DenseAgg");
    }

    #[test]
    fn sparse_annotations_are_counted_and_rendered() {
        let p = PhysicalPlan::from_logical(
            &logical(),
            &mut |_, _| JoinAlgo::SparseTensor,
            &mut |_, _| AggAlgo::SparseAgg,
        );
        assert_eq!(p.sparse_operator_count(), 3);
        assert_eq!(p.dense_operator_count(), 0);
        assert_eq!(p.to_logical(), logical());
        let text = p.render(&|v| format!("x{}", v.0));
        assert!(text.contains("(SparseTensor)"));
        assert!(text.contains("(SparseAgg)"));
        assert_eq!(JoinAlgo::SparseTensor.label(), "SparseTensor");
        assert_eq!(AggAlgo::SparseAgg.label(), "SparseAgg");
    }

    #[test]
    fn fused_nodes_count_as_both_operators_of_their_algo() {
        let fused = |algo| PhysicalPlan::JoinAgg {
            left: Box::new(PhysicalPlan::Scan { relation: "a".into() }),
            right: Box::new(PhysicalPlan::Scan { relation: "b".into() }),
            group_vars: vec![v(0)],
            algo,
        };
        let dense = fused(JoinAlgo::Dense);
        let sparse = fused(JoinAlgo::SparseTensor);
        let hash = fused(JoinAlgo::Hash);
        assert_eq!((dense.dense_operator_count(), dense.sparse_operator_count()), (2, 0));
        assert_eq!((sparse.dense_operator_count(), sparse.sparse_operator_count()), (0, 2));
        assert_eq!((hash.dense_operator_count(), hash.sparse_operator_count()), (0, 0));
        for p in [&dense, &sparse, &hash] {
            assert_eq!(p.operator_count(), 2);
            assert_eq!(
                p.to_logical(),
                Plan::group_by(Plan::join(Plan::scan("a"), Plan::scan("b")), vec![v(0)])
            );
        }
        let text = sparse.render(&|v| format!("x{}", v.0));
        assert!(text.contains("JoinAgg [x0] (Fused SparseTensor)"), "{text}");
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
        assert_eq!(
            residual,
            PhysicalPlan::Scan {
                relation: "__root".to_string()
            }
        );
    }

    #[test]
    fn extract_shared_identity_when_everything_touched() {
        let p = PhysicalPlan::default_hash(&logical());
        let residual = p.extract_shared(&|_| true, &mut |_| unreachable!("no trunk"));
        assert_eq!(residual, p);
    }

    #[test]
    fn render_includes_annotations() {
        let p = PhysicalPlan::default_hash(&logical());
        let text = p.render(&|v| format!("x{}", v.0));
        assert!(text.contains("(Hash)"));
        assert!(text.contains("(HashAgg)"));
    }
}
