use mpf_storage::{Schema, Value, VarId};

use crate::{AlgebraError, RelationProvider, Result};

/// Maximum supported plan nesting depth. Deeper plans (an adversarially
/// long left spine, say) return [`AlgebraError::PlanTooDeep`] from
/// [`Plan::schema`] and the executor instead of recursing toward a stack
/// overflow — the same cap the SQL parser puts on parenthesis nesting.
pub const MAX_PLAN_DEPTH: usize = 128;

/// A logical MPF evaluation plan: a tree of scans, selections, product
/// joins, and group-bys.
///
/// Every plan produced by the optimizers in `mpf-optimizer` is equivalent
/// (by the Generalized Distributive Law) to a plan with only join inner
/// nodes and a single `GroupBy` at the root — the `GDLPlan` space of
/// Definition 4 in the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named base relation.
    Scan {
        /// Name of the base relation in the provider.
        relation: String,
    },
    /// Filter rows by conjunctive variable-equality predicates.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// `(variable, constant)` equality predicates, all of which must hold.
        predicates: Vec<(VarId, Value)>,
    },
    /// Product join (Definition 2) of two subplans.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Marginalize onto `group_vars` with the semiring's additive aggregate.
    GroupBy {
        /// Input plan.
        input: Box<Plan>,
        /// Output variables (the grouping set).
        group_vars: Vec<VarId>,
    },
}

impl Plan {
    /// Scan constructor.
    pub fn scan(relation: impl Into<String>) -> Plan {
        Plan::Scan {
            relation: relation.into(),
        }
    }

    /// Selection constructor. With no predicates, returns the input
    /// unchanged.
    pub fn select(input: Plan, predicates: Vec<(VarId, Value)>) -> Plan {
        if predicates.is_empty() {
            return input;
        }
        Plan::Select {
            input: Box::new(input),
            predicates,
        }
    }

    /// Product-join constructor.
    pub fn join(left: Plan, right: Plan) -> Plan {
        Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// GroupBy constructor.
    pub fn group_by(input: Plan, group_vars: Vec<VarId>) -> Plan {
        Plan::GroupBy {
            input: Box::new(input),
            group_vars,
        }
    }

    /// The plan's nesting depth (a scan is depth 1). Computed with an
    /// explicit stack so arbitrarily deep plans can be measured — and then
    /// rejected — without recursing.
    pub fn depth(&self) -> usize {
        let mut max = 0;
        let mut stack = vec![(self, 1usize)];
        while let Some((node, d)) = stack.pop() {
            max = max.max(d);
            match node {
                Plan::Scan { .. } => {}
                Plan::Select { input, .. } | Plan::GroupBy { input, .. } => {
                    stack.push((input, d + 1));
                }
                Plan::Join { left, right } => {
                    stack.push((left, d + 1));
                    stack.push((right, d + 1));
                }
            }
        }
        max
    }

    /// Guard against plans nested beyond [`MAX_PLAN_DEPTH`].
    pub(crate) fn check_depth(&self) -> Result<()> {
        let depth = self.depth();
        if depth > MAX_PLAN_DEPTH {
            return Err(AlgebraError::PlanTooDeep {
                depth,
                max: MAX_PLAN_DEPTH,
            });
        }
        Ok(())
    }

    /// The plan's output schema, resolving base relations in `provider`.
    ///
    /// # Errors
    /// [`AlgebraError::PlanTooDeep`] for plans nested beyond
    /// [`MAX_PLAN_DEPTH`] (checked before the recursive walk).
    pub fn schema<P: RelationProvider>(&self, provider: &P) -> Result<Schema> {
        self.check_depth()?;
        self.schema_inner(provider)
    }

    fn schema_inner<P: RelationProvider>(&self, provider: &P) -> Result<Schema> {
        match self {
            Plan::Scan { relation } => provider
                .relation_of(relation)
                .map(|r| r.schema().clone())
                .ok_or_else(|| AlgebraError::UnknownRelation(relation.clone())),
            Plan::Select { input, .. } => input.schema_inner(provider),
            Plan::Join { left, right } => Ok(left
                .schema_inner(provider)?
                .union(&right.schema_inner(provider)?)),
            Plan::GroupBy { group_vars, .. } => Ok(Schema::new(group_vars.clone())?),
        }
    }

    /// Names of the base relations scanned by this plan, in scan order.
    pub fn base_relations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let Plan::Scan { relation } = p {
                out.push(relation.as_str());
            }
        });
        out
    }

    /// Number of join nodes.
    pub fn join_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| {
            if matches!(p, Plan::Join { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Number of group-by nodes.
    pub fn group_by_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| {
            if matches!(p, Plan::GroupBy { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Whether the plan is *linear* (left-deep): the right input of every
    /// join contains no join node.
    pub fn is_linear(&self) -> bool {
        match self {
            Plan::Scan { .. } => true,
            Plan::Select { input, .. } | Plan::GroupBy { input, .. } => input.is_linear(),
            Plan::Join { left, right } => left.is_linear() && right.join_count() == 0,
        }
    }

    /// Visit every node pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        f(self);
        match self {
            Plan::Scan { .. } => {}
            Plan::Select { input, .. } | Plan::GroupBy { input, .. } => input.visit(f),
            Plan::Join { left, right } => {
                left.visit(f);
                right.visit(f);
            }
        }
    }

    /// Render the plan as an indented `EXPLAIN`-style tree. Variable names
    /// are rendered through `var_name` (pass `|v| v.to_string()` when no
    /// catalog is at hand).
    pub fn render(&self, var_name: &dyn Fn(VarId) -> String) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, var_name);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, var_name: &dyn Fn(VarId) -> String) {
        let indent = "  ".repeat(depth);
        match self {
            Plan::Scan { relation } => {
                out.push_str(&format!("{indent}Scan {relation}\n"));
            }
            Plan::Select { input, predicates } => {
                let preds: Vec<String> = predicates
                    .iter()
                    .map(|(v, c)| format!("{}={}", var_name(*v), c))
                    .collect();
                out.push_str(&format!("{indent}Select [{}]\n", preds.join(", ")));
                input.render_into(out, depth + 1, var_name);
            }
            Plan::Join { left, right } => {
                out.push_str(&format!("{indent}ProductJoin\n"));
                left.render_into(out, depth + 1, var_name);
                right.render_into(out, depth + 1, var_name);
            }
            Plan::GroupBy { input, group_vars } => {
                let vars: Vec<String> = group_vars.iter().map(|&v| var_name(v)).collect();
                out.push_str(&format!("{indent}GroupBy [{}]\n", vars.join(", ")));
                input.render_into(out, depth + 1, var_name);
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

    fn sample() -> Plan {
        // GroupBy[v1](Join(Join(a, b), GroupBy[v2](c)))
        Plan::group_by(
            Plan::join(
                Plan::join(Plan::scan("a"), Plan::scan("b")),
                Plan::group_by(Plan::scan("c"), vec![v(2)]),
            ),
            vec![v(1)],
        )
    }

    #[test]
    fn counters() {
        let p = sample();
        assert_eq!(p.join_count(), 2);
        assert_eq!(p.group_by_count(), 2);
        assert_eq!(p.base_relations(), vec!["a", "b", "c"]);
    }

    #[test]
    fn linearity() {
        let p = sample();
        assert!(p.is_linear()); // right inputs are scan/groupby(scan)
        let bushy = Plan::join(
            Plan::join(Plan::scan("a"), Plan::scan("b")),
            Plan::join(Plan::scan("c"), Plan::scan("d")),
        );
        assert!(!bushy.is_linear());
    }

    #[test]
    fn select_with_no_predicates_is_identity() {
        let p = Plan::select(Plan::scan("a"), vec![]);
        assert_eq!(p, Plan::scan("a"));
    }

    #[test]
    fn depth_counts_nesting() {
        assert_eq!(Plan::scan("a").depth(), 1);
        assert_eq!(sample().depth(), 4);
    }

    #[test]
    fn schema_rejects_too_deep_plans() {
        let mut p = Plan::scan("a");
        for _ in 0..MAX_PLAN_DEPTH + 10 {
            p = Plan::join(p, Plan::scan("a"));
        }
        let provider = crate::RelationStore::new();
        assert!(matches!(
            p.schema(&provider),
            Err(AlgebraError::PlanTooDeep { .. })
        ));
    }

    #[test]
    fn render_shape() {
        let p = sample();
        let s = p.render(&|v| format!("x{}", v.0));
        assert!(s.contains("GroupBy [x1]"));
        assert!(s.contains("ProductJoin"));
        assert!(s.contains("Scan a"));
    }
}
