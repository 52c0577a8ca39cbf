use mpf_storage::{Catalog, FunctionalRelation, Schema, Value, VarId};

use crate::CostModel;

/// Optimizer-visible description of one base functional relation.
///
/// `fd_lhs` records a declared (narrower-than-maximal) functional dependency
/// `X -> f` with `X ⊂ Var(s)` — e.g. a primary key. `None` means only the
/// maximal FD of Definition 1 is known. Narrow FDs feed the Proposition 1
/// elimination pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseRel {
    /// Relation name (must resolve in the executor's provider).
    pub name: String,
    /// The relation's variables.
    pub schema: Schema,
    /// Row count from the catalog statistics.
    pub cardinality: u64,
    /// Optional declared FD left-hand side (`X_i` in Proposition 1).
    pub fd_lhs: Option<Vec<VarId>>,
}

impl BaseRel {
    /// Describe a stored relation (maximal FD assumed).
    pub fn of(rel: &FunctionalRelation) -> Self {
        BaseRel {
            name: rel.name().to_string(),
            schema: rel.schema().clone(),
            cardinality: rel.len() as u64,
            fd_lhs: None,
        }
    }
}

/// The query being optimized: group variables (the MPF query variables `X`)
/// plus conjunctive equality predicates (the restricted-answer and
/// constrained-domain forms of Section 3.1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuerySpec {
    /// The MPF query variables (the `group by` list).
    pub group_vars: Vec<VarId>,
    /// Equality predicates (`where Y = c`).
    pub predicates: Vec<(VarId, Value)>,
}

impl QuerySpec {
    /// A basic MPF query grouping on `vars`.
    pub fn group_by(vars: impl IntoIterator<Item = VarId>) -> Self {
        QuerySpec {
            group_vars: vars.into_iter().collect(),
            predicates: Vec::new(),
        }
    }

    /// Add an equality predicate.
    pub fn filter(mut self, var: VarId, value: Value) -> Self {
        self.predicates.push((var, value));
        self
    }
}

/// Everything an optimization algorithm needs: catalog statistics, the view's
/// base relations, the query, and the cost model.
#[derive(Debug, Clone)]
pub struct OptContext<'a> {
    /// Catalog holding per-variable domain sizes.
    pub catalog: &'a Catalog,
    /// The MPF view's base relations.
    pub rels: Vec<BaseRel>,
    /// The query being optimized.
    pub query: QuerySpec,
    /// Cost model used to rank plans.
    pub cost_model: CostModel,
}

impl<'a> OptContext<'a> {
    /// Build a context from stored relations.
    pub fn new(
        catalog: &'a Catalog,
        rels: impl IntoIterator<Item = BaseRel>,
        query: QuerySpec,
        cost_model: CostModel,
    ) -> Self {
        OptContext {
            catalog,
            rels: rels.into_iter().collect(),
            query,
            cost_model,
        }
    }

    /// The effective domain size of a variable under the query's
    /// predicates: an equality-bound variable has effective domain 1.
    pub fn effective_domain(&self, v: VarId) -> f64 {
        if self.query.predicates.iter().any(|&(pv, _)| pv == v) {
            1.0
        } else {
            self.catalog.domain_size(v) as f64
        }
    }

    /// Product of effective domain sizes over a variable set.
    pub fn domain_product(&self, vars: impl IntoIterator<Item = VarId>) -> f64 {
        vars.into_iter()
            .map(|v| self.effective_domain(v))
            .product()
    }

    /// All variables appearing in the view (union of base schemas).
    pub fn all_vars(&self) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        for r in &self.rels {
            for v in r.schema.iter() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Predicates of the query applicable to (i.e. mentioning variables of)
    /// a schema.
    pub fn applicable_predicates(&self, schema: &Schema) -> Vec<(VarId, Value)> {
        self.query
            .predicates
            .iter()
            .copied()
            .filter(|&(v, _)| schema.contains(v))
            .collect()
    }
}

#[cfg(test)]
impl BaseRel {
    /// A relation over `vars` with `cardinality` rows and the maximal FD.
    pub(crate) fn fixture(name: &str, vars: Vec<VarId>, cardinality: u64) -> Self {
        BaseRel {
            name: name.into(),
            schema: Schema::new(vars).unwrap(),
            cardinality,
            fd_lhs: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_domain_respects_predicates() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 100).unwrap();
        let b = cat.add_var("b", 10).unwrap();
        let ctx = OptContext::new(
            &cat,
            [BaseRel {
                name: "r".into(),
                schema: Schema::new(vec![a, b]).unwrap(),
                cardinality: 500,
                fd_lhs: None,
            }],
            QuerySpec::group_by([b]).filter(a, 3),
            CostModel::Simple,
        );
        assert_eq!(ctx.effective_domain(a), 1.0);
        assert_eq!(ctx.effective_domain(b), 10.0);
        assert_eq!(ctx.domain_product([a, b]), 10.0);
    }

    #[test]
    fn all_vars_lists_each_variable_once() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 2).unwrap();
        let c = cat.add_var("c", 2).unwrap();
        let mk = |name: &str, vars: Vec<VarId>| BaseRel::fixture(name, vars, 4);
        let ctx = OptContext::new(
            &cat,
            [mk("r1", vec![a, b]), mk("r2", vec![b, c]), mk("r3", vec![c])],
            QuerySpec::default(),
            CostModel::Simple,
        );
        assert_eq!(ctx.all_vars(), vec![a, b, c]);
    }
}
