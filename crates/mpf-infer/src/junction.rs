//! Join trees and the Junction Tree algorithm (Algorithm 5, Theorem 7).
//!
//! A **join tree** over a family of variable sets is a spanning forest with
//! the *running-intersection property* (RIP): for any two nodes, their
//! shared variables appear in every node on the path between them. By
//! Theorem 7 (Maier) a schema is acyclic iff such a tree exists; the
//! classical construction is a maximum-weight spanning forest where edge
//! weights are intersection cardinalities, followed by a RIP check.
//!
//! The **Junction Tree algorithm** (Algorithm 5) turns a *cyclic* schema
//! into an acyclic one: triangulate the variable graph, take the maximal
//! elimination cliques as the new schema, assign each original relation to
//! a clique containing its variables, and populate each clique by product
//! join (padding with identity measures where a clique variable is covered
//! by no assigned relation).

use std::collections::BTreeSet;

use mpf_algebra::{ops, ExecContext, OpRepr};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};

use crate::triangulate::{min_fill_order, triangulate};
use crate::{InferError, Result, VariableGraph};

/// A spanning forest over a family of variable sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    /// Number of nodes.
    pub n: usize,
    /// Undirected tree edges (node index pairs).
    pub edges: Vec<(usize, usize)>,
}

impl JoinTree {
    /// Build a maximum-weight spanning forest over `sets`, where the weight
    /// of `(i, j)` is `|sets[i] ∩ sets[j]|` and zero-weight edges are never
    /// added (disconnected families yield a forest).
    pub fn build(sets: &[BTreeSet<VarId>]) -> JoinTree {
        let n = sets.len();
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let w = sets[i].intersection(&sets[j]).count();
                if w > 0 {
                    candidates.push((w, i, j));
                }
            }
        }
        // Kruskal, heaviest first; deterministic tie-break on indices.
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut dsu: Vec<usize> = (0..n).collect();
        fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
            if dsu[x] != x {
                let r = find(dsu, dsu[x]);
                dsu[x] = r;
            }
            dsu[x]
        }
        let mut edges = Vec::new();
        for (_, i, j) in candidates {
            let (ri, rj) = (find(&mut dsu, i), find(&mut dsu, j));
            if ri != rj {
                dsu[ri] = rj;
                edges.push((i, j));
            }
        }
        JoinTree { n, edges }
    }

    /// Neighbours of node `i`.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == i {
                    Some(b)
                } else if b == i {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Connected components (each a list of node indices).
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut out = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        comp.push(v);
                        stack.push(v);
                    }
                }
            }
            out.push(comp);
        }
        out
    }

    /// BFS traversal of `root`'s component: `(node, parent)` pairs with the
    /// root first (`parent = None`).
    pub fn bfs_from(&self, root: usize) -> Vec<(usize, Option<usize>)> {
        let mut seen = vec![false; self.n];
        seen[root] = true;
        let mut order = vec![(root, None)];
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    order.push((v, Some(u)));
                    queue.push_back(v);
                }
            }
        }
        order
    }

    /// Verify the running-intersection property: for every pair of nodes in
    /// the same component, their intersection is contained in every node on
    /// the tree path between them. Quadratic; intended for construction-time
    /// validation and tests.
    pub fn verify_rip(&self, sets: &[BTreeSet<VarId>]) -> bool {
        for i in 0..self.n {
            // Single BFS from i recording paths.
            let mut parent: Vec<Option<usize>> = vec![None; self.n];
            let mut seen = vec![false; self.n];
            seen[i] = true;
            let mut queue = std::collections::VecDeque::from([i]);
            while let Some(u) = queue.pop_front() {
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        parent[v] = Some(u);
                        queue.push_back(v);
                    }
                }
            }
            for j in 0..self.n {
                if i == j || !seen[j] {
                    continue;
                }
                let shared: BTreeSet<VarId> =
                    sets[i].intersection(&sets[j]).copied().collect();
                if shared.is_empty() {
                    continue;
                }
                // Walk j -> i.
                let mut node = j;
                while let Some(p) = parent[node] {
                    if !shared.is_subset(&sets[node]) {
                        return false;
                    }
                    node = p;
                }
            }
        }
        true
    }
}

/// The result of the Junction Tree algorithm over a set of base relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JunctionTree {
    /// The new schema: maximal cliques of the triangulated variable graph.
    pub cliques: Vec<BTreeSet<VarId>>,
    /// Join tree over the cliques (guaranteed to satisfy RIP).
    pub tree: JoinTree,
    /// For each base relation, the clique it was assigned to.
    pub assignment: Vec<usize>,
    /// The elimination order used for triangulation.
    pub order: Vec<VarId>,
}

impl JunctionTree {
    /// Steps 1–4 of Algorithm 5: build the variable graph, triangulate with
    /// `order` (min-fill by default), form the maximal-clique schema, and
    /// assign every base relation to a clique containing its variables.
    pub fn from_schemas(schemas: &[Schema], order: Option<&[VarId]>) -> Result<JunctionTree> {
        let graph = VariableGraph::from_schemas(schemas.iter());
        let order: Vec<VarId> = match order {
            Some(o) => o.to_vec(),
            None => min_fill_order(&graph),
        };
        let tri = triangulate(&graph, &order);
        let cliques = tri.maximal_cliques();
        debug_assert!(tri.filled.is_chordal());

        let mut assignment = Vec::with_capacity(schemas.len());
        for s in schemas {
            let vars: BTreeSet<VarId> = s.iter().collect();
            let clique = cliques
                .iter()
                .position(|c| vars.is_subset(c))
                .expect("every relation schema is a clique of the filled graph");
            assignment.push(clique);
        }

        let tree = JoinTree::build(&cliques);
        if !tree.verify_rip(&cliques) {
            // Cannot happen for maximal cliques of a chordal graph; guards
            // against future regressions.
            return Err(InferError::CyclicSchema);
        }
        Ok(JunctionTree {
            cliques,
            tree,
            assignment,
            order,
        })
    }

    /// Step 5 of Algorithm 5: populate each clique table as the product
    /// join of its assigned base relations, inside a caller-owned
    /// [`ExecContext`] — the clique-building joins run under the context's
    /// budget, deadline, cancellation, tracing, and fault hooks. Clique
    /// variables covered by no assigned relation are padded with a
    /// complete identity relation (measure `one`), so each clique table
    /// spans its full variable set.
    ///
    /// Cliques are built one after another in clique order, so the first
    /// failing clique's error is the one reported. A clique's dense
    /// product join may still split its output rows across `cx.threads()`
    /// workers when it is big enough to pay
    /// ([`mpf_algebra::dense::PARALLEL_MIN_WORK`]).
    pub fn populate_in(
        &self,
        cx: &mut ExecContext<'_>,
        rels: &[&FunctionalRelation],
        catalog: &Catalog,
    ) -> Result<Vec<FunctionalRelation>> {
        cx.span_phase("junction::populate");
        let result = self.populate_inner(cx, rels, catalog);
        cx.span_close(|| result.as_ref().err().map(|e| e.to_string()));
        result
    }

    fn populate_inner(
        &self,
        cx: &mut ExecContext<'_>,
        rels: &[&FunctionalRelation],
        catalog: &Catalog,
    ) -> Result<Vec<FunctionalRelation>> {
        cx.fault("junction::populate")?;
        assert_eq!(rels.len(), self.assignment.len());
        let mut buckets: Vec<Vec<&FunctionalRelation>> = vec![Vec::new(); self.cliques.len()];
        for (r, &c) in rels.iter().zip(&self.assignment) {
            buckets[c].push(r);
        }

        let mut out = Vec::with_capacity(self.cliques.len());
        for (c, parts) in buckets.iter().enumerate() {
            out.push(self.build_clique(cx, c, parts, catalog)?);
        }
        Ok(out)
    }

    /// Build one clique table: fold the assigned relations with product
    /// join, then pad uncovered clique variables with an identity relation.
    fn build_clique(
        &self,
        cx: &mut ExecContext<'_>,
        c: usize,
        parts: &[&FunctionalRelation],
        catalog: &Catalog,
    ) -> Result<FunctionalRelation> {
        let sr = cx.semiring();
        let mut table: Option<FunctionalRelation> = None;
        for r in parts {
            table = Some(match table.take() {
                None => (*r).clone(),
                Some(t) => ops::step(cx, &[&t, r], None, OpRepr::Dense)?,
            });
        }
        let clique_vars: Vec<VarId> = self.cliques[c].iter().copied().collect();
        let rel = match table {
            Some(t) => {
                let missing: Vec<VarId> = clique_vars
                    .iter()
                    .copied()
                    .filter(|&v| !t.schema().contains(v))
                    .collect();
                if missing.is_empty() {
                    t
                } else {
                    let pad = identity_relation(sr, &missing, catalog);
                    ops::step(cx, &[&t, &pad], None, OpRepr::Dense)?
                }
            }
            None => identity_relation(sr, &clique_vars, catalog),
        };
        // Explicit rows: BP reads clique tables through the row-hash
        // semijoins.
        Ok(rel.without_coords().with_name(format!("clique{c}")))
    }
}

/// A complete relation over `vars` whose every measure is the semiring's
/// multiplicative identity — the "implicit measure 1" of Section 2.
pub fn identity_relation(
    sr: SemiringKind,
    vars: &[VarId],
    catalog: &Catalog,
) -> FunctionalRelation {
    let schema = Schema::new(vars.to_vec()).expect("identity vars unique");
    FunctionalRelation::complete("identity", schema, catalog, |_| sr.one())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn set(vars: &[u32]) -> BTreeSet<VarId> {
        vars.iter().map(|&i| v(i)).collect()
    }

    #[test]
    fn chain_join_tree_has_rip() {
        let sets = vec![set(&[0, 1]), set(&[1, 2]), set(&[2, 3])];
        let tree = JoinTree::build(&sets);
        assert_eq!(tree.edges.len(), 2);
        assert!(tree.verify_rip(&sets));
    }

    #[test]
    fn cyclic_family_fails_rip() {
        // Triangle of binary relations: any spanning tree breaks RIP.
        let sets = vec![set(&[0, 1]), set(&[1, 2]), set(&[0, 2])];
        let tree = JoinTree::build(&sets);
        assert!(!tree.verify_rip(&sets));
    }

    #[test]
    fn disconnected_components() {
        let sets = vec![set(&[0, 1]), set(&[1, 2]), set(&[5, 6])];
        let tree = JoinTree::build(&sets);
        assert_eq!(tree.edges.len(), 1);
        let comps = tree.components();
        assert_eq!(comps.len(), 2);
        assert!(tree.verify_rip(&sets));
    }

    #[test]
    fn bfs_parents() {
        let sets = vec![set(&[0, 1]), set(&[1, 2]), set(&[2, 3])];
        let tree = JoinTree::build(&sets);
        let order = tree.bfs_from(0);
        assert_eq!(order[0], (0, None));
        assert_eq!(order.len(), 3);
        // Every non-root has a parent already visited.
        let mut seen = std::collections::HashSet::new();
        for (node, parent) in order {
            if let Some(p) = parent {
                assert!(seen.contains(&p));
            }
            seen.insert(node);
        }
    }

    #[test]
    fn figure_15_junction_tree() {
        // Cyclic supply chain + stdeals; pid=0, sid=1, wid=2, cid=3, tid=4.
        let schemas = vec![
            Schema::new(vec![v(0), v(1)]).unwrap(), // contracts
            Schema::new(vec![v(2), v(3)]).unwrap(), // warehouses
            Schema::new(vec![v(4)]).unwrap(),       // transporters
            Schema::new(vec![v(0), v(2)]).unwrap(), // location
            Schema::new(vec![v(3), v(4)]).unwrap(), // ctdeals
            Schema::new(vec![v(1), v(4)]).unwrap(), // stdeals
        ];
        let jt = JunctionTree::from_schemas(&schemas, Some(&[v(4), v(1)])).unwrap();
        // Figure 15: three cliques {tid,cid,sid}, {sid,cid,pid}, {pid,wid,cid}.
        assert_eq!(jt.cliques.len(), 3);
        assert!(jt.cliques.contains(&set(&[4, 3, 1])));
        assert!(jt.cliques.contains(&set(&[1, 3, 0])));
        assert!(jt.cliques.contains(&set(&[0, 3, 2])));
        assert!(jt.tree.verify_rip(&jt.cliques));
        assert_eq!(jt.tree.edges.len(), 2);
        // Every relation's variables live inside its assigned clique.
        for (s, &c) in schemas.iter().zip(&jt.assignment) {
            let vars: BTreeSet<VarId> = s.iter().collect();
            assert!(vars.is_subset(&jt.cliques[c]));
        }
    }

    #[test]
    fn populate_pads_missing_vars() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 2).unwrap();
        let c = cat.add_var("c", 2).unwrap();
        let r1 = FunctionalRelation::complete(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            &cat,
            |row| (row[0] + 2 * row[1] + 1) as f64,
        );
        let r2 = FunctionalRelation::complete(
            "r2",
            Schema::new(vec![b, c]).unwrap(),
            &cat,
            |row| (row[0] + row[1] + 1) as f64,
        );
        let jt = JunctionTree::from_schemas(
            &[r1.schema().clone(), r2.schema().clone()],
            None,
        )
        .unwrap();
        let tables = jt
            .populate_in(&mut ExecContext::new(SemiringKind::SumProduct), &[&r1, &r2], &cat)
            .unwrap();
        assert_eq!(tables.len(), jt.cliques.len());
        for (t, c) in tables.iter().zip(&jt.cliques) {
            let tv: BTreeSet<VarId> = t.schema().iter().collect();
            assert_eq!(&tv, c);
            // Complete inputs -> complete clique tables.
            assert!(t.is_complete(&cat));
        }
    }

    #[test]
    fn identity_relation_spans_domain() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 3).unwrap();
        let id = identity_relation(SemiringKind::MinSum, &[a], &cat);
        assert_eq!(id.len(), 3);
        assert!(id.measures().iter().all(|&m| m == 0.0)); // MinSum one = 0
    }
}
