//! Proposition 1: FD-based elimination pruning.
//!
//! If for every base relation `s_i` a declared functional dependency
//! `X_i -> s_i[f]` holds and variable `Y ∉ X_i` for all `i`, then grouping
//! the view onto `Var(r) \ Y` equals *projecting* `Y` away — no measures
//! collapse, so `Y` need not be considered for (aggregating) elimination.
//! A sufficient condition is a primary key per base relation with `Y` in no
//! key.
//!
//! Relations without a declared narrow FD default to the maximal FD of
//! Definition 1 (`X_i = Var(s_i)`), so by default nothing is removable.

use mpf_storage::{FunctionalRelation, VarId};

use crate::OptContext;

/// Variables satisfying Proposition 1 across all base relations: every base
/// relation that contains the variable declares an FD left-hand side that
/// excludes it.
pub fn removable_vars(ctx: &OptContext<'_>) -> Vec<VarId> {
    ctx.all_vars()
        .into_iter()
        .filter(|&v| {
            let mut appears = false;
            for rel in &ctx.rels {
                if rel.schema.contains(v) {
                    appears = true;
                    match &rel.fd_lhs {
                        // Maximal FD: v is in the left-hand side.
                        None => return false,
                        Some(lhs) => {
                            if lhs.contains(&v) {
                                return false;
                            }
                        }
                    }
                }
            }
            appears
        })
        .collect()
}

/// Check a declared FD `lhs -> f` actually holds on the data: no two rows
/// agree on `lhs` but differ elsewhere (value or measure).
///
/// Used by tests and by engines that want to validate declared keys before
/// trusting Proposition 1.
pub fn fd_holds(rel: &FunctionalRelation, lhs: &[VarId]) -> bool {
    let Ok(positions) = rel.schema().positions(lhs) else {
        return false;
    };
    let mut seen: std::collections::HashMap<mpf_storage::Key, usize> =
        std::collections::HashMap::with_capacity(rel.len());
    for i in 0..rel.len() {
        let key = mpf_storage::Key::extract(rel.row(i), &positions);
        if let Some(&j) = seen.get(&key) {
            if rel.row(i) != rel.row(j) || rel.measure(i) != rel.measure(j) {
                return false;
            }
        } else {
            seen.insert(key, i);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseRel, CostModel, QuerySpec};
    use mpf_storage::{Catalog, Schema};

    #[test]
    fn removable_requires_declared_fds_everywhere() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 4).unwrap();
        let b = cat.add_var("b", 4).unwrap();
        let c = cat.add_var("c", 4).unwrap();
        let r1 = BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 16,
            fd_lhs: Some(vec![a]), // a -> f, b is a dependent attribute
            grid: false,
        };
        let r2 = BaseRel {
            name: "r2".into(),
            schema: Schema::new(vec![a, c]).unwrap(),
            cardinality: 16,
            fd_lhs: None,
            grid: false,
        };
        let ctx = OptContext::new(
            &cat,
            [r1.clone(), r2.clone()],
            QuerySpec::default(),
            CostModel::Io,
        );
        // b appears only in r1 and is outside r1's key: removable.
        assert_eq!(removable_vars(&ctx), vec![b]);

        // If r2 also contained b without a narrow FD, b is not removable.
        let r2b = BaseRel {
            name: "r2".into(),
            schema: Schema::new(vec![a, b, c]).unwrap(),
            cardinality: 64,
            fd_lhs: None,
            grid: false,
        };
        let ctx2 = OptContext::new(&cat, [r1, r2b], QuerySpec::default(), CostModel::Io);
        assert!(removable_vars(&ctx2).is_empty());
    }

    #[test]
    fn fd_holds_on_data() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 4).unwrap();
        let b = cat.add_var("b", 4).unwrap();
        let schema = Schema::new(vec![a, b]).unwrap();
        // b is functionally determined by a (b = a mod 2, f = a).
        let rel = FunctionalRelation::from_rows(
            "r",
            schema.clone(),
            (0..4u32).map(|x| (vec![x, x % 2], x as f64)),
        )
        .unwrap();
        assert!(fd_holds(&rel, &[a]));
        // a is NOT determined by b (b=0 maps to a=0 and a=2).
        assert!(!fd_holds(&rel, &[b]));
        // Unknown variable in lhs.
        assert!(!fd_holds(&rel, &[VarId(99)]));
    }

    #[test]
    fn prop1_group_by_equals_projection() {
        // The semantic content of Proposition 1: when Y is outside the key,
        // GroupBy_{Var \ Y} collapses no measures — each group has one row
        // per distinct key value, i.e. it is a duplicate-free projection.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 4).unwrap();
        let y = cat.add_var("y", 4).unwrap();
        let schema = Schema::new(vec![a, y]).unwrap();
        let rel = FunctionalRelation::from_rows(
            "r",
            schema,
            (0..4u32).map(|x| (vec![x, (x * 3) % 4], (x + 1) as f64)),
        )
        .unwrap();
        assert!(fd_holds(&rel, &[a]));
        let grouped = mpf_algebra::ops::group_by(
            &mut mpf_algebra::ExecContext::new(mpf_semiring::SemiringKind::SumProduct),
            &rel,
            &[a],
        )
        .unwrap();
        // Same number of rows (nothing merged) and same measures.
        assert_eq!(grouped.len(), rel.len());
        for (row, m) in rel.rows() {
            assert_eq!(grouped.lookup(&row[..1]), Some(m));
        }
    }
}
