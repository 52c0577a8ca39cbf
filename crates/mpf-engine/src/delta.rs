//! The single base-relation patching path behind every what-if mechanism.
//!
//! Two callers apply "change one base relation" deltas: hypothetical
//! scenario evaluation ([`crate::Scenario`] overrides, applied to copies
//! that shadow the base relations in a scenario's overlay, whether the
//! scenario runs alone or in a batch), and real point updates
//! ([`crate::Database::update_measure`], whose [`crate::CacheEvent`] drives
//! the view cache's Section 6 update-semijoin patching). Both route
//! through this module so the semantics — exact row matching, measure
//! replacement in place, first-occurrence-wins domain merges — cannot
//! drift between the hypothetical and the real paths.

use mpf_storage::{Catalog, FunctionalRelation, Value};

use crate::{EngineError, Override, Result};

/// Replace the measure of the row equal to `row`
/// ([`FunctionalRelation::find_row`], the exact-match rule every measure
/// patch, hypothetical or real, locates its target by), returning the
/// patched relation and the previous measure. `None` when no row matches.
///
/// The patch is a clone + in-place [`FunctionalRelation::set_measure`]:
/// row order and representation are preserved exactly, so a patched
/// relation scans bit-identically to the original everywhere but the one
/// measure. ([`crate::Database::update_measure`] does the same to the
/// store's own copy-on-write handle instead of a clone.)
pub(crate) fn patch_measure(
    rel: &FunctionalRelation,
    row: &[Value],
    measure: f64,
) -> Option<(FunctionalRelation, f64)> {
    let idx = rel.find_row(row)?;
    let old = rel.measure(idx);
    let mut updated = rel.clone();
    updated.set_measure(idx, measure);
    Some((updated, old))
}

/// Remap one variable's value `from → to` across a relation. The remap
/// may merge rows that become equal; the first occurrence wins (the
/// Section 3.1 alternate-domain convention).
pub(crate) fn remap_domain(
    catalog: &Catalog,
    rel: &FunctionalRelation,
    var: &str,
    from: Value,
    to: Value,
) -> Result<FunctionalRelation> {
    let vid = catalog
        .var(var)
        .map_err(|_| EngineError::UnknownVariable(var.to_string()))?;
    let pos = rel.schema().position(vid).map_err(|_| {
        EngineError::BadOverride(format!("`{}` has no variable `{var}`", rel.name()))
    })?;
    let mut updated = FunctionalRelation::new(rel.name().to_string(), rel.schema().clone());
    let mut seen = std::collections::HashSet::new();
    for (r, m) in rel.rows() {
        let mut r = r.to_vec();
        if r[pos] == from {
            r[pos] = to;
        }
        if seen.insert(r.clone()) {
            updated.push_row(&r, m)?;
        }
    }
    Ok(updated)
}

/// Apply one [`Override`] to a relation, producing the patched copy.
///
/// # Errors
/// [`EngineError::BadOverride`] when a measure override names a missing
/// row, or a domain override names a variable outside the relation's
/// schema.
pub(crate) fn apply(
    catalog: &Catalog,
    rel: &FunctionalRelation,
    ov: &Override,
) -> Result<FunctionalRelation> {
    match ov {
        Override::Measure { relation, row, measure } => patch_measure(rel, row, *measure)
            .map(|(updated, _)| updated)
            .ok_or_else(|| {
                EngineError::BadOverride(format!("row {row:?} not found in `{relation}`"))
            }),
        Override::Domain { var, from, to, .. } => remap_domain(catalog, rel, var, *from, *to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_storage::Schema;

    fn catalog_and_rel() -> (Catalog, FunctionalRelation) {
        let mut catalog = Catalog::new();
        let a = catalog.add_var("a", 3).unwrap();
        let b = catalog.add_var("b", 3).unwrap();
        let rel = FunctionalRelation::from_rows(
            "r",
            Schema::new(vec![a, b]).unwrap(),
            [
                (vec![0, 0], 1.0),
                (vec![0, 1], 2.0),
                (vec![1, 0], 3.0),
                (vec![1, 1], 4.0),
            ],
        )
        .unwrap();
        (catalog, rel)
    }

    #[test]
    fn patch_measure_preserves_row_order() {
        let (_, rel) = catalog_and_rel();
        let (updated, old) = patch_measure(&rel, &[1, 0], 30.0).unwrap();
        assert_eq!(old, 3.0);
        assert_eq!(updated.len(), rel.len());
        for i in 0..rel.len() {
            assert_eq!(updated.row(i), rel.row(i), "row {i} moved");
        }
        assert_eq!(updated.measure(2), 30.0);
        assert!(patch_measure(&rel, &[2, 2], 1.0).is_none());
    }

    #[test]
    fn remap_merges_first_occurrence_wins() {
        let (catalog, rel) = catalog_and_rel();
        // b: 1 -> 0 merges (0,1) into (0,0) and (1,1) into (1,0); the
        // earlier rows' measures win.
        let updated = remap_domain(&catalog, &rel, "b", 1, 0).unwrap();
        assert_eq!(updated.len(), 2);
        assert_eq!(updated.lookup(&[0, 0]), Some(1.0));
        assert_eq!(updated.lookup(&[1, 0]), Some(3.0));
    }

    #[test]
    fn apply_reports_typed_errors() {
        let (catalog, rel) = catalog_and_rel();
        let e = apply(
            &catalog,
            &rel,
            &Override::Measure {
                relation: "r".into(),
                row: vec![9, 9],
                measure: 1.0,
            },
        )
        .unwrap_err();
        assert!(matches!(e, EngineError::BadOverride(_)));
        let e = apply(
            &catalog,
            &rel,
            &Override::Domain {
                relation: "r".into(),
                var: "zz".into(),
                from: 0,
                to: 1,
            },
        )
        .unwrap_err();
        assert!(matches!(e, EngineError::UnknownVariable(_)));
    }
}
