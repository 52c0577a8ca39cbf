use std::collections::HashMap;
use std::sync::Arc;

use mpf_storage::FunctionalRelation;

/// A source of named base relations for plan execution.
pub trait RelationProvider {
    /// The relation registered under `name`, if any.
    fn relation_of(&self, name: &str) -> Option<&FunctionalRelation>;
}

/// A simple in-memory relation store.
///
/// Relations are held behind `Arc`, so cloning a store copies one pointer
/// per relation and two stores share every relation neither has replaced
/// or mutated since. [`RelationStore::relation_mut`] is the copy-on-write
/// entry point: it clones the one relation it is asked for, and only when
/// another store still shares it.
///
/// Every relation inserted here carries a keyed-order memo
/// ([`FunctionalRelation::enable_keyed_memo`]): stored relations are
/// re-read by every query, so the sparse kernels key them once. The
/// memo survives both kinds of sharing above. Insertion also trims the
/// relation's slack capacity ([`FunctionalRelation::shrink_to_fit`]):
/// a stored relation is read far more often than it grows.
#[derive(Debug, Clone, Default)]
pub struct RelationStore {
    relations: HashMap<String, Arc<FunctionalRelation>>,
}

impl RelationStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a relation under its own name.
    pub fn insert(&mut self, mut rel: FunctionalRelation) {
        rel.shrink_to_fit();
        rel.enable_keyed_memo();
        self.relations.insert(rel.name().to_string(), Arc::new(rel));
    }

    /// Remove a relation by name.
    pub fn remove(&mut self, name: &str) -> Option<Arc<FunctionalRelation>> {
        self.relations.remove(name)
    }

    /// Whether a relation of this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// The shared handle of a relation — `Arc::ptr_eq` on two stores'
    /// handles tells whether they share the relation's storage.
    pub fn shared(&self, name: &str) -> Option<&Arc<FunctionalRelation>> {
        self.relations.get(name)
    }

    /// Mutable access to one relation, copying it first if another store
    /// (an older snapshot, a hypothetical copy) still shares it. No other
    /// relation of the store is touched.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut FunctionalRelation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// Iterate over the stored relations.
    pub fn iter(&self) -> impl Iterator<Item = &FunctionalRelation> {
        self.relations.values().map(Arc::as_ref)
    }

    /// Names of all stored relations (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Number of stored relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

impl RelationProvider for RelationStore {
    fn relation_of(&self, name: &str) -> Option<&FunctionalRelation> {
        self.relations.get(name).map(Arc::as_ref)
    }
}

/// A copy-on-write view over a base provider: a small set of patched or
/// synthetic relations shadows the base by name, everything else resolves
/// through untouched.
///
/// This is what makes batch what-if evaluation cheap: a scenario that
/// overrides one relation of a five-relation view carries one patched
/// relation (plus any memoized trunk outputs under synthetic names) instead
/// of a full store clone. Entries are `Arc`-shared so one trunk result can
/// appear in many scenarios' overlays without copying rows.
#[derive(Debug, Clone)]
pub struct Overlay<'a, P: RelationProvider> {
    base: &'a P,
    extra: HashMap<String, Arc<FunctionalRelation>>,
}

impl<'a, P: RelationProvider> Overlay<'a, P> {
    /// An overlay with no shadowed relations: resolves exactly like `base`.
    pub fn new(base: &'a P) -> Self {
        Self {
            base,
            extra: HashMap::new(),
        }
    }

    /// Shadow (or add) a relation under an explicit `name`, regardless of
    /// the relation's own name. Synthetic trunk outputs are installed this
    /// way so the residual plan's generated scan names need no rename pass.
    pub fn insert_as(&mut self, name: impl Into<String>, rel: Arc<FunctionalRelation>) {
        self.extra.insert(name.into(), rel);
    }
}

impl<P: RelationProvider> RelationProvider for Overlay<'_, P> {
    fn relation_of(&self, name: &str) -> Option<&FunctionalRelation> {
        match self.extra.get(name) {
            Some(rel) => Some(rel.as_ref()),
            None => self.base.relation_of(name),
        }
    }
}

impl FromIterator<FunctionalRelation> for RelationStore {
    fn from_iter<T: IntoIterator<Item = FunctionalRelation>>(iter: T) -> Self {
        let mut store = RelationStore::new();
        for rel in iter {
            store.insert(rel);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_storage::{Catalog, Schema};

    #[test]
    fn insert_trims_slack_capacity() {
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 7).unwrap();
        let mut grown = FunctionalRelation::new("g", Schema::new(vec![x]).unwrap());
        for i in 0..5 {
            grown.push_row(&[i], 1.0).unwrap();
        }
        let mut tight = grown.clone();
        tight.shrink_to_fit();
        assert!(grown.heap_bytes() > tight.heap_bytes(), "push-grown slack");
        let mut store = RelationStore::new();
        store.insert(grown);
        assert_eq!(store.shared("g").unwrap().heap_bytes(), tight.heap_bytes());
    }
}
