//! MVCC-lite snapshot storage for the database's catalog and data.
//!
//! A [`Snapshot`] is one immutable, internally consistent version of
//! everything a query resolves names against: the variable [`Catalog`],
//! the base-relation [`RelationStore`], the MPF view definitions, and the
//! declared functional dependencies. The [`Database`](crate::Database)
//! keeps the *current* snapshot behind an atomically swappable `Arc`:
//!
//! * **readers** ([`Database::run`](crate::Database::run) and friends)
//!   grab the `Arc` once at query start and use that snapshot for the
//!   query's whole lifetime — a concurrent writer can never make a query
//!   see half-updated metadata, and queries never block writers;
//! * **writers** ([`Database::mutate`](crate::Database::mutate) and the
//!   mutators built on it) clone the current snapshot, apply their
//!   changes to the private copy, and install it with one pointer swap.
//!   Writers serialize among themselves; a failed mutation installs
//!   nothing. The clone is copy-on-write: catalog, view definitions and
//!   FDs sit behind `Arc`s and the store holds one `Arc` per relation,
//!   so the copy is a handful of pointers and a writer pays only for the
//!   parts it actually changes (`Arc::make_mut`). Successive snapshots
//!   share every relation no writer touched in between.
//!
//! The accessor guards ([`CatalogRef`], [`StoreRef`], [`RelationRef`],
//! [`ViewRef`]) keep the old reference-returning `Database` accessors
//! ergonomic: each owns an `Arc<Snapshot>` and derefs into it, so
//! `db.catalog().name(v)` and `db.relation("r").unwrap().measure(0)`
//! read exactly as before while borrowing from a pinned snapshot instead
//! of the (now concurrently mutable) database.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpf_algebra::RelationStore;
use mpf_storage::{Catalog, FunctionalRelation, VarId};

use crate::MpfView;

/// Process-wide snapshot version source. Versions are globally unique —
/// not per-`Database` — so `Database` clones (and independent databases)
/// sharing one [`crate::ViewCache`] can never collide on a version
/// number and serve one database's cached tree for another's data.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// A fresh, never-before-issued snapshot version.
pub(crate) fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// One immutable version of the database: catalog, base relations, view
/// definitions, and declared FDs. Cheap to share (`Arc`) and cheap to
/// clone (pointer copies; see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) store: RelationStore,
    pub(crate) views: Arc<HashMap<String, MpfView>>,
    /// Declared narrow functional dependencies (`X -> f` with
    /// `X ⊂ Var(s)`), keyed by relation name; feed Proposition 1.
    pub(crate) fds: Arc<HashMap<String, Vec<VarId>>>,
    /// Globally unique version number, reassigned on every install.
    /// Everything keyed by it (the engine view cache) is implicitly
    /// invalidated when a writer installs a successor.
    pub(crate) version: u64,
}

impl Snapshot {
    /// The variable catalog of this version.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// This snapshot's globally unique version number. A mutation —
    /// however small — installs a snapshot with a fresh version, so
    /// equal versions imply identical catalog, data, views, and FDs.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The base relations of this version.
    pub fn store(&self) -> &RelationStore {
        &self.store
    }

    /// Mutable access to the base relations, for
    /// [`Database::mutate`](crate::Database::mutate) closures that
    /// replace several relations in one atomic install (a reader either
    /// sees all of the replacements or none of them).
    pub fn store_mut(&mut self) -> &mut RelationStore {
        &mut self.store
    }

    /// A base relation by name.
    pub fn relation_of(&self, name: &str) -> Option<&FunctionalRelation> {
        use mpf_algebra::RelationProvider;
        self.store.relation_of(name)
    }

    /// A view definition by name.
    pub fn view_of(&self, name: &str) -> Option<&MpfView> {
        self.views.get(name)
    }

    /// Iterate over the view definitions (unordered).
    pub fn views(&self) -> impl Iterator<Item = &MpfView> {
        self.views.values()
    }

    /// The declared FD left-hand side for a relation, if any.
    pub fn fd_of(&self, name: &str) -> Option<&[VarId]> {
        self.fds.get(name).map(Vec::as_slice)
    }
}

/// Guard dereferencing to the [`Catalog`] of a pinned snapshot.
#[derive(Debug, Clone)]
pub struct CatalogRef(pub(crate) Arc<Snapshot>);

impl Deref for CatalogRef {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        self.0.catalog()
    }
}

/// Guard dereferencing to the [`RelationStore`] of a pinned snapshot.
#[derive(Debug, Clone)]
pub struct StoreRef(pub(crate) Arc<Snapshot>);

impl StoreRef {
    /// The whole pinned snapshot (for callers that also need the catalog
    /// consistent with this store).
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.0
    }
}

impl Deref for StoreRef {
    type Target = RelationStore;
    fn deref(&self) -> &RelationStore {
        self.0.store()
    }
}

/// Guard dereferencing to one base relation of a pinned snapshot.
#[derive(Debug, Clone)]
pub struct RelationRef {
    pub(crate) snap: Arc<Snapshot>,
    pub(crate) name: String,
}

impl Deref for RelationRef {
    type Target = FunctionalRelation;
    fn deref(&self) -> &FunctionalRelation {
        // Constructed only after the lookup succeeded, and the snapshot
        // is immutable, so the relation cannot have gone away.
        self.snap
            .relation_of(&self.name)
            .expect("relation pinned by snapshot")
    }
}

/// Guard dereferencing to one view definition of a pinned snapshot.
#[derive(Debug, Clone)]
pub struct ViewRef {
    pub(crate) snap: Arc<Snapshot>,
    pub(crate) name: String,
}

impl Deref for ViewRef {
    type Target = MpfView;
    fn deref(&self) -> &MpfView {
        self.snap
            .view_of(&self.name)
            .expect("view pinned by snapshot")
    }
}
