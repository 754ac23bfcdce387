//! Cheap snapshot handles over an OEM database.
//!
//! A [`SharedOem`] is an [`Arc`]-backed handle: cloning it is O(1) and the
//! clone observes the graph exactly as it was at clone time, no matter
//! what later writers do. Writers go through [`SharedOem::make_mut`],
//! which mutates in place while the handle is unshared; the moment a
//! reader still holds an older snapshot it switches to a *persistent*
//! clone — O(1) at the handle, with the write itself path-copying only
//! the touched spine of the underlying [`PMap`](crate::PMap) storage
//! (DESIGN.md §14), never duplicating the whole database: readers clone
//! the handle under a brief lock and evaluate entirely outside it. Serve
//! does this with the DOEM twin, `doem::SharedDoem`; this handle's one
//! user is `doem-load`'s replay model.

use crate::OemDatabase;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, copy-on-write handle to an [`OemDatabase`].
///
/// ```
/// use oem::{OemDatabase, SharedOem, Value};
///
/// let mut live = SharedOem::new(OemDatabase::new("g"));
/// let snapshot = live.snapshot();          // O(1), pins the current state
/// let n = live.make_mut().create_node(Value::Int(1)); // copy-on-write
/// assert!(live.contains_node(n));
/// assert!(!snapshot.contains_node(n));     // the snapshot is unmoved
/// ```
#[derive(Clone, Debug)]
pub struct SharedOem(Arc<OemDatabase>);

impl SharedOem {
    /// Wrap a database in a shareable handle.
    pub fn new(db: OemDatabase) -> SharedOem {
        SharedOem(Arc::new(db))
    }

    /// An O(1) snapshot: the returned handle keeps observing the state as
    /// of this call even while `self` is subsequently mutated.
    pub fn snapshot(&self) -> SharedOem {
        self.clone()
    }

    /// Mutable access for writers. In-place while this handle is the only
    /// owner; takes an O(1) persistent clone first when snapshots are
    /// still outstanding, leaving them untouched — the write then
    /// path-copies only what it touches (DESIGN.md §14).
    pub fn make_mut(&mut self) -> &mut OemDatabase {
        Arc::make_mut(&mut self.0)
    }

    /// Whether any snapshot of this handle is still alive (in which case
    /// the next [`SharedOem::make_mut`] takes the persistent-clone path).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }

    /// Recover the owned database, cloning only if snapshots remain.
    pub fn into_inner(self) -> OemDatabase {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl Deref for SharedOem {
    type Target = OemDatabase;

    fn deref(&self) -> &OemDatabase {
        &self.0
    }
}

impl From<OemDatabase> for SharedOem {
    fn from(db: OemDatabase) -> SharedOem {
        SharedOem::new(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArcTriple, Value};

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let mut live = SharedOem::new(OemDatabase::new("g"));
        let root = live.root();
        let before = live.snapshot();
        assert!(live.is_shared());

        let n = live.make_mut().create_node(Value::Int(7));
        live.make_mut()
            .insert_arc(ArcTriple::new(root, "x", n))
            .unwrap();
        assert!(live.contains_node(n));
        assert!(!before.contains_node(n));
        assert_eq!(before.node_count(), 1);
    }

    #[test]
    fn unshared_handle_mutates_in_place() {
        let mut live = SharedOem::new(OemDatabase::new("g"));
        assert!(!live.is_shared());
        let ptr_before = Arc::as_ptr(&live.0);
        live.make_mut().create_node(Value::Int(1));
        assert_eq!(ptr_before, Arc::as_ptr(&live.0), "no clone when unshared");
    }

    #[test]
    fn dropping_snapshots_restores_in_place_mutation() {
        let live = SharedOem::new(OemDatabase::new("g"));
        let snap = live.snapshot();
        assert!(live.is_shared());
        drop(snap);
        assert!(!live.is_shared());
    }

    #[test]
    fn into_inner_round_trips() {
        let live = SharedOem::new(OemDatabase::new("g"));
        let snap = live.snapshot();
        let owned = live.into_inner(); // clones: snap is alive
        assert!(crate::same_database(&owned, &snap));
    }
}
