//! Cheap, copy-on-write snapshot handles over a DOEM database.
//!
//! The DOEM twin of [`oem::SharedOem`]: a [`SharedDoem`] clones in O(1)
//! and pins the annotated graph as of clone time, while writers mutate
//! through [`SharedDoem::make_mut`] — in place when unshared, via an O(1)
//! persistent clone when a reader still holds an older snapshot, after
//! which the write path-copies only the spine it touches (DESIGN.md §14).
//! The serve layer uses this for snapshot-isolated query execution: a
//! query clones the handle under a brief per-database lock and evaluates
//! Chorel entirely outside it, so slow reads never stall writers.

use crate::DoemDatabase;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, copy-on-write handle to a [`DoemDatabase`].
///
/// ```
/// use doem::{doem_figure4, SharedDoem};
/// use oem::Value;
///
/// let mut live = SharedDoem::new(doem_figure4());
/// let snapshot = live.snapshot();
/// let before = snapshot.annotation_count();
/// live.make_mut()
///     .record_update(oem::guide::ids::N1, Value::Int(99), "1Apr97".parse().unwrap())
///     .unwrap();
/// assert_eq!(snapshot.annotation_count(), before); // the snapshot is unmoved
/// assert_eq!(live.annotation_count(), before + 1);
/// ```
#[derive(Clone, Debug)]
pub struct SharedDoem(Arc<DoemDatabase>);

impl SharedDoem {
    /// Wrap a DOEM database in a shareable handle.
    pub fn new(d: DoemDatabase) -> SharedDoem {
        SharedDoem(Arc::new(d))
    }

    /// An O(1) snapshot: the returned handle keeps observing the state as
    /// of this call even while `self` is subsequently mutated.
    pub fn snapshot(&self) -> SharedDoem {
        self.clone()
    }

    /// Mutable access for writers. In-place while this handle is the only
    /// owner; takes an O(1) persistent clone first when snapshots are
    /// still outstanding, leaving them untouched — the write then
    /// path-copies only what it touches (DESIGN.md §14).
    pub fn make_mut(&mut self) -> &mut DoemDatabase {
        Arc::make_mut(&mut self.0)
    }

    /// Whether any snapshot of this handle is still alive (in which case
    /// the next [`SharedDoem::make_mut`] takes the persistent-clone path).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }

    /// Recover the owned database, cloning only if snapshots remain.
    pub fn into_inner(self) -> DoemDatabase {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl Deref for SharedDoem {
    type Target = DoemDatabase;

    fn deref(&self) -> &DoemDatabase {
        &self.0
    }
}

impl From<DoemDatabase> for SharedDoem {
    fn from(d: DoemDatabase) -> SharedDoem {
        SharedDoem::new(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doem_figure4, same_doem};
    use oem::guide::ids;
    use oem::Value;

    fn ts(s: &str) -> oem::Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn snapshot_is_isolated_from_later_annotations() {
        let mut live = SharedDoem::new(doem_figure4());
        let snap = live.snapshot();
        let before = snap.annotation_count();
        live.make_mut()
            .record_update(ids::N1, Value::Int(42), ts("1Apr97"))
            .unwrap();
        assert_eq!(snap.annotation_count(), before);
        assert_eq!(live.annotation_count(), before + 1);
        assert!(!same_doem(&snap, &live));
    }

    #[test]
    fn unshared_handle_mutates_in_place() {
        let mut live = SharedDoem::new(doem_figure4());
        let ptr_before = Arc::as_ptr(&live.0);
        live.make_mut()
            .record_update(ids::N1, Value::Int(42), ts("1Apr97"))
            .unwrap();
        assert_eq!(ptr_before, Arc::as_ptr(&live.0), "no clone when unshared");
        drop(live);
    }

    #[test]
    fn into_inner_preserves_the_database() {
        let live = SharedDoem::new(doem_figure4());
        let snap = live.snapshot();
        let owned = live.into_inner();
        assert!(same_doem(&owned, &snap));
    }
}
