//! An LSN-indexed version ring of immutable values.
//!
//! Its one user is `doem-load`'s replay model (`benchmark/src/replay.rs`),
//! which still times the version store serve once kept for `QUERY … AS
//! OF`; serve itself now reads every past version through the `O_t(D)`
//! view of its DOEM graph (DESIGN.md §14).
//!
//! A [`VersionRing`] holds one immutable value per installed LSN — in
//! practice a structurally shared [`crate::SharedOem`] replica, where
//! consecutive versions share every untouched subtree, so N retained
//! versions cost O(database + total writes), not O(N × database). Any
//! retained LSN is readable: [`VersionRing::at`] resolves a timestamp to
//! the version in force at that instant (the greatest installed LSN not
//! after it). Retention is governed by two mechanisms:
//!
//! * **live snapshot refcounts** — [`VersionRing::pin`] marks a version
//!   as being read; [`VersionRing::retain`] never unlinks a pinned
//!   version (nor anything newer than the oldest pin, keeping the ring
//!   contiguous), and readers additionally hold the value itself alive
//!   through its own `Arc`s even past unlinking;
//! * **a horizon** — [`VersionRing::retain`]`(keep)` unlinks the oldest
//!   unpinned versions beyond the newest `keep`, after which reads below
//!   the horizon answer `None` and callers fall back to history replay
//!   (`doem::snapshot_at`).

use crate::Timestamp;
use std::collections::{BTreeMap, VecDeque};

/// One installed version.
#[derive(Clone, Debug)]
pub struct VersionEntry<T> {
    /// The LSN (change timestamp) this version was published at.
    pub lsn: Timestamp,
    /// The result-cache generation in force at this version — the bridge
    /// between LSN-addressed versions and generation-keyed cache entries.
    pub generation: u64,
    /// The versioned value (structurally shared with its neighbors).
    pub value: T,
}

/// An LSN-indexed ring of immutable versions, oldest first.
#[derive(Clone, Debug, Default)]
pub struct VersionRing<T> {
    /// Entries in strictly ascending LSN order.
    entries: VecDeque<VersionEntry<T>>,
    /// Live read pins: raw LSN → count. A pinned LSN always resolves to
    /// an exact installed version.
    pins: BTreeMap<i64, usize>,
    installed: u64,
    gced: u64,
}

impl<T: Clone> VersionRing<T> {
    /// An empty ring.
    pub fn new() -> VersionRing<T> {
        VersionRing {
            entries: VecDeque::new(),
            pins: BTreeMap::new(),
            installed: 0,
            gced: 0,
        }
    }

    /// Install a version at `lsn`. LSNs must arrive in ascending order
    /// (the commit pipeline publishes strictly increasing timestamps);
    /// re-installing the newest LSN replaces its value in place.
    pub fn publish_entry(&mut self, lsn: Timestamp, generation: u64, value: T) {
        if let Some(last) = self.entries.back_mut() {
            debug_assert!(lsn >= last.lsn, "version LSNs must ascend");
            if last.lsn == lsn {
                last.generation = generation;
                last.value = value;
                return;
            }
        }
        self.entries.push_back(VersionEntry {
            lsn,
            generation,
            value,
        });
        self.installed += 1;
    }

    /// The version in force at `lsn`: the entry with the greatest
    /// installed LSN `<= lsn`. `None` when `lsn` predates the retention
    /// horizon (or the ring is empty) — the caller's replay fallback.
    pub fn at(&self, lsn: Timestamp) -> Option<&VersionEntry<T>> {
        self.entries.iter().rev().find(|e| e.lsn <= lsn)
    }

    /// The newest version.
    pub fn latest(&self) -> Option<&VersionEntry<T>> {
        self.entries.back()
    }

    /// Pin the version in force at `lsn` for reading: bumps its live
    /// refcount so [`VersionRing::retain`] keeps it addressable, and
    /// returns the exact version LSN pinned (pass it to
    /// [`VersionRing::unpin`]) alongside the value.
    pub fn pin(&mut self, lsn: Timestamp) -> Option<(Timestamp, T)> {
        let entry = self.at(lsn)?;
        let (version_lsn, value) = (entry.lsn, entry.value.clone());
        *self.pins.entry(version_lsn.raw_minutes()).or_insert(0) += 1;
        Some((version_lsn, value))
    }

    /// Release one pin on the exact version LSN returned by
    /// [`VersionRing::pin`].
    pub fn unpin(&mut self, version_lsn: Timestamp) {
        let raw = version_lsn.raw_minutes();
        if let Some(count) = self.pins.get_mut(&raw) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&raw);
            }
        } else {
            debug_assert!(false, "unpin without a matching pin at {version_lsn}");
        }
    }

    /// Unlink old versions beyond the newest `keep` (at least the newest
    /// always stays). Stops at the first pinned version from the front so
    /// the retained run stays contiguous. Returns how many were unlinked
    /// — unlinked values are freed once their last outside reader drops.
    pub fn retain(&mut self, keep: usize) -> u64 {
        let keep = keep.max(1);
        let mut dropped = 0u64;
        while self.entries.len() > keep {
            let front = &self.entries[0];
            if self.pins.contains_key(&front.lsn.raw_minutes()) {
                break;
            }
            self.entries.pop_front();
            dropped += 1;
        }
        self.gced += dropped;
        dropped
    }

    /// Number of retained versions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no version is installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The oldest retained LSN (the retention horizon).
    pub fn first_lsn(&self) -> Option<Timestamp> {
        self.entries.front().map(|e| e.lsn)
    }

    /// The newest installed LSN.
    pub fn last_lsn(&self) -> Option<Timestamp> {
        self.entries.back().map(|e| e.lsn)
    }

    /// Total versions ever installed.
    pub fn installed(&self) -> u64 {
        self.installed
    }

    /// Total versions unlinked by [`VersionRing::retain`].
    pub fn gced(&self) -> u64 {
        self.gced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(m: i64) -> Timestamp {
        Timestamp::from_raw_minutes(m)
    }

    fn ring_of(lsns: &[i64]) -> VersionRing<i64> {
        let mut ring = VersionRing::new();
        for (g, &m) in lsns.iter().enumerate() {
            ring.publish_entry(t(m), g as u64, m);
        }
        ring
    }

    #[test]
    fn at_resolves_to_the_version_in_force() {
        let ring = ring_of(&[10, 20, 30]);
        assert!(ring.at(t(9)).is_none());
        assert_eq!(ring.at(t(10)).unwrap().value, 10);
        assert_eq!(ring.at(t(25)).unwrap().value, 20);
        assert_eq!(ring.at(t(99)).unwrap().value, 30);
        assert_eq!(ring.latest().unwrap().lsn, t(30));
        assert_eq!((ring.first_lsn(), ring.last_lsn()), (Some(t(10)), Some(t(30))));
    }

    #[test]
    fn reinstalling_the_newest_lsn_replaces_in_place() {
        let mut ring = ring_of(&[10]);
        ring.publish_entry(t(10), 7, -1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.latest().unwrap().value, -1);
        assert_eq!(ring.latest().unwrap().generation, 7);
        assert_eq!(ring.installed(), 1);
    }

    #[test]
    fn retain_unlinks_beyond_the_horizon_but_keeps_the_newest() {
        let mut ring = ring_of(&[10, 20, 30, 40, 50]);
        assert_eq!(ring.retain(2), 3);
        assert_eq!(ring.first_lsn(), Some(t(40)));
        assert!(ring.at(t(35)).is_none(), "below the horizon");
        assert_eq!(ring.at(t(45)).unwrap().value, 40);
        // keep=0 still keeps the newest version.
        assert_eq!(ring.retain(0), 1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.gced(), 4);
    }

    #[test]
    fn pins_block_gc_and_keep_the_run_contiguous() {
        let mut ring = ring_of(&[10, 20, 30, 40]);
        // Pin resolves 25 to the exact version at 20.
        let (pinned, value) = ring.pin(t(25)).unwrap();
        assert_eq!((pinned, value), (t(20), 20));
        // GC can drop 10 but must stop at the pinned 20 — even though 30
        // is unpinned, unlinking it would leave a hole.
        assert_eq!(ring.retain(1), 1);
        assert_eq!(ring.first_lsn(), Some(t(20)));
        assert_eq!(ring.len(), 3);
        // Unpinning releases the horizon.
        ring.unpin(pinned);
        assert_eq!(ring.retain(1), 2);
        assert_eq!(ring.first_lsn(), Some(t(40)));
    }

    #[test]
    fn nested_pins_count() {
        let mut ring = ring_of(&[10, 20]);
        let (p1, _) = ring.pin(t(10)).unwrap();
        let (p2, _) = ring.pin(t(10)).unwrap();
        ring.unpin(p1);
        assert_eq!(ring.retain(1), 0, "still pinned once");
        ring.unpin(p2);
        assert_eq!(ring.retain(1), 1);
    }

    #[test]
    fn pin_below_horizon_answers_none() {
        let mut ring = ring_of(&[10, 20]);
        ring.retain(1);
        assert!(ring.pin(t(10)).is_none());
    }
}
