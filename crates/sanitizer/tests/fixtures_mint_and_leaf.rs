//! Fixtures for the two checks behind serve's typed lock order: the
//! unlocked token is minted with no lock held, and nothing is taken
//! under a leaf. They call the hooks a lock wrapper calls, so they need
//! no lock type of their own. Own test binary (= own process) so these
//! intentional findings stay out of clean suites; the tests run in
//! parallel, so each looks only at findings naming its own thread.

use std::panic::{self, Location};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::Duration;

use sanitizer::{Finding, FindingKind, LockTag};

/// The findings of `kind` raised on the thread named `thread`.
fn findings_of(kind: FindingKind, thread: &str) -> Vec<Finding> {
    let me = format!("thread '{thread}'");
    sanitizer::findings()
        .into_iter()
        .filter(|f| f.kind == kind && f.message.contains(&me))
        .collect()
}

/// The message of the one finding of `kind` raised on `thread`.
fn one_finding(kind: FindingKind, thread: &str) -> String {
    let found = findings_of(kind, thread);
    assert_eq!(found.len(), 1, "{:?}", sanitizer::findings());
    found[0].message.clone()
}

/// A wrapper's acquisition: the two hooks around the (absent) lock.
#[track_caller]
fn acquire(tag: &LockTag) {
    sanitizer::before_lock(tag, Location::caller());
    sanitizer::after_lock(tag, Location::caller());
}

#[test]
fn a_mint_with_a_lock_held_is_reported() {
    sanitizer::enable();
    let name = "a_mint_with_a_lock_held_is_reported";
    sanitizer::on_mint(Location::caller());
    assert!(findings_of(FindingKind::MintUnderLock, name).is_empty());

    let tag = LockTag::new();
    acquire(&tag);
    sanitizer::on_mint(Location::caller());
    sanitizer::on_unlock(&tag);
    let message = one_finding(FindingKind::MintUnderLock, name);
    assert!(message.contains("fixtures_mint_and_leaf.rs"), "{message}");

    // Released: minting is fine again.
    sanitizer::on_mint(Location::caller());
    assert_eq!(findings_of(FindingKind::MintUnderLock, name).len(), 1);
}

#[test]
fn a_lock_taken_under_a_leaf_is_reported_and_panics() {
    sanitizer::enable();
    let name = "a_lock_taken_under_a_leaf_is_reported_and_panics";
    let (leaf, levelled) = (LockTag::leaf(), LockTag::new());

    // A leaf under a levelled lock is what the types allow.
    acquire(&levelled);
    acquire(&leaf);
    sanitizer::on_unlock(&leaf);
    sanitizer::on_unlock(&levelled);
    assert!(findings_of(FindingKind::LockUnderLeaf, name).is_empty());

    acquire(&leaf);
    let under = panic::catch_unwind(|| acquire(&levelled));
    sanitizer::on_unlock(&leaf);
    assert!(under.is_err(), "a lock under a leaf must panic");
    let message = one_finding(FindingKind::LockUnderLeaf, name);
    assert!(message.contains("attempted acquiring"), "{message}");
}

#[test]
fn reentering_a_leaf_is_reported_not_hung() {
    sanitizer::enable();
    let name = "reentering_a_leaf_is_reported_not_hung";
    let (done_tx, done_rx) = mpsc::channel();
    // A real mutex under the hooks, as a `Leaf` has: without the check the
    // second `lock()` blocks forever, so it runs on a thread of its own.
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let (tag, mutex) = (LockTag::leaf(), Mutex::new(()));
            let lock = || {
                sanitizer::before_lock(&tag, Location::caller());
                let guard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
                sanitizer::after_lock(&tag, Location::caller());
                guard
            };
            let _held = lock();
            let reentry = panic::catch_unwind(panic::AssertUnwindSafe(|| drop(lock())));
            sanitizer::on_unlock(&tag);
            let _ = done_tx.send(reentry.is_err());
        })
        .expect("spawn");
    let panicked = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("re-entering a leaf hung instead of panicking");
    assert!(panicked);
    let message = one_finding(FindingKind::LockUnderLeaf, name);
    assert!(message.contains("re-entering the leaf"), "{message}");
}
