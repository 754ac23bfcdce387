//! # sanitizer — runtime concurrency checking for the doem-suite workspace
//!
//! Serve's lock order is checked by the compiler: every serve lock has a
//! level or is a leaf, and a blocking call takes a token that no guard
//! can hand out (`serve::lock_order`, DESIGN.md §13). The sanctioned
//! `crossbeam` dependency resolves to a hand-rolled stand-in under
//! `crates/compat/`. This crate is the runtime instrumentation both call
//! into, scoped to what the types cannot check:
//!
//! * **Mint check.** The unlocked token is minted (`Token::mint`) only
//!   where the thread holds no lock; the types take that on trust. A mint
//!   with a lock held is reported ([`on_mint`]).
//! * **Leaf check.** A leaf lock ([`LockTag::leaf`]) has no level, so the
//!   types let it be taken anywhere; in exchange nothing may be taken
//!   while it is held. [`before_lock`] reports an acquisition under a
//!   held leaf and panics — re-entering a leaf would otherwise block
//!   forever.
//! * **Hold-time watchdog.** A background thread scans currently-held
//!   locks and reports any hold longer than `DOEM_SANITIZE_HOLD_MS`
//!   (default 10 000 ms) — catching both a slow critical section that
//!   blocks on nothing the types can see and an actual deadlock, which
//!   looks like an infinite hold.
//! * **Leak checks.** A channel whose last endpoint drops with messages
//!   still queued is a dropped-work bug ([`on_channel_closed`]); a tracked
//!   thread handle dropped without `join` or an explicit `detach` is a
//!   waiter nobody will ever reap ([`thread::TrackedHandle`]).
//!
//! Both lock checks read one per-thread list of held locks; the only
//! per-lock state is the [`LockTag`] inside the lock itself, so nothing
//! here grows with the number of locks a process creates.
//!
//! Everything is **off by default**: the instrumented code pays one
//! relaxed atomic load and branch per operation ([`enabled`]). Tests and
//! CI switch it on with `DOEM_SANITIZE=1` (or programmatically with
//! [`enable`], which is process-wide). Findings are recorded in a global
//! list (printed to stderr as they occur) and inspected with
//! [`findings`]/[`exit_report`]; each `cargo test`
//! binary is its own process, so fixture tests that *provoke* findings
//! live in their own binaries and cannot pollute a suite that asserts
//! cleanliness.

#![warn(missing_docs)]

pub mod thread;

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

/// 0 = not yet decided, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the sanitizer is active. The fast path is a single relaxed
/// atomic load and branch; the environment (`DOEM_SANITIZE=1`) is
/// consulted once, on the first call.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = matches!(
        std::env::var("DOEM_SANITIZE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    );
    if on {
        enable();
    } else {
        // Racy double-init is fine: both writers store the same value.
        let _ = STATE.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
    }
    STATE.load(Ordering::Relaxed) == 2
}

/// Switch the sanitizer on for the rest of the process (tests use this to
/// be independent of the environment). Also starts the hold-time
/// watchdog thread.
pub fn enable() {
    STATE.store(2, Ordering::Relaxed);
    start_watchdog();
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// What kind of defect a [`Finding`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// The unlocked token was minted while the thread held a lock: the
    /// types would then let a blocking call or any acquisition through.
    MintUnderLock,
    /// A lock was requested while the thread held a leaf lock (which
    /// would hang forever if it was the same leaf).
    LockUnderLeaf,
    /// A lock was held longer than the watchdog threshold.
    HoldTime,
    /// A channel's last endpoint dropped with messages still queued.
    ChannelLeak,
    /// A tracked thread handle was dropped without `join` or `detach`.
    ThreadLeak,
}

/// One recorded defect.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The defect class.
    pub kind: FindingKind,
    /// Human-readable description with `file:line` sites.
    pub message: String,
}

static FINDINGS: Mutex<Vec<Finding>> = Mutex::new(Vec::new());

/// Record a finding and print it to stderr immediately (so a hung or
/// crashed process still leaves the diagnosis in its output). It goes to
/// the process's stderr, not through `eprintln!`, which the test harness
/// captures and shows only for a failing test: a finding in a passing
/// test stays visible to a check that scans the output.
pub fn record(kind: FindingKind, message: String) {
    let _ = writeln!(std::io::stderr(), "DOEM-SANITIZE [{kind:?}] {message}");
    lock_clean(&FINDINGS).push(Finding { kind, message });
}

/// Snapshot of every finding recorded so far in this process.
pub fn findings() -> Vec<Finding> {
    lock_clean(&FINDINGS).clone()
}

/// Print an end-of-process summary and return the number of findings.
/// Test harnesses call this last and assert the return value is zero.
pub fn exit_report() -> usize {
    let f = lock_clean(&FINDINGS);
    if f.is_empty() {
        eprintln!("DOEM-SANITIZE clean: 0 findings");
    } else {
        eprintln!("DOEM-SANITIZE {} finding(s):", f.len());
        for x in f.iter() {
            eprintln!("  [{:?}] {}", x.kind, x.message);
        }
    }
    f.len()
}

/// The sanitizer's own locks must never poison-propagate (a fixture test
/// panics on purpose while a lock check is mid-flight).
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Lock identity and per-thread held lists
// ---------------------------------------------------------------------------

/// Per-lock sanitizer state, embedded in every instrumented lock: whether
/// it is a leaf, and its name in findings, assigned at its first
/// sanitized acquisition.
pub struct LockTag {
    name: OnceLock<LockName>,
    leaf: bool,
}

impl LockTag {
    /// The tag of a lock with a level (`const` so locks keep `const fn
    /// new`).
    pub const fn new() -> LockTag {
        LockTag {
            name: OnceLock::new(),
            leaf: false,
        }
    }

    /// The tag of a leaf lock: no lock may be taken while it is held.
    pub const fn leaf() -> LockTag {
        LockTag {
            name: OnceLock::new(),
            leaf: true,
        }
    }

    fn name(&self, site: &'static Location<'static>) -> LockName {
        *self.name.get_or_init(|| LockName {
            id: NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed),
            first: site,
        })
    }
}

impl Default for LockTag {
    fn default() -> LockTag {
        LockTag::new()
    }
}

/// A lock's display name: a process-unique id and the site of its first
/// sanitized acquisition.
#[derive(Clone, Copy)]
struct LockName {
    id: u64,
    first: &'static Location<'static>,
}

impl fmt::Display for LockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock#{} (first acquired at {})", self.id, self.first)
    }
}

static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Locks the current thread holds, in acquisition order.
    static HELD: std::cell::RefCell<Vec<Hold>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[derive(Clone, Copy)]
struct Hold {
    name: LockName,
    leaf: bool,
    site: &'static Location<'static>,
}

fn current_thread() -> u64 {
    THREAD_ID.with(|t| *t)
}

fn thread_label() -> String {
    let cur = std::thread::current();
    match cur.name() {
        Some(n) => format!("thread '{n}'"),
        None => format!("thread #{}", current_thread()),
    }
}

// ---------------------------------------------------------------------------
// Active holds (watchdog state)
// ---------------------------------------------------------------------------

struct ActiveHold {
    name: LockName,
    since: Instant,
    site: &'static Location<'static>,
    thread: String,
    reported: bool,
}

static ACTIVE: OnceLock<Mutex<HashMap<(u64, u64), ActiveHold>>> = OnceLock::new();

fn active() -> &'static Mutex<HashMap<(u64, u64), ActiveHold>> {
    ACTIVE.get_or_init(|| Mutex::new(HashMap::new()))
}

static WATCHDOG: OnceLock<()> = OnceLock::new();

fn hold_threshold() -> Duration {
    static MS: OnceLock<u64> = OnceLock::new();
    Duration::from_millis(*MS.get_or_init(|| {
        std::env::var("DOEM_SANITIZE_HOLD_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000)
    }))
}

fn start_watchdog() {
    WATCHDOG.get_or_init(|| {
        let _ = std::thread::Builder::new()
            .name("doem-sanitize-watchdog".into())
            .spawn(|| {
                let threshold = hold_threshold();
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                    let mut overdue = Vec::new();
                    {
                        let mut map = lock_clean(active());
                        for h in map.values_mut() {
                            if !h.reported && h.since.elapsed() >= threshold {
                                h.reported = true;
                                overdue.push((h.name, h.site, h.thread.clone(), h.since.elapsed()));
                            }
                        }
                    }
                    for (name, site, thread, held_for) in overdue {
                        record(
                            FindingKind::HoldTime,
                            format!(
                                "{thread} has held {name}, taken at {site}, for {held_for:?}, \
                                 over the {threshold:?} watchdog threshold — a stall, an fsync \
                                 under a hot lock, or an actual deadlock",
                            ),
                        );
                    }
                }
            });
    });
}

// ---------------------------------------------------------------------------
// Hooks called by `serve::lock_order` and the compat crates
// ---------------------------------------------------------------------------

/// Called before a blocking acquisition. A lock requested while the
/// thread holds a leaf is reported, then panics — the alternative, when
/// the leaf is re-entered, is hanging forever.
pub fn before_lock(tag: &LockTag, site: &'static Location<'static>) {
    let Some(leaf) = HELD.with(|h| h.borrow().iter().rev().find(|x| x.leaf).copied()) else {
        return;
    };
    let name = tag.name(site);
    let what = if leaf.name.id == name.id {
        "re-entering the leaf"
    } else {
        "acquiring"
    };
    let msg = format!(
        "lock under a leaf: {} attempted {what} {name} at {site} while holding the leaf {}, \
         taken at {}; nothing may be taken under a leaf, and re-entering one blocks forever",
        thread_label(),
        leaf.name,
        leaf.site,
    );
    record(FindingKind::LockUnderLeaf, msg.clone());
    panic!("DOEM-SANITIZE: {msg}");
}

/// Called immediately after an acquisition succeeds.
pub fn after_lock(tag: &LockTag, site: &'static Location<'static>) {
    let name = tag.name(site);
    HELD.with(|h| {
        h.borrow_mut().push(Hold {
            name,
            leaf: tag.leaf,
            site,
        })
    });
    lock_clean(active()).insert(
        (name.id, current_thread()),
        ActiveHold {
            name,
            since: Instant::now(),
            site,
            thread: thread_label(),
            reported: false,
        },
    );
}

/// Called when a guard drops (and when a condvar wait releases the lock).
pub fn on_unlock(tag: &LockTag) {
    let Some(name) = tag.name.get() else {
        return;
    };
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|x| x.name.id == name.id) {
            held.remove(pos);
        }
    });
    lock_clean(active()).remove(&(name.id, current_thread()));
}

/// Called where the unlocked token is minted. The token asserts that the
/// thread holds no lock; a mint with one held is reported.
pub fn on_mint(site: &'static Location<'static>) {
    let Some(held) = HELD.with(|h| h.borrow().last().copied()) else {
        return;
    };
    record(
        FindingKind::MintUnderLock,
        format!(
            "unlocked token minted under a lock: {} minted one at {site} while holding {}, \
             taken at {}; the types would let a blocking call or any acquisition run \
             under it",
            thread_label(),
            held.name,
            held.site,
        ),
    );
}

/// Called by the channel stand-in when a channel's last endpoint drops.
/// Queued messages at that point can never be received: dropped work.
pub fn on_channel_closed(queued: usize, site: &'static Location<'static>) {
    if queued > 0 {
        record(
            FindingKind::ChannelLeak,
            format!(
                "channel leak: the channel created at {site} was dropped (all senders and \
                 receivers gone) with {queued} message(s) still queued — work that was \
                 submitted but can never be received"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these unit tests run in the same process as each other; they
    // only assert on findings they can identify as their own.

    #[test]
    fn disabled_by_default_in_this_test_process() {
        // `enabled()` must never flip on spontaneously (the fixture suites
        // that enable it live in their own test binaries/processes).
        if std::env::var("DOEM_SANITIZE").is_err() {
            assert!(!enabled());
        }
    }

    #[test]
    fn lock_tag_ids_are_stable_and_unique() {
        let a = LockTag::new();
        let b = LockTag::leaf();
        let site = Location::caller();
        let ia = a.name(site).id;
        assert_eq!(a.name(site).id, ia);
        assert_ne!(b.name(site).id, ia);
        assert!(a.name(site).to_string().contains(&format!("lock#{ia}")));
    }
}
