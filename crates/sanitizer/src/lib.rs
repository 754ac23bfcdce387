//! # sanitizer — runtime concurrency checking for the doem-suite workspace
//!
//! The sanctioned `parking_lot` and `crossbeam` dependencies resolve to
//! hand-rolled stand-ins under `crates/compat/`, which means every lock
//! and channel in the workspace passes through code we own. This crate is
//! the instrumentation they call into — a TSan/loom-flavored dynamic
//! checker scoped to what actually bites a sharded, durable serve layer:
//!
//! * **Lock-order graph.** Every `Mutex`/`RwLock` instance becomes a node
//!   the first time it is acquired (named by its first acquisition site,
//!   via `#[track_caller]`). Each acquisition adds one edge per lock the
//!   acquiring thread already holds. A cycle in that graph is reported as
//!   a **potential deadlock** even if no execution ever interleaved into
//!   the deadly embrace — the Eraser/ThreadSanitizer observation that the
//!   *order discipline*, not the unlucky schedule, is the invariant worth
//!   checking. Serve's own locks also have their order checked at
//!   compile time (`serve::lock_order`, DESIGN.md §13); this graph still
//!   sees every lock, test-local ones included.
//! * **Self-deadlock.** Re-acquiring a lock the current thread already
//!   holds (mutex re-entry, `RwLock` write-after-read or read-after-write)
//!   would block forever on the `std::sync` primitives underneath the
//!   compat layer. The sanitizer reports it and panics instead of hanging.
//! * **Hold-time watchdog.** A background thread scans currently-held
//!   locks and reports any hold longer than `DOEM_SANITIZE_HOLD_MS`
//!   (default 10 000 ms) — catching both "someone fsyncs under the
//!   registry lock" latency bugs and actual deadlocks, which look like
//!   infinite holds.
//! * **Leak checks.** A channel whose last endpoint drops with messages
//!   still queued is a dropped-work bug ([`on_channel_closed`]); a tracked
//!   thread handle dropped without `join` or an explicit `detach` is a
//!   waiter nobody will ever reap ([`thread::TrackedHandle`]).
//!
//! Everything is **off by default**: the instrumented code pays one
//! relaxed atomic load and branch per operation ([`enabled`]). Tests and
//! CI switch it on with `DOEM_SANITIZE=1` (or programmatically with
//! [`enable`], which is process-wide). Findings are recorded in a global
//! list (printed to stderr as they occur) and inspected with
//! [`findings`]/[`take_findings`]/[`exit_report`]; each `cargo test`
//! binary is its own process, so fixture tests that *provoke* findings
//! live in their own binaries and cannot pollute a suite that asserts
//! cleanliness.

#![warn(missing_docs)]

pub mod thread;

use std::collections::{HashMap, HashSet};
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
    /// A cycle in the lock-order graph: some interleaving of the observed
    /// acquisition orders deadlocks, even if this run did not.
    LockOrderCycle,
    /// A thread re-acquired a lock it already holds (would hang forever).
    SelfDeadlock,
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
/// crashed process still leaves the diagnosis in its output).
pub fn record(kind: FindingKind, message: String) {
    eprintln!("DOEM-SANITIZE [{kind:?}] {message}");
    lock_clean(&FINDINGS).push(Finding { kind, message });
}

/// Snapshot of every finding recorded so far in this process.
pub fn findings() -> Vec<Finding> {
    lock_clean(&FINDINGS).clone()
}

/// Drain and return the findings (fixture tests use this to assert on
/// exactly the defects they provoked).
pub fn take_findings() -> Vec<Finding> {
    std::mem::take(&mut *lock_clean(&FINDINGS))
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
/// panics on purpose while the lock-order machinery is mid-flight).
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Lock identity and per-thread held sets
// ---------------------------------------------------------------------------

/// Per-lock sanitizer state, embedded in every compat `Mutex`/`RwLock`.
/// Zero until the lock's first sanitized acquisition assigns an id.
pub struct LockTag {
    id: AtomicU64,
}

impl LockTag {
    /// A fresh, unregistered tag (`const` so locks keep `const fn new`).
    pub const fn new() -> LockTag {
        LockTag { id: AtomicU64::new(0) }
    }
}

impl Default for LockTag {
    fn default() -> LockTag {
        LockTag::new()
    }
}

/// How a lock is being acquired; `Exclusive` covers mutexes and `RwLock`
/// writes, `Shared` covers `RwLock` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) access.
    Shared,
    /// Exclusive (write / mutex) access.
    Exclusive,
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
    id: u64,
    mode: LockMode,
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

/// Lock id → the site that first acquired it (the lock's display name).
static LOCK_SITES: OnceLock<Mutex<HashMap<u64, &'static Location<'static>>>> = OnceLock::new();

fn lock_sites() -> &'static Mutex<HashMap<u64, &'static Location<'static>>> {
    LOCK_SITES.get_or_init(|| Mutex::new(HashMap::new()))
}

fn tag_id(tag: &LockTag, site: &'static Location<'static>) -> u64 {
    let id = tag.id.load(Ordering::Relaxed);
    if id != 0 {
        return id;
    }
    let fresh = NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed);
    match tag
        .id
        .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
    {
        Ok(_) => {
            lock_clean(lock_sites()).insert(fresh, site);
            fresh
        }
        Err(existing) => existing,
    }
}

fn lock_name(id: u64) -> String {
    match lock_clean(lock_sites()).get(&id) {
        Some(site) => format!("lock#{id} (first acquired at {site})"),
        None => format!("lock#{id}"),
    }
}

// ---------------------------------------------------------------------------
// The lock-order graph
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OrderGraph {
    /// held-lock id → acquired-lock id → one witness (held site, acquire site).
    edges: HashMap<u64, HashMap<u64, (&'static Location<'static>, &'static Location<'static>)>>,
    /// Edge pairs already reported as cycle-closing, to dedup findings.
    reported: HashSet<(u64, u64)>,
}

impl OrderGraph {
    /// True iff `to` is reachable from `from` along existing edges.
    fn reaches(&self, from: u64, to: u64, path: &mut Vec<u64>) -> bool {
        if from == to {
            path.push(from);
            return true;
        }
        let mut seen = HashSet::new();
        self.dfs(from, to, &mut seen, path)
    }

    fn dfs(&self, at: u64, to: u64, seen: &mut HashSet<u64>, path: &mut Vec<u64>) -> bool {
        if !seen.insert(at) {
            return false;
        }
        path.push(at);
        if let Some(next) = self.edges.get(&at) {
            for &n in next.keys() {
                if n == to {
                    path.push(n);
                    return true;
                }
                if self.dfs(n, to, seen, path) {
                    return true;
                }
            }
        }
        path.pop();
        false
    }
}

static GRAPH: OnceLock<Mutex<OrderGraph>> = OnceLock::new();

fn graph() -> &'static Mutex<OrderGraph> {
    GRAPH.get_or_init(|| Mutex::new(OrderGraph::default()))
}

/// Record the ordering edge `held → acquiring` and report a potential
/// deadlock if it closes a cycle.
fn note_edge(
    held: Hold,
    acquiring: u64,
    acq_site: &'static Location<'static>,
) {
    if held.id == acquiring {
        return;
    }
    let mut g = lock_clean(graph());
    let fresh = g
        .edges
        .entry(held.id)
        .or_default()
        .insert(acquiring, (held.site, acq_site))
        .is_none();
    if !fresh {
        return;
    }
    // The new edge held → acquiring closes a cycle iff `held` was already
    // reachable from `acquiring`.
    let mut path = Vec::new();
    if g.reaches(acquiring, held.id, &mut path) && g.reported.insert((held.id, acquiring)) {
        let chain: Vec<String> = path.iter().map(|&id| lock_name(id)).collect();
        let msg = format!(
            "potential deadlock: acquiring {} at {} while holding {} (held via {}) closes the \
             lock-order cycle {} -> {}; some interleaving of these acquisition orders deadlocks \
             even though this run did not",
            lock_name(acquiring),
            acq_site,
            lock_name(held.id),
            held.site,
            chain.join(" -> "),
            lock_name(acquiring),
        );
        drop(g);
        record(FindingKind::LockOrderCycle, msg);
    }
}

// ---------------------------------------------------------------------------
// Active holds (watchdog state)
// ---------------------------------------------------------------------------

struct ActiveHold {
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
                        for ((lock, _), h) in map.iter_mut() {
                            if !h.reported && h.since.elapsed() >= threshold {
                                h.reported = true;
                                overdue.push((*lock, h.site, h.thread.clone(), h.since.elapsed()));
                            }
                        }
                    }
                    for (lock, site, thread, held_for) in overdue {
                        record(
                            FindingKind::HoldTime,
                            format!(
                                "{} has held {} (acquired at {site}) for {held_for:?}, over the \
                                 {threshold:?} watchdog threshold — a stall, an fsync under a hot \
                                 lock, or an actual deadlock",
                                thread,
                                lock_name(lock),
                            ),
                        );
                    }
                }
            });
    });
}

// ---------------------------------------------------------------------------
// Hooks called by the compat crates
// ---------------------------------------------------------------------------

/// Called before a blocking acquisition. Checks self-deadlock (reported,
/// then panics — the alternative is hanging forever) and records
/// lock-order edges from every lock the thread already holds.
pub fn before_lock(tag: &LockTag, mode: LockMode, site: &'static Location<'static>) {
    let id = tag_id(tag, site);
    let held: Vec<Hold> = HELD.with(|h| h.borrow().clone());
    for h in &held {
        let deadly = h.id == id
            && (mode == LockMode::Exclusive || h.mode == LockMode::Exclusive);
        if deadly {
            let what = match (h.mode, mode) {
                (LockMode::Shared, LockMode::Exclusive) => {
                    "write-acquire while holding a read guard on the same RwLock"
                }
                (LockMode::Exclusive, LockMode::Shared) => {
                    "read-acquire while holding the write guard on the same RwLock"
                }
                _ => "re-acquiring a lock the thread already holds",
            };
            let msg = format!(
                "self-deadlock: {} attempted {what}: {} held via {}, re-requested at {site}; \
                 the underlying std primitive would block forever",
                thread_label(),
                lock_name(id),
                h.site,
            );
            record(FindingKind::SelfDeadlock, msg.clone());
            panic!("DOEM-SANITIZE: {msg}");
        }
    }
    for h in held {
        note_edge(h, id, site);
    }
}

/// Called immediately after an acquisition succeeds.
pub fn after_lock(tag: &LockTag, mode: LockMode, site: &'static Location<'static>) {
    let id = tag_id(tag, site);
    HELD.with(|h| h.borrow_mut().push(Hold { id, mode, site }));
    lock_clean(active()).insert(
        (id, current_thread()),
        ActiveHold {
            since: Instant::now(),
            site,
            thread: thread_label(),
            reported: false,
        },
    );
}

/// Called when a guard drops (and when a condvar wait releases the lock).
pub fn on_unlock(tag: &LockTag) {
    let id = tag.id.load(Ordering::Relaxed);
    if id == 0 {
        return;
    }
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|x| x.id == id) {
            held.remove(pos);
        }
    });
    let still_held = HELD.with(|h| h.borrow().iter().any(|x| x.id == id));
    if !still_held {
        lock_clean(active()).remove(&(id, current_thread()));
    }
}

/// Called by the condvar stand-in just before parking, **after** the
/// paired mutex was released ([`on_unlock`]). The condvar joins the
/// wait-graph as a node: every lock still held across the wait gains a
/// `held → condvar` edge, because the thread cannot make progress until
/// the condvar is signaled — exactly a blocking acquisition from the
/// graph's point of view. The paired mutex is deliberately *not* in the
/// held set by then, so the ubiquitous correct pattern of notifying
/// while holding the paired mutex reports nothing.
pub fn on_condvar_wait(cv: &LockTag, site: &'static Location<'static>) {
    let id = tag_id(cv, site);
    let held: Vec<Hold> = HELD.with(|h| h.borrow().clone());
    for h in held {
        note_edge(h, id, site);
    }
}

/// Called by the condvar stand-in on `notify_one`/`notify_all`. Every
/// lock the notifier holds gains a `condvar → held` edge: the wakeup is
/// only reachable through those locks. Combined with the wait side, a
/// thread that parks on a condvar while holding an unrelated lock the
/// notifier needs closes a `lock → condvar → lock` cycle — the
/// lost-wakeup deadlock, reported like any other ordering cycle.
pub fn on_condvar_notify(cv: &LockTag, site: &'static Location<'static>) {
    let held: Vec<Hold> = HELD.with(|h| h.borrow().clone());
    if held.is_empty() {
        return;
    }
    let id = tag_id(cv, site);
    let cv_hold = Hold {
        id,
        mode: LockMode::Exclusive,
        site,
    };
    for h in held {
        note_edge(cv_hold, h.id, h.site);
    }
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
    fn graph_reachability_and_cycle_dedup() {
        let mut g = OrderGraph::default();
        let site = Location::caller();
        g.edges.entry(1).or_default().insert(2, (site, site));
        g.edges.entry(2).or_default().insert(3, (site, site));
        let mut path = Vec::new();
        assert!(g.reaches(1, 3, &mut path));
        assert_eq!(path.first(), Some(&1));
        assert_eq!(path.last(), Some(&3));
        let mut path = Vec::new();
        assert!(!g.reaches(3, 1, &mut path));
        assert!(g.reported.insert((1, 2)));
        assert!(!g.reported.insert((1, 2)));
    }

    #[test]
    fn lock_tag_ids_are_stable_and_unique() {
        let a = LockTag::new();
        let b = LockTag::new();
        let site = Location::caller();
        let ia = tag_id(&a, site);
        assert_eq!(tag_id(&a, site), ia);
        assert_ne!(tag_id(&b, site), ia);
        assert!(lock_name(ia).contains(&format!("lock#{ia}")));
    }
}
