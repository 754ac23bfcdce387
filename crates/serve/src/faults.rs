//! Deterministic fault injection for the durability pipeline.
//!
//! A [`Faults`] handle is threaded through every WAL append, fsync, and
//! checkpoint. Disabled (the default) it is a single `Option` check.
//! Armed, it fires an injected I/O failure at an exact operation index —
//! "the 17th WAL append short-writes 9 bytes and dies" — so crash
//! recovery can be exercised against a simulated kill-9 at *every* prefix
//! of a workload, reproducibly. Plans are either spelled out
//! ([`Faults::fail_nth`]) or derived from a seed ([`Faults::from_seed`],
//! the `SERVE_FAULT_SEED` matrix in `scripts/ci.sh`).
//!
//! The layer is deliberately dumb: it neither knows which database an
//! operation belongs to nor retries — it counts matching operations and
//! fails the chosen one, optionally *sticky* (every later matching
//! operation fails too, simulating a disk that stays dead after the first
//! `ENOSPC`, or a process that never comes back after kill-9).
//!
//! An armed handle holds a **registry** of plans over per-site operation
//! counters, so several faults can be staged against one service — the
//! chaos harness arms partitions, stalls, and disk faults against the
//! same topology nodes over a run ([`Faults::arm_next`]). The registry
//! also keeps per-site *seen*/*fired* tallies ([`Faults::fired_by_site`])
//! for the failpoint liveness audit: a failpoint nobody reaches any more
//! is a failpoint that has silently rotted.

use crate::lock_order::Leaf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A durability-, replication- or evaluation-path site where a fault can
/// fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// The framed record write of a WAL append.
    WalAppend,
    /// The fsync that makes an appended record durable.
    WalFsync,
    /// A checkpoint image save (the step before the log segment it
    /// covers is deleted). [`FaultMode::Stall`] delays the save and lets
    /// it proceed; every other mode fails it.
    Checkpoint,
    /// The primary serving one `REPLICATE` batch — an [`FaultMode::Error`]
    /// here looks to the follower like a network partition mid-stream.
    ReplicateServe,
    /// The follower applying one received replication batch —
    /// [`FaultMode::Error`] drops the connection (partition on the
    /// follower's side), [`FaultMode::Stall`] delays the apply (a slow,
    /// lagging follower).
    ReplicateApply,
    /// A worker about to evaluate a query it could not answer from the
    /// result cache (a current-version miss or an `AS OF`).
    /// [`FaultMode::Stall`] delays the evaluation — a query that outlasts
    /// its deadline however fast the engine is; every other mode is
    /// ignored here.
    Evaluate,
}

impl FaultPoint {
    /// Every registered failpoint site, in declaration order. The chaos
    /// harness's liveness audit iterates this — adding a site without
    /// extending the audit is caught by `all_sites_are_registered`.
    pub const ALL: [FaultPoint; 6] = [
        FaultPoint::WalAppend,
        FaultPoint::WalFsync,
        FaultPoint::Checkpoint,
        FaultPoint::ReplicateServe,
        FaultPoint::ReplicateApply,
        FaultPoint::Evaluate,
    ];

    fn index(self) -> usize {
        match self {
            FaultPoint::WalAppend => 0,
            FaultPoint::WalFsync => 1,
            FaultPoint::Checkpoint => 2,
            FaultPoint::ReplicateServe => 3,
            FaultPoint::ReplicateApply => 4,
            FaultPoint::Evaluate => 5,
        }
    }
}

/// How an injected fault manifests at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails outright; nothing reaches the file.
    Error,
    /// Only the first `n` bytes of the frame reach the file before the
    /// failure — a kill-9 mid-`write(2)`. Clamped to the frame length;
    /// only meaningful at [`FaultPoint::WalAppend`].
    ShortWrite(usize),
    /// The operation is delayed by this many milliseconds and then
    /// proceeds normally — a slow disk or a lagging follower, not a
    /// failure.
    Stall(u64),
}

/// One armed fault: a window `[from, from + count)` of operation indices
/// at `point` (indices count only operations at that site) that fail as
/// `mode` directs. `count == u64::MAX` is the sticky/unbounded window.
#[derive(Debug)]
struct Plan {
    point: FaultPoint,
    from: u64,
    count: u64,
    mode: FaultMode,
    fired: u64,
}

impl Plan {
    fn covers(&self, idx: u64) -> bool {
        idx >= self.from && (self.count == u64::MAX || idx - self.from < self.count)
    }
}

/// The shared state of an armed handle: the plan list plus per-site
/// seen/fired tallies (indexed by [`FaultPoint::index`]).
#[derive(Debug, Default)]
struct Registry {
    plans: Vec<Plan>,
    seen: [u64; FaultPoint::ALL.len()],
    site_fired: [u64; FaultPoint::ALL.len()],
}

/// A cloneable fault-injection handle; [`Faults::disabled`] is free.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    /// A leaf: held only inside these methods, which take no other lock
    /// and block on nothing (`Faults::check` returns a stall; the caller
    /// sleeps).
    inner: Option<Arc<Leaf<Registry>>>,
}

impl Faults {
    /// No faults, ever. Every check is a single `Option` test.
    pub fn disabled() -> Faults {
        Faults::default()
    }

    /// An armed handle with no plans yet: operations are counted per
    /// site (so the liveness audit sees traffic) and faults can be
    /// staged later with [`Faults::arm_next`]. This is the chaos
    /// harness's per-node handle.
    pub fn armed() -> Faults {
        Faults {
            inner: Some(Arc::new(Leaf::new(Registry::default()))),
        }
    }

    fn with_plan(plan: Plan) -> Faults {
        let f = Faults::armed();
        if let Some(inner) = &f.inner {
            inner.lock().plans.push(plan);
        }
        f
    }

    /// Fail the `nth` (0-based) operation at `point` with `mode`; when
    /// `sticky`, every later operation at `point` fails too.
    pub fn fail_nth(point: FaultPoint, nth: u64, mode: FaultMode, sticky: bool) -> Faults {
        Faults::with_plan(Plan {
            point,
            from: nth,
            count: if sticky { u64::MAX } else { 1 },
            mode,
            fired: 0,
        })
    }

    /// Stage a fault on a **live** handle: the next `count` operations at
    /// `point` (counting from now, regardless of how many have already
    /// happened) fail as `mode` directs. Returns `false` on a disabled
    /// handle, which cannot be armed — it shares no state with the
    /// service it was configured into.
    pub fn arm_next(&self, point: FaultPoint, count: u64, mode: FaultMode) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut reg = inner.lock();
        let from = reg.seen[point.index()];
        reg.plans.push(Plan {
            point,
            from,
            count,
            mode,
            fired: 0,
        });
        true
    }

    /// Derive a plan pseudo-randomly from `seed`: a site, an operation
    /// index below `horizon`, and a mode. Same seed, same plan — the
    /// contract the `SERVE_FAULT_SEED` CI matrix relies on.
    pub fn from_seed(seed: u64, horizon: u64) -> Faults {
        let mut rng = StdRng::seed_from_u64(seed);
        let point = match rng.gen_range(0..3u32) {
            0 => FaultPoint::WalAppend,
            1 => FaultPoint::WalFsync,
            _ => FaultPoint::Checkpoint,
        };
        let nth = rng.gen_range(0..horizon.max(1));
        let mode = if rng.gen_bool(0.5) {
            FaultMode::Error
        } else {
            FaultMode::ShortWrite(rng.gen_range(0..512usize))
        };
        let sticky = rng.gen_bool(0.5);
        Faults::fail_nth(point, nth, mode, sticky)
    }

    /// Derive a **replication** plan pseudo-randomly from `seed`: a
    /// partition on either side of the stream, or a slow-follower stall.
    /// Kept separate from [`Faults::from_seed`] so the durability fault
    /// matrix's seeds keep producing the exact same plans they always
    /// have (the `SERVE_REPL_FAULT_SEED` CI legs use this one).
    pub fn from_seed_replication(seed: u64, horizon: u64) -> Faults {
        let mut rng = StdRng::seed_from_u64(seed);
        let point = if rng.gen_bool(0.5) {
            FaultPoint::ReplicateServe
        } else {
            FaultPoint::ReplicateApply
        };
        let nth = rng.gen_range(0..horizon.max(1));
        let mode = if rng.gen_bool(0.5) {
            FaultMode::Error
        } else {
            FaultMode::Stall(rng.gen_range(1..50u64))
        };
        // Sticky partitions would sever the stream forever; replication
        // plans are always one-shot so convergence stays reachable.
        Faults::fail_nth(point, nth, mode, false)
    }

    /// Record one operation at `point`; `Some(mode)` means the caller
    /// must fail it as `mode` directs. With several overlapping plans the
    /// earliest-armed one wins.
    pub fn check(&self, point: FaultPoint) -> Option<FaultMode> {
        let inner = self.inner.as_ref()?;
        let mut reg = inner.lock();
        let site = point.index();
        let idx = reg.seen[site];
        reg.seen[site] += 1;
        let plan = reg
            .plans
            .iter_mut()
            .find(|p| p.point == point && p.covers(idx))?;
        plan.fired += 1;
        let mode = plan.mode;
        reg.site_fired[site] += 1;
        Some(mode)
    }

    /// How many faults have actually fired, across every plan.
    pub fn fired(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().site_fired.iter().sum())
    }

    /// Per-site fired tallies — the failpoint liveness audit. Disabled
    /// handles report every site at zero.
    pub fn fired_by_site(&self) -> Vec<(FaultPoint, u64)> {
        let tally = |site: FaultPoint| {
            self.inner
                .as_ref()
                .map_or(0, |i| i.lock().site_fired[site.index()])
        };
        FaultPoint::ALL.iter().map(|&p| (p, tally(p))).collect()
    }

    /// Per-site operation counts (reached, whether or not a fault fired).
    pub fn seen_by_site(&self) -> Vec<(FaultPoint, u64)> {
        let tally = |site: FaultPoint| {
            self.inner
                .as_ref()
                .map_or(0, |i| i.lock().seen[site.index()])
        };
        FaultPoint::ALL.iter().map(|&p| (p, tally(p))).collect()
    }

    /// The `std::io::Error` an injected fault surfaces as.
    pub fn injected_error(point: FaultPoint) -> std::io::Error {
        std::io::Error::other(format!("injected fault at {point:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let f = Faults::disabled();
        for _ in 0..100 {
            assert_eq!(f.check(FaultPoint::WalAppend), None);
        }
        assert_eq!(f.fired(), 0);
        assert!(!f.arm_next(FaultPoint::WalAppend, 1, FaultMode::Error));
        assert!(f.fired_by_site().iter().all(|(_, n)| *n == 0));
    }

    #[test]
    fn nth_one_shot_fires_exactly_once() {
        let f = Faults::fail_nth(FaultPoint::WalAppend, 2, FaultMode::Error, false);
        let hits: Vec<bool> = (0..6)
            .map(|_| f.check(FaultPoint::WalAppend).is_some())
            .collect();
        assert_eq!(hits, vec![false, false, true, false, false, false]);
        // Other points never match.
        assert_eq!(f.check(FaultPoint::Checkpoint), None);
        assert_eq!(f.fired(), 1);
    }

    #[test]
    fn sticky_keeps_failing() {
        let f = Faults::fail_nth(FaultPoint::WalFsync, 1, FaultMode::Error, true);
        let hits: Vec<bool> = (0..5)
            .map(|_| f.check(FaultPoint::WalFsync).is_some())
            .collect();
        assert_eq!(hits, vec![false, true, true, true, true]);
        assert_eq!(f.fired(), 4);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in [0u64, 7, 42, u64::MAX] {
            let a = Faults::from_seed(seed, 100);
            let b = Faults::from_seed(seed, 100);
            let fire = |f: &Faults| -> Vec<Option<FaultMode>> {
                (0..100)
                    .flat_map(|_| {
                        [
                            f.check(FaultPoint::WalAppend),
                            f.check(FaultPoint::WalFsync),
                            f.check(FaultPoint::Checkpoint),
                        ]
                    })
                    .collect()
            };
            assert_eq!(fire(&a), fire(&b), "seed {seed}");
            assert!(a.fired() > 0, "a seeded plan must fire within its horizon");
        }
    }

    #[test]
    fn seeded_replication_plans_are_reproducible_and_one_shot() {
        for seed in [0u64, 7, 1998, 424242] {
            let a = Faults::from_seed_replication(seed, 50);
            let b = Faults::from_seed_replication(seed, 50);
            let fire = |f: &Faults| -> Vec<Option<FaultMode>> {
                (0..50)
                    .flat_map(|_| {
                        [
                            f.check(FaultPoint::ReplicateServe),
                            f.check(FaultPoint::ReplicateApply),
                        ]
                    })
                    .collect()
            };
            assert_eq!(fire(&a), fire(&b), "seed {seed}");
            assert_eq!(a.fired(), 1, "replication plans are one-shot (seed {seed})");
            // Replication plans never touch the durability points.
            assert_eq!(b.check(FaultPoint::WalAppend), None);
            assert_eq!(b.check(FaultPoint::Checkpoint), None);
        }
    }

    #[test]
    fn armed_windows_fire_relative_to_the_moment_of_arming() {
        let f = Faults::armed();
        // Two operations pass before anything is armed.
        assert_eq!(f.check(FaultPoint::ReplicateServe), None);
        assert_eq!(f.check(FaultPoint::ReplicateServe), None);
        // The next 2 operations at the site fail; later ones pass again.
        assert!(f.arm_next(FaultPoint::ReplicateServe, 2, FaultMode::Error));
        let hits: Vec<bool> = (0..4)
            .map(|_| f.check(FaultPoint::ReplicateServe).is_some())
            .collect();
        assert_eq!(hits, vec![true, true, false, false]);
        assert_eq!(f.fired(), 2);
        // Other sites were untouched but their traffic was counted.
        assert_eq!(f.check(FaultPoint::WalAppend), None);
        let seen: Vec<u64> = f.seen_by_site().into_iter().map(|(_, n)| n).collect();
        assert_eq!(seen, vec![1, 0, 0, 6, 0, 0]);
    }

    #[test]
    fn several_plans_coexist_and_tally_per_site() {
        let f = Faults::armed();
        f.arm_next(FaultPoint::WalAppend, 1, FaultMode::Error);
        f.arm_next(FaultPoint::Checkpoint, 1, FaultMode::Error);
        assert!(f.check(FaultPoint::WalAppend).is_some());
        assert!(f.check(FaultPoint::Checkpoint).is_some());
        assert_eq!(f.check(FaultPoint::WalAppend), None);
        let fired = f.fired_by_site();
        assert_eq!(fired[FaultPoint::WalAppend.index()].1, 1);
        assert_eq!(fired[FaultPoint::Checkpoint.index()].1, 1);
        assert_eq!(fired[FaultPoint::WalFsync.index()].1, 0);
        assert_eq!(f.fired(), 2);
    }

    #[test]
    fn all_sites_are_registered() {
        // `FaultPoint::ALL` must enumerate every variant exactly once at
        // its own index — the liveness audit depends on it.
        for (i, p) in FaultPoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Faults::disabled().fired_by_site().len(), FaultPoint::ALL.len());
    }
}
