//! Seed-driven schedule generation: the *plan* half of the harness.
//!
//! A [`Schedule`] is a fully materialized list of [`Event`]s — client
//! operations interleaved with fault injections, follower kills, and at
//! most one promotion — derived from a single `u64` seed through the
//! deterministic [`rand::rngs::StdRng`] stream. Equal seeds (and equal
//! [`ScheduleOpts`]) produce byte-identical schedules: [`Schedule::render`]
//! is the canonical text form, and the harness's reproducibility test
//! compares two independently generated renders for equality.
//!
//! The generator bakes in the topology rules the runtime relies on:
//!
//! - Write events carry their own strictly increasing timestamps (the
//!   paper's Definition 2.2 — change timestamps are the LSNs).
//! - Disk faults (`WalAppend`, `WalFsync`, `Checkpoint`) target only
//!   follower nodes and are followed a few events later by a [`Event::Kill`]
//!   of the same node, because a shard whose log fails flips read-only
//!   until a restart.
//! - `ReplicateServe` faults target the primary, `ReplicateApply` faults a
//!   follower, and `Evaluate` stalls (its only mode) slow a follower's
//!   next pooled read — together the six registered failpoint sites are
//!   all exercised (the first six faults cycle through
//!   [`FaultPoint::ALL`] so the liveness audit can demand full coverage).
//! - Every fault and kill lands *before* the promotion point, so fault
//!   plans armed against the original primary cannot be stranded on a
//!   deposed node whose failpoint sites are no longer visited.

use oem::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{FaultMode, FaultPoint};

/// Knobs for schedule generation. The defaults satisfy the acceptance
/// floor: ≥ 200 client operations, ≥ 20 injected faults, one promotion,
/// two followers.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleOpts {
    /// Follower count (node 0 is the initial primary, nodes `1..=followers`
    /// are followers).
    pub followers: usize,
    /// Client operations (writes + reads) to generate.
    pub ops: usize,
    /// Fault injections to interleave.
    pub faults: usize,
    /// Whether to promote a follower at roughly ¾ of the schedule.
    pub promote: bool,
}

impl Default for ScheduleOpts {
    fn default() -> ScheduleOpts {
        ScheduleOpts {
            followers: 2,
            ops: 220,
            faults: 22,
            promote: true,
        }
    }
}

/// How an injected fault manifests, as carried by the schedule (a
/// schedule-side mirror of [`FaultMode`], so rendering stays stable even
/// if the serve enum grows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// The site fails outright.
    Error,
    /// A torn write of this many bytes (only at `WalAppend`).
    ShortWrite(usize),
    /// The site stalls this many milliseconds, then proceeds.
    Stall(u64),
}

impl FaultSpec {
    /// The serve-layer mode this spec arms.
    pub fn mode(self) -> FaultMode {
        match self {
            FaultSpec::Error => FaultMode::Error,
            FaultSpec::ShortWrite(n) => FaultMode::ShortWrite(n),
            FaultSpec::Stall(ms) => FaultMode::Stall(ms),
        }
    }
}

/// One step of the torture plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A client write routed to the current primary: one `creNode` +
    /// `addArc(n1, item, …)` change set at an explicit timestamp.
    Write {
        /// Writer session id (sessions are the oracle's monotonic-read
        /// unit).
        session: usize,
        /// Node id of the created OEM node (`n<nid>`).
        nid: u64,
        /// Integer payload of the created node.
        val: i64,
        /// The write's change timestamp in raw minutes — its LSN.
        at_minutes: i64,
    },
    /// A client read (`select chaos.item`) pinned to one topology node,
    /// bracketed by LSN probes at run time.
    Read {
        /// Reader session id.
        session: usize,
        /// Topology node index (0 = initial primary).
        node: usize,
    },
    /// A time-travel read (`QUERY … AS OF <lsn>`) pinned to one topology
    /// node. The point is chosen at run time: `frac` picks an
    /// acknowledged write's LSN proportionally far into the prefix the
    /// target node has already applied, so the read always targets a
    /// state the MVCC version store (or its snapshot-at fallback) must
    /// reproduce exactly.
    ReadAsOf {
        /// Reader session id.
        session: usize,
        /// Topology node index (0 = initial primary).
        node: usize,
        /// Percentile (0–100) into the applied acked prefix.
        frac: u8,
    },
    /// Arm a fault plan at one node's failpoint registry.
    Fault {
        /// Topology node index the plan is armed on.
        node: usize,
        /// Failpoint site.
        point: FaultPoint,
        /// Window length: the next `count` visits to the site fail.
        count: u64,
        /// Failure mode.
        spec: FaultSpec,
    },
    /// Kill-9 the follower (drop without shutdown) and restart it over
    /// the same WAL directory — crash recovery under load.
    Kill {
        /// Topology node index (always a follower).
        node: usize,
    },
    /// Quiesce, catch the target follower up, `PROMOTE` it, verify the
    /// deposed primary answers `FENCED`, and re-point every other node
    /// at the new primary.
    Promote {
        /// Topology node index of the follower to promote.
        node: usize,
    },
}

/// A fully materialized, seed-reproducible torture plan.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The seed this schedule was derived from (label only; a filtered
    /// schedule from the shrinker keeps its parent's seed).
    pub seed: u64,
    /// The generation knobs.
    pub opts: ScheduleOpts,
    /// The event list, in execution order.
    pub events: Vec<Event>,
}

/// Writer sessions (all pinned to the current primary); reader sessions
/// are `WRITER_SESSIONS + node`.
pub const WRITER_SESSIONS: usize = 2;

impl Schedule {
    /// Generate the schedule for `seed`. Equal seeds and opts produce
    /// byte-identical [`Schedule::render`] output.
    pub fn from_seed(seed: u64, opts: ScheduleOpts) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let followers = opts.followers.max(1);
        let base: Timestamp = "5Jan97 6:00am".parse().expect("fixed base timestamp");
        let mut at = base.raw_minutes();
        let mut nid = 100u64;

        // The client-op backbone: ~55% writes, reads uniform over nodes.
        let ops: Vec<Event> = (0..opts.ops.max(1))
            .map(|_| {
                if rng.gen_bool(0.55) {
                    at += rng.gen_range(1..=3i64);
                    nid += 1;
                    Event::Write {
                        session: rng.gen_range(0..WRITER_SESSIONS),
                        nid,
                        val: rng.gen_range(0..=9),
                        at_minutes: at,
                    }
                } else {
                    let node = rng.gen_range(0..=followers);
                    let session = WRITER_SESSIONS + node;
                    // A fifth of the reads time-travel: they pin an `AS OF`
                    // point inside the applied prefix instead of the head.
                    if rng.gen_bool(0.2) {
                        Event::ReadAsOf {
                            session,
                            node,
                            frac: rng.gen_range(0..=100),
                        }
                    } else {
                        Event::Read { session, node }
                    }
                }
            })
            .collect();

        // Faults (and the kills that chase disk faults) land strictly
        // before the promotion cut.
        let cut = if opts.promote {
            (ops.len() * 3 / 4).max(1)
        } else {
            ops.len()
        };
        let mut inserts: Vec<(usize, usize, Event)> = Vec::new();
        let mut seq = 0usize;
        for k in 0..opts.faults {
            let point = FaultPoint::ALL[k % FaultPoint::ALL.len()];
            let pos = rng.gen_range(0..cut);
            let (node, count, spec, chase_kill) = match point {
                FaultPoint::WalAppend => (
                    1 + rng.gen_range(0..followers),
                    rng.gen_range(1..=2u64),
                    if rng.gen_bool(0.5) {
                        FaultSpec::Error
                    } else {
                        FaultSpec::ShortWrite(rng.gen_range(1..=20))
                    },
                    true,
                ),
                FaultPoint::WalFsync => (
                    1 + rng.gen_range(0..followers),
                    1,
                    FaultSpec::Error,
                    true,
                ),
                FaultPoint::Checkpoint => (
                    1 + rng.gen_range(0..followers),
                    1,
                    if rng.gen_bool(0.5) {
                        FaultSpec::Error
                    } else {
                        FaultSpec::Stall(rng.gen_range(10..=40))
                    },
                    true,
                ),
                FaultPoint::ReplicateServe => (
                    0,
                    rng.gen_range(1..=3u64),
                    if rng.gen_bool(0.5) {
                        FaultSpec::Error
                    } else {
                        FaultSpec::Stall(rng.gen_range(20..=60))
                    },
                    false,
                ),
                FaultPoint::ReplicateApply => (
                    1 + rng.gen_range(0..followers),
                    rng.gen_range(1..=2u64),
                    if rng.gen_bool(0.5) {
                        FaultSpec::Error
                    } else {
                        FaultSpec::Stall(rng.gen_range(20..=60))
                    },
                    false,
                ),
                FaultPoint::Evaluate => (
                    1 + rng.gen_range(0..followers),
                    rng.gen_range(1..=2u64),
                    FaultSpec::Stall(rng.gen_range(10..=40)),
                    false,
                ),
            };
            inserts.push((
                pos,
                seq,
                Event::Fault {
                    node,
                    point,
                    count,
                    spec,
                },
            ));
            seq += 1;
            if chase_kill {
                let kpos = (pos + rng.gen_range(2..=4)).min(cut);
                inserts.push((kpos, seq, Event::Kill { node }));
                seq += 1;
            }
        }
        if opts.promote {
            let target = 1 + rng.gen_range(0..followers);
            inserts.push((cut, seq, Event::Promote { node: target }));
        }
        inserts.sort_by_key(|(pos, seq, _)| (*pos, *seq));

        // Merge: emit every insertion scheduled at position `i` before the
        // i-th backbone op.
        let mut events = Vec::with_capacity(ops.len() + inserts.len());
        let mut ins = inserts.into_iter().peekable();
        for (i, op) in ops.into_iter().enumerate() {
            while ins.peek().is_some_and(|(pos, _, _)| *pos <= i) {
                events.push(ins.next().unwrap().2);
            }
            events.push(op);
        }
        for (_, _, ev) in ins {
            events.push(ev);
        }

        Schedule {
            seed,
            opts,
            events,
        }
    }

    /// The canonical text rendering — one line per event, stable across
    /// runs. Byte-equality of two renders is the reproducibility check.
    pub fn render(&self) -> String {
        let mut out = format!(
            "schedule seed={} followers={} ops={} faults={} promote={}\n",
            self.seed, self.opts.followers, self.opts.ops, self.opts.faults, self.opts.promote
        );
        for ev in &self.events {
            match ev {
                Event::Write {
                    session,
                    nid,
                    val,
                    at_minutes,
                } => out.push_str(&format!(
                    "write session={session} nid={nid} val={val} at={at_minutes}\n"
                )),
                Event::Read { session, node } => {
                    out.push_str(&format!("read session={session} node={node}\n"))
                }
                Event::ReadAsOf {
                    session,
                    node,
                    frac,
                } => out.push_str(&format!(
                    "read-as-of session={session} node={node} frac={frac}\n"
                )),
                Event::Fault {
                    node,
                    point,
                    count,
                    spec,
                } => out.push_str(&format!(
                    "fault node={node} point={point:?} count={count} spec={spec:?}\n"
                )),
                Event::Kill { node } => out.push_str(&format!("kill node={node}\n")),
                Event::Promote { node } => out.push_str(&format!("promote node={node}\n")),
            }
        }
        out
    }

    /// Indices of the fault-like events (faults, kills, the promotion) —
    /// the candidate set the shrinker bisects over.
    pub fn fault_event_indices(&self) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, ev)| {
                matches!(
                    ev,
                    Event::Fault { .. } | Event::Kill { .. } | Event::Promote { .. }
                )
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// A copy of this schedule with the events at `drop_indices` removed
    /// (the shrinker's reduction step).
    pub fn without_events(&self, drop_indices: &[usize]) -> Schedule {
        let events = self
            .events
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop_indices.contains(i))
            .map(|(_, ev)| ev.clone())
            .collect();
        Schedule {
            seed: self.seed,
            opts: self.opts,
            events,
        }
    }

    /// Number of fault-arm events in the schedule.
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|ev| matches!(ev, Event::Fault { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_render_byte_identically() {
        let opts = ScheduleOpts::default();
        let a = Schedule::from_seed(7, opts).render();
        let b = Schedule::from_seed(7, opts).render();
        assert_eq!(a, b);
        let c = Schedule::from_seed(8, opts).render();
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn write_timestamps_strictly_increase() {
        let s = Schedule::from_seed(42, ScheduleOpts::default());
        let ats: Vec<i64> = s
            .events
            .iter()
            .filter_map(|ev| match ev {
                Event::Write { at_minutes, .. } => Some(*at_minutes),
                _ => None,
            })
            .collect();
        assert!(ats.windows(2).all(|w| w[0] < w[1]), "{ats:?}");
        assert!(!ats.is_empty());
    }

    #[test]
    fn faults_cover_every_registered_site_and_precede_promotion() {
        let s = Schedule::from_seed(7, ScheduleOpts::default());
        let promote_at = s
            .events
            .iter()
            .position(|ev| matches!(ev, Event::Promote { .. }))
            .expect("default opts promote");
        for site in FaultPoint::ALL {
            let hits: Vec<usize> = s
                .events
                .iter()
                .enumerate()
                .filter(|(_, ev)| matches!(ev, Event::Fault { point, .. } if *point == site))
                .map(|(i, _)| i)
                .collect();
            assert!(!hits.is_empty(), "{site:?} never armed");
            assert!(
                hits.iter().all(|i| *i < promote_at),
                "{site:?} armed after the promotion cut"
            );
        }
        // Disk faults target followers only; replication-serve the primary.
        for ev in &s.events {
            if let Event::Fault { node, point, .. } = ev {
                match point {
                    FaultPoint::ReplicateServe => assert_eq!(*node, 0),
                    _ => assert!(*node >= 1, "{point:?} armed on the primary"),
                }
            }
            if let Event::Kill { node } = ev {
                assert!(*node >= 1, "kill aimed at the primary");
            }
        }
    }

    #[test]
    fn schedules_interleave_as_of_reads_with_head_reads() {
        let s = Schedule::from_seed(7, ScheduleOpts::default());
        let as_of = s
            .events
            .iter()
            .filter(|ev| matches!(ev, Event::ReadAsOf { .. }))
            .count();
        let head = s
            .events
            .iter()
            .filter(|ev| matches!(ev, Event::Read { .. }))
            .count();
        assert!(as_of >= 5, "only {as_of} AS OF reads in the default plan");
        assert!(head > as_of, "head reads must stay the majority");
        for ev in &s.events {
            if let Event::ReadAsOf { frac, .. } = ev {
                assert!(*frac <= 100);
            }
        }
    }

    #[test]
    fn shrinker_surface_filters_fault_like_events() {
        let s = Schedule::from_seed(9, ScheduleOpts::default());
        let idx = s.fault_event_indices();
        assert!(idx.len() >= s.fault_count());
        let reduced = s.without_events(&idx);
        assert_eq!(reduced.fault_event_indices().len(), 0);
        assert!(reduced.events.len() + idx.len() == s.events.len());
    }
}
