//! The runtime half of the harness: an in-process 1-primary/N-follower
//! topology of real [`Service`] instances, driven through a [`Schedule`].
//!
//! Every node is a full durable serve instance with its own WAL
//! directory, failpoint registry, and TCP listener on `127.0.0.1:0`;
//! followers replicate over the real wire protocol, so partitions,
//! stalls, and fenced batches travel the same bytes production would.
//! The driver is single-threaded: each schedule event runs to completion
//! before the next (background replication threads keep running
//! throughout — reads on followers race replication on purpose, which is
//! why the oracle brackets them with LSN probes).
//!
//! A [`Kill`] is a kill-9: the service is crash-stopped — no shutdown
//! checkpoint, the WAL left exactly as last persisted — and restarted
//! over the same directory, so crash recovery (checkpoint + log tail,
//! torn records included) runs under load. (Crash-stop, not `drop`: a
//! dropped `Service` leaves its committer running, and two incarnations
//! over one WAL directory corrupt each other's checkpoints.) A
//! [`Promote`] quiesces writes, waits for the target follower to reach
//! the primary's applied LSN (promoting a lagging follower would lose
//! acked history — the harness promotes only at a converged point, which
//! is the fenced-failover contract), issues `PROMOTE`, checks the
//! deposed primary answers `FENCED`, and re-points every other node at
//! the new primary.
//!
//! [`Kill`]: Event::Kill
//! [`Promote`]: Event::Promote

use crate::oracle::{AckedWrite, History, ReadObs};
use crate::schedule::{Event, Schedule};
use crate::{OracleFailure, RunSummary, Sabotage};
use doem::{current_snapshot, snapshot_at};
use oem::{same_database, Timestamp};
use serve::protocol::lsn_from_wire;
use serve::{ErrKind, FaultPoint, Faults, Response, ServeConfig, Service, TcpHandle};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The single database every chaos run tortures.
pub const DB: &str = "chaos";

/// One topology node: a live service plus everything needed to kill and
/// resurrect it.
struct Node {
    svc: Option<Service>,
    tcp: Option<TcpHandle>,
    addr: String,
    dir: PathBuf,
    faults: Faults,
    follow: Option<String>,
    restarts: u64,
}

impl Node {
    fn start(dir: PathBuf, faults: Faults, follow: Option<String>) -> std::io::Result<Node> {
        let mut node = Node {
            svc: None,
            tcp: None,
            addr: String::new(),
            dir,
            faults,
            follow,
            restarts: 0,
        };
        node.boot()?;
        Ok(node)
    }

    /// (Re)start the service over the node's WAL directory. The failpoint
    /// registry is carried across restarts so fired-counts accumulate.
    fn boot(&mut self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let cfg = ServeConfig {
            wal_dir: Some(self.dir.clone()),
            checkpoint_every: 8,
            retain_lsns: 100_000,
            follow: self.follow.clone(),
            follow_poll: Duration::from_millis(10),
            faults: self.faults.clone(),
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg).map_err(std::io::Error::other)?;
        let tcp = svc.listen("127.0.0.1:0")?;
        self.addr = tcp.addr().to_string();
        self.svc = Some(svc);
        self.tcp = Some(tcp);
        Ok(())
    }

    /// Kill-9: stop the listener and crash-stop the service. The crash
    /// stop joins every background thread — the directory must be quiet
    /// before a successor opens it, or a still-running committer from
    /// the dead incarnation races the successor on the WAL file — but
    /// takes no final checkpoint, so restart goes through real recovery
    /// over whatever the log held at the crash.
    fn kill(&mut self) {
        if let Some(tcp) = self.tcp.take() {
            tcp.stop();
        }
        if let Some(svc) = self.svc.take() {
            svc.crash_stop();
        }
    }

    fn restart(&mut self, follow: Option<String>) -> std::io::Result<()> {
        self.kill();
        self.follow = follow;
        self.restarts += 1;
        self.boot()
    }

    fn svc(&self) -> &Service {
        self.svc.as_ref().expect("node is running")
    }

    /// The node's applied LSN for [`DB`] in raw minutes (`i64::MIN` when
    /// the shard does not exist yet).
    fn applied_raw(&self) -> i64 {
        match self.svc().client().request_line(&format!("LSN {DB}")) {
            Response::Ok(msg) => parse_applied(&msg).map_or(i64::MIN, |t| t.raw_minutes()),
            _ => i64::MIN,
        }
    }
}

/// Pull `applied <lsn> …` out of an `LSN` response.
fn parse_applied(msg: &str) -> Option<Timestamp> {
    let mut words = msg.split_whitespace();
    if words.next() != Some("applied") {
        return None;
    }
    lsn_from_wire(words.next()?).ok()
}

/// The live topology plus the run's recorded history.
pub struct Harness {
    nodes: Vec<Node>,
    primary: usize,
    history: History,
    /// High-water mark of every write actually issued (schedule writes,
    /// probes, and fillers all allocate strictly above it).
    last_at: i64,
    writes_issued: usize,
    /// Schedule-write ordinal, fillers excluded — the sabotage knob keys
    /// off this so the phantom lands deterministically.
    sched_writes: usize,
    promotions: usize,
    kills: usize,
    faults_armed: usize,
}

impl Harness {
    /// Stand the topology up: node 0 the primary (with [`DB`] created),
    /// nodes `1..=followers` attached as replication followers.
    pub fn start(tag: &str, followers: usize) -> std::io::Result<Harness> {
        let base = std::env::temp_dir().join(format!(
            "chaos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let primary = Node::start(base.join("node0"), Faults::armed(), None)?;
        let primary_addr = primary.addr.clone();
        let mut nodes = vec![primary];
        for f in 1..=followers.max(1) {
            nodes.push(Node::start(
                base.join(format!("node{f}")),
                Faults::armed(),
                Some(primary_addr.clone()),
            )?);
        }
        let resp = nodes[0].svc().client().request_line(&format!("CREATE {DB}"));
        if resp.is_error() {
            return Err(std::io::Error::other(format!("CREATE {DB}: {resp:?}")));
        }
        Ok(Harness {
            nodes,
            primary: 0,
            history: History::default(),
            last_at: 0,
            writes_issued: 0,
            sched_writes: 0,
            promotions: 0,
            kills: 0,
            faults_armed: 0,
        })
    }

    /// Execute the whole schedule, then drain pending fault plans,
    /// converge the topology, and run the four oracle checks.
    pub fn run(
        &mut self,
        sched: &Schedule,
        sabotage: Sabotage,
    ) -> Result<RunSummary, OracleFailure> {
        for ev in &sched.events {
            match ev {
                Event::Write {
                    session,
                    nid,
                    val,
                    at_minutes,
                } => self.exec_write(*session, *nid, *val, *at_minutes, sabotage),
                Event::Read { session, node } => self.exec_read(*session, *node),
                Event::ReadAsOf {
                    session,
                    node,
                    frac,
                } => self.exec_read_as_of(*session, *node, *frac),
                Event::Fault {
                    node,
                    point,
                    count,
                    spec,
                } => {
                    let node = (*node).min(self.nodes.len() - 1);
                    if self.nodes[node].faults.arm_next(*point, *count, spec.mode()) {
                        self.faults_armed += 1;
                    }
                }
                Event::Kill { node } => {
                    let node = (*node).min(self.nodes.len() - 1);
                    if node != self.primary {
                        self.kills += 1;
                        let follow = self.nodes[node].follow.clone();
                        let _ = self.nodes[node].restart(follow);
                    }
                }
                Event::Promote { node } => self.exec_promote(*node)?,
            }
        }
        self.drain_faults(Duration::from_secs(15));
        self.converge(Duration::from_secs(20))?;
        self.oracle()
    }

    /// The next free LSN: strictly above everything issued so far *and*
    /// the schedule's own timestamp for this write (probe and filler
    /// writes squeeze between schedule timestamps without collisions).
    fn alloc_at(&mut self, wanted: i64) -> Timestamp {
        self.last_at = (self.last_at + 1).max(wanted);
        Timestamp::from_raw_minutes(self.last_at)
    }

    fn exec_write(&mut self, session: usize, nid: u64, val: i64, at_minutes: i64, sabotage: Sabotage) {
        let at = self.alloc_at(at_minutes);
        self.writes_issued += 1;
        self.sched_writes += 1;
        // The sabotage knob: report one write as acknowledged without ever
        // sending it. The durability oracle must catch the phantom.
        if sabotage == Sabotage::PhantomAck && self.sched_writes == 7 {
            self.history.acked.push(AckedWrite {
                session,
                at,
                nid,
                val,
            });
            return;
        }
        let resp = self.nodes[self.primary].svc().client().request_line(&format!(
            "UPDATE {DB} AT {at} ; {{creNode(n{nid}, {val}), addArc(n1, item, n{nid})}}"
        ));
        if !resp.is_error() {
            self.history.acked.push(AckedWrite {
                session,
                at,
                nid,
                val,
            });
        }
    }

    /// A filler write during drain/convergence phases: keeps records
    /// flowing so armed WAL/checkpoint plans on followers get visited.
    fn filler_write(&mut self) {
        let nid = 900_000 + self.writes_issued as u64;
        let at = self.alloc_at(0);
        self.writes_issued += 1;
        let resp = self.nodes[self.primary].svc().client().request_line(&format!(
            "UPDATE {DB} AT {at} ; {{creNode(n{nid}, 0), addArc(n1, item, n{nid})}}"
        ));
        if !resp.is_error() {
            self.history.acked.push(AckedWrite {
                session: 0,
                at,
                nid,
                val: 0,
            });
        }
    }

    fn exec_read(&mut self, session: usize, node: usize) {
        let node = node.min(self.nodes.len() - 1);
        let client = self.nodes[node].svc().client();
        let before = match client.request_line(&format!("LSN {DB}")) {
            Response::Ok(msg) => parse_applied(&msg),
            // The shard has not replicated to this node yet: no read.
            _ => return,
        };
        let rows = match client.query(DB, &format!("select {DB}.item")) {
            Ok(rows) => rows,
            Err(_) => return,
        };
        let after = match client.request_line(&format!("LSN {DB}")) {
            Response::Ok(msg) => parse_applied(&msg),
            _ => return,
        };
        let (Some(before), Some(after)) = (before, after) else {
            return;
        };
        self.history.reads.push(ReadObs {
            session,
            node,
            lsn_floor: before,
            clean: before == after,
            as_of: None,
            rows,
        });
    }

    /// A time-travel read: resolve `frac` to an acked LSN the target node
    /// has already applied, issue `QUERY … AS OF` against it, and record
    /// the observation with the pinned point as its serve point. The
    /// node answers from the `O_t(D)` view of its DOEM graph, which holds
    /// every point of the recorded history.
    fn exec_read_as_of(&mut self, session: usize, node: usize, frac: u8) {
        let node = node.min(self.nodes.len() - 1);
        let client = self.nodes[node].svc().client();
        let applied = match client.request_line(&format!("LSN {DB}")) {
            Response::Ok(msg) => match parse_applied(&msg) {
                Some(t) => t,
                None => return,
            },
            // The shard has not replicated to this node yet: no read.
            _ => return,
        };
        // Acked writes are a strictly increasing LSN sequence, so the
        // applied candidates form a prefix; `frac` picks inside it.
        let candidates = self.history.acked.iter().filter(|w| w.at <= applied).count();
        if candidates == 0 {
            return;
        }
        let idx = (candidates - 1) * usize::from(frac.min(100)) / 100;
        let at = self.history.acked[idx].at;
        let Response::Rows(rows) = client.request_line(&format!(
            "QUERY {DB} AS OF {} select {DB}.item",
            at.raw_minutes()
        )) else {
            return;
        };
        self.history.reads.push(ReadObs {
            session,
            node,
            lsn_floor: at,
            clean: true,
            as_of: Some(at),
            rows,
        });
    }

    /// Quiesce + catch up + `PROMOTE` + fence probe + re-point.
    fn exec_promote(&mut self, target: usize) -> Result<(), OracleFailure> {
        let target = target.clamp(1, self.nodes.len() - 1);
        if target == self.primary || self.promotions > 0 {
            return Ok(());
        }
        // Fault plans armed against the current primary (`ReplicateServe`)
        // stop being reachable once it is deposed — fire them out first.
        self.drain_faults(Duration::from_secs(8));
        // Catch every follower up to the primary's applied LSN; a wedged
        // (read-only) follower gets one restart to clear the condition.
        let goal = self.nodes[self.primary].applied_raw();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut restarted = vec![false; self.nodes.len()];
        while self.nodes[target].applied_raw() < goal {
            if Instant::now() > deadline {
                return Err(OracleFailure {
                    check: "promotion",
                    detail: format!(
                        "follower {target} never reached the primary's LSN {goal} \
                         (stuck at {})",
                        self.nodes[target].applied_raw()
                    ),
                });
            }
            if Instant::now() > deadline - Duration::from_secs(7) && !restarted[target] {
                restarted[target] = true;
                let follow = self.nodes[target].follow.clone();
                let _ = self.nodes[target].restart(follow);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let resp = self.nodes[target].svc().client().request_line(&format!("PROMOTE {DB}"));
        if resp.is_error() {
            return Err(OracleFailure {
                check: "promotion",
                detail: format!("PROMOTE {DB} on node {target} failed: {resp:?}"),
            });
        }
        self.promotions += 1;
        let old = self.primary;
        self.primary = target;

        // The deposed primary must refuse the next write with the typed
        // FENCED error — the epoch fence, observed from the client side.
        let probe_at = self.alloc_at(0);
        let resp = self.nodes[old].svc().client().request_line(&format!(
            "UPDATE {DB} AT {probe_at} ; {{creNode(n999001, 1), addArc(n1, item, n999001)}}"
        ));
        if !matches!(
            resp,
            Response::Error {
                kind: ErrKind::Fenced,
                ..
            }
        ) {
            return Err(OracleFailure {
                check: "fencing",
                detail: format!("deposed primary answered {resp:?} instead of FENCED"),
            });
        }
        // …and the new primary must take writes.
        self.filler_write();
        let Some(AckedWrite { at, .. }) = self.history.acked.last().copied() else {
            return Err(OracleFailure {
                check: "fencing",
                detail: "probe write on the new primary was not acknowledged".to_string(),
            });
        };
        debug_assert!(at.raw_minutes() > probe_at.raw_minutes());

        // Re-point everyone else (the deposed primary included) at the
        // new primary's lineage.
        let new_addr = self.nodes[target].addr.clone();
        for i in 0..self.nodes.len() {
            if i != target {
                let _ = self.nodes[i].restart(Some(new_addr.clone()));
            }
        }
        Ok(())
    }

    /// Keep records flowing so armed fault plans get visited, until the
    /// firing count quiesces (or the deadline passes). A plan's window
    /// can cover several operations and a plan armed against a site that
    /// traffic no longer reaches can never fire, so "every plan fired"
    /// is not a terminating condition — instead: once no new firing has
    /// been seen for a stretch, restart the followers once (a follower
    /// wedged read-only by a disk fault stops visiting its sites), and
    /// stop when a second stretch also stays quiet.
    fn drain_faults(&mut self, budget: Duration) {
        const QUIET: Duration = Duration::from_millis(1500);
        let deadline = Instant::now() + budget;
        let mut last_fired = self.total_fired();
        let mut stale_since = Instant::now();
        let mut restarted = false;
        while Instant::now() < deadline {
            self.filler_write();
            std::thread::sleep(Duration::from_millis(25));
            let fired = self.total_fired();
            if fired > last_fired {
                last_fired = fired;
                stale_since = Instant::now();
                restarted = false;
            } else if stale_since.elapsed() > QUIET {
                if restarted {
                    return;
                }
                restarted = true;
                for i in 0..self.nodes.len() {
                    if i != self.primary {
                        let follow = self.nodes[i].follow.clone();
                        let _ = self.nodes[i].restart(follow);
                    }
                }
                stale_since = Instant::now();
            }
        }
    }

    /// Wait for every node to reach the primary's applied LSN, restarting
    /// wedged followers along the way.
    fn converge(&mut self, budget: Duration) -> Result<(), OracleFailure> {
        let deadline = Instant::now() + budget;
        let goal = self.nodes[self.primary].applied_raw();
        let mut last_restart = Instant::now();
        loop {
            let laggards: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| i != self.primary && self.nodes[i].applied_raw() < goal)
                .collect();
            if laggards.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(OracleFailure {
                    check: "convergence",
                    detail: format!(
                        "nodes {laggards:?} never reached the primary's LSN {goal}: {:?}",
                        laggards
                            .iter()
                            .map(|&i| self.nodes[i].applied_raw())
                            .collect::<Vec<_>>()
                    ),
                });
            }
            if last_restart.elapsed() > Duration::from_secs(5) {
                for &i in &laggards {
                    let follow = self.nodes[i].follow.clone();
                    let _ = self.nodes[i].restart(follow);
                }
                last_restart = Instant::now();
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// The fifth, MVCC-specific check: after convergence, `AS OF` at a
    /// historical LSN must answer the replay of the acked prefix — on the
    /// primary *and* every follower. Beyond the rows, the node's state at
    /// that point, [`doem::snapshot_at`] over its DOEM graph, must equal
    /// the replay (by [`oem::same_database`]) on every node.
    fn check_as_of_convergence(&self) -> Result<(), OracleFailure> {
        if self.history.acked.is_empty() {
            return Ok(());
        }
        let at = self.history.acked[self.history.acked.len() / 2].at;
        let reference = crate::oracle::rebuild(&self.history.acked, at);
        let result = chorel::run_both_checked(&reference, &format!("select {DB}.item"))
            .map_err(|e| OracleFailure {
                check: "as-of-convergence",
                detail: format!("reference replay at {at} failed to evaluate: {e}"),
            })?;
        let want = chorel::canonical_row_strings(&reference, &result);
        let want_graph = current_snapshot(&reference);
        for (i, node) in self.nodes.iter().enumerate() {
            let resp = node.svc().client().request_line(&format!(
                "QUERY {DB} AS OF {} select {DB}.item",
                at.raw_minutes()
            ));
            let Response::Rows(rows) = resp else {
                return Err(OracleFailure {
                    check: "as-of-convergence",
                    detail: format!("node {i} refused AS OF {at}: {resp:?}"),
                });
            };
            if rows != want {
                return Err(OracleFailure {
                    check: "as-of-convergence",
                    detail: format!(
                        "node {i} answered {} rows AS OF {at}, the acked-prefix \
                         replay yields {} — observed {rows:?}, want {want:?}",
                        rows.len(),
                        want.len()
                    ),
                });
            }
            let diverges = node
                .svc()
                .doem_snapshot(DB)
                .is_none_or(|d| !same_database(&snapshot_at(&d, at), &want_graph));
            if diverges {
                return Err(OracleFailure {
                    check: "as-of-convergence",
                    detail: format!(
                        "node {i}'s graph at {at} diverges from the acked-prefix replay"
                    ),
                });
            }
        }
        Ok(())
    }

    fn total_fired(&self) -> u64 {
        self.nodes.iter().map(|n| n.faults.fired()).sum()
    }

    /// Fired counts per site, merged across every node.
    fn fired_by_site(&self) -> Vec<(FaultPoint, u64)> {
        let mut merged: Vec<(FaultPoint, u64)> =
            FaultPoint::ALL.iter().map(|p| (*p, 0)).collect();
        for node in &self.nodes {
            for (point, fired) in node.faults.fired_by_site() {
                if let Some(slot) = merged.iter_mut().find(|(p, _)| *p == point) {
                    slot.1 += fired;
                }
            }
        }
        merged
    }

    /// The four consistency checks over the recorded history and the
    /// converged topology. See the [`crate::oracle`] module docs for the
    /// contract each check states.
    fn oracle(&mut self) -> Result<RunSummary, OracleFailure> {
        let snapshots: Vec<_> = self
            .nodes
            .iter()
            .map(|n| n.svc().doem_snapshot(DB).map(|s| (*s).clone()))
            .collect();
        let lsns: Vec<i64> = self.nodes.iter().map(|n| n.applied_raw()).collect();
        // `CHAOS_DEBUG=1` dumps the per-node state the oracle is about to
        // judge — the first thing to reach for on an oracle failure.
        if std::env::var_os("CHAOS_DEBUG").is_some() {
            use std::sync::atomic::Ordering::Relaxed;
            for (i, node) in self.nodes.iter().enumerate() {
                let m = node.svc().metrics();
                eprintln!(
                    "chaos-debug node {i}: applied={} history_len={:?} restarts={} \
                     snapshots_installed={} records_applied={} fired={:?}",
                    lsns[i],
                    snapshots[i].as_ref().map(|s| s.timestamps().len()),
                    node.restarts,
                    m.repl_snapshots_installed.load(Relaxed),
                    m.repl_records_applied.load(Relaxed),
                    node.faults.fired_by_site(),
                );
            }
            for (i, snap) in snapshots.iter().enumerate() {
                let Some(snap) = snap else { continue };
                let have = snap.timestamps();
                let missing: Vec<i64> = self
                    .history
                    .acked
                    .iter()
                    .filter(|w| !have.contains(&w.at))
                    .map(|w| w.at.raw_minutes())
                    .collect();
                if !missing.is_empty() {
                    eprintln!("chaos-debug node {i} missing {} records: {missing:?}", missing.len());
                }
            }
            eprintln!(
                "chaos-debug acked={} primary={} last_at={}",
                self.history.acked.len(),
                self.primary,
                self.last_at
            );
        }
        let reads_checked =
            crate::oracle::check_all(&self.history, &snapshots, &lsns, self.primary)?;
        self.check_as_of_convergence()?;
        Ok(RunSummary {
            writes_acked: self.history.acked.len(),
            reads_total: self.history.reads.len(),
            reads_checked,
            faults_armed: self.faults_armed,
            faults_fired: self.total_fired(),
            fired_by_site: self.fired_by_site(),
            kills: self.kills,
            promotions: self.promotions,
            final_lsn: lsns[self.primary],
        })
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            node.kill();
            let _ = std::fs::remove_dir_all(&node.dir);
        }
        if let Some(base) = self.nodes.first().and_then(|n| n.dir.parent()) {
            let _ = std::fs::remove_dir_all(base);
        }
    }
}

/// Run one schedule end-to-end on a fresh topology.
pub fn run_schedule(sched: &Schedule, sabotage: Sabotage) -> Result<RunSummary, OracleFailure> {
    let mut harness = Harness::start(
        &format!("seed{}-{}", sched.seed, sched.events.len()),
        sched.opts.followers,
    )
    .map_err(|e| OracleFailure {
        check: "setup",
        detail: format!("topology failed to start: {e}"),
    })?;
    harness.run(sched, sabotage)
}
