//! The service's metrics registry: lock-free counters plus log2-bucketed
//! latency histograms for the request pipeline stages (parse, queue wait,
//! execution, reply-slot wait, writer-channel wait, end-to-end), the
//! publish stage and checkpoint image saves. A snapshot is exposed over
//! the wire as the `STATS` command.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 latency buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1µs`), so the top bucket
/// covers everything from ~8.6 minutes up.
const BUCKETS: usize = 30;

/// A log2-bucketed latency histogram with exact count/sum/max.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Record one latency sample.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Largest recorded sample in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Approximate p50 in microseconds: the upper bound of the bucket
    /// containing the median sample.
    pub fn p50_us(&self) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen * 2 >= n {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        self.max_us()
    }

    fn render(&self, name: &str, out: &mut Vec<String>) {
        out.push(format!(
            "latency {name} count={} mean_us={} p50_us={} max_us={}",
            self.count(),
            self.mean_us(),
            self.p50_us(),
            self.max_us()
        ));
    }
}

/// All counters and histograms the service maintains.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests submitted (whether or not admitted).
    pub requests: AtomicU64,
    /// Requests taking the shared read path.
    pub reads: AtomicU64,
    /// Requests taking the exclusive write path.
    pub writes: AtomicU64,
    /// Error responses produced (any kind).
    pub errors: AtomicU64,
    /// Requests rejected by admission control (queue full).
    pub busy_rejected: AtomicU64,
    /// Requests answered `TIMEOUT`: no reply within the request timeout.
    pub timeouts: AtomicU64,
    /// Result-cache hits.
    pub cache_hits: AtomicU64,
    /// Result-cache misses.
    pub cache_misses: AtomicU64,
    /// Cache entries carried across a write by semi-naive maintenance
    /// (prior rows ∪ delta variants, re-canonicalized) instead of being
    /// invalidated (DESIGN.md §11).
    pub cache_maintained: AtomicU64,
    /// The part of `cache_maintained` that the write did not change: the
    /// delta variants added no row, so the same entry was re-keyed to the
    /// new generation without touching its rows or strings.
    pub cache_carried: AtomicU64,
    /// Cache entries dropped at a write because the query × delta left
    /// the monotonic fragment (or the entry carried no maintenance
    /// state) — the explicit full-re-evaluation fallback.
    pub cache_fallback: AtomicU64,
    /// TCP sessions accepted.
    pub sessions: AtomicU64,
    /// Requests that carried a `#<id>` pipelining tag.
    pub pipelined: AtomicU64,
    /// Requests answered on the submitting thread, before the admission
    /// queue: the probe verbs and current-version cache hits.
    pub inline_replies: AtomicU64,
    /// TCP sessions that started a `serve-session-writer` thread (a
    /// tagged request had to wait); every other session runs on one.
    pub session_writers: AtomicU64,
    /// `write_all` calls issued by session writer threads; each carries
    /// every frame that was queued when it began, so
    /// `writer_wait count / writer_bursts` is frames per burst.
    pub writer_bursts: AtomicU64,
    /// WAL records appended (and fsynced) successfully.
    pub wal_appends: AtomicU64,
    /// Bytes of framed WAL records appended successfully.
    pub wal_bytes: AtomicU64,
    /// `fsync` calls the WAL performed. With group commit this grows once
    /// per persisted *batch*, so `wal_fsyncs / wal_appends < 1` is the
    /// batching win in one ratio.
    pub wal_fsyncs: AtomicU64,
    /// Persisted batches that carried more than one record — true group
    /// commits, where concurrent writers shared a single fsync.
    pub group_commits: AtomicU64,
    /// Checkpoint images saved: one per `CREATE`/`LOAD`/install, and one
    /// per committer checkpoint that also deleted its sealed log segment.
    pub checkpoints: AtomicU64,
    /// Checkpoints that did not complete: an image save failed (an
    /// install's failure is also answered to its client), or a committer
    /// checkpoint could not seal the log, start its thread or delete its
    /// sealed segment. A committer checkpoint that fails loses nothing
    /// durable: the log keeps its records until a later one succeeds.
    pub checkpoint_failures: AtomicU64,
    /// Databases recovered from checkpoint + log replay at startup.
    pub recoveries: AtomicU64,
    /// Recoveries that found (and discarded) a torn or unusable log tail.
    pub torn_tails: AtomicU64,
    /// Faults fired by the injection layer (tests only; 0 in production).
    pub faults_injected: AtomicU64,
    /// Shards flipped to read-only by a persistent log I/O failure. The
    /// *current* count of read-only shards is the `read_only_shards`
    /// gauge appended to `STATS` by the service.
    pub read_only_flips: AtomicU64,
    /// `REPLICATE` batches this primary served to followers (snapshot or
    /// log-tail responses alike).
    pub repl_batches_shipped: AtomicU64,
    /// Log records shipped to followers inside those batches.
    pub repl_records_shipped: AtomicU64,
    /// Full checkpoint images shipped to followers (catch-up resyncs).
    pub repl_snapshots_shipped: AtomicU64,
    /// Records this follower applied through the canonical change-op
    /// order into its shards.
    pub repl_records_applied: AtomicU64,
    /// Checkpoint images this follower installed (initial attach or
    /// resync after falling behind the primary's retained tail).
    pub repl_snapshots_installed: AtomicU64,
    /// Times the follower's fetch loop reconnected to the primary after
    /// a connection-level failure (the backoff path).
    pub repl_reconnects: AtomicU64,
    /// Gauge: the reconnect backoff (milliseconds) the follower's sync
    /// loop slept before its most recent reconnect. Returns to the floor
    /// after any session that made replication progress.
    pub repl_backoff_ms: AtomicU64,
    /// `AT now` allocations that found the wall clock at or behind the
    /// shard's last LSN and clamped forward to `last_lsn + 1` instead
    /// (Definition 2.2: change timestamps are strictly increasing).
    pub clock_regressions: AtomicU64,
    /// `PROMOTE` verbs accepted: shards flipped writable under a new
    /// epoch fence.
    pub promotions: AtomicU64,
    /// Writes and replication batches rejected with the typed `FENCED`
    /// error because they carried a deposed lineage's stale epoch.
    pub fenced_rejects: AtomicU64,
    /// Time spent parsing request lines.
    pub parse: Histogram,
    /// Time jobs spent queued before a worker picked them up.
    pub queue: Histogram,
    /// Time workers spent evaluating queries/updates (cache misses only).
    pub exec: Histogram,
    /// End-to-end time from submission to reply.
    pub total: Histogram,
    /// Time the shard write lock was held per published record: apply,
    /// replication tail, cache maintenance, generation bump, version
    /// install.
    pub publish: Histogram,
    /// Time a pooled response sat in its reply slot: from the worker's
    /// (or committer's) delivery to the blocked thread picking it up. A
    /// forwarded (pipelined) response waits for no thread and records
    /// nothing here.
    pub reply_wait: Histogram,
    /// Time a frame sat in a session's writer channel: from enqueue to
    /// the end of the `write_all` that carried it. Sessions that write
    /// in place record nothing here.
    pub writer_wait: Histogram,
    /// Time one checkpoint image save took (encode, write, fsync, rename,
    /// directory fsync), on the thread that saved it — a committer's
    /// checkpoint thread, or the install path.
    pub checkpoint: Histogram,
}

impl Metrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Render the `STATS` snapshot, one `counter …`/`latency …` line each.
    pub fn render(&self) -> Vec<String> {
        let c = |v: &AtomicU64| v.load(Ordering::Relaxed);
        let mut out = vec![
            format!("counter requests {}", c(&self.requests)),
            format!("counter reads {}", c(&self.reads)),
            format!("counter writes {}", c(&self.writes)),
            format!("counter errors {}", c(&self.errors)),
            format!("counter busy_rejected {}", c(&self.busy_rejected)),
            format!("counter timeouts {}", c(&self.timeouts)),
            format!("counter cache_hits {}", c(&self.cache_hits)),
            format!("counter cache_misses {}", c(&self.cache_misses)),
            format!("counter cache_maintained {}", c(&self.cache_maintained)),
            format!("counter cache_carried {}", c(&self.cache_carried)),
            format!("counter cache_fallback {}", c(&self.cache_fallback)),
            format!("counter sessions {}", c(&self.sessions)),
            format!("counter pipelined {}", c(&self.pipelined)),
            format!("counter inline_replies {}", c(&self.inline_replies)),
            format!("counter session_writers {}", c(&self.session_writers)),
            format!("counter writer_bursts {}", c(&self.writer_bursts)),
            format!("counter wal_appends {}", c(&self.wal_appends)),
            format!("counter wal_bytes {}", c(&self.wal_bytes)),
            format!("counter wal_fsyncs {}", c(&self.wal_fsyncs)),
            format!("counter group_commits {}", c(&self.group_commits)),
            format!("counter checkpoints {}", c(&self.checkpoints)),
            format!("counter checkpoint_failures {}", c(&self.checkpoint_failures)),
            format!("counter recoveries {}", c(&self.recoveries)),
            format!("counter torn_tails {}", c(&self.torn_tails)),
            format!("counter faults_injected {}", c(&self.faults_injected)),
            format!("counter read_only_flips {}", c(&self.read_only_flips)),
            format!("counter repl_batches_shipped {}", c(&self.repl_batches_shipped)),
            format!("counter repl_records_shipped {}", c(&self.repl_records_shipped)),
            format!("counter repl_snapshots_shipped {}", c(&self.repl_snapshots_shipped)),
            format!("counter repl_records_applied {}", c(&self.repl_records_applied)),
            format!("counter repl_snapshots_installed {}", c(&self.repl_snapshots_installed)),
            format!("counter repl_reconnects {}", c(&self.repl_reconnects)),
            format!("gauge repl_backoff_ms {}", c(&self.repl_backoff_ms)),
            format!("counter clock_regressions {}", c(&self.clock_regressions)),
            format!("counter promotions {}", c(&self.promotions)),
            format!("counter fenced_rejects {}", c(&self.fenced_rejects)),
        ];
        self.parse.render("parse", &mut out);
        self.queue.render("queue", &mut out);
        self.exec.render("exec", &mut out);
        self.total.render("total", &mut out);
        self.publish.render("publish", &mut out);
        self.reply_wait.render("reply_wait", &mut out);
        self.writer_wait.render("writer_wait", &mut out);
        self.checkpoint.render("checkpoint", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_statistics() {
        let h = Histogram::default();
        for us in [1u64, 10, 100, 1000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_us(), 10_000);
        assert_eq!(h.mean_us(), (1 + 10 + 100 + 1000 + 10_000) / 5);
        let p50 = h.p50_us();
        assert!((64..=256).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn huge_samples_clamp_to_top_bucket() {
        let h = Histogram::default();
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stats_snapshot_mentions_every_stage() {
        let m = Metrics::new();
        Metrics::bump(&m.requests);
        m.exec.record(Duration::from_micros(42));
        let lines = m.render();
        assert!(lines.iter().any(|l| l == "counter requests 1"));
        for stage in [
            "parse",
            "queue",
            "exec",
            "total",
            "publish",
            "reply_wait",
            "writer_wait",
            "checkpoint",
        ] {
            assert!(lines.iter().any(|l| l.contains(&format!("latency {stage} "))));
        }
    }
}
