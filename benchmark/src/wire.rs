//! The wire run: two connections on two threads drive a real `doem-serve`
//! through [`crate::client::Client`], closed loop, pulling ops from one shared
//! index. Everything an end-to-end metric is made of is observed here,
//! from the client's side of the socket.

use crate::client::Client;
use crate::script::{Class, Op, DB};
use serve::Response;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Generator threads, one connection each — the box has 2 cores, and the
/// server's 2 workers already want both.
pub const CONNECTIONS: usize = 2;

/// One in `ASOF_SAMPLE_EVERY` `AS OF` responses is kept, rows and all, and
/// checked against the shadow database after the run — the only way to
/// check an answer the ring served *while* it was being pushed and GC'd.
const ASOF_SAMPLE_EVERY: usize = 64;

/// The committed LSNs the generator knows of, ascending: the loaded
/// history, then every acknowledged write. `AS OF` ops resolve "`back`
/// versions behind the newest ack" against it at send time.
#[derive(Debug, Default)]
pub struct Lsns(Mutex<Vec<i64>>);

impl Lsns {
    /// Start from the loaded history's LSNs (ascending).
    pub fn new(loaded: Vec<i64>) -> Lsns {
        Lsns(Mutex::new(loaded))
    }

    fn push(&self, lsn: i64) {
        let mut v = self.0.lock().expect("no panics while held");
        // Acks from the two connections can arrive out of order by one.
        let at = v.partition_point(|&x| x < lsn);
        v.insert(at, lsn);
    }

    /// The LSN `back` versions behind the newest known.
    pub fn behind(&self, back: u32) -> i64 {
        let v = self.0.lock().expect("no panics while held");
        v[v.len() - 1 - back as usize]
    }

    /// A copy of the ascending list.
    pub fn snapshot(&self) -> Vec<i64> {
        self.0.lock().expect("no panics while held").clone()
    }
}

/// An `AS OF` answer kept for the post-run check.
#[derive(Clone, Debug)]
pub struct AsOfSample {
    /// Index into the script's texts.
    pub text: u32,
    /// The point queried.
    pub lsn: i64,
    /// The rows the server returned.
    pub rows: Vec<String>,
}

/// What one connection observed.
#[derive(Debug, Default)]
struct Observed {
    latencies: BTreeMap<Class, Vec<u64>>,
    failed: u64,
    first_failure: Option<String>,
    acked: Vec<(i64, usize)>,
    asof: Vec<AsOfSample>,
}

/// What the whole measured phase observed.
#[derive(Debug)]
pub struct WireRun {
    /// Client-observed latency per class, nanoseconds, ascending.
    pub latencies: BTreeMap<Class, Vec<u64>>,
    /// Ops sent.
    pub attempted: u64,
    /// Ops answered `ERR` (or not at all).
    pub failed: u64,
    /// The first failure's text, for the error message.
    pub first_failure: Option<String>,
    /// Wall time from the start barrier to the last reply.
    pub elapsed: Duration,
    /// Acknowledged writes as `(lsn, index into the op list)`.
    pub acked: Vec<(i64, usize)>,
    /// Sampled `AS OF` answers.
    pub asof: Vec<AsOfSample>,
}

/// Parse the LSN out of `applied <n> ops at <ts>; generation <g>`.
pub fn ack_lsn(message: &str) -> Option<i64> {
    let (_, tail) = message.split_once(" at ")?;
    let (ts, _) = tail.split_once(';')?;
    ts.trim()
        .parse::<oem::Timestamp>()
        .ok()
        .map(|t| t.raw_minutes())
}

/// The request line for `op` (tag excluded).
fn request_line(op: &Op, texts: &[String], lsns: &Lsns) -> (String, Option<i64>) {
    match op {
        Op::Read { text } => (format!("QUERY {DB} {}", texts[*text as usize]), None),
        Op::AsOf { text, back } => {
            let lsn = lsns.behind(*back);
            (
                format!("QUERY {DB} AS OF {lsn} {}", texts[*text as usize]),
                Some(lsn),
            )
        }
        Op::Write { changes } => (format!("UPDATE {DB} AT now ; {changes}"), None),
    }
}

impl Observed {
    fn record(
        &mut self,
        index: usize,
        op: &Op,
        asof_lsn: Option<i64>,
        sent: Instant,
        resp: Response,
        lsns: &Lsns,
    ) {
        let nanos = sent.elapsed().as_nanos() as u64;
        match (op, resp) {
            (_, Response::Error { kind, message }) => {
                self.failed += 1;
                self.first_failure.get_or_insert_with(|| {
                    format!("op {index} {op:?}: ERR {} {message}", kind.code())
                });
            }
            (Op::Write { .. }, Response::Ok(message)) => match ack_lsn(&message) {
                Some(lsn) => {
                    lsns.push(lsn);
                    self.acked.push((lsn, index));
                    self.latencies.entry(Class::Write).or_default().push(nanos);
                }
                None => {
                    self.failed += 1;
                    self.first_failure
                        .get_or_insert_with(|| format!("op {index}: unparseable ack {message:?}"));
                }
            },
            (Op::Read { .. } | Op::AsOf { .. }, Response::Rows(rows)) => {
                self.latencies.entry(op.class()).or_default().push(nanos);
                if let (Op::AsOf { text, .. }, Some(lsn)) = (op, asof_lsn) {
                    if index.is_multiple_of(ASOF_SAMPLE_EVERY) {
                        self.asof.push(AsOfSample {
                            text: *text,
                            lsn,
                            rows,
                        });
                    }
                }
            }
            (_, other) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("op {index} {op:?}: unexpected {other:?}"));
            }
        }
    }
}

/// One connection's closed loop. With `depth == 1` requests are untagged
/// and strictly serial; otherwise up to `depth` tagged requests are kept
/// in flight and matched to replies by tag.
fn connection_loop(
    addr: SocketAddr,
    ops: &[Op],
    texts: &[String],
    next: &AtomicUsize,
    lsns: &Lsns,
    depth: usize,
    start: &Barrier,
) -> io::Result<Observed> {
    let mut client = Client::connect(addr)?;
    let mut seen = Observed::default();
    start.wait();
    if depth <= 1 {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(op) = ops.get(i) else { break };
            let (line, asof) = request_line(op, texts, lsns);
            let sent = Instant::now();
            let resp = client.roundtrip(&line)?;
            seen.record(i, op, asof, sent, resp, lsns);
        }
        return Ok(seen);
    }
    let mut in_flight: Vec<(usize, Option<i64>, Instant)> = Vec::with_capacity(depth);
    let mut exhausted = false;
    loop {
        while !exhausted && in_flight.len() < depth {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(op) = ops.get(i) else {
                exhausted = true;
                break;
            };
            let (line, asof) = request_line(op, texts, lsns);
            let sent = Instant::now();
            client.send(&format!("#{i} {line}"))?;
            in_flight.push((i, asof, sent));
        }
        if in_flight.is_empty() {
            return Ok(seen);
        }
        let (tag, resp) = client.recv()?;
        let slot = tag
            .and_then(|t| t.parse::<usize>().ok())
            .and_then(|i| in_flight.iter().position(|f| f.0 == i))
            .ok_or_else(|| io::Error::other("reply with a tag that is not in flight"))?;
        let (i, asof, sent) = in_flight.swap_remove(slot);
        seen.record(i, &ops[i], asof, sent, resp, lsns);
    }
}

/// Run `ops` against the server at `addr` from [`CONNECTIONS`] threads.
/// A connection-level failure aborts the run with an error; a request
/// answered `ERR` is counted in `failed` and the run goes on.
pub fn run(
    addr: SocketAddr,
    ops: &[Op],
    texts: &[String],
    lsns: &Lsns,
    depth: usize,
    connections: usize,
) -> io::Result<WireRun> {
    let next = AtomicUsize::new(0);
    let start = Barrier::new(connections + 1);
    let (observed, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| s.spawn(|| connection_loop(addr, ops, texts, &next, lsns, depth, &start)))
            .collect();
        start.wait();
        let began = Instant::now();
        let observed: Vec<io::Result<Observed>> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (observed, began.elapsed())
    });
    let mut run = WireRun {
        latencies: BTreeMap::new(),
        attempted: ops.len() as u64,
        failed: 0,
        first_failure: None,
        elapsed,
        acked: Vec::new(),
        asof: Vec::new(),
    };
    for seen in observed {
        let seen = seen?;
        for (class, mut v) in seen.latencies {
            run.latencies.entry(class).or_default().append(&mut v);
        }
        run.failed += seen.failed;
        run.first_failure = run.first_failure.or(seen.first_failure);
        run.acked.extend(seen.acked);
        run.asof.extend(seen.asof);
    }
    for v in run.latencies.values_mut() {
        v.sort_unstable();
    }
    run.acked.sort_unstable();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_lsns_round_trip_through_the_timestamp_spelling() {
        let t: oem::Timestamp = "3Mar97 4:05pm".parse().unwrap();
        let msg = format!("applied 2 ops at {t}; generation 9");
        assert_eq!(ack_lsn(&msg), Some(t.raw_minutes()));
        // `AT now` stamps unix minutes onto a 1990 epoch, landing in the 2040s.
        let now = oem::Timestamp::from_raw_minutes(29_300_000);
        assert_eq!(
            ack_lsn(&format!("applied 1 ops at {now}; generation 2")),
            Some(29_300_000)
        );
        assert_eq!(ack_lsn("created bench; generation 1"), None);
    }

    #[test]
    fn lsns_stay_sorted_and_resolve_from_the_newest() {
        let l = Lsns::new(vec![10, 20, 30]);
        l.push(50);
        l.push(40);
        assert_eq!(l.snapshot(), vec![10, 20, 30, 40, 50]);
        assert_eq!(l.behind(0), 50);
        assert_eq!(l.behind(3), 20);
    }
}
