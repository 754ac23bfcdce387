//! The request edge: reply slots — the one place a response is handed
//! over — the in-process [`Client`] handle, which answers what cannot
//! block on the submitting thread and applies admission control to the
//! rest, and the worker pool.

use super::handlers::{edge_reply, execute};
use super::Shared;
use crate::metrics::{Histogram, Metrics};
use crate::protocol::{ErrKind, Request, Response};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A single-use reply rendezvous between the thread that produces a
/// response (a worker, or a group committer after publish) and the
/// session, which blocks in [`ReplySlot::wait`] or forwards the slot to
/// its writer ([`PendingReply::forward`]) so that delivery sends the
/// tagged frame on. Giving up (a waiter's timeout, a writer's expiry)
/// marks the slot abandoned under the lock delivery checks: a response
/// that races a timeout is handed over or knowingly dropped — never
/// stranded in a channel whose last endpoint is about to drop (which the
/// sanitizer reports as a leak).
pub(crate) struct ReplySlot {
    state: Mutex<SlotState>,
    delivered: Condvar,
}

enum SlotState {
    /// No response yet; the session may still be waiting.
    Empty,
    /// The worker's response and when it was delivered, awaiting pickup.
    Ready(Response, Instant),
    /// No response yet, and none is waited for: delivery sends it on.
    Forward(Forward),
    /// The session timed out (or already picked up); deliveries are
    /// discarded from here on.
    Abandoned,
}

/// Where a forwarded response goes: its session's writer, under its tag.
struct Forward {
    tag: String,
    out: Sender<Outbound>,
    shared: Arc<Shared>,
    started: Instant,
}

impl Forward {
    /// Complete the request — `None`: it timed out — and send its tagged
    /// frame to the writer. Never called under the slot lock.
    fn send(self, resp: Option<Response>) {
        let resp = finish(&self.shared, self.started, resp);
        // The writer exits only once every sender, this one too, is gone.
        let _ = self.out.send(Outbound::frame(Some(self.tag), resp));
    }
}

impl ReplySlot {
    pub(crate) fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            state: Mutex::new(SlotState::Empty),
            delivered: Condvar::new(),
        })
    }

    /// Producer side: hand over the response — to the waiter, or on to a
    /// forwarded slot's writer. Discarded if the session already gave up:
    /// the contract of a dropped receiver, minus the leaked queue entry.
    pub(crate) fn deliver(&self, resp: Response) {
        let mut st = self.state.lock();
        match std::mem::replace(&mut *st, SlotState::Abandoned) {
            SlotState::Empty => {
                *st = SlotState::Ready(resp, Instant::now());
                drop(st);
                self.delivered.notify_one();
            }
            SlotState::Forward(fwd) => {
                drop(st);
                fwd.send(Some(resp));
            }
            taken => *st = taken,
        }
    }

    /// Session side: block until the response lands or `timeout` elapses,
    /// abandoning the slot on timeout. How long the response sat
    /// delivered before this pickup is recorded in `reply_wait`.
    pub(crate) fn wait(&self, timeout: Duration, reply_wait: &Histogram) -> Option<Response> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            // A waited-on slot is `Empty` until delivery makes it `Ready`.
            if let SlotState::Ready(resp, delivered) =
                std::mem::replace(&mut *st, SlotState::Abandoned)
            {
                reply_wait.record(delivered.elapsed());
                return Some(resp);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            *st = SlotState::Empty;
            let _ = self.delivered.wait_for(&mut st, deadline - now);
        }
    }

    /// Session side, instead of [`ReplySlot::wait`]: delivery will send the
    /// response on through `fwd`. `false`: it had already landed and is
    /// sent right here — no deadline to keep.
    fn forward(&self, fwd: Forward) -> bool {
        let mut st = self.state.lock();
        if let SlotState::Ready(resp, _) = std::mem::replace(&mut *st, SlotState::Abandoned) {
            drop(st);
            fwd.send(Some(resp));
            return false;
        }
        *st = SlotState::Forward(fwd);
        true
    }

    /// Writer side, at a forwarded request's deadline: if still
    /// unanswered, answer `TIMEOUT` now; a late delivery is discarded.
    pub(crate) fn expire(&self) {
        let mut st = self.state.lock();
        if let SlotState::Forward(fwd) = std::mem::replace(&mut *st, SlotState::Abandoned) {
            drop(st);
            fwd.send(None);
        }
    }

    /// Whether this slot was forwarded and is still unanswered.
    pub(crate) fn is_forwarded(&self) -> bool {
        matches!(*self.state.lock(), SlotState::Forward(_))
    }
}

/// The one place a request's completion is recorded — its `total` sample,
/// `errors`, `timeouts` — by a waiter, a forwarded delivery or a writer's
/// expiry, exactly once. `None` means no reply within the request
/// timeout: the `TIMEOUT` response is made here.
fn finish(shared: &Shared, started: Instant, resp: Option<Response>) -> Response {
    let m = &shared.metrics;
    let resp = resp.unwrap_or_else(|| {
        Metrics::bump(&m.timeouts);
        Response::err(
            ErrKind::Timeout,
            format!("no reply within {:?}", shared.cfg.request_timeout),
        )
    });
    m.total.record(started.elapsed());
    if resp.is_error() {
        Metrics::bump(&m.errors);
    }
    resp
}

/// A queued unit of work.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) reply: Arc<ReplySlot>,
    pub(crate) enqueued: Instant,
}

impl Job {
    /// Worker side: execute the request and deliver its response.
    pub(crate) fn run(self, shared: &Arc<Shared>) {
        shared.metrics.queue.record(self.enqueued.elapsed());
        // A write to a WAL-owning shard returns `None` here — it was
        // staged, and the group committer delivers the ack once the
        // record is on disk.
        if let Some(resp) = execute(shared, self.req, &self.reply) {
            // The session may have timed out and gone; the slot discards.
            self.reply.deliver(resp);
        }
    }
}

/// What a session's writer thread receives.
pub(crate) enum Outbound {
    /// A response frame to write, with its tag and when it entered the
    /// channel (`latency writer_wait`).
    Frame(Option<String>, Response, Instant),
    /// A tagged request forwarded to this slot: unless it is answered by
    /// the deadline, the writer expires it.
    Deadline(Instant, Arc<ReplySlot>),
}

impl Outbound {
    pub(crate) fn frame(tag: Option<String>, resp: Response) -> Outbound {
        Outbound::Frame(tag, resp, Instant::now())
    }
}

/// An in-process session handle. Cloning is cheap; every clone shares the
/// service's queue, caches, and metrics.
#[derive(Clone)]
pub struct Client {
    pub(crate) shared: Arc<Shared>,
    pub(super) tx: Sender<Job>,
}

/// An in-flight request: the submission half has already happened (with
/// admission control applied); [`PendingReply::wait`] blocks for the
/// response, enforcing the configured request timeout, or a TCP session
/// forwards it to its writer thread. That is what lets a pipelined
/// session keep reading new requests while earlier ones execute.
pub struct PendingReply {
    shared: Arc<Shared>,
    started: Instant,
    /// The request was `QUIT`: the session ends once this is answered.
    quit: bool,
    state: PendingState,
}

enum PendingState {
    /// Resolved at submission time: answered at the edge, or a parse
    /// error, BUSY, shutdown.
    Ready(Response),
    /// A worker (or a group committer) will deliver the response here.
    Waiting(Arc<ReplySlot>),
}

impl PendingReply {
    fn ready(shared: Arc<Shared>, started: Instant, resp: Response) -> PendingReply {
        PendingReply {
            shared,
            started,
            quit: false,
            state: PendingState::Ready(resp),
        }
    }

    /// Whether the response is already here, so [`PendingReply::wait`]
    /// returns without blocking.
    pub(crate) fn is_ready(&self) -> bool {
        matches!(self.state, PendingState::Ready(_))
    }

    /// Whether the request was `QUIT`.
    pub(crate) fn is_quit(&self) -> bool {
        self.quit
    }

    /// Block until the response arrives (or the request timeout elapses),
    /// recording end-to-end latency and error metrics exactly once.
    pub fn wait(self) -> Response {
        let resp = match self.state {
            PendingState::Ready(resp) => Some(resp),
            PendingState::Waiting(slot) => slot.wait(
                self.shared.cfg.request_timeout,
                &self.shared.metrics.reply_wait,
            ),
        };
        finish(&self.shared, self.started, resp)
    }

    /// Hand the response to a session's writer instead of waiting for it:
    /// whoever delivers it sends the frame, tagged `tag`, into `out`, and
    /// the writer gets the deadline (`started + request_timeout`) at which
    /// it answers `TIMEOUT` itself.
    pub(crate) fn forward(self, tag: String, out: &Sender<Outbound>) {
        let deadline = self.started + self.shared.cfg.request_timeout;
        let fwd = Forward {
            tag,
            out: out.clone(),
            shared: self.shared,
            started: self.started,
        };
        match self.state {
            PendingState::Ready(resp) => fwd.send(Some(resp)),
            PendingState::Waiting(slot) => {
                if slot.forward(fwd) {
                    let _ = out.send(Outbound::Deadline(deadline, slot));
                }
            }
        }
    }
}

impl Client {
    /// Parse one protocol line and execute it, honoring admission control
    /// and the request timeout. Never blocks longer than the configured
    /// timeout (plus queue admission, which is immediate).
    pub fn request_line(&self, line: &str) -> Response {
        let (_tag, pending) = self.begin_line(line);
        pending.wait()
    }

    /// Submit an already-parsed request and block for the response.
    pub fn submit(&self, req: Request) -> Response {
        self.begin(req).wait()
    }

    /// Parse one protocol line — including an optional `#<id>` pipelining
    /// tag — and submit it without blocking for the response. Returns the
    /// tag (to match the eventual response to its request) and the
    /// in-flight handle.
    pub fn begin_line(&self, line: &str) -> (Option<String>, PendingReply) {
        let m = &self.shared.metrics;
        let started = Instant::now();
        let (tag, parsed) = crate::protocol::parse_tagged_request(line);
        m.parse.record(started.elapsed());
        if tag.is_some() {
            Metrics::bump(&m.pipelined);
        }
        match parsed {
            Ok(req) => (tag, self.begin(req)),
            Err(e) => {
                Metrics::bump(&m.requests);
                (
                    tag,
                    PendingReply::ready(Arc::clone(&self.shared), started, e.into()),
                )
            }
        }
    }

    /// Submit an already-parsed request without blocking for the
    /// response. A request that cannot block — a probe verb, or a
    /// current-version query whose result is cached — is answered right
    /// here, on the caller's thread, and takes no queue slot. Admission
    /// control applies immediately to everything else: a full queue
    /// resolves the reply to `BUSY` before this returns.
    pub fn begin(&self, req: Request) -> PendingReply {
        let m = &self.shared.metrics;
        Metrics::bump(&m.requests);
        Metrics::bump(if req.is_read() { &m.reads } else { &m.writes });
        let started = Instant::now();
        let quit = matches!(req, Request::Quit);
        let state = if !self.shared.accepting.load(Ordering::SeqCst) {
            PendingState::Ready(Response::err(ErrKind::Internal, "service is shutting down"))
        } else if let Some(resp) = edge_reply(&self.shared, &req) {
            Metrics::bump(&m.inline_replies);
            PendingState::Ready(resp)
        } else {
            self.enqueue(req)
        };
        PendingReply {
            shared: Arc::clone(&self.shared),
            started,
            quit,
            state,
        }
    }

    /// Admission control: hand `req` to the worker pool, or resolve it
    /// to `BUSY` on the spot when the queue is full.
    fn enqueue(&self, req: Request) -> PendingState {
        let slot = ReplySlot::new();
        let job = Job {
            req,
            reply: Arc::clone(&slot),
            enqueued: Instant::now(),
        };
        match self.tx.try_send(job) {
            Err(channel::TrySendError::Full(_)) => {
                Metrics::bump(&self.shared.metrics.busy_rejected);
                PendingState::Ready(Response::err(ErrKind::Busy, "request queue full, try again"))
            }
            Err(channel::TrySendError::Disconnected(_)) => {
                PendingState::Ready(Response::err(ErrKind::Internal, "service is shut down"))
            }
            Ok(()) => PendingState::Waiting(slot),
        }
    }

    /// Convenience: run a query and return its canonical row strings.
    pub fn query(&self, db: &str, text: &str) -> Result<Vec<String>, (ErrKind, String)> {
        match self.request_line(&format!("QUERY {db} {text}")) {
            Response::Rows(rows) => Ok(rows),
            Response::Ok(msg) => Ok(vec![msg]),
            Response::Error { kind, message } => Err((kind, message)),
        }
    }
}

/// A worker: run every job from `rx` until the channel disconnects or an
/// idle tick finds `stop` set — which means the queue has drained:
/// shutdown processes everything already admitted. The final non-blocking
/// sweep closes the window where a job admitted just before the flag
/// flipped would otherwise be stranded in the queue when the last
/// receiver drops.
pub(crate) fn worker_loop(rx: &Receiver<Job>, stop: &AtomicBool, shared: &Arc<Shared>) {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => job.run(shared),
            Err(RecvTimeoutError::Timeout) if !stop.load(Ordering::SeqCst) => {}
            Err(_) => {
                while let Ok(job) = rx.try_recv() {
                    job.run(shared);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::service::testing::guide_service;
    use crate::{ErrKind, Response, ServeConfig};
    use std::sync::atomic::Ordering;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn admission_control_rejects_when_queue_full() {
        // Zero workers is not allowed, so wedge the single worker with a
        // write while the queue (depth 1) fills up.
        let svc = guide_service(ServeConfig {
            workers: 1,
            queue_depth: 1,
            request_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        });
        let c = svc.client();
        // Saturate: submit from threads that will block on the reply.
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(thread::spawn(move || {
                c.request_line("QUERY guide select guide.restaurant")
            }));
        }
        let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let busy = responses
            .iter()
            .filter(|r| matches!(r, Response::Error { kind: ErrKind::Busy, .. }))
            .count();
        let ok = responses.iter().filter(|r| !r.is_error()).count();
        assert!(ok >= 1, "at least one query must get through: {responses:?}");
        // With 8 submitters, 1 worker and queue depth 1, rejections are
        // not guaranteed on any single run — but the busy counter must
        // agree with what we observed.
        assert_eq!(
            svc.metrics().busy_rejected.load(Ordering::Relaxed),
            busy as u64
        );
        svc.shutdown();
    }
}
