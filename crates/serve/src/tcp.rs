//! The TCP front end: a nonblocking accept loop handing each connection
//! to a thread that speaks the line protocol through an in-process
//! [`Client`](crate::Client). Sessions multiplex onto the same worker
//! pool, caches, and metrics as in-process clients — the wire adds framing
//! and **pipelining**, nothing else.
//!
//! Pipelining: each connection separates its reader from execution. The
//! session thread parses and submits requests; requests tagged `#<id>`
//! complete out of order (the tag comes back on the response's first
//! line), untagged requests keep the classic contract — the reader blocks
//! on each one, so their responses return in submission order. Nobody
//! waits for a tagged response: its reply slot is **forwarded**, and
//! whoever delivers it sends the tagged frame straight to the session's
//! writer, which also answers `TIMEOUT` for one that misses its deadline.
//!
//! Output: a session writes its frames itself — a request answered at the
//! edge costs no thread hand-off at all — until its first tagged request
//! that has to wait. From then on every frame funnels through a writer
//! thread, coalesced into one `write_all` per burst. A serial session is
//! one thread; a pipelined one, two, however deep it pipelines.
//!
//! [`WireClient`] is the synchronous client side of the same protocol. It
//! does not reconnect or resend: a connection failure surfaces to the
//! caller (the follower loop's backoff handles it for replication).

use crate::lock_order::{Mutex, Sessions, Token, Unlocked};
use crate::metrics::Metrics;
use crate::protocol::{ErrKind, Response};
use crate::service::{Client, Outbound, ReplySlot, Service, Shared};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use sanitizer::thread::{spawn_tracked, TrackedHandle};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The longest request line a session reads, in bytes, newline not
/// counted. A longer line is answered `ERR SYNTAX` and its session closed:
/// nothing after it can be framed, and reading on would let one client
/// grow a buffer without limit. The largest line the benchmark sends —
/// its base `UPDATE`, which creates the whole initial guide — is 16,139
/// bytes, 65 times below the cap.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Live session sockets, so dropping the [`TcpHandle`] can sever them —
/// a stopped endpoint must look to clients like a server that went away,
/// not one that silently stopped listening. Sessions deregister
/// themselves when they end.
type SessionRegistry = Arc<Mutex<Sessions, HashMap<u64, TcpStream>>>;

/// Handle on a listening TCP endpoint. Dropping it stops the endpoint:
/// it stops accepting, joins the accept loop, and closes every open
/// session socket — connected clients observe a connection reset / EOF,
/// exactly as if the server process had exited.
pub struct TcpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<TrackedHandle<()>>,
    sessions: SessionRegistry,
}

impl TcpHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TcpHandle {
    fn drop(&mut self) {
        let unlocked = &mut Token::mint();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = unlocked.blocking(|| t.join());
        }
        // Drain under the lock, shut down outside it: session threads
        // take this lock to deregister, so issuing socket syscalls while
        // holding it would stall their exit.
        let sessions: Vec<_> = self.sessions.lock(unlocked).drain().collect();
        for (_, stream) in sessions {
            let _ = unlocked.blocking(|| stream.shutdown(Shutdown::Both));
        }
    }
}

impl Service {
    /// Listen on `addr` (e.g. `127.0.0.1:0`) and serve the line protocol.
    pub fn listen(&self, addr: impl ToSocketAddrs) -> std::io::Result<TcpHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let sessions: SessionRegistry = Arc::new(Mutex::new(HashMap::new()));
        let loop_stop = Arc::clone(&stop);
        let loop_sessions = Arc::clone(&sessions);
        let client = self.client();
        let accept = spawn_tracked("serve-accept", move || {
            accept_loop(
                &listener,
                &client,
                &loop_stop,
                &loop_sessions,
                &mut Token::mint(),
            );
        })?;
        Ok(TcpHandle {
            addr: local,
            stop,
            accept: Some(accept),
            sessions,
        })
    }
}

/// Accept connections until the endpoint is stopped or the service
/// behind it shuts down.
fn accept_loop(
    listener: &TcpListener,
    client: &Client,
    stop: &AtomicBool,
    sessions: &SessionRegistry,
    unlocked: &mut Token<Unlocked>,
) {
    let next_id = AtomicU64::new(0);
    while !stop.load(Ordering::SeqCst) && !client.shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                Metrics::bump(&client.shared.metrics.sessions);
                let session = client.clone();
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    sessions.lock(unlocked).insert(id, clone);
                }
                let registry = Arc::clone(sessions);
                // Sessions are deliberately unsupervised: they end at EOF
                // or when dropping the `TcpHandle` severs their socket, and
                // nothing needs their result — detach, don't leak.
                if let Ok(h) = spawn_tracked("serve-session", move || {
                    let unlocked = &mut Token::mint();
                    let _ = serve_connection(stream, &session, unlocked);
                    registry.lock(unlocked).remove(&id);
                }) {
                    h.detach();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                unlocked.blocking(|| thread::sleep(Duration::from_millis(2)));
            }
            Err(_) => break,
        }
    }
}

/// Where a session's response frames go.
enum SessionOut {
    /// No tagged request has had to wait yet: the session thread owns
    /// the socket's write half and writes each frame itself.
    Direct(TcpStream),
    /// A tagged request went to the pool, so frames may now complete on
    /// other threads: every frame funnels through the writer thread.
    Writer(Sender<Outbound>, TrackedHandle<()>),
}

impl SessionOut {
    /// Send one frame that is ready now, from the session thread.
    fn send(
        &mut self,
        tag: Option<String>,
        resp: Response,
        unlocked: &mut Token<Unlocked>,
    ) -> std::io::Result<()> {
        match self {
            SessionOut::Direct(socket) => {
                let frame = resp.render_tagged(tag.as_deref());
                unlocked.blocking(|| socket.write_all(frame.as_bytes()))
            }
            SessionOut::Writer(tx, _) => tx
                .send(Outbound::frame(tag, resp))
                .map_err(|_| std::io::ErrorKind::BrokenPipe.into()),
        }
    }

    /// The writer channel and thread, started on first use with the
    /// socket's write half.
    fn into_writer(
        self,
        shared: &Arc<Shared>,
    ) -> std::io::Result<(Sender<Outbound>, TrackedHandle<()>)> {
        match self {
            SessionOut::Writer(tx, thread) => Ok((tx, thread)),
            SessionOut::Direct(socket) => {
                let (tx, rx) = channel::unbounded::<Outbound>();
                let writer_shared = Arc::clone(shared);
                let thread = spawn_tracked("serve-session-writer", move || {
                    writer_loop(socket, &rx, &writer_shared.metrics, &mut Token::mint())
                })?;
                Metrics::bump(&shared.metrics.session_writers);
                Ok((tx, thread))
            }
        }
    }
}

/// Stop gathering a burst once it is this large: bounds the buffer and
/// how long the burst's first frame waits for its last.
const BURST_BYTES: usize = 64 * 1024;

/// Body of a session's writer thread: gather every frame already queued
/// into one buffer and issue one `write_all` per burst, so the riders of a
/// group-commit batch leave in one segment. Forwarded requests' deadlines
/// arrive in submission order; a slot still unanswered at its deadline is
/// expired, which answers it `TIMEOUT` through this channel. Exits once
/// every sender — the session's, and each forwarded slot's — is gone.
fn writer_loop(
    mut socket: TcpStream,
    rx: &Receiver<Outbound>,
    metrics: &Metrics,
    unlocked: &mut Token<Unlocked>,
) {
    // Once the socket dies, keep consuming (and discarding) frames until
    // every sender is gone: a delivery must never strand its response in
    // a queue whose receiver dropped (the sanitizer reports that as a
    // channel leak).
    let mut socket_dead = false;
    let mut deadlines: VecDeque<(Instant, Arc<ReplySlot>)> = VecDeque::new();
    let mut burst = Vec::new();
    let mut queued = Vec::new();
    loop {
        // Forget the requests already answered; expire the overdue ones.
        let now = Instant::now();
        while let Some((deadline, slot)) = deadlines.front() {
            if *deadline <= now {
                slot.expire(unlocked);
            } else if slot.is_forwarded(unlocked) {
                break;
            }
            deadlines.pop_front();
        }
        let first = match deadlines.front() {
            Some((deadline, _)) => unlocked.blocking(|| rx.recv_timeout(*deadline - now)),
            None => unlocked
                .blocking(|| rx.recv())
                .map_err(|_| RecvTimeoutError::Disconnected),
        };
        let mut next = match first {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        while let Some(msg) = next.take() {
            match msg {
                Outbound::Frame(tag, resp, at) => {
                    burst.extend_from_slice(resp.render_tagged(tag.as_deref()).as_bytes());
                    queued.push(at);
                }
                Outbound::Deadline(at, slot) => deadlines.push_back((at, slot)),
            }
            if burst.len() < BURST_BYTES {
                next = rx.try_recv().ok();
            }
        }
        if burst.is_empty() {
            continue;
        }
        if !socket_dead && unlocked.blocking(|| socket.write_all(&burst)).is_ok() {
            Metrics::bump(&metrics.writer_bursts);
            for at in &queued {
                metrics.writer_wait.record(at.elapsed());
            }
        } else {
            socket_dead = true;
        }
        burst.clear();
        queued.clear();
    }
}

/// Drive one connection: read request lines, write response frames. Ends
/// at EOF, on a write error, or after `QUIT`.
///
/// The reader submits each request through [`Client::begin_line`] and
/// sends every ready or untagged response from this thread. The first
/// tagged request that has to wait starts the session's writer thread;
/// from then on every frame goes through it, so frames never interleave
/// and no worker or committer ever blocks on a client socket. Joining the
/// writer is the connection's drain barrier.
fn serve_connection(
    stream: TcpStream,
    client: &Client,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    // Reply frames are small and the peer may only be reading: never
    // hold one back for the previous segment's ACK.
    stream.set_nodelay(true)?;
    let mut out = SessionOut::Direct(stream.try_clone()?);
    let mut reader = BufReader::new(stream);

    // A read or write error (severed socket, reset mid-line) must still
    // flow through the drain barrier below — an early return with the
    // writer running would drop its handle unjoined and strand it.
    let mut result = Ok(());
    loop {
        let mut buf = Vec::new();
        let mut capped = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match unlocked.blocking(|| capped.read_until(b'\n', &mut buf)) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                result = Err(e);
                break;
            }
        }
        if buf.pop_if(|b| *b == b'\n').is_some() {
            buf.pop_if(|b| *b == b'\r');
        } else if buf.len() > MAX_LINE_BYTES {
            let msg =
                format!("request line longer than {MAX_LINE_BYTES} bytes; closing the session");
            result = out.send(None, Response::err(ErrKind::Syntax, msg), unlocked);
            break;
        }
        let line = match String::from_utf8(buf) {
            Ok(line) => line,
            Err(e) => {
                result = Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (tag, pending) = client.begin_line(&line);
        let quit = pending.is_quit();
        let sent = match tag {
            // Tagged and still in flight: forward it. The slot holds its
            // own sender clone until delivery or expiry.
            Some(tag) if !pending.is_ready() => {
                // `?`: only a failed spawn errs, and then there is no
                // writer to drain.
                let (tx, thread) = out.into_writer(&client.shared)?;
                pending.forward(tag, &tx, unlocked);
                out = SessionOut::Writer(tx, thread);
                Ok(())
            }
            // Ready, or untagged: wait here — blocking the reader is
            // what preserves serial ordering — and send.
            tag => out.send(tag, pending.wait(), unlocked),
        };
        if let Err(e) = sent {
            result = Err(e);
            break;
        }
        if quit {
            break;
        }
    }
    // Release our sender; the writer exits after the last forwarded
    // response is delivered or expired and its sender dropped.
    if let SessionOut::Writer(tx, thread) = out {
        drop(tx);
        let _ = unlocked.blocking(|| thread.join());
    }
    result
}

/// A minimal synchronous wire client: connect, send a line, read a frame.
/// Used by the test suite and handy for scripting against `doem-serve`.
/// [`WireClient::set_timeout`] bounds every send and receive.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    /// Connect to a listening service (no timeout).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        // Request lines are small and each waits for its answer: never
        // hold one back for the previous segment's ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(WireClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Bound every subsequent send and receive (`None` blocks forever).
    /// A request that overruns surfaces as a `WouldBlock`/`TimedOut`
    /// I/O error.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// Send one request line and read the matching response frame.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<Response> {
        self.send(line)?;
        Ok(self.recv()?.1)
    }

    /// Send one request line without waiting for the response. Tag lines
    /// with `#<id> ` to pipeline; responses then come back via
    /// [`WireClient::recv`] in completion order.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        // One write per request: a line split across two segments waits
        // out the peer's delayed ACK (~40 ms) before the second is sent.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)
    }

    /// Read the next response frame, returning its pipelining tag (if
    /// any) alongside the response.
    pub fn recv(&mut self) -> std::io::Result<(Option<String>, Response)> {
        Response::read_tagged_from(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed connection")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use oem::guide::{guide_figure2, history_example_2_3};

    #[test]
    fn tcp_round_trips_match_in_process() {
        let svc = Service::start(ServeConfig::default()).unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        let handle = svc.listen("127.0.0.1:0").unwrap();

        let mut wire = WireClient::connect(handle.addr()).unwrap();
        let local = svc.client();
        for line in [
            "PING",
            "DBS",
            "QUERY guide select guide.restaurant",
            "QUERY guide select guide.restaurant<add at T>",
            "BOGUS verb",
        ] {
            let over_wire = wire.roundtrip(line).unwrap();
            let in_process = local.request_line(line);
            assert_eq!(over_wire, in_process, "divergence on {line:?}");
        }
        assert_eq!(wire.roundtrip("QUIT").unwrap(), Response::Ok("bye".into()));
        drop(handle);
        svc.shutdown();
    }

    #[test]
    fn serial_round_trips_do_not_wait_out_delayed_acks() {
        // A request split across two segments costs a ~40 ms delayed-ACK
        // wait per round trip (Nagle holds the second segment): 50 serial
        // PINGs then take ~2 s instead of milliseconds.
        let svc = Service::start(ServeConfig::default()).unwrap();
        let handle = svc.listen("127.0.0.1:0").unwrap();
        let mut wire = WireClient::connect(handle.addr()).unwrap();
        let began = std::time::Instant::now();
        for _ in 0..50 {
            assert_eq!(wire.roundtrip("PING").unwrap(), Response::Ok("pong".into()));
        }
        let elapsed = began.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "50 PINGs took {elapsed:?}"
        );
        drop(handle);
        svc.shutdown();
    }

    #[test]
    fn pipelined_bursts_do_not_wait_out_delayed_acks() {
        // The mirror image, on the server's side: a client that writes a
        // burst and then only reads sends no data for the server's small
        // reply frames to ride on, so without `TCP_NODELAY` on the
        // accepted socket Nagle holds each one for the previous ACK.
        let svc = Service::start(ServeConfig::default()).unwrap();
        let handle = svc.listen("127.0.0.1:0").unwrap();
        let mut wire = WireClient::connect(handle.addr()).unwrap();
        for round in 0..10 {
            let burst: String = (0..64).map(|i| format!("#r{round}-{i} PING\n")).collect();
            let began = std::time::Instant::now();
            wire.writer.write_all(burst.as_bytes()).unwrap();
            let mut tags: Vec<String> = (0..64)
                .map(|_| {
                    let (tag, resp) = wire.recv().unwrap();
                    assert_eq!(resp, Response::Ok("pong".into()));
                    tag.expect("tagged request must get a tagged response")
                })
                .collect();
            let elapsed = began.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "round {round}: 64 pipelined PINGs took {elapsed:?}"
            );
            tags.sort();
            tags.dedup();
            assert_eq!(tags.len(), 64, "every tag exactly once");
        }
        drop(handle);
        svc.shutdown();
    }

    #[test]
    fn tagged_requests_come_back_with_their_tags() {
        let svc = Service::start(ServeConfig::default()).unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        let handle = svc.listen("127.0.0.1:0").unwrap();

        let mut wire = WireClient::connect(handle.addr()).unwrap();
        let tags = ["a", "b", "c", "d"];
        for tag in tags {
            wire.send(&format!("#{tag} QUERY guide select guide.restaurant"))
                .unwrap();
        }
        let mut seen: Vec<String> = Vec::new();
        for _ in tags {
            let (tag, resp) = wire.recv().unwrap();
            assert!(matches!(resp, Response::Rows(_)), "{resp:?}");
            seen.push(tag.expect("tagged request must get a tagged response"));
        }
        seen.sort();
        assert_eq!(seen, tags);
        assert!(svc.metrics().pipelined.load(Ordering::Relaxed) >= 4);
        drop(handle);
        svc.shutdown();
    }

    #[test]
    fn several_tcp_sessions_interleave() {
        let svc = Service::start(ServeConfig::default()).unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        let handle = svc.listen("127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let threads: Vec<_> = (0..4)
            .map(|_| {
                thread::spawn(move || {
                    let mut wire = WireClient::connect(addr).unwrap();
                    let resp = wire
                        .roundtrip("QUERY guide select guide.restaurant")
                        .unwrap();
                    assert!(matches!(resp, Response::Rows(ref r) if !r.is_empty()));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(svc.metrics().sessions.load(Ordering::Relaxed) >= 4);
        drop(handle);
        svc.shutdown();
    }

    #[test]
    fn deep_pipelining_costs_one_writer_thread_not_one_per_request() {
        // 64 tagged requests over one connection: everything completes,
        // every tag comes back exactly once, and the session started one
        // writer thread — nothing per request.
        let svc = Service::start(ServeConfig::default()).unwrap();
        svc.install(&guide_figure2(), &history_example_2_3())
            .unwrap();
        let handle = svc.listen("127.0.0.1:0").unwrap();
        let mut wire = WireClient::connect(handle.addr()).unwrap();
        for i in 0..64 {
            wire.send(&format!("#t{i} QUERY guide select guide.restaurant"))
                .unwrap();
        }
        let mut seen: Vec<String> = (0..64).map(|_| wire.recv().unwrap().0.unwrap()).collect();
        seen.sort();
        let mut want: Vec<String> = (0..64).map(|i| format!("t{i}")).collect();
        want.sort();
        assert_eq!(seen, want);
        assert_eq!(svc.metrics().session_writers.load(Ordering::Relaxed), 1);
        drop(handle);
        svc.shutdown();
    }
}
