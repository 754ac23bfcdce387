//! Hostile request lines against a real `doem-serve` process: a line that
//! nests without end, a path without end, and a line that never ends.
//! Each may cost its own session an error, never the server: a second
//! session must still get `OK pong`. The server runs as a child process
//! so that a crash (a stack overflow aborts the whole process) fails the
//! test instead of the suite.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

/// A `doem-serve` child on an ephemeral port. The binary exits when its
/// stdin (the admin session) closes, so the handle keeps it open.
struct Server {
    child: Child,
    _admin: ChildStdin,
    addr: String,
}

impl Server {
    fn start() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_doem-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("doem-serve starts");
        let admin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert!(
                stdout.read_line(&mut line).expect("read stdout") > 0,
                "server exited"
            );
            if let Some(addr) = line.trim().strip_prefix("doem-serve listening on ") {
                break addr.to_string();
            }
        };
        // Keep draining stdout so the server never blocks on a full pipe.
        std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));
        Server {
            child,
            _admin: admin,
            addr,
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s
    }

    /// Send one line on a fresh session; return its first reply line, or
    /// an empty string if the session closed without one.
    fn first_reply(&self, line: &[u8]) -> String {
        let mut s = self.connect();
        // The server may close the session before it has read everything.
        let _ = s.write_all(line).and_then(|()| s.write_all(b"\n"));
        let mut reply = String::new();
        let _ = BufReader::new(s).read_line(&mut reply);
        reply
    }

    /// The server is alive if a fresh session still gets `OK pong`.
    fn assert_alive(&mut self, after: &str) {
        assert!(
            self.child.try_wait().expect("poll child").is_none(),
            "doem-serve exited after {after}"
        );
        assert_eq!(self.first_reply(b"PING"), "OK pong\n", "after {after}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn one_deeply_nested_request_line_cannot_kill_the_server() {
    let mut server = Server::start();
    let line = format!(
        "QUERY guide select guide.restaurant where {}",
        "(".repeat(2_000)
    );
    let reply = server.first_reply(line.as_bytes());
    assert!(reply.starts_with("ERR SYNTAX"), "{reply:?}");
    assert!(reply.contains("nesting"), "{reply:?}");
    server.assert_alive("a 2,000-deep where clause");
}

#[test]
fn one_long_path_cannot_kill_the_server() {
    let mut server = Server::start();
    let long = ".restaurant".repeat(10_000);
    let line = format!("QUERY guide select guide.restaurant where guide{long} = 1");
    let reply = server.first_reply(line.as_bytes());
    assert!(reply.starts_with("ERR SYNTAX"), "{reply:?}");
    assert!(reply.contains("path longer than"), "{reply:?}");
    server.assert_alive("a 10,000-step where path");
    let line = format!("QUERY guide select guide{long}");
    let reply = server.first_reply(line.as_bytes());
    assert!(reply.starts_with("ERR SYNTAX"), "{reply:?}");
    assert!(reply.contains("path steps"), "{reply:?}");
    server.assert_alive("a 10,000-step select path");
}

#[test]
fn an_over_cap_request_line_is_refused_and_its_session_closed() {
    let mut server = Server::start();
    let mut s = server.connect();
    let line = vec![b'a'; serve::MAX_LINE_BYTES + 1];
    // The server stops reading at the cap, so the rest of the write may
    // meet a closed socket.
    let _ = s.write_all(&line);
    let mut reply = String::new();
    let mut reader = BufReader::new(s);
    reader
        .read_line(&mut reply)
        .expect("a reply before the close");
    assert!(reply.starts_with("ERR SYNTAX"), "{reply:?}");
    let mut rest = Vec::new();
    // Closed: the session reads to end of stream (or is reset).
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
    server.assert_alive("an over-cap line");
}

/// The nesting budget leaves room to evaluate: a condition nested exactly
/// [`lorel::MAX_NESTING`] levels deep, in each recursive form, evaluates
/// through both Chorel strategies on a thread with the 2 MiB stack every
/// server thread gets, and one level more does not parse.
#[test]
fn the_deepest_accepted_where_evaluates_through_both_strategies_on_a_worker_thread() {
    let cond = "guide.restaurant.name = \"Janta\"";
    let forms = move |depth: usize| {
        [
            format!(
                "{}{cond}{}",
                format!("({cond} and ").repeat(depth),
                ")".repeat(depth)
            ),
            format!("{}{cond}", "not ".repeat(depth)),
            format!("{}true", "exists X in guide.restaurant : ".repeat(depth)),
            format!(
                "{}{cond}{}",
                "not (".repeat(depth / 2),
                ")".repeat(depth / 2)
            ),
        ]
    };
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let depth = lorel::MAX_NESTING;
    worker
        .spawn(move || {
            let d = doem::doem_figure4();
            for (deepest, too_deep) in forms(depth).into_iter().zip(forms(depth + 2)) {
                let text = format!("select guide.restaurant where {deepest}");
                assert!(chorel::run_both_checked(&d, &text).is_ok(), "{text}");
                let text = format!("select guide.restaurant where {too_deep}");
                assert!(lorel::parse_query(&text).is_err(), "{text}");
            }
        })
        .expect("spawn")
        .join()
        .expect("no overflow at the nesting budget");
}

/// The path budgets leave room to evaluate: over a chain as deep as the
/// paths, a statement naming [`lorel::MAX_PATH_STEPS`] steps (a `select`
/// path, a `from` path, an update target) and a `where` path of
/// [`lorel::MAX_WHERE_PATH_STEPS`] steps under [`lorel::MAX_NESTING`]
/// levels of `not` evaluate through both Chorel strategies (the update
/// through the server's binding) on a thread with the 2 MiB stack every
/// server thread gets; one step more does not parse.
#[test]
fn the_longest_accepted_paths_evaluate_through_both_strategies_on_a_worker_thread() {
    let (most, where_most) = (lorel::MAX_PATH_STEPS, lorel::MAX_WHERE_PATH_STEPS);
    let path = |label: &str, steps: usize| format!("g{}", format!(".{label}").repeat(steps));
    let queries = move |over: usize| {
        [
            format!("select {}", path("r", most + over)),
            format!("select X from {} X", path("r", most + over)),
            format!("select g.r where {} = 1", path("s", where_most + over)),
            format!(
                "select {} where {}{} = 1",
                path("r", most - where_most),
                "not ".repeat(lorel::MAX_NESTING),
                path("s", where_most + over)
            ),
        ]
    };
    let update = move |over: usize| format!("update {} := 2", path("r", most + over));
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    worker
        .spawn(move || {
            let mut b = oem::GraphBuilder::new("g");
            for (label, depth) in [("r", most), ("s", where_most)] {
                let mut spine = b.root();
                for _ in 1..depth {
                    spine = b.complex_child(spine, label);
                }
                b.atom_child(spine, label, 1i64);
            }
            let d = doem::DoemDatabase::from_snapshot(&b.finish());
            for (longest, too_long) in queries(0).into_iter().zip(queries(1)) {
                let rows = chorel::run_both_checked(&d, &longest).expect(&longest);
                assert_eq!(rows.len(), 1, "{longest}");
                assert!(lorel::parse_query(&too_long).is_err(), "{too_long}");
            }
            let stmt = lorel::parse_update(&update(0)).expect("the longest update parses");
            let current = chorel::AtSource::new(&d, oem::Timestamp::INFINITY);
            let compiled = lorel::compile_update(&current, d.graph().clone().alloc_id(), &stmt);
            assert_eq!(compiled.expect("the longest update binds").changes.len(), 1);
            assert!(lorel::parse_update(&update(1)).is_err());
        })
        .expect("spawn")
        .join()
        .expect("no overflow at the path budgets");
}
