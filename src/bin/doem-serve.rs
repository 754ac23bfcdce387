//! doem-serve — the concurrent query service, on a socket.
//!
//! Starts a [`serve::Service`] over the paper's restaurant-guide fixture
//! (Figure 2 plus the Example 2.3 history), listens on a TCP address, and
//! doubles as an interactive console: lines typed on stdin are protocol
//! requests too. `quit` (or EOF) shuts everything down.
//!
//! ```text
//! doem-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!            [--store DIR] [--wal DIR] [--checkpoint-every N]
//!            [--group-commit N] [--group-commit-window-us U]
//!            [--autotick-ms MS] [--tick-minutes M]
//!            [--follow HOST:PORT] [--follower-id NAME]
//!            [--repl-batch N] [--repl-retain N] [--follow-poll-ms MS]
//!            [--retain-lsns N] [--empty] [--create NAME]...
//! ```
//!
//! With `--wal DIR` the service is durable: every committed mutation is
//! logged before it is applied, databases found under DIR are recovered
//! (checkpoint + log replay) on startup — in which case the guide fixture
//! is only seeded if no recovered database already claims the name — and
//! a clean shutdown checkpoints everything. `--group-commit N` caps how
//! many concurrent writes one fsync may cover (batching is invisible on
//! the wire; see PROTOCOL.md), and `--group-commit-window-us U` optionally
//! lets the committer linger to gather riders (default 0: batching comes
//! only from records that queue while the previous fsync runs).
//!
//! With `--follow HOST:PORT` the instance is a **replication follower**:
//! it pulls WAL batches from the primary at that address, replays them in
//! order, answers queries from snapshots at its applied LSN (readable via
//! `LSN <db>` and `STATS`), and refuses client writes with `READONLY`.
//! Followers never seed the guide fixture — their state comes from the
//! primary. Combine with `--wal DIR` for a durable follower that crash-
//! recovers locally before resuming the stream.
//!
//! The wire protocol (including `#<id>` pipelining tags and the
//! `REPLICATE` verb's batch framing) is specified in
//! `crates/serve/PROTOCOL.md`.

use serve::{AutoTick, Response, ServeConfig, Service};
use std::io::BufRead;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: doem-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]\n\
         \x20                 [--store DIR] [--wal DIR] [--checkpoint-every N]\n\
         \x20                 [--group-commit N] [--group-commit-window-us U]\n\
         \x20                 [--autotick-ms MS] [--tick-minutes M]\n\
         \x20                 [--follow HOST:PORT] [--follower-id NAME]\n\
         \x20                 [--repl-batch N] [--repl-retain N] [--follow-poll-ms MS]\n\
         \x20                 [--retain-lsns N] [--empty] [--create NAME]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:4545".to_string();
    let mut cfg = ServeConfig::default();
    let mut autotick_ms: Option<u64> = None;
    let mut tick_minutes: i64 = 60;
    let mut seed_guide = true;
    let mut create: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| args.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match arg.as_str() {
            "--addr" => addr = val("--addr"),
            "--workers" => cfg.workers = parse_num(&val("--workers")),
            "--queue" => cfg.queue_depth = parse_num(&val("--queue")),
            "--cache" => cfg.cache_capacity = parse_num(&val("--cache")),
            "--store" => cfg.store_dir = Some(val("--store").into()),
            "--wal" => cfg.wal_dir = Some(val("--wal").into()),
            "--checkpoint-every" => cfg.checkpoint_every = parse_num(&val("--checkpoint-every")) as u64,
            "--group-commit" => cfg.group_commit_max = parse_num(&val("--group-commit")),
            "--group-commit-window-us" => {
                cfg.group_commit_window_us = parse_num(&val("--group-commit-window-us")) as u64
            }
            "--autotick-ms" => autotick_ms = Some(parse_num(&val("--autotick-ms")) as u64),
            "--tick-minutes" => tick_minutes = parse_num(&val("--tick-minutes")) as i64,
            "--follow" => cfg.follow = Some(val("--follow")),
            "--follower-id" => cfg.follower_id = Some(val("--follower-id")),
            "--repl-batch" => cfg.replication_batch = parse_num(&val("--repl-batch")),
            "--repl-retain" => cfg.replication_retain = parse_num(&val("--repl-retain")),
            "--retain-lsns" => cfg.retain_lsns = parse_num(&val("--retain-lsns")),
            "--follow-poll-ms" => {
                cfg.follow_poll = Duration::from_millis(parse_num(&val("--follow-poll-ms")) as u64)
            }
            "--empty" => seed_guide = false,
            "--create" => create.push(val("--create")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if let Some(ms) = autotick_ms {
        cfg.autotick = Some(AutoTick {
            interval: Duration::from_millis(ms),
            step_minutes: tick_minutes,
        });
    }

    let following = cfg.follow.is_some();
    let svc = match Service::start(cfg) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("doem-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let recovered = svc.database_names();
    if !recovered.is_empty() {
        println!("doem-serve: recovered {}", recovered.join(", "));
    }
    // Seed the paper fixture unless told not to — or unless recovery
    // already brought back a database named "guide" (overwriting a
    // recovered database with the fixture would destroy durable state).
    // Followers never seed: their entire state arrives from the primary,
    // and a locally seeded "guide" would just be replaced by the stream.
    if following {
        seed_guide = false;
    }
    if seed_guide && !recovered.iter().any(|n| n == "guide") {
        svc.install(
            &oem::guide::guide_figure2(),
            &oem::guide::history_example_2_3(),
        )
        .expect("the paper fixture installs");
    }
    let bootstrap = svc.client();
    for name in &create {
        let resp = bootstrap.request_line(&format!("CREATE {name}"));
        if resp.is_error() {
            eprintln!("doem-serve: --create {name}: {resp:?}");
            std::process::exit(1);
        }
    }
    let handle = match svc.listen(&addr) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("doem-serve: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("doem-serve listening on {}", handle.addr());
    if following {
        println!("following a primary; writes here answer READONLY");
        println!("try:  LSN guide   STATS   (lag shows as applied= vs primary=)");
    }
    println!("try:  QUERY guide select guide.restaurant");
    println!("      UPDATE guide AT 1Mar97 9:00am ; {{updNode(n1, 25)}}");
    println!("      STATS   DBS   GEN   GEN <db>   quit");
    println!("pipelining: prefix requests with #<id> to overlap them over TCP");

    // Stdin is an admin session speaking the same protocol.
    let console = svc.client();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.eq_ignore_ascii_case("quit") {
            break;
        }
        match console.request_line(trimmed) {
            Response::Ok(msg) => println!("OK {msg}"),
            Response::Rows(rows) => {
                println!("ROWS {}", rows.len());
                for row in rows {
                    println!("  {row}");
                }
            }
            Response::Error { kind, message } => println!("ERR {} {message}", kind.code()),
        }
    }
    handle.stop();
    svc.shutdown();
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {s:?}");
        usage()
    })
}
