//! The `doem-serve` child process: spawn, find the port, restart on the
//! same WAL directory, `kill -9`, and read its peak RSS. The child is a
//! real process speaking real TCP; nothing here links the server in.

use crate::script::{Workload, DB};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Worker threads the server runs with — the box has 2 cores.
pub const WORKERS: usize = 2;
/// Versions the ring retains for `AS OF`.
pub const RETAIN_LSNS: usize = 64;
/// Most records one fsync may cover.
pub const GROUP_COMMIT: usize = 8;
/// WAL appends between checkpoints.
pub const CHECKPOINT_EVERY: usize = 64;

/// The exact `doem-serve` flags `workload` runs under. `wal` is the WAL
/// directory for durable workloads; `create` is false on a restart (the
/// database is recovered, and `--create` of an existing name is fatal).
pub fn server_flags(workload: Workload, wal: Option<&Path>, create: bool) -> Vec<String> {
    let mut flags: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &WORKERS.to_string(),
        "--cache",
        &workload.cache_capacity().to_string(),
        "--retain-lsns",
        &RETAIN_LSNS.to_string(),
        "--empty",
    ]
    .map(String::from)
    .to_vec();
    if create {
        flags.extend(["--create".to_string(), DB.to_string()]);
    }
    if workload.durable() {
        let wal = wal.expect("durable workloads are given a WAL directory");
        flags.extend([
            "--wal".to_string(),
            wal.display().to_string(),
            "--group-commit".to_string(),
            GROUP_COMMIT.to_string(),
            "--checkpoint-every".to_string(),
            CHECKPOINT_EVERY.to_string(),
        ]);
    }
    flags
}

/// A running `doem-serve`. Dropping it kills the child (SIGKILL) and
/// waits for it, so no error path or panic can leak a server.
pub struct Server {
    child: Child,
    /// Held open for the child's whole life: EOF on its stdin is the
    /// server's shutdown signal.
    _stdin: ChildStdin,
    /// Held open so the server's later `println!`s never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawn `binary` with `flags` and wait for its `listening on` line.
    pub fn spawn(binary: &Path, flags: &[String]) -> std::io::Result<Server> {
        let mut child = Command::new(binary)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        // From here on an early return must not leak the child.
        let mut guard = Some(child);
        let addr = (|| {
            let mut line = String::new();
            loop {
                line.clear();
                if stdout.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::other(
                        "doem-serve exited before printing its listening address",
                    ));
                }
                if let Some(addr) = line.trim().strip_prefix("doem-serve listening on ") {
                    return addr
                        .parse::<SocketAddr>()
                        .map_err(|e| std::io::Error::other(format!("bad address {addr:?}: {e}")));
                }
            }
        })();
        match addr {
            Ok(addr) => Ok(Server {
                child: guard.take().expect("set above"),
                _stdin: stdin,
                _stdout: stdout,
                addr,
            }),
            Err(e) => {
                if let Some(mut child) = guard.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Err(e)
            }
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) of the child so far, in MiB.
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/<pid>/status"))
    }

    /// `kill -9` the server and reap it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Where the server binary is expected: beside this executable (both are
/// built into one `CARGO_TARGET_DIR`), or — from a test binary in
/// `debug/deps/` — under the same target directory's `release/`.
pub fn default_server_binary() -> std::io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    for dir in me.ancestors().skip(1).take(3) {
        for candidate in [dir.join("doem-serve"), dir.join("release/doem-serve")] {
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(std::io::Error::other(format!(
        "doem-serve not found near {} (run benchmark/run.sh, which builds it)",
        me.display()
    )))
}
