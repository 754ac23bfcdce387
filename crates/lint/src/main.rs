//! `doem-lint` — run the project invariant scanners over the workspace.
//!
//! Usage: `cargo run --bin doem-lint [-- --root <path>] [--graph dot]
//! [--runtime-subset <dir>]`
//!
//! `--graph dot` prints the static lock-order graph (Graphviz) and exits;
//! `--runtime-subset <dir>` reads sanitizer-observed edges (`*.edges`
//! files of `from_site<TAB>to_site` lines, written under
//! `DOEM_SANITIZE_GRAPH`) and exits 1 unless every runtime edge is
//! covered by the static graph — a missed edge is a lint soundness bug.
//!
//! Exit codes: 0 clean, 1 any finding (or a runtime-subset violation),
//! 2 usage / I/O error. Diagnostics are `file:line: [rule] message`. The
//! one exemption is an inline `// lint: allow` at the site, and a marker
//! that suppresses nothing is itself a `stale-allow` finding.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lint::{apply_allows, collect_workspace_files, lock_scope, locks, scan_canonical_order,
           scan_missing_docs, scan_parser_fuzz, Finding};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut graph = false;
    let mut subset_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("doem-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--graph" => match args.next().as_deref() {
                Some("dot") => graph = true,
                _ => {
                    eprintln!("doem-lint: --graph requires the format `dot`");
                    return ExitCode::from(2);
                }
            },
            "--runtime-subset" => match args.next() {
                Some(p) => subset_dir = Some(PathBuf::from(p)),
                None => {
                    eprintln!("doem-lint: --runtime-subset requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: doem-lint [--root <path>] [--graph dot] [--runtime-subset <dir>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("doem-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(default_root) {
        Some(r) => r,
        None => {
            eprintln!("doem-lint: cannot locate workspace root; pass --root");
            return ExitCode::from(2);
        }
    };
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "doem-lint: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let scan = scan_workspace(&root);

    if graph {
        print!("{}", locks::dot(&scan.analysis));
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = subset_dir {
        return run_subset(&scan.analysis, &dir);
    }

    for f in &scan.findings {
        println!("{f}");
    }
    if scan.findings.is_empty() {
        println!("doem-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("doem-lint: {} finding(s)", scan.findings.len());
        ExitCode::FAILURE
    }
}

/// Check sanitizer-observed lock-order edges against the static graph.
/// `dir` holds `*.edges` files (one per CI leg) of
/// `from_site<TAB>to_site` lines as written by `DOEM_SANITIZE_GRAPH`.
/// Every runtime edge must be statically predicted; a violation means the
/// static analysis missed real locking behavior and exits 1.
fn run_subset(an: &locks::Analysis, dir: &Path) -> ExitCode {
    let mut edges: Vec<(String, String)> = Vec::new();
    let mut legs = 0usize;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("doem-lint: cannot read {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("edges") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        legs += 1;
        for line in text.lines() {
            let mut parts = line.split('\t');
            if let (Some(from), Some(to)) = (parts.next(), parts.next()) {
                if !from.is_empty() && !to.is_empty() {
                    edges.push((from.to_string(), to.to_string()));
                }
            }
        }
    }
    edges.sort();
    edges.dedup();
    let violations = locks::runtime_subset(an, &edges);
    if violations.is_empty() {
        println!(
            "doem-lint: runtime-subset clean ({} observed edge(s) from {legs} leg(s), all \
             statically predicted; static graph has {} edge(s))",
            edges.len(),
            an.edges.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("doem-lint: [runtime-subset] {v}");
        }
        println!(
            "doem-lint: {} runtime edge(s) missing from the static lock-order graph — the \
             static analysis missed real locking behavior (soundness bug in crates/lint)",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// The lint crate lives at `<root>/crates/lint`, so the workspace root is
/// two levels up from the manifest dir.
fn default_root() -> Option<PathBuf> {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")?;
    Path::new(&manifest).parent()?.parent().map(Path::to_path_buf)
}

/// Everything one workspace pass produces: suppressed-and-audited
/// findings plus the lock analysis (for `--graph` / `--runtime-subset`).
struct Scan {
    findings: Vec<Finding>,
    analysis: locks::Analysis,
}

/// Walk the workspace and run every rule over the files in its scope.
fn scan_workspace(root: &Path) -> Scan {
    let mut findings = Vec::new();
    let (rust_files, md_files) = collect_workspace_files(root);

    // Load every Rust file once; the lock analysis needs the whole
    // workspace at once (call graph), the line rules go file-by-file.
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in &rust_files {
        let Ok(raw) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        sources.push((rel.to_string_lossy().replace('\\', "/"), raw));
    }

    let lock_inputs: Vec<(String, String)> = sources
        .iter()
        .filter(|(rel, _)| lock_scope(rel))
        .cloned()
        .collect();
    let analysis = locks::analyze(&lock_inputs);

    // Group the lock findings by file so each file's suppression pass
    // sees them alongside its line-rule findings.
    let mut lock_findings: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in &analysis.findings {
        lock_findings.entry(f.file.clone()).or_default().push(f.clone());
    }

    for (rel_str, raw) in &sources {
        let mut file_findings = lock_findings.remove(rel_str).unwrap_or_default();
        let in_compat = rel_str.starts_with("crates/compat/");
        if rel_str.starts_with("crates/") && rel_str.contains("/src/") {
            // Compat stand-ins mirror external crate APIs; their parsing
            // surface (none today) is out of the fuzz contract's scope.
            if !in_compat {
                file_findings.extend(scan_parser_fuzz(rel_str, raw));
            }
        }
        file_findings.extend(scan_canonical_order(rel_str, raw, true));
        if rel_str.ends_with("src/lib.rs") {
            file_findings.extend(scan_missing_docs(rel_str, raw));
        }
        // Central suppression + stale-marker audit, per file.
        findings.extend(apply_allows(rel_str, raw, file_findings));
    }
    // Lock findings in files the walker didn't load (shouldn't happen —
    // the analysis only sees walked files) pass through unsuppressed.
    for (_, fs) in lock_findings {
        findings.extend(fs);
    }
    for rel in &md_files {
        let Ok(raw) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        findings.extend(scan_canonical_order(&rel_str, &raw, false));
    }
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line))
    });
    Scan { findings, analysis }
}
