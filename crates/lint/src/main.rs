//! `doem-lint` — run the project invariant scanners over the workspace.
//!
//! Usage: `cargo run --bin doem-lint [-- --root <path>]`
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage / I/O error. Diagnostics
//! are `file:line: [rule] message`. The one exemption is an inline
//! `// lint: allow` at the site, and a marker that suppresses nothing is
//! itself a `stale-allow` finding.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lint::{
    apply_allows, collect_workspace_files, scan_canonical_order, scan_missing_docs,
    scan_parser_fuzz, Finding,
};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
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
            "--help" | "-h" => {
                eprintln!("usage: doem-lint [--root <path>]");
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

    let findings = scan_workspace(&root);
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("doem-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("doem-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The lint crate lives at `<root>/crates/lint`, so the workspace root is
/// two levels up from the manifest dir.
fn default_root() -> Option<PathBuf> {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")?;
    Path::new(&manifest).parent()?.parent().map(Path::to_path_buf)
}

/// Walk the workspace and run every rule over the files in its scope.
fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (rust_files, md_files) = collect_workspace_files(root);
    for rel in &rust_files {
        let Ok(raw) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let mut file_findings = Vec::new();
        let in_compat = rel_str.starts_with("crates/compat/");
        if rel_str.starts_with("crates/") && rel_str.contains("/src/") {
            // Compat stand-ins mirror external crate APIs; their parsing
            // surface (none today) is out of the fuzz contract's scope.
            if !in_compat {
                file_findings.extend(scan_parser_fuzz(&rel_str, &raw));
            }
        }
        file_findings.extend(scan_canonical_order(&rel_str, &raw, true));
        if rel_str.ends_with("src/lib.rs") {
            file_findings.extend(scan_missing_docs(&rel_str, &raw));
        }
        // Central suppression + stale-marker audit, per file.
        findings.extend(apply_allows(&rel_str, &raw, file_findings));
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
    findings
}
