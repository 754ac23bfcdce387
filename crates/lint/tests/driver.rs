//! The `doem-lint` binary's exit policy, end to end: any finding fails,
//! and an inline `// lint: allow` is the one exemption — itself a finding
//! once it suppresses nothing. There is no autofix: `--fix` is an
//! unknown argument.

use std::process::Command;

/// Run `doem-lint --root` over a workspace whose one file,
/// `crates/p/src/x.rs`, holds `body`: its exit code and stdout.
fn lint(tag: &str, body: &str) -> (i32, String) {
    let root = std::env::temp_dir().join(format!("doem-lint-driver-{tag}-{}", std::process::id()));
    let src = root.join("crates/p/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(src.join("x.rs"), body).unwrap();
    let bin = env!("CARGO_BIN_EXE_doem-lint");
    let out = Command::new(bin).arg("--root").arg(&root).output().unwrap();
    let _ = std::fs::remove_dir_all(&root);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

#[test]
fn any_finding_fails_and_an_inline_allow_is_the_one_exemption() {
    // A hand-rolled parser without a `fuzz_tests` sibling is a
    // `parser-fuzz` finding.
    for (tag, line, code, want) in [
        (
            "parser",
            "pub fn parse_u8(s: &str) -> u8 {",
            1,
            "crates/p/src/x.rs:2: [parser-fuzz]",
        ),
        (
            "allowed",
            "pub fn parse_u8(s: &str) -> u8 { // lint: allow",
            0,
            "doem-lint: clean",
        ),
        (
            "stale",
            "fn len(s: &str) -> u8 { // lint: allow",
            1,
            "crates/p/src/x.rs:2: [stale-allow]",
        ),
    ] {
        let (got, out) = lint(
            tag,
            &format!("//! A module.\n{line}\n    s.len() as u8\n}}\n"),
        );
        assert_eq!(got, code, "{tag}: {out}");
        assert!(out.contains(want), "{tag}: {out}");
    }
}

#[test]
fn fix_is_an_unknown_argument() {
    let bin = env!("CARGO_BIN_EXE_doem-lint");
    let out = Command::new(bin).arg("--fix").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--fix`"), "{stderr}");
}
