//! Repository rules the compiler can't check, one test case each. Every
//! rule is a line scan over the repository's own files: `.rs` under
//! `crates/`, `src/` and `tests/`, `.md` anywhere, and the `Cargo.toml`
//! manifests, skipping `target/` and dot-directories.
//!
//! * **parser-fuzz**: a hand-rolled parser (`pub fn parse*` or
//!   `impl FromStr for`) in a crate's `src/` has a `fuzz_tests` module in
//!   the same file, CLAUDE.md's panic-freedom contract. The compat
//!   stand-ins are exempt: they mirror external crates' APIs.
//! * **canonical-order**: change ops joined by arrows, or numbered by a
//!   phase map (`CreNode(..) => 0`, the other three within six lines),
//!   follow the application order of `OPS`, the completeness argument in
//!   `oem::changeset`.
//! * **missing-docs**: every crate root has a `#![warn(missing_docs)]`
//!   line.
//! * **bench-names**: every `cargo bench [-p P] --bench B` in README.md,
//!   DESIGN.md and CLAUDE.md names a `[[bench]]` target of package `P`,
//!   or of the root package without `-p`.
//! * **serve-size**: no file under `crates/serve/src` is over 1,000
//!   lines; split a larger one along a seam.

use std::path::Path;

/// The change-set application order.
const OPS: [&str; 4] = ["creNode", "remArc", "updNode", "addArc"];

/// Repo-relative path (`/`-separated) and text of every scanned file,
/// sorted by path.
fn scanned_files() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir)
            .expect("readable directory")
            .flatten()
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = entry.path();
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                if name != "target" && !name.starts_with('.') {
                    walk(root, &path, out);
                }
                continue;
            }
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let rust = name.ends_with(".rs")
                && ["crates/", "src/", "tests/"]
                    .iter()
                    .any(|p| rel.starts_with(p));
            if rust || name.ends_with(".md") || name == "Cargo.toml" {
                let text = std::fs::read_to_string(&path).expect(&rel);
                out.push((rel, text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort();
    files
}

/// Fails listing every `file:line` that `rule` flags in the files `pick`
/// selects.
fn check(what: &str, pick: fn(&str) -> bool, rule: impl Fn(&str) -> Vec<usize>) {
    let findings: Vec<String> = scanned_files()
        .iter()
        .filter(|(rel, _)| pick(rel))
        .flat_map(|(rel, text)| {
            rule(text)
                .into_iter()
                .map(move |line| format!("{rel}:{line}"))
        })
        .collect();
    assert!(findings.is_empty(), "{what}:\n  {}", findings.join("\n  "));
}

/// The first parser line of a file that has parsers but no `fuzz_tests`.
fn unfuzzed_parser(text: &str) -> Vec<usize> {
    let trimmed = || text.lines().map(str::trim_start);
    if trimmed().any(|t| t.starts_with("mod fuzz_tests") || t.starts_with("pub mod fuzz_tests")) {
        return Vec::new();
    }
    trimmed()
        .position(|t| {
            t.starts_with("pub fn parse") || (t.starts_with("impl") && t.contains("FromStr for"))
        })
        .map(|i| i + 1)
        .into_iter()
        .collect()
}

/// Lines that join two change ops with an arrow (`->` or `→`, give or
/// take spaces, backticks and stars) against the canonical order, or
/// start a phase map that numbers the ops against it. Names separated by
/// anything else (commas, words) are an enumeration and claim no order.
fn out_of_order(text: &str) -> Vec<usize> {
    let lines: Vec<&str> = text.lines().collect();
    let arrow = |gap: &str| {
        let gap: String = gap
            .chars()
            .filter(|c| !c.is_whitespace() && !"`*".contains(*c))
            .collect();
        gap == "->" || gap == "\u{2192}"
    };
    let bad_chain = |line: &str| {
        ops_in(line).windows(2).any(|w| {
            let ((a, pa), (b, pb)) = (w[0], w[1]);
            pa >= pb && line.get(a + OPS[pa].len()..b).is_some_and(arrow)
        })
    };
    let bad_map = |i: usize| {
        if !matches!(arm(lines[i]), Some((0, _))) {
            return false;
        }
        let mut map = [None; 4];
        for line in lines.iter().skip(i).take(6) {
            if let Some((phase, n)) = arm(line) {
                map[phase] = Some(n);
            }
            if let [Some(a), Some(b), Some(c), Some(d)] = map {
                return !(a < b && b < c && c < d);
            }
        }
        false
    };
    (0..lines.len())
        .filter(|&i| bad_chain(lines[i]) || bad_map(i))
        .map(|i| i + 1)
        .collect()
}

/// `(byte offset, phase)` of every change-op name in `line`, in textual
/// order; case-blind, so `CreNode` variants count.
fn ops_in(line: &str) -> Vec<(usize, usize)> {
    let lower = line.to_ascii_lowercase();
    let mut ops = Vec::new();
    for (phase, op) in OPS.iter().enumerate() {
        let needle = op.to_ascii_lowercase();
        ops.extend(lower.match_indices(&needle).map(|(at, _)| (at, phase)));
    }
    ops.sort_unstable();
    ops
}

/// The phase and number of a match arm whose pattern names one change op
/// (`CreNode(..) => 0`).
fn arm(line: &str) -> Option<(usize, u64)> {
    let (pattern, value) = line.split_once("=>")?;
    let [(_, phase)] = ops_in(pattern)[..] else {
        return None;
    };
    let value = value.trim_start();
    let digits = &value[..value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len())];
    Some((phase, digits.parse().ok()?))
}

/// Line 1 of a crate root with no `#![warn(missing_docs)]` line.
fn undocumented_root(text: &str) -> Vec<usize> {
    let warns = |l: &str| l.trim_start().starts_with("#![warn(missing_docs)]");
    if text.lines().any(warns) {
        Vec::new()
    } else {
        vec![1]
    }
}

/// `(package, bench)` for the `[package]` and every `[[bench]]` of a
/// manifest.
fn bench_targets(manifest: &str) -> Vec<(String, String)> {
    let (mut table, mut package, mut benches) = ("", String::new(), Vec::new());
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
        } else if let Some(value) = line
            .strip_prefix("name")
            .and_then(|v| v.trim_start().strip_prefix('='))
        {
            let value = value.trim().trim_matches('"').to_string();
            match table {
                "[package]" => package = value,
                "[[bench]]" => benches.push(value),
                _ => {}
            }
        }
    }
    benches.into_iter().map(|b| (package.clone(), b)).collect()
}

/// Lines with a `cargo bench [-p P] --bench B` that names no target in
/// `targets`; without `-p` the package is `doem-suite`, the root.
fn unknown_benches(text: &str, targets: &[(String, String)]) -> Vec<usize> {
    let word = |w: &str| {
        w.split(|c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '-')
            .next()
            .unwrap_or("")
            .to_string()
    };
    let mut bad = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("cargo bench ") {
            let mut words = line[at..].split_whitespace().skip(2);
            let mut next = words.next();
            let mut package = "doem-suite".to_string();
            if next == Some("-p") {
                package = word(words.next().unwrap_or(""));
                next = words.next();
            }
            if next != Some("--bench") {
                continue;
            }
            let bench = word(words.next().unwrap_or(""));
            if !targets.contains(&(package, bench)) {
                bad.push(i + 1);
            }
        }
    }
    bad
}

/// The last line of a file over 1,000 lines.
fn oversize(text: &str) -> Vec<usize> {
    let lines = text.lines().count();
    if lines > 1000 {
        vec![lines]
    } else {
        Vec::new()
    }
}

#[test]
fn parser_fuzz() {
    check(
        "a hand-rolled parser with no `fuzz_tests` module beside it",
        |rel| {
            let crate_src = rel.starts_with("crates/") && rel.contains("/src/");
            crate_src && rel.ends_with(".rs") && !rel.starts_with("crates/compat/")
        },
        unfuzzed_parser,
    );
}

#[test]
fn canonical_order() {
    check(
        "change ops restated against the order creNode -> remArc -> updNode -> addArc",
        |rel| rel.ends_with(".rs") || rel.ends_with(".md"),
        out_of_order,
    );
}

#[test]
fn missing_docs() {
    check(
        "a crate root without `#![warn(missing_docs)]`",
        |rel| rel.ends_with("src/lib.rs"),
        undocumented_root,
    );
}

#[test]
fn bench_names() {
    let targets: Vec<(String, String)> = scanned_files()
        .iter()
        .filter(|(rel, _)| {
            rel == "Cargo.toml" || (rel.starts_with("crates/") && rel.ends_with("/Cargo.toml"))
        })
        .flat_map(|(_, text)| bench_targets(text))
        .collect();
    check(
        "a `cargo bench` command naming no bench target of its package",
        |rel| ["README.md", "DESIGN.md", "CLAUDE.md"].contains(&rel),
        |text| unknown_benches(text, &targets),
    );
}

#[test]
fn serve_size() {
    check(
        "a serve source file over 1,000 lines; split it along a seam",
        |rel| rel.starts_with("crates/serve/src/") && rel.ends_with(".rs"),
        oversize,
    );
}

/// Each rule flags its violations and passes their fixes. The op names
/// are spliced in from `OPS`, so this file holds no misordered chain.
#[test]
fn rules_flag_their_fixtures() {
    let [cre, rem, upd, add] = OPS;
    let parser = "pub fn parse_thing(s: &str) -> Result<(), ()> { Ok(()) }\n";
    assert_eq!(unfuzzed_parser(parser), [1]);
    assert_eq!(
        unfuzzed_parser("//! A module.\nimpl FromStr for T {\n}\n"),
        [2]
    );
    assert_eq!(
        unfuzzed_parser(&format!("#[cfg(test)]\nmod tests {{\n}}\n{parser}")),
        [4]
    );
    assert!(unfuzzed_parser(&format!("{parser}#[cfg(test)]\nmod fuzz_tests {{}}\n")).is_empty());
    assert!(unfuzzed_parser("fn len(s: &str) -> usize {\n    s.len()\n}\n").is_empty());

    assert!(out_of_order(&format!("apply `{cre} → {rem} → {upd} → {add}` in order\n")).is_empty());
    assert_eq!(
        out_of_order(&format!("apply in {add} -> {cre} order\n")),
        [1]
    );
    assert_eq!(
        out_of_order(&format!("/// ok\n/// `{add}` → `{cre}`\n")),
        [2]
    );
    assert!(out_of_order(&format!(
        "the ops (`{cre}`, `{upd}`, `{add}`, `{rem}`) drive the HTML->OEM parser\n"
    ))
    .is_empty());
    assert!(out_of_order(&format!(
        "`{cre} → {rem} → {upd} → {add}`: `{rem}` only targets arcs\n"
    ))
    .is_empty());
    assert!(out_of_order(&format!("`{cre} → {rem}`, or a map (`{cre}(..) => 0`)\n")).is_empty());
    let map = |order: [&str; 4]| {
        let arms: String = order
            .iter()
            .enumerate()
            .map(|(n, op)| format!("  {}{}(..) => {n},\n", op[..1].to_uppercase(), &op[1..]))
            .collect();
        format!("match op {{\n{arms}}}\n")
    };
    assert!(out_of_order(&map([cre, rem, upd, add])).is_empty());
    assert_eq!(out_of_order(&map([cre, add, upd, rem])), [2]);

    assert!(undocumented_root("//! Docs.\n#![warn(missing_docs)]\n").is_empty());
    assert_eq!(undocumented_root("//! Docs.\n"), [1]);
    assert_eq!(undocumented_root("// #![warn(missing_docs)]\n"), [1]);

    let targets = bench_targets(
        "[package]\nname = \"bench\"\n\n[[bench]]\nname = \"lorel_paths\"\nharness = false\n",
    );
    assert_eq!(targets, [("bench".to_string(), "lorel_paths".to_string())]);
    assert!(unknown_benches(
        "run `cargo bench -p bench --bench lorel_paths`.\n",
        &targets
    )
    .is_empty());
    assert_eq!(
        unknown_benches("x\nrun `cargo bench -p bench --bench nope`.\n", &targets),
        [2]
    );
    assert_eq!(
        unknown_benches("cargo bench --bench lorel_paths\n", &targets),
        [1]
    );
    assert!(unknown_benches("cargo bench --workspace\n", &targets).is_empty());

    assert!(oversize(&"x\n".repeat(1000)).is_empty());
    assert_eq!(oversize(&"x\n".repeat(1001)), [1001]);
}
