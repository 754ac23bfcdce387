//! # lint — the `doem-lint` line-rule library
//!
//! A hand-rolled scanner enforcing doem-suite invariants the compiler
//! can't check (run it with `cargo run --bin doem-lint`). Its rules run
//! on source whose comments and literals are blanked ([`strip_source`]):
//!
//! * **parser-fuzz** — every hand-rolled parser module carries a
//!   `fuzz_tests` sibling (the CLAUDE.md panic-freedom contract).
//! * **canonical-order** — the change-set application order
//!   `creNode → remArc → updNode → addArc` (the completeness argument in
//!   `oem::changeset`) is never restated in a different order, in code or
//!   prose.
//! * **missing-docs** — every crate root carries `#![warn(missing_docs)]`.
//! * **stale-allow** — a `// lint: allow` marker that suppresses nothing
//!   is itself a finding (see [`apply_allows`]): exemptions can't outlive
//!   the code they excused.
//!
//! Serve's lock order is not a lint rule: the types check it
//! (`serve::lock_order`, DESIGN.md §13).
//!
//! The scanner itself honors the contract it enforces: it is hand-rolled,
//! panic-free on arbitrary input (see `fuzz_tests` at the bottom), and
//! never unwraps.
//!
//! Suppression: a `// lint: allow` line comment (a *real* comment — doc
//! comments and string literals don't count) suppresses findings on its
//! own line and the next. It is the only exemption: any other finding
//! fails, and a marker that suppresses nothing is a `stale-allow`
//! finding.

#![warn(missing_docs)]

pub mod token;

/// One diagnostic: rule, repo-relative file, 1-based line, message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule slug (e.g. `parser-fuzz`).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Source stripping
// ---------------------------------------------------------------------------

/// Blank out comments and string/char-literal contents with spaces,
/// preserving every newline (so line numbers survive) and the overall
/// length: [`token::classify`]'s opaque bytes rendered as blanks. Handles nested
/// `/* */`, `//`, `"…"` with escapes, `r#"…"#` raw strings, byte
/// strings, char literals, and the char-vs-lifetime ambiguity (`'a'`
/// strips, `'a` in `&'a T` doesn't). Never panics.
pub fn strip_source(src: &str) -> String {
    let classes = token::classify(src);
    let mut out = Vec::with_capacity(src.len());
    for (i, b) in src.bytes().enumerate() {
        let opaque = classes
            .get(i)
            .copied()
            .unwrap_or(token::Class::Code)
            .is_opaque();
        if !opaque {
            out.push(b);
        } else if b == b'\n' {
            out.push(b'\n');
        } else {
            out.push(b' ');
        }
    }
    // Stripping only substitutes ASCII for ASCII, so the output is valid
    // UTF-8 whenever the input was; from_utf8_lossy keeps us total.
    String::from_utf8_lossy(&out).into_owned()
}

// ---------------------------------------------------------------------------
// Line classification helpers
// ---------------------------------------------------------------------------

/// Per-line flags for lines inside a `#[cfg(test)] mod … { … }` region
/// (computed on *stripped* source so braces in strings don't confuse the
/// matcher). Index 0 = line 1.
pub fn test_mod_lines(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut flags = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let t = lines[i].trim();
        let is_cfg_test = t.contains("#[cfg(test)]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the `mod` line (same line or within the next couple, to
        // tolerate more attributes in between), then brace-match.
        let mut j = i;
        let mut found_mod = false;
        while j < lines.len() && j <= i + 3 {
            if lines[j].trim_start().starts_with("mod ")
                || lines[j].trim_start().starts_with("pub mod ")
                || (j == i && t.contains(" mod "))
            {
                found_mod = true;
                break;
            }
            j += 1;
        }
        if !found_mod {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        let mut k = j;
        while k < lines.len() {
            for c in lines[k].bytes() {
                match c {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if let Some(f) = flags.get_mut(k) {
                *f = true;
            }
            if opened && depth <= 0 {
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    flags
}

/// Apply `// lint: allow` suppression to one file's findings, and audit
/// the markers themselves: a marker that suppresses *zero* findings is
/// reported as a `stale-allow` finding — exemptions can't outlive the
/// code they excused.
///
/// This is the single suppression point: individual scanners report
/// everything they see, and the driver funnels each file's findings
/// through here. `stale-allow`
/// findings are deliberately not themselves suppressible.
pub fn apply_allows(file: &str, raw: &str, findings: Vec<Finding>) -> Vec<Finding> {
    let markers = token::allow_marker_lines(raw);
    let mut used = vec![false; markers.len()];
    let mut kept = Vec::new();
    for f in findings {
        let mut suppressed = false;
        for (mi, &m) in markers.iter().enumerate() {
            let m = m as usize;
            if f.line == m || f.line == m + 1 {
                used[mi] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for (mi, &m) in markers.iter().enumerate() {
        if !used[mi] {
            kept.push(Finding {
                rule: "stale-allow",
                file: file.to_string(),
                line: m as usize,
                message: "`// lint: allow` suppresses no finding — remove the marker \
                          (stale exemptions hide future regressions at this site)"
                    .to_string(),
            });
        }
    }
    kept.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    kept
}

fn flag(v: &[bool], idx: usize) -> bool {
    v.get(idx).copied().unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Rule: parser-fuzz
// ---------------------------------------------------------------------------

/// A module that hand-rolls parsing (`pub fn parse*` or `impl FromStr`)
/// must carry a `mod fuzz_tests` sibling proving panic-freedom.
pub fn scan_parser_fuzz(file: &str, raw: &str) -> Vec<Finding> {
    let stripped = strip_source(raw);
    let tests = test_mod_lines(&stripped);
    let mut first_parser_line = None;
    for (i, line) in stripped.lines().enumerate() {
        if flag(&tests, i) {
            continue;
        }
        let t = line.trim_start();
        let is_parser = t.starts_with("pub fn parse")
            || (t.starts_with("impl") && t.contains("FromStr for"));
        if is_parser {
            first_parser_line = Some(i + 1);
            break;
        }
    }
    let Some(line) = first_parser_line else {
        return Vec::new();
    };
    if stripped.lines().any(|l| {
        let t = l.trim_start();
        t.starts_with("mod fuzz_tests") || t.starts_with("pub mod fuzz_tests")
    }) {
        return Vec::new();
    }
    vec![Finding {
        rule: "parser-fuzz",
        file: file.to_string(),
        line,
        message: "hand-rolled parser module has no `fuzz_tests` sibling — add a proptest \
                  never-panics module (see lorel::parser::fuzz_tests for the idiom)"
            .to_string(),
    }]
}

// ---------------------------------------------------------------------------
// Rule: canonical-order
// ---------------------------------------------------------------------------

const OPS: [&str; 4] = ["creNode", "remArc", "updNode", "addArc"];

fn op_phase(word: &str) -> Option<usize> {
    OPS.iter()
        .position(|o| word.eq_ignore_ascii_case(o))
}

/// Positions (byte offset, phase) of change-op names on a line, in
/// textual order. Case-insensitive so `CreNode` enum variants count.
fn ops_on_line(line: &str) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    for op in OPS {
        let lower = line.to_ascii_lowercase();
        let needle = op.to_ascii_lowercase();
        let mut from = 0usize;
        while let Some(pos) = lower.get(from..).and_then(|s| s.find(&needle)) {
            let at = from + pos;
            if let Some(phase) = op_phase(op) {
                found.push((at, phase));
            }
            from = at + needle.len();
        }
    }
    found.sort_unstable();
    found.dedup();
    found
}

/// Does the text between two op names on a line read as a pure arrow
/// joint? Whitespace, backticks, and emphasis stars are cosmetic; the
/// remainder must be exactly one `->` or `→`. Anything else (commas,
/// words, parenthesised arguments) means the names are an enumeration,
/// not an ordered chain.
fn is_arrow_gap(gap: &str) -> bool {
    let meat: String = gap
        .chars()
        .filter(|c| !c.is_whitespace() && *c != '`' && *c != '*')
        .collect();
    meat == "->" || meat == "\u{2192}"
}

/// Split the ops on a line into maximal arrow-joined chains of phases.
fn arrow_chains(line: &str) -> Vec<Vec<usize>> {
    let ops = ops_on_line(line);
    let mut chains: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for (idx, &(at, phase)) in ops.iter().enumerate() {
        if current.is_empty() {
            current.push(phase);
        } else {
            let (prev_at, prev_phase) = ops[idx - 1];
            let prev_end = prev_at + OPS[prev_phase].len();
            let joined = line.get(prev_end..at).is_some_and(is_arrow_gap);
            if joined {
                current.push(phase);
            } else {
                chains.push(std::mem::take(&mut current));
                current.push(phase);
            }
        }
    }
    if !current.is_empty() {
        chains.push(current);
    }
    chains.retain(|c| c.len() >= 2);
    chains
}

/// The canonical change-set application order (`creNode → remArc →
/// updNode → addArc`, `oem::changeset`'s completeness argument) must
/// never be restated in a different order. Two checks:
///
/// 1. **Arrow chains** (docs, comments, prose): a run of ≥ 2 op names
///    joined by `→`/`->` arrows must list them in ascending phase order.
///    Comma-separated enumerations of the op *kinds* are not chains and
///    carry no order claim. For Rust files, `#[cfg(test)]` regions are
///    skipped (lint fixtures quote bad chains on purpose).
/// 2. **Phase maps** (code): a ≤ 6-line window in which all four ops are
///    matched to integers (`CreNode … => 0`) must assign ascending
///    integers in canonical order.
pub fn scan_canonical_order(file: &str, raw: &str, is_rust: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    let lines: Vec<&str> = raw.lines().collect();
    let tests = if is_rust {
        test_mod_lines(&strip_source(raw))
    } else {
        Vec::new()
    };
    // Check 1: arrow chains, on raw text (the order statement usually
    // lives in prose or doc comments).
    for (i, line) in lines.iter().enumerate() {
        if flag(&tests, i) {
            continue;
        }
        for chain in arrow_chains(line) {
            if chain.windows(2).any(|w| w[0] >= w[1]) {
                out.push(Finding {
                    rule: "canonical-order",
                    file: file.to_string(),
                    line: i + 1,
                    message: format!(
                        "change-op chain listed out of canonical order (found {:?}; the \
                         completeness argument requires creNode -> remArc -> updNode -> addArc)",
                        chain.iter().map(|&p| OPS[p]).collect::<Vec<_>>()
                    ),
                });
            }
        }
    }
    // Check 2: phase-map windows, on stripped code.
    if is_rust {
        let stripped = strip_source(raw);
        let code_lines: Vec<&str> = stripped.lines().collect();
        for start in 0..code_lines.len() {
            let end = (start + 6).min(code_lines.len());
            let mut map: [Option<i64>; 4] = [None; 4];
            let mut complete_at = None;
            for (j, line) in code_lines.iter().enumerate().take(end).skip(start) {
                for (op_idx, op) in OPS.iter().enumerate() {
                    if let Some(n) = arm_number(line, op) {
                        map[op_idx] = Some(n);
                    }
                }
                if map.iter().all(Option::is_some) {
                    complete_at = Some(j);
                    break;
                }
            }
            let Some(j) = complete_at else { continue };
            // Only report once per window family: require the window to
            // START on a line contributing the creNode arm.
            if arm_number(code_lines.get(start).copied().unwrap_or(""), OPS[0]).is_none() {
                continue;
            }
            let nums: Vec<i64> = map.iter().map(|n| n.unwrap_or(0)).collect();
            if nums.windows(2).any(|w| w[0] >= w[1]) {
                out.push(Finding {
                    rule: "canonical-order",
                    file: file.to_string(),
                    line: start + 1,
                    message: format!(
                        "phase map assigns non-canonical order {nums:?} to \
                         (creNode, remArc, updNode, addArc) — application order is load-bearing \
                         (oem::changeset completeness argument)"
                    ),
                });
            }
            let _ = j;
        }
    }
    out
}

/// If `line` looks like a match arm pairing `op` with an integer
/// (`CreNode … => 0`), return the integer.
fn arm_number(line: &str, op: &str) -> Option<i64> {
    let lower = line.to_ascii_lowercase();
    let pos = lower.find(&op.to_ascii_lowercase())?;
    let rest = lower.get(pos..)?;
    let arrow = rest.find("=>")?;
    let after = rest.get(arrow + 2..)?.trim_start();
    let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Rule: missing-docs
// ---------------------------------------------------------------------------

/// Every crate root (`src/lib.rs`) must carry `#![warn(missing_docs)]`.
pub fn scan_missing_docs(file: &str, raw: &str) -> Vec<Finding> {
    let stripped = strip_source(raw);
    if stripped.contains("#![warn(missing_docs)]") {
        return Vec::new();
    }
    vec![Finding {
        rule: "missing-docs",
        file: file.to_string(),
        line: 1,
        message: "crate root lacks `#![warn(missing_docs)]` (workspace documentation contract)"
            .to_string(),
    }]
}

// ---------------------------------------------------------------------------
// Workspace file collection
// ---------------------------------------------------------------------------

/// Recursive workspace walk: collects `.rs` under `crates/` (and
/// top-level `tests/`, `src/` if present) and `.md` everywhere, skipping
/// `target`, VCS internals, and anything deeper than a sane bound.
/// Returns repo-relative `(rust_files, md_files)`, sorted.
pub fn collect_workspace_files(
    root: &std::path::Path,
) -> (Vec<std::path::PathBuf>, Vec<std::path::PathBuf>) {
    fn walk(
        root: &std::path::Path,
        dir: &std::path::Path,
        rust: &mut Vec<std::path::PathBuf>,
        md: &mut Vec<std::path::PathBuf>,
        depth: u32,
    ) {
        if depth > 8 {
            return;
        }
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') || name == "node_modules" {
                    continue;
                }
                walk(root, &path, rust, md, depth + 1);
            } else if let Ok(rel) = path.strip_prefix(root) {
                let rel_str = rel.to_string_lossy();
                if name.ends_with(".rs")
                    && (rel_str.starts_with("crates/")
                        || rel_str.starts_with("tests/")
                        || rel_str.starts_with("src/"))
                {
                    rust.push(rel.to_path_buf());
                } else if name.ends_with(".md") {
                    md.push(rel.to_path_buf());
                }
            }
        }
    }
    let mut rust = Vec::new();
    let mut md = Vec::new();
    walk(root, root, &mut rust, &mut md, 0);
    rust.sort();
    md.sort();
    (rust, md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_comments_and_strings() {
        let src = "let a = \"x.unwrap()\"; // .unwrap()\nlet b = y.unwrap();\n";
        let s = strip_source(src);
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(!s.lines().next().unwrap_or("").contains(".unwrap()"));
        assert!(s.lines().nth(1).unwrap_or("").contains(".unwrap()"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_chars() {
        let s = strip_source("let r = r#\"a \" b\"#; let c = '\\''; let l: &'static str = x;");
        assert!(!s.contains("a \" b"));
        assert!(s.contains("'static"));
        let s2 = strip_source("proptest src in \"\\\\PC{0,80}\"");
        assert!(!s2.contains("PC{0,80}"));
    }

    #[test]
    fn test_mods_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  pub fn parse_t() {}\n}\npub fn parse_a() {}\n";
        let f = scan_parser_fuzz("crates/x/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn a() {\n  // lint: allow\n  b();\n  c(); // lint: allow\n  e();\n  d();\n}\n";
        let raw_findings: Vec<Finding> = [3, 4, 6]
            .into_iter()
            .map(|line| Finding {
                rule: "parser-fuzz",
                file: "x.rs".to_string(),
                line,
                message: String::new(),
            })
            .collect();
        let f = apply_allows("x.rs", src, raw_findings);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn stale_allow_marker_is_a_finding() {
        // A marker with nothing to suppress is itself reported …
        let src = "fn a() {\n  // lint: allow\n  fine();\n}\n";
        let f = apply_allows("x.rs", src, Vec::new());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("stale-allow", 2));
        // … but doc comments and strings mentioning the phrase are not
        // markers, so they can't go stale.
        let prose = "/// about `// lint: allow` markers\nlet s = \"// lint: allow\";\n";
        assert!(apply_allows("x.rs", prose, Vec::new()).is_empty());
    }

    #[test]
    fn parser_fuzz_rule_requires_sibling() {
        let bare = "pub fn parse_thing(s: &str) -> Result<(), ()> { Ok(()) }\n";
        assert_eq!(scan_parser_fuzz("x.rs", bare).len(), 1);
        let with = format!("{bare}#[cfg(test)]\nmod fuzz_tests {{}}\n");
        assert!(scan_parser_fuzz("x.rs", &with).is_empty());
        assert!(scan_parser_fuzz("x.rs", "fn nothing() {}\n").is_empty());
    }

    #[test]
    fn canonical_order_arrow_chains() {
        let good = "apply in creNode -> remArc -> updNode -> addArc order\n";
        assert!(scan_canonical_order("DESIGN.md", good, false).is_empty());
        let bad = "apply in addArc -> creNode order\n";
        assert_eq!(scan_canonical_order("DESIGN.md", bad, false).len(), 1);
        let unrelated = "x -> y\n";
        assert!(scan_canonical_order("DESIGN.md", unrelated, false).is_empty());
        // Comma-separated enumerations carry no order claim, even when the
        // line also happens to contain an arrow elsewhere.
        let enumeration =
            "the ops (`creNode`, `updNode`, `addArc`, `remArc`) drive the HTML->OEM parser\n";
        assert!(scan_canonical_order("DESIGN.md", enumeration, false).is_empty());
        // A correct chain followed by prose that re-mentions an op is fine.
        let chain_then_prose =
            "order `creNode → remArc → updNode → addArc`: `remArc` only targets arcs\n";
        assert!(scan_canonical_order("x.rs", chain_then_prose, false).is_empty());
    }

    #[test]
    fn canonical_order_phase_maps() {
        let good = "match op {\n  CreNode(..) => 0,\n  RemArc(..) => 1,\n  UpdNode(..) => 2,\n  AddArc(..) => 3,\n}\n";
        assert!(scan_canonical_order("x.rs", good, true).is_empty());
        let bad = "match op {\n  CreNode(..) => 0,\n  AddArc(..) => 1,\n  UpdNode(..) => 2,\n  RemArc(..) => 3,\n}\n";
        assert_eq!(scan_canonical_order("x.rs", bad, true).len(), 1);
    }

    #[test]
    fn missing_docs_rule() {
        assert!(scan_missing_docs("x.rs", "#![warn(missing_docs)]\n").is_empty());
        assert_eq!(scan_missing_docs("x.rs", "//! docs\n").len(), 1);
        // The attribute in a comment doesn't count.
        assert_eq!(
            scan_missing_docs("x.rs", "// #![warn(missing_docs)]\n").len(),
            1
        );
    }

    /// The scanner honors the panic-freedom contract it enforces.
    mod fuzz_tests {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn strip_source_never_panics(src in "\\PC{0,160}") {
                let out = strip_source(&src);
                prop_assert_eq!(out.lines().count(), src.lines().count());
            }

            #[test]
            fn scanners_never_panic(src in "\\PC{0,160}") {
                let _ = scan_parser_fuzz("f.rs", &src);
                let _ = scan_canonical_order("f.rs", &src, true);
                let _ = scan_canonical_order("f.md", &src, false);
                let _ = scan_missing_docs("f.rs", &src);
                let _ = apply_allows("f.rs", &src, Vec::new());
            }

            #[test]
            fn scanners_never_panic_on_rustish_soup(src in "(let |mut |\\.lock\\(\\)|\\.unwrap\\(\\)|sync_data\\(|creNode|=> 3|\\{|\\}|\"|'|//|/\\*|\n| ){0,60}") {
                let _ = strip_source(&src);
                let _ = scan_parser_fuzz("f.rs", &src);
                let _ = scan_canonical_order("f.rs", &src, true);
            }

            #[test]
            fn classifier_never_panics(src in "\\PC{0,200}") {
                // One class per byte.
                prop_assert_eq!(token::classify(&src).len(), src.len());
                let _ = token::allow_marker_lines(&src);
            }
        }
    }
}
