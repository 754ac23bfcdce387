#!/usr/bin/env bash
# Local CI gate: build, full test suite, lints, and the paper-claim
# experiment table. Run from the repo root; exits non-zero on the first
# failure. This is the same sequence the verify recipe in
# .claude/skills/verify/SKILL.md walks through by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> every 'cargo bench [-p P] --bench B' in README.md, DESIGN.md and CLAUDE.md names a real bench target"
# Without -p, cargo looks in the root package (doem-suite).
bench_targets="$(cargo metadata --no-deps --format-version 1 --offline \
    | jq -r '.packages[] | .name as $p | .targets[] | select(.kind | index("bench")) | "\($p) \(.name)"')"
missing_benches="$(grep -ohE 'cargo bench (-p [A-Za-z0-9_-]+ )?--bench [A-Za-z0-9_-]+' README.md DESIGN.md CLAUDE.md \
    | sed -E 's/^cargo bench (-p ([^ ]+) )?--bench (.+)$/\2 \3/; s/^ /doem-suite /' | sort -u \
    | grep -vxF -f <(echo "$bench_targets") || true)"
if [ -n "$missing_benches" ]; then
    sed 's/^/    no bench target (package bench): /' <<<"$missing_benches" >&2
    echo "ci: the docs name a bench command that fails; fix the -p package or the bench name" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> fault matrix: serve recovery under fixed failpoint seeds x group-commit legs"
for seed in 7 1998 424242; do
    for gc in 1 8; do
        echo "    SERVE_FAULT_SEED=$seed SERVE_GROUP_COMMIT=$gc"
        SERVE_FAULT_SEED=$seed SERVE_GROUP_COMMIT=$gc \
            cargo test -q --offline --test serve_recovery
    done
done

echo "==> fault matrix: replication stream under fixed partition/stall seeds"
for seed in 7 1998 424242; do
    echo "    SERVE_REPL_FAULT_SEED=$seed"
    SERVE_REPL_FAULT_SEED=$seed \
        cargo test -q --offline --test serve_replication
done

# Every sanitized leg below also dumps its observed lock-order edges
# (DOEM_SANITIZE_GRAPH) so the cross-validation gate can check
# runtime ⊆ static afterwards. Paths are absolute because `cargo test`
# runs test binaries with the package dir as cwd.
lock_order_dir="$(pwd)/target/lock-order"
rm -rf "$lock_order_dir"
mkdir -p "$lock_order_dir"

# sanitized_leg <edges> <label> <cmd…>: run the command under
# DOEM_SANITIZE=1 with its edges dumped to $lock_order_dir/<edges>.edges;
# a failing command (its output is printed) or any sanitizer finding
# line fails CI.
sanitized_leg() {
    local edges="$1" label="$2" out
    shift 2
    out="$(DOEM_SANITIZE=1 DOEM_SANITIZE_GRAPH="$lock_order_dir/$edges.edges" "$@" 2>&1)" || {
        echo "$out"
        echo "ci: $label failed under DOEM_SANITIZE=1" >&2
        exit 1
    }
    if grep -q "DOEM-SANITIZE \[" <<<"$out"; then
        grep "DOEM-SANITIZE \[" <<<"$out" >&2
        echo "ci: sanitizer reported findings in the $label" >&2
        exit 1
    fi
}

echo "==> replication smoke (1 primary, 2 followers) under DOEM_SANITIZE=1"
sanitized_leg repl "replication smoke" \
    cargo test -q --offline --test serve_replication two_followers_track_a_live_primary

echo "==> chaos matrix: topology torture + consistency oracle + failpoint liveness audit"
# Three full-size seeds (kill-9s, WAL/replication faults, one fenced
# failover each) through the four oracle checks; a failing seed leaves
# a minimized repro in target/chaos/failure-<seed>.txt (DESIGN.md §12).
cargo run -q --release --offline -p chaos -- --seeds 7,1998,424242

echo "==> chaos smoke under DOEM_SANITIZE=1"
sanitized_leg chaos "chaos smoke" \
    cargo run -q --release --offline -p chaos -- --seeds 3 --ops 60 --faults 8 --followers 2

echo "==> MVCC time-travel torture under DOEM_SANITIZE=1"
# Concurrent writers advancing the head, a snapshot pinned across the
# whole run, and AS OF readers hopping over every recorded point —
# publish and AS OF share the shard state lock (DESIGN.md §14), which
# must stay clean, and its observed edges feed the cross-validation
# gate below.
sanitized_leg mvcc "MVCC time-travel leg" \
    cargo test -q --offline --test serve_concurrency mvcc_time_travel_under_concurrent_writers

echo "==> serve module size guard (no file under crates/serve/src over 1,000 lines)"
oversize="$(find crates/serve/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')"
[ -z "$oversize" ] || { echo "$oversize"; echo "ci: split the file(s) above along a seam" >&2; exit 1; }

echo "==> doem-lint (zero findings; an inline \`// lint: allow\` is the one exemption)"
cargo run -q -p lint --offline --bin doem-lint

echo "==> incremental agreement proptest under DOEM_SANITIZE=1"
# The semi-naive maintenance path (DESIGN.md §11) must agree with full
# re-evaluation on random histories, and its change-set-seeded variants
# with the unpruned ones; its serve/qss consumers run it under the shard
# write lock — so both properties rerun with the sanitizer watching.
sanitized_leg inc "incremental agreement proptest" \
    cargo test -q --offline --test properties -- \
    incremental_agrees_with_full seeded_variants_agree_with_unpruned

echo "==> serve suite under DOEM_SANITIZE=1 (must report zero findings)"
# The sanitizer fixtures in crates/sanitizer/tests *intentionally* emit
# DOEM-SANITIZE findings, so the gate reruns only the serve crate's
# binaries and fails on any finding line in their output. Session
# threads answer cache hits themselves (shard map, Shard.state read,
# cache mutex); crates/serve/tests/request_edge.rs drives that over TCP
# here, so any lock edge it takes lands in serve.edges for the
# runtime ⊆ static gate below.
sanitized_leg serve "serve suite" cargo test -q --offline -p serve

echo "==> static/runtime lock-order cross-validation (runtime edges ⊆ static graph)"
# After every sanitized leg, so each one's .edges file is in the union.
cargo run -q -p lint --offline --bin doem-lint -- --graph dot > "$lock_order_dir/static.dot"
if ! cargo run -q -p lint --offline --bin doem-lint -- --runtime-subset "$lock_order_dir"; then
    # Leave both graphs behind as diffable artifacts: the static
    # prediction and the union of what the sanitized legs observed.
    {
        echo "digraph runtime_lock_order {"
        awk -F'\t' 'NF == 2 && !seen[$0]++ { printf "  \"%s\" -> \"%s\";\n", $1, $2 }' \
            "$lock_order_dir"/*.edges
        echo "}"
    } > "$lock_order_dir/runtime.dot"
    echo "ci: runtime lock-order edges escaped the static graph (lint soundness bug); artifacts:" >&2
    echo "ci:   static graph:  target/lock-order/static.dot" >&2
    echo "ci:   runtime graph: target/lock-order/runtime.dot (+ per-leg .edges files)" >&2
    exit 1
fi

echo "==> perf smoke: doem-load output checks over a real doem-serve (no threshold)"
# The wire answers of every workload — current reads, AS OF near and far
# on the O_t(D) view, everything again after kill -9 recovery — are
# checked byte for byte against a shadow database built from the acked
# writes (benchmark/README.md). Correctness under load is the gate here;
# speed is judged by `benchmark/run.sh --compare`, not by CI.
bash benchmark/run.sh --quick --out "$(pwd)/target/perf-smoke" > /dev/null
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo test --doc (runnable rustdoc examples)"
cargo test -q --doc --workspace --offline

echo "==> cargo run --bin experiments"
out="$(cargo run -q --release --offline --bin experiments)"
echo "$out" | tail -n 3
if ! grep -q "14 experiments, 14 matched" <<<"$out"; then
    echo "ci: experiments table no longer matches the paper's claims" >&2
    exit 1
fi

echo "ci: all gates passed"
