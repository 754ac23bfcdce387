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

echo "==> replication smoke (1 primary, 2 followers) under DOEM_SANITIZE=1"
repl_out="$(DOEM_SANITIZE=1 DOEM_SANITIZE_GRAPH="$lock_order_dir/repl.edges" \
    cargo test -q --offline --test serve_replication \
    two_followers_track_a_live_primary 2>&1)" || {
    echo "$repl_out"
    echo "ci: replication smoke failed under DOEM_SANITIZE=1" >&2
    exit 1
}
if grep -q "DOEM-SANITIZE \[" <<<"$repl_out"; then
    grep "DOEM-SANITIZE \[" <<<"$repl_out" >&2
    echo "ci: sanitizer reported findings in the replication smoke" >&2
    exit 1
fi

echo "==> chaos matrix: topology torture + consistency oracle + failpoint liveness audit"
# Three full-size seeds (kill-9s, WAL/replication faults, one fenced
# failover each) through the four oracle checks; a failing seed leaves
# a minimized repro in target/chaos/failure-<seed>.txt (DESIGN.md §12).
cargo run -q --release --offline -p chaos -- --seeds 7,1998,424242

echo "==> chaos smoke under DOEM_SANITIZE=1"
chaos_out="$(DOEM_SANITIZE=1 DOEM_SANITIZE_GRAPH="$lock_order_dir/chaos.edges" \
    cargo run -q --release --offline -p chaos -- \
    --seeds 3 --ops 60 --faults 8 --followers 2 2>&1)" || {
    echo "$chaos_out"
    echo "ci: chaos smoke failed under DOEM_SANITIZE=1" >&2
    exit 1
}
if grep -q "DOEM-SANITIZE \[" <<<"$chaos_out"; then
    grep "DOEM-SANITIZE \[" <<<"$chaos_out" >&2
    echo "ci: sanitizer reported findings in the chaos smoke" >&2
    exit 1
fi

echo "==> MVCC time-travel torture under DOEM_SANITIZE=1"
# Concurrent writers advancing the head, a snapshot pinned across the
# whole run, and AS OF readers hopping over retained versions — the
# version-ring lock (state → versions, DESIGN.md §14) must stay clean,
# and its observed edges feed the cross-validation gate below.
mvcc_out="$(DOEM_SANITIZE=1 DOEM_SANITIZE_GRAPH="$lock_order_dir/mvcc.edges" \
    cargo test -q --offline --test serve_concurrency \
    mvcc_time_travel_under_concurrent_writers 2>&1)" || {
    echo "$mvcc_out"
    echo "ci: MVCC time-travel leg failed under DOEM_SANITIZE=1" >&2
    exit 1
}
if grep -q "DOEM-SANITIZE \[" <<<"$mvcc_out"; then
    grep "DOEM-SANITIZE \[" <<<"$mvcc_out" >&2
    echo "ci: sanitizer reported findings in the MVCC time-travel leg" >&2
    exit 1
fi

echo "==> serve module size guard (no file under crates/serve/src over 1,000 lines)"
oversize="$(find crates/serve/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')"
[ -z "$oversize" ] || { echo "$oversize"; echo "ci: split the file(s) above along a seam" >&2; exit 1; }

echo "==> doem-lint (workspace invariants vs doem-lint.baseline)"
cargo run -q -p lint --offline --bin doem-lint

echo "==> doem-lint --fix --check (trivial serve unwraps must be fixed)"
cargo run -q -p lint --offline --bin doem-lint -- --fix --check

echo "==> guard-across-blocking baseline ratchet (must stay at most 9 findings)"
baseline_sites="$(grep -c '^guard-across-blocking' doem-lint.baseline || true)"
baseline_total="$(awk -F'\t' '/^guard-across-blocking/ { sum += $3 } END { print sum + 0 }' doem-lint.baseline)"
if [ "$baseline_total" -gt 9 ]; then
    echo "ci: guard-across-blocking baseline grew to $baseline_total findings across $baseline_sites file(s); only the two justified sites (install_shard durable prep, qss ticker persist) are accepted" >&2
    exit 1
fi

echo "==> incremental agreement proptest under DOEM_SANITIZE=1"
# The semi-naive maintenance path (DESIGN.md §11) must agree with full
# re-evaluation on random histories, and its change-set-seeded variants
# with the unpruned ones; its serve/qss consumers run it under the shard
# write lock — so both properties rerun with the sanitizer watching.
inc_out="$(DOEM_SANITIZE=1 DOEM_SANITIZE_GRAPH="$lock_order_dir/inc.edges" \
    cargo test -q --offline --test properties -- \
    incremental_agrees_with_full seeded_variants_agree_with_unpruned 2>&1)" || {
    echo "$inc_out"
    echo "ci: incremental agreement proptest failed under DOEM_SANITIZE=1" >&2
    exit 1
}
if grep -q "DOEM-SANITIZE \[" <<<"$inc_out"; then
    grep "DOEM-SANITIZE \[" <<<"$inc_out" >&2
    echo "ci: sanitizer reported findings in the incremental agreement run" >&2
    exit 1
fi

echo "==> serve suite under DOEM_SANITIZE=1 (must report zero findings)"
# The sanitizer fixtures in crates/sanitizer/tests *intentionally* emit
# DOEM-SANITIZE findings, so the gate reruns only the serve crate's
# binaries and fails on any finding line in their output. Session
# threads answer cache hits themselves (shard map, Shard.state read,
# cache mutex); crates/serve/tests/request_edge.rs drives that over TCP
# here, so any lock edge it takes lands in serve.edges for the
# runtime ⊆ static gate below.
sanitize_out="$(DOEM_SANITIZE=1 DOEM_SANITIZE_GRAPH="$lock_order_dir/serve.edges" \
    cargo test -q --offline -p serve 2>&1)" || {
    echo "$sanitize_out"
    echo "ci: serve tests failed under DOEM_SANITIZE=1" >&2
    exit 1
}
if grep -q "DOEM-SANITIZE \[" <<<"$sanitize_out"; then
    grep "DOEM-SANITIZE \[" <<<"$sanitize_out" >&2
    echo "ci: sanitizer reported findings in the serve suite" >&2
    exit 1
fi

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
# The wire answers of every workload — current reads, AS OF in the ring
# and on the O_t(D) view, everything again after kill -9 recovery — are
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
