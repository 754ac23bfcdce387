#!/usr/bin/env bash
# The benchmark's one command: build `doem-serve` (root package) and
# `doem-load` (this package) in release mode, offline, into one target
# directory, then hand every argument to `doem-load`.
#
#   benchmark/run.sh                      all four workloads + traced pass -> benchmark/out/result.json
#   benchmark/run.sh --quick              the same at smoke-test size
#   benchmark/run.sh --repeat 5           medians and quartiles for --compare
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload read_cold --seed 7 --seconds 15 --trace 0    one run, one JSON line
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds: the caller's, else the root's.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin doem-serve
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin doem-load

exec "$target/release/doem-load" --server "$target/release/doem-serve" --out "$here/out" "$@"
