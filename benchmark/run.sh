#!/usr/bin/env bash
# The repo benchmark: build it (own workspace, offline, locked) and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; every metric by name and unit, then the result line
#   benchmark/run.sh [--seed N] [--seconds S] [--repeats R] [--workload W]... [--out DIR]
#       every workload (or the named ones), untraced then traced, one process
#       each; writes DIR/results.json (default benchmark/out)
#   benchmark/run.sh compare A.json B.json
#       better / same / worse / unresolved per (metric, workload); exit 1 on worse
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
if [ "${1:-}" = "compare" ]; then
    exec "$target/release/grist-benchmark" "$@"
fi
exec "$target/release/grist-benchmark" --out "$here/out" "$@"
