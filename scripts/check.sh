#!/usr/bin/env bash
# Local CI gate: build, test, lint, and format-check the whole workspace.
# Everything runs offline (see README "Offline builds").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace --all-targets

echo "== cargo test =="
cargo test --workspace --release -q

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== API surface (no suffix-named variants) + size numbers =="
scripts/api_surface.sh

echo "== repo benchmark builds and self-tests against the current API (lock unchanged) =="
cargo test --release --locked --offline --manifest-path benchmark/Cargo.toml

echo "== chaos suite (3 fixed fault seeds) =="
for seed in 42 7 1234; do
    echo "-- CHAOS_SEED=$seed"
    CHAOS_SEED=$seed cargo test --release -q --test integration_chaos
done

echo "== grist gate: every scenarios/*.json twice (bitwise stable), every BENCH_*.json suite's in-run gates (ml 3x / 1.5x, serve 2x + verified > 0, scaling bitwise + counters + exchange order on every rank lane, tracer-off < 1%), then an exact diff against each pin =="
cargo run --release -p grist-bench -- gate

echo "== grist trace (traced multi-rank chaos run + attribution) =="
cargo run --release -p grist-bench -- trace

echo "== grist obs (end-of-run SLO, no member alert, metrics document re-parses equal) =="
cargo run --release -p grist-bench -- obs

echo "== grist report fig10 fig11 (scaling figures regenerate) =="
cargo run --release -p grist-bench -- report fig10 fig11 > /dev/null

echo "All checks passed."
