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

echo "== repo benchmark builds and self-tests against the current API =="
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== chaos suite (3 fixed fault seeds) =="
for seed in 42 7 1234; do
    echo "-- CHAOS_SEED=$seed"
    CHAOS_SEED=$seed cargo test --release -q --test integration_chaos
done

echo "== trace report (traced multi-rank chaos run + attribution) =="
cargo run --release -p grist-bench --bin trace_report -- \
    target/trace.json target/trace_report.json

echo "== scenario regression matrix (bitwise golden-hash gate) =="
cargo run --release -p grist-bench --bin scenario_gate -- --out target/scenarios
cargo test --release -q --test integration_scenarios

echo "== serving layer (snapshot isolation) =="
cargo test --release -q --test integration_serve

echo "== serving telemetry (end-of-run SLO, no member alert, metrics document re-parses equal) =="
cargo run --release -p grist-bench --bin obs_report -- \
    target/obs_metrics.json target/obs_report.md

echo "== bench pins: in-run gates (ml 3x / 1.5x, serve 2x + verified > 0, scaling bitwise + counters + exchange order on every rank lane, tracer-off < 1%), then exact diff vs BENCH_*.json =="
cargo run --release -p grist-bench --bin bench_gate -- --out target/bench

echo "== scaling figures (10, 11) regenerate =="
cargo run --release -p grist-bench --bin fig10_weak_scaling > /dev/null
cargo run --release -p grist-bench --bin fig11_strong_scaling > /dev/null

echo "All checks passed."
