#!/usr/bin/env bash
# Regenerate the committed benchmark baselines:
#   BENCH_smoke.json   — pinned smoke suite (Fig. 9 kernel model, Fig. 10/11
#                        scaling projections, live coupled model on the
#                        CPE-teams substrate; override the path with $1)
#   BENCH_scaling.json — halo-overlap gate + counter-calibrated SDPD
#                        weak/strong-scaling projections (bench_scaling)
#   BENCH_serve.json   — serving layer: batched-vs-per-query dispatch with
#                        bitwise checkpoint verification, plus traffic
#                        latency/qps under the thread-pool front-end
#                        (bench_serve; gated >= 2x batched speedup)
# The smoke document's "trace" section carries the tracing-overhead
# measurement; bench_smoke itself fails when disabled tracing costs >= 1%
# of the smoke window, and bench_compare re-checks the same absolute
# budget. bench_scaling fails unless the overlapped exchange is bitwise
# identical to the synchronous one and cuts >= 30% of the traced halo wait
# time. Compare against a committed baseline with:
#   cargo run --release -p grist-bench --bin bench_compare -- \
#       BENCH_smoke.json new.json
# Everything runs offline (see README "Offline builds").
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_smoke.json}"

echo "== bench smoke -> ${out} =="
cargo run --release -p grist-bench --bin bench_smoke -- "${out}"

echo "== bench scaling -> BENCH_scaling.json =="
cargo run --release -p grist-bench --bin bench_scaling -- BENCH_scaling.json

echo "== bench serve -> BENCH_serve.json =="
cargo run --release -p grist-bench --bin bench_serve -- BENCH_serve.json
