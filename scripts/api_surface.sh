#!/usr/bin/env bash
# API-surface gate: instrumentation is a context, not a suffix (DESIGN.md
# "Instrumentation is a context, not a suffix"). Fails if any public
# function under crates/ is named for the instrumentation it adds or for
# the index subset it runs over (`*_on`: the shallow-water kernels take
# their subset as an argument, DESIGN.md §5), or if
# the deleted dycore lane layer / kernel-mode switch reappears (DESIGN.md
# §11 "Why the dycore has no hand-written lanes") or a DMA scheduling mode
# and its staging pipeline do (§11 "Why there is no DMA mode"), or the LDM
# copy arena or a GEMM microkernel switch does, or a crate the repo
# benchmark builds depends on the modeled machine (`sunway-model`), or library
# code reads the environment (behaviour comes from arguments, never from a
# process-wide variable), or the JSON/hex checkpoint
# codec or a superseded image format's reader does (DESIGN.md §8: one binary
# image, no second reader), or the tolerance-band bench comparator does
# (DESIGN.md §7: `BENCH_*.json` are exact pins checked by `grist gate`; wall
# time is judged in `benchmark/`), or a second telemetry registry, switch or
# lock-free histogram does (DESIGN.md §13: histograms live in `Metrics`, the
# tracer is the one switch), or the Fig. 9 stand-in kernels, their second
# descriptor type or a settable launch count do (DESIGN.md §5 "Cost
# descriptors"), or the CNN's gathered receptive-field panel does (DESIGN.md
# §7 "Batched ML inference") or a second forward pass per ML network, a
# layer's cached input or the hybrid physics blend does (same section), or a
# layer that carries its own gradient and Adam moments does (same section:
# `Adam` owns the training state), or if
# any crate but `sunway-sim` gains an
# `unsafe` or `sunway-sim` more than its ceiling (DESIGN.md §2 "Disjoint
# writes, argued once": kernels name their outputs to `Substrate::run_cols`),
# or the raw-pointer workshare helpers come back, or `hevi.rs` gains a
# `powf` (DESIGN.md §5: the step's equation of state is one `ln` and its
# `exp`s), or a second binary, its document schema or a `--bin`
# invocation does (one `grist` binary, DESIGN.md §7), or the `pub fn` count
# or the lines under `crates/` grow past their ceilings, then prints the
# size numbers PR descriptions quote.
set -euo pipefail
cd "$(dirname "$0")/.."

if grep -rnE "pub fn \w+_(metered|chaos|observed|traced|with_obs|on)\b" crates; then
    echo "api_surface: FAIL — fold the variant(s) above into the layer's context" >&2
    exit 1
fi

if grep -rnE "GRIST_SIMD|KernelMode|LaneVec|GRIST_DMA|DmaMode|stage_chunks|staged_loop_time" crates; then
    echo "api_surface: FAIL — one plain loop per dycore kernel; no kernel-mode or DMA-mode switch" >&2
    exit 1
fi

# (Each name ends in a one-character class so this line does not match itself.)
if grep -rnE "omnicop[y]|LdmAren[a]|CopyStat[s]|GemmVarian[t]|gemm_nn_wit[h]" crates tests examples; then
    echo "api_surface: FAIL — no LDM copy arena that no kernel copies through, no GEMM microkernel switch (RadiationMlp::infer_batch runs gemm_nn_simd; gemm_nn is the oracle)" >&2
    exit 1
fi

# The modeled SW26010P (`crates/sunway-model`) is reached by the `grist`
# binary, the examples and the tests, never by a crate the repo benchmark
# builds: `benchmark/run.sh` builds with `--locked`, so a new edge from one
# of them would rewrite `benchmark/Cargo.lock` and fail every benchmark run.
locked=$(sed -n 's/^name = "\(.*\)"$/\1/p' benchmark/Cargo.lock)
for toml in benchmark/Cargo.toml crates/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$toml" | head -n 1)
    if grep -qx "$name" <<<"$locked" && grep -n "sunway-model" "$toml"; then
        echo "api_surface: FAIL — $toml: $name is built by the repo benchmark (benchmark/Cargo.lock) and may not depend on sunway-model" >&2
        exit 1
    fi
done

# The `grist` binary reads no variable either (`grist trace` seeds its
# fault plans from a constant); the one `CHAOS_SEED` read is a test's,
# `tests/integration_chaos.rs`.
if grep -rnE "env::var(_os)?\(" --include='*.rs' \
    crates/core/src crates/grist-*/src crates/sunway-sim/src crates/sunway-model/src crates/bench/src; then
    echo "api_surface: FAIL — library and binary code read no environment variable; take the value as an argument" >&2
    exit 1
fi

if grep -rnE "encode_bits|decode_bits|grist-checkpoint-v1|grist-ckpt-v2" crates; then
    echo "api_surface: FAIL — checkpoints are one binary image; no hex codec, no v1 or v2 reader" >&2
    exit 1
fi

# (Each name ends in a one-character class so this line does not match itself.)
if grep -rnE "time_toleranc[e]|CompareConfi[g]|grist-bench-v[1]|bench_compar[e]" crates scripts; then
    echo "api_surface: FAIL — bench pins are exact (grist gate); no tolerance bands, no second comparator" >&2
    exit 1
fi

# (Each name ends in a one-character class so this line does not match itself.)
if grep -rnE "ObsPlan[e]|with_ob[s]|absorb_trac[e]|DASHBOARD_VERSIO[N]|grist-obs-v[1]|fetch_ma[x]" crates; then
    echo "api_surface: FAIL — one registry (Metrics histograms), one switch (the tracer), no lock-free histogram twin" >&2
    exit 1
fi

if grep -rnE "grist_dycore::kernels|KernelCost|fig9_kernels\(|DYN_OPERATOR_GROUPS|dyn_kernel_groups|compute_rrr|primal_normal_flux_edge|calc_coriolis_term" crates tests; then
    echo "api_surface: FAIL — Fig. 9 and the SDPD model read the cost descriptors beside the executed dispatches (hevi::DYN_KERNELS, tracer::FCT_KERNELS); no stand-in kernels, no second descriptor type, no settable launch count" >&2
    exit 1
fi

# (Each name ends in a one-character class so this line does not match itself.)
if grep -rnE "im2co[l]|SampleLayou[t]" crates; then
    echo "api_surface: FAIL — the CNN's convs read their receptive field in place (grist_ml::batch's register tile); no gathered receptive-field panel, no layout struct for one" >&2
    exit 1
fi

# (Each name ends in a one-character class so this line does not match itself.)
if grep -rnE "cached_[x]|ColumnScratc[h]|infer_int[o]|blend_hal[f]|set_hybrid_physic[s]|PhysicsEngine::Hybri[d]" crates tests examples; then
    echo "api_surface: FAIL — one forward pass per ML network (DESIGN.md §7 \"Batched ML inference\"): stateless layers, training backprops through the planes \`infer\` computes; two physics engines, no 50/50 blend" >&2
    exit 1
fi

# (Each name ends in a one-character class so this line does not match itself.)
if grep -rnE "struct Para[m]\b|zero_gra[d]|Param::h[e]" crates tests examples; then
    echo "api_surface: FAIL — weights are weights (DESIGN.md §7 \"Batched ML inference\"): layers hold plain weight and bias vectors, Adam owns every gradient and moment" >&2
    exit 1
fi

# (Each name ends in a one-character class so this line does not match itself.)
if [ -d crates/bench/src/bin ] || grep -rnE "grist-fig9-v[1]" crates \
    || grep -rnE -- "--bi[n] " scripts .github; then
    echo "api_surface: FAIL — one binary, grist (crates/bench/src/main.rs): no crates/bench/src/bin, no Fig. 9 document, no \`--bin\` invocation" >&2
    exit 1
fi

# The disjoint-write argument is made once, in `sunway_sim::substrate`: a
# kernel names its outputs to `Substrate::run_cols` and writes through plain
# `&mut`. No `unsafe` outside `crates/sunway-sim/src` (`crates/rand` is the
# vendored shim), and sunway-sim's own count only ever comes down.
if grep -rnw "unsafe" --include='*.rs' crates | grep -v "^crates/sunway-sim/src/\|^crates/rand/"; then
    echo "api_surface: FAIL — unsafe outside crates/sunway-sim/src; name the outputs to Substrate::run_cols instead" >&2
    exit 1
fi
sim_unsafe_ceiling=15
sim_unsafe=$(grep -rwo "unsafe" --include='*.rs' crates/sunway-sim/src | wc -l)
if [ "$sim_unsafe" -gt "$sim_unsafe_ceiling" ]; then
    echo "api_surface: FAIL — crates/sunway-sim/src has ${sim_unsafe} unsafe occurrences, ceiling ${sim_unsafe_ceiling}" >&2
    exit 1
fi
if grep -rnE "SyncPtr|target_workshare_map" crates; then
    echo "api_surface: FAIL — no raw-pointer workshare helpers; a write goes through the substrate's write set" >&2
    exit 1
fi

# The one `powf` left in `hevi.rs` is set-up only (`isothermal_rest_state`):
# Π and p of a step are exponentials of one `ln X`, never a `pow`.
hevi_powf_ceiling=1
hevi_powf=$(grep -o "powf" crates/grist-dycore/src/hevi.rs | wc -l)
if [ "$hevi_powf" -gt "$hevi_powf_ceiling" ]; then
    echo "api_surface: FAIL — crates/grist-dycore/src/hevi.rs has ${hevi_powf} powf occurrences, ceiling ${hevi_powf_ceiling}" >&2
    exit 1
fi

# Panic sites in grist-serve's non-test code (everything above each file's
# `#[cfg(test)]`): `unwrap()`, `expect(`, `panic!`, `unreachable!` and
# `resume_unwind`. What is left is one `expect` with its unreachability
# proof beside it and two joins that re-raise the joined thread's own panic;
# a lock is taken through the crate's poison-tolerant `lock` (DESIGN.md §12).
serve_panics_ceiling=3
serve_panics=$(for f in crates/grist-serve/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done \
    | grep -v '^\s*//' | grep -cE '\.unwrap\(\)|\.expect\(|panic!|unreachable!|resume_unwind' || true)
if [ "$serve_panics" -gt "$serve_panics_ceiling" ]; then
    echo "api_surface: FAIL — crates/grist-serve/src has ${serve_panics} non-test panic sites, ceiling ${serve_panics_ceiling}" >&2
    exit 1
fi

# Size ceilings: like the `unsafe` one they only ever come down — lower a
# ceiling to the new count when a change removes code.
pub_fns_ceiling=488
crates_lines_ceiling=32981
pub_fns=$(grep -rE "pub fn " --include='*.rs' crates/core crates/grist-* crates/sunway-sim crates/sunway-model | wc -l)
# crates/rand is the vendored offline shim, not this repo's code.
crates_lines=$(find crates -name '*.rs' -not -path 'crates/rand/*' -print0 | xargs -0 cat | wc -l)
tests_lines=$(find tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
at_most() { # what count ceiling
    if [ "$2" -gt "$3" ]; then
        echo "api_surface: FAIL — $1 is $2, ceiling $3" >&2
        exit 1
    fi
}
at_most "pub fn count under crates/{core,grist-*,sunway-sim,sunway-model}" "$pub_fns" "$pub_fns_ceiling"
at_most "Rust lines under crates/" "$crates_lines" "$crates_lines_ceiling"
echo "api_surface: OK — no suffix-named public functions, no lane layer, no DMA mode, no env reads outside tests, no hex checkpoint codec, no bench tolerance bands, no second telemetry registry, one binary"
echo "api_surface: pub fn under crates/{core,grist-*,sunway-sim,sunway-model}: ${pub_fns} (ceiling ${pub_fns_ceiling})"
echo "api_surface: Rust lines: crates/ (without the rand shim) ${crates_lines} (ceiling ${crates_lines_ceiling}), tests/ + examples/ ${tests_lines}"
echo "api_surface: unsafe occurrences in crates/sunway-sim/src: ${sim_unsafe} (ceiling ${sim_unsafe_ceiling}), elsewhere under crates/: 0"
echo "api_surface: non-test panic sites in crates/grist-serve/src: ${serve_panics} (ceiling ${serve_panics_ceiling})"
echo "api_surface: powf occurrences in crates/grist-dycore/src/hevi.rs: ${hevi_powf} (ceiling ${hevi_powf_ceiling})"
