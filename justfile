# Developer entry points. CI (.github/workflows/ci.yml) runs its own
# steps; `just check` is its format, clippy and default-pool test steps.

export CARGO_NET_OFFLINE := "true"

# fmt + clippy + tests
check: fmt-check clippy test

fmt:
    cargo fmt

fmt-check:
    cargo fmt --check

clippy:
    cargo clippy --all-targets -- -D warnings

# The tier-1 command: `default-members` makes it every workspace test
# (about 2 min on 2 vCPUs with a warm cache; the budget is 4 min). Chaos
# tests use fixed seeds, so this is deterministic.
test:
    cargo test -q

# The topology sweep: configs (a)-(e) plus deep HierarchyBuilder chains,
# each on the default deadlines (none may fire), across worker-pool
# sizes, with the runtime crate held to clippy -D warnings. A shortcut:
# `test` runs these suites too, and CI runs `test` at each pool size.
topology-matrix:
    cargo clippy -p ddnn-runtime --all-targets -- -D warnings
    DDNN_THREADS=1 cargo test -p ddnn-runtime --test topology_matrix --test topology_equivalence -q
    DDNN_THREADS=4 cargo test -p ddnn-runtime --test topology_matrix --test topology_equivalence -q

# The one chaos sweep: the chaos-plan contract, seeded link faults,
# wire integrity, ARQ, observability, membership churn (CRC-only and
# under ARQ recovery) and process kills/respawns, across worker-pool
# sizes. Every seed is fixed, so every leg is deterministic. A shortcut:
# `test` runs these suites too, and CI runs `test` at each pool size.
chaos-matrix:
    DDNN_THREADS=1 cargo test -p ddnn-runtime --test chaos_plan_tests --test chaos_tests --test frame_integrity_proptest --test reliability_tests --test obs_tests --test churn_tests --test proc_chaos_tests -q
    DDNN_THREADS=4 cargo test -p ddnn-runtime --test chaos_plan_tests --test chaos_tests --test frame_integrity_proptest --test reliability_tests --test obs_tests --test churn_tests --test proc_chaos_tests -q

build:
    cargo build --workspace --release

# The kernel equivalence sweep, the same loops CI's kernel-matrix step
# runs: `binary_conv2d` (the fused plan, stacked batches, the f32 route
# for rows wider than a word) and the XNOR GEMM `binary_matmul` at the
# paper's FC shapes must be bit-identical to the f32 sign path on every
# dispatch tier at every pool size (tiers above what the CPU supports
# clamp down, so this is safe on any x86-64 or non-x86 host); the frozen
# inference form, whose XNOR front end is that kernel, must be
# bit-identical to the layer stack's f32 `Mode::Eval` on every tier and
# pool size; the window kernels (the padded-plane conv2d forward, col2im,
# max pooling) must be bit-identical to the bounds-checked per-tap walk
# at every pool size; and the register-tiled f32 GEMM (`matmul`, the
# conv2d forward, both conv backward halves) must be bit-identical to
# the former `ikj` loop, the former per-sample im2col + ikj forward and
# the per-sample backward loops on every tier and pool size; and one
# short seeded training run (`seeded_training_is_pinned`: its losses and
# checkpoint FNV) must give its pinned bits on every tier and pool size.
kernel-matrix:
    #!/usr/bin/env bash
    set -euo pipefail
    for t in 1 4; do
      DDNN_THREADS=$t cargo test -p ddnn-tensor --test window_kernels -q
    done
    for simd in scalar sse2 avx2 avx512; do
      for t in 1 4; do
        DDNN_SIMD=$simd DDNN_THREADS=$t cargo test -p ddnn-tensor --test binary_conv_equivalence -q
        DDNN_SIMD=$simd DDNN_THREADS=$t cargo test -p ddnn-core --test frozen -q
        DDNN_SIMD=$simd DDNN_THREADS=$t cargo test -p ddnn-tensor --test gemm_tiers -q
        DDNN_SIMD=$simd DDNN_THREADS=$t cargo test -p ddnn-core --test properties seeded_training_is_pinned -q
      done
    done

# The streaming conservation suite across worker-pool sizes and
# transports (fixed seeds, so every leg is deterministic). A shortcut:
# `test` runs it too, and CI runs `test` at each pool size.
streaming-matrix:
    DDNN_THREADS=1 cargo test -p ddnn-runtime --test streaming_tests -q
    DDNN_THREADS=4 cargo test -p ddnn-runtime --test streaming_tests -q

# The transport suite: loopback verdict equivalence across channel/TCP/
# UDP+ARQ, socket junk resilience, and the multi-process launcher tests.
# A shortcut: `test` runs these suites too.
transport-smoke:
    cargo test -p ddnn-runtime --test transport_tests --test multiproc_tests -q
    cargo test -p ddnn-runtime --lib -q transport

# End-to-end multi-process smoke: the hierarchy as four OS processes on
# localhost (TCP, then UDP under ARQ), verdicts checked against the
# in-process run by the binary itself.
multiproc-smoke:
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport tcp --samples 12
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport udp --samples 12

# In-process channel vs localhost TCP vs UDP+ARQ: goodput and measured
# tail latency of the same streamed workload -> results/BENCH_transport.json
bench-transport:
    cargo run --release -p ddnn-bench --bin transport

# The same cells on 48 samples -> target/smoke/BENCH_transport.json (the
# committed artifact is left alone).
bench-transport-smoke:
    cargo run --release -p ddnn-bench --bin transport -- --smoke

# Supervised process-chaos smoke: a live SIGKILL demo (kill the gateway,
# respawn the devices) driven through the binary itself. The seeded
# kill/respawn/link-chaos test suite runs under `test` and `chaos-matrix`.
proc-chaos-smoke:
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport tcp --samples 8 --kill gateway@3
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport udp --samples 8 --kill devices@2 --respawn-after 3

# The one repeatable benchmark (BENCHMARK.json, benchmark/README.md).
# Smoke: every workload's code path in under 10 s with the in-run oracles
# on (verdicts equal Ddnn::infer; 4-process verdicts and bytes equal the
# in-process run); its timings are never comparable.
bench-smoke:
    benchmark/run.sh --smoke

# Two sets of three runs per workload against the declared bounds (~10 min).
bench-selfcheck:
    benchmark/run.sh selfcheck

# A/B one workload between a base commit and this checkout: N (default
# 10) alternating parent/change pairs at equal seeds through the command
# of BENCHMARK.json; per metric both medians, quartiles, wins/N and the
# verdict of the choosing-metrics rule. `just bench-ab HEAD~1
# burst_escalate`, optionally `--pairs N --seconds S`.
bench-ab base workload *args:
    scripts/bench_ab.sh {{base}} {{workload}} {{args}}

# Code lines (non-blank, non-comment) of the runtime crate, unit tests
# included: the simplicity budget ROADMAP holds every change to (its
# control-plane and wire-format items aim at 7,600). CI fails above 8,081;
# the ceiling only ratchets down.
runtime-loc:
    find crates/runtime/src -name '*.rs' | xargs grep -cvE '^\s*(//|$)' | awk -F: '{ s += $2 } END { print s }'

# Lines of the runtime crate that read the wall clock or sleep
# (`Instant::now`, `sleep(`), unit tests included. The node cores and the
# sample pump read no clock and ARQ retransmits from the same `drive`;
# the socket layer waits in poll(2), the role heartbeat on a stop channel
# and the reap on the child's stdout closing. What remains is the process
# supervisor's handshake and report deadlines, the transport tests'
# disconnect wait, the chaos delay sleep and `SimClock::start`. CI fails
# above 8; the ceiling only ratchets down.
clock-sites:
    grep -rE 'Instant::now|sleep\(' crates/runtime/src | wc -l

# Regenerate every paper table/figure into results/<name>.txt (slow;
# accepts DDNN_EPOCHS). One process, one dataset, each distinct model
# trained once; progress goes to stderr.
experiments:
    cargo run --release -p ddnn-bench --bin paper

# The regenerator at one epoch per model: every experiment's code path,
# artifacts written (CI's paper-smoke job), then again on the scalar tier
# and one thread, and on the native tier at four threads (the batch
# fan-outs, the max-pool's included, only partition with more than one);
# fails unless all three runs write byte-identical trees. It overwrites
# the committed results/*.txt; `git checkout results` restores them.
paper-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    DDNN_EPOCHS=1 cargo run --release -p ddnn-bench --bin paper
    first=$(mktemp -d)
    trap 'rm -rf "$first"' EXIT
    cp -r results "$first/"
    DDNN_SIMD=scalar DDNN_THREADS=1 DDNN_EPOCHS=1 cargo run --release -p ddnn-bench --bin paper
    diff -r "$first/results" results
    DDNN_THREADS=4 DDNN_EPOCHS=1 cargo run --release -p ddnn-bench --bin paper
    diff -r "$first/results" results
