#!/usr/bin/env bash
# One entry point for people; the driver uses the command in BENCHMARK.json.
#
#   benchmark/run.sh all [--seed S] [--seconds N]    four workloads, one merged JSON line
#   benchmark/run.sh --smoke                         same code paths in under 10 s; never comparable
#   benchmark/run.sh selfcheck [--seconds N]         two sets of three runs per workload against the bounds
#   benchmark/run.sh run <workload> [--trace] ...    one workload; --trace is the per-layer pass
set -euo pipefail
# The binary writes benchmark/results/ relative to the checkout root.
cd "$(dirname "$0")/.."
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
case "${1:-all}" in
--smoke)
    "${bench[@]}" all --smoke
    "${bench[@]}" run stream_paper --trace --smoke
    ;;
all | selfcheck | run | manifest)
    "${bench[@]}" "$@"
    ;;
*)
    sed -n '2,8p' "$0" >&2
    exit 2
    ;;
esac
