#!/usr/bin/env bash
# A/B one workload of the repository's benchmark between a base commit and
# this checkout (working tree included), by the rule of the
# choosing-metrics guide.
#
#   scripts/bench_ab.sh <base-sha> <workload> [--pairs N] [--seconds S]
#
# Exports the base with `git archive` into target/bench_ab/<sha> (reused on
# a second run), builds both benchmark packages offline, then runs N
# (default 10) parent/change pairs through the `command` of BENCHMARK.json
# at equal seeds (pair i uses seed i), alternating which side goes first.
# Per end-to-end metric it prints both medians with their quartiles, how
# many pairs the change won, and a verdict:
#   gain        >= 9/10 of the pairs won and the medians further apart
#               than the parent's own inter-quartile distance
#   regression  change's median worse than the parent's by more than the
#               metric's bound in BENCHMARK.json
#   unresolved  run-to-run spread wider than that bound
#   same        none of the above
# S defaults to `run_seconds` of BENCHMARK.json; shorter runs are for
# checking the script, not for claims. Exit code 1 if any run failed an
# in-run oracle.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 2 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
base_sha=$(git rev-parse --verify "$1^{commit}")
workload=$2
shift 2
pairs=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

change_dir=$PWD
base_dir=$PWD/target/bench_ab/$base_sha
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir"
    git archive "$base_sha" | tar -x -C "$base_dir"
fi
mapfile -t bench < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
for dir in "$base_dir" "$change_dir"; do
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
run() { # side dir seed
    (cd "$2" && "${bench[@]}" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) \
        2>/dev/null | tail -n 1 >>"$out/$1.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
    echo "pair $i/$pairs (seed $i)" >&2
    if ((i % 2)); then
        run parent "$base_dir" "$i"
        run change "$change_dir" "$i"
    else
        run change "$change_dir" "$i"
        run parent "$base_dir" "$i"
    fi
done

python3 - "$out" "$workload" "$base_sha" "$seconds" <<'PY'
import json, statistics, sys
out, workload, base_sha, seconds = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
side = {s: [json.loads(l) for l in open(f"{out}/{s}.jsonl")] for s in ("parent", "change")}
pairs = len(side["parent"])
def quartiles(v):
    return statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3
print(f"{workload}: {pairs} pairs x {seconds} s, parent {base_sha[:7]} vs this checkout")
if pairs < 10:
    print("fewer than ten pairs: the verdicts below check the script, they support no claim")
print(f"{'metric':26} {'parent med [q1, q3]':>34} {'change med [q1, q3]':>34}  wins  verdict")
for m in spec["end_to_end"]:
    name, bound = m["name"], m["bound"]
    sign = 1.0 if m["better"] == "higher" else -1.0
    p, c = ([r["metrics"][name]["value"] for r in side[s]] for s in ("parent", "change"))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    gap = sign * (cmed - pmed)
    if wins >= 0.9 * pairs and gap > pq3 - pq1:
        verdict = f"gain x{cmed / pmed:.2f} of {pmed:.4g}" if pmed else "gain"
    elif -gap > bound * abs(pmed):
        verdict = "regression"
    elif max(pq3 - pq1, cq3 - cq1) > bound * abs(pmed) and not all(
        sign * (b - a) >= 0 for a in p for b in c
    ):
        verdict = "unresolved"
    else:
        verdict = "same"
    cell = lambda med, q1, q3: f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
    print(f"{name:26} {cell(pmed, pq1, pq3):>34} {cell(cmed, cq1, cq3):>34} {wins:>2}/{pairs:<2} {verdict}")
failed = {s: sum(r["failed"] for r in side[s]) for s in side}
attempted = {s: sum(r["attempted"] for r in side[s]) for s in side}
print("failed/attempted: " + ", ".join(f"{s} {failed[s]}/{attempted[s]}" for s in side))
sys.exit(1 if any(failed.values()) or not all(r["correct"] for s in side for r in side[s]) else 0)
PY
