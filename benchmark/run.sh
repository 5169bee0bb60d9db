#!/usr/bin/env bash
# Runs the benchmark the way the driver does, and compares result sets.
#
#   benchmark/run.sh [--runs K] [--label NAME] [--first-seed N]
#       K untraced runs of every workload (default 5), each with another
#       seed, workloads interleaved and their order alternating from round
#       to round, then one traced pass; results land in
#       benchmark/out/NAME/ and a summary is printed.
#   benchmark/run.sh --compare A B
#       checks every end-to-end metric x workload of set B against set A by
#       its bound in BENCHMARK.json ("unresolved" where A's own spread
#       exceeds the bound).
#
# Builds into $CARGO_TARGET_DIR (default: target/, the workspace's own
# ignored build directory).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--compare" ]]; then
    [[ $# -eq 3 ]] || { echo "usage: $0 --compare A B" >&2; exit 2; }
    exec python3 benchmark/summarize.py compare "$2" "$3"
fi

runs=5
label="set-$(date +%Y%m%d-%H%M%S)"
first_seed=1
while [[ $# -gt 0 ]]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        --first-seed) first_seed="$2"; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/janus_benchmark"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
out="benchmark/out/$label"
mkdir -p "$out"

one() { # workload seed trace file
    if ! "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
            --out "$out" > "$4" 2> "$4.stderr"; then
        echo "FAILED: $1 seed $2 trace $3 (see $4.stderr)" >&2
        grep '^GATE' "$4.stderr" >&2 || true
    fi
}

for ((i = 0; i < runs; i++)); do
    order=("${workloads[@]}")
    if ((i % 2 == 1)); then # alternate the order between rounds
        order=()
        for ((j = ${#workloads[@]} - 1; j >= 0; j--)); do order+=("${workloads[j]}"); done
    fi
    for w in "${order[@]}"; do
        echo "round $((i + 1))/$runs: $w" >&2
        one "$w" $((first_seed + i)) 0 "$out/$w.$i.json"
    done
done
for w in "${workloads[@]}"; do
    echo "traced: $w" >&2
    one "$w" "$first_seed" 1 "$out/$w.traced.json"
done
find "$out" -name '*.stderr' -size 0 -delete
python3 benchmark/summarize.py summary "$out"
