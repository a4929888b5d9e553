#!/usr/bin/env bash
# lbsbench: build the benchmark from source, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run (this is BENCHMARK.json's command); the result is the
#       last line of standard output
#   benchmark/run.sh [--seed N]
#       the suite: every workload end to end, then every workload traced
#   benchmark/run.sh --smoke
#       every workload and the ladder with --seconds 1
#   benchmark/run.sh compare A B
#       two result sets (files or directories) against the bounds
#
# Run it from the root of the repository. It reads and writes only below
# that directory: the build goes to $CARGO_TARGET_DIR (default
# target/lbsbench-build), results to $LBSBENCH_OUT (default
# target/benchmark).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/lbsbench-build}"
# Build chatter goes to standard error: standard output ends with the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/lbsbench"
workloads=(engine_batch node_update node_query cluster_update)

# Everything runs on ONE of the box's CPUs: generator, servers and engine
# threads take turns on it. A wake-up that crosses virtual CPUs costs about
# 20 us here (an interrupt through the hypervisor) against 2 us on one CPU,
# and where the guest's scheduler happens to put each thread then decides
# the result by a factor of two or more (README, "One CPU").
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu="$(taskset -cp $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/[,-].*//')"
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
    fi
fi
if [ "${#pin[@]}" -eq 0 ]; then
    echo "lbsbench: cannot pin to one CPU (no taskset); these numbers do not compare with pinned ones" >&2
fi
lbsbench() { ${pin[@]+"${pin[@]}"} "$bin" "$@"; }

# One run, whatever order its flags come in.
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec ${pin[@]+"${pin[@]}"} "$bin" run "$@"
    fi
done

case "${1:-}" in
compare)
    lbsbench "$@"
    ;;
--smoke)
    for w in "${workloads[@]}"; do
        lbsbench run --workload "$w" --seconds 1 | sed '$d'
    done
    lbsbench trace --workload node_update --seconds 1 | sed '$d'
    ;;
"" | --seed)
    seed="${2:-1}"
    for trace in 0 1; do
        for w in "${workloads[@]}"; do
            lbsbench run --workload "$w" --seed "$seed" --trace "$trace" | sed '$d'
        done
    done
    ;;
*)
    sed -n '2,13p' "${BASH_SOURCE[0]}" >&2
    exit 2
    ;;
esac
