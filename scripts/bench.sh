#!/usr/bin/env bash
# Release (-O2) micro-bench job: builds the Google-Benchmark binaries in a
# dedicated build tree and emits ns/op JSON to bench/out/BENCH_micro_*.json —
# the machine-readable perf trajectory CI uploads as an artifact.
#
# Usage: scripts/bench.sh [build-dir]
#
# Compare against the committed pre-PR baselines in bench/out/
# (BENCH_micro_corruption_prepr.json): same benchmark names, so
#   jq '
#     .benchmarks[] | {name, real_time}
#   ' bench/out/BENCH_micro_corruption*.json
# lines up old vs new ns/op directly. docs/performance.md explains the
# individual benchmarks.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
OUT_DIR="bench/out"
mkdir -p "${OUT_DIR}"

# Every bench this script runs. Each must have a committed
# bench/out/BENCH_<name>_postpr.json baseline, and every committed baseline
# must name one of them: the gate below fails on either kind of orphan.
MICRO_BENCHES=(micro_corruption micro_mvm micro_graph micro_partition micro_attention micro_matching)
BENCHES=("${MICRO_BENCHES[@]}" online_tolerance)

cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
cmake --build "${BUILD_DIR}" -j"$(nproc)" --target "${BENCHES[@]/#/bench_}"

for name in "${MICRO_BENCHES[@]}"; do
    echo "=== bench_${name} ==="
    "${BUILD_DIR}/bench_${name}" \
        --benchmark_out_format=json \
        --benchmark_out="${OUT_DIR}/BENCH_${name}.json"
done

# End-to-end online-tolerance frontier: not a Google-Benchmark binary — it
# runs the built-in online_tolerance plan, asserts the acceptance criteria
# (an online scheme beats FARe-only retraining; nonzero detection/repair
# costs) and writes deterministic *modeled* detect/repair times in the same
# GBench JSON shape, so check_bench.py gates it machine-independently.
echo "=== bench_online_tolerance ==="
FARE_BENCH_OUT="${OUT_DIR}" "${BUILD_DIR}/bench_online_tolerance"

echo "Results in ${OUT_DIR}/BENCH_micro_*.json and ${OUT_DIR}/BENCH_online_tolerance.json"

# Regression gate: every bench above is enforced against its committed
# baseline (generous factor — the gate catches order-of-magnitude
# regressions, not machine-to-machine noise). A bench without a baseline, or
# a baseline without a bench, fails the gate instead of being skipped. Set
# FARE_BENCH_FACTOR to tune, or FARE_BENCH_NO_CHECK=1 to record only.
if [ -z "${FARE_BENCH_NO_CHECK:-}" ]; then
    status=0
    for name in "${BENCHES[@]}"; do
        baseline="${OUT_DIR}/BENCH_${name}_postpr.json"
        if [ ! -e "$baseline" ]; then
            echo "bench.sh: bench_${name} has no committed baseline ${baseline}" >&2
            status=1
            continue
        fi
        echo "=== threshold check: BENCH_${name}.json vs ${baseline} ==="
        python3 scripts/check_bench.py "$baseline" "${OUT_DIR}/BENCH_${name}.json" \
            "${FARE_BENCH_FACTOR:-3.0}" || status=1
    done
    for baseline in "${OUT_DIR}"/*_postpr.json; do
        name="$(basename "$baseline" _postpr.json)"
        case " ${BENCHES[*]} " in
            *" ${name#BENCH_} "*) ;;
            *)
                echo "bench.sh: baseline ${baseline} belongs to no bench this script runs" >&2
                status=1
                ;;
        esac
    done
    exit "$status"
fi
