#!/usr/bin/env python3
"""Enforce micro-bench regression thresholds against a committed baseline.

Compares the `_mean` (or plain) entries of a fresh Google-Benchmark JSON
against the committed baseline and fails when any shared benchmark's ns/op
regressed past the allowed factor. CI machines are noisy and heterogeneous,
so the default factor is deliberately generous — this gate catches
order-of-magnitude regressions (an accidental O(n^2), a lost overlay fast
path), not single-digit percent drift; trajectory analysis stays with the
uploaded artifacts (docs/performance.md).

Usage: scripts/check_bench.py BASELINE.json FRESH.json [factor]
"""
import json
import sys


def means(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        # Aggregate rows: repetition statistics, and the complexity fit
        # (_BigO, _RMS) of ->Complexity() benches, which has no real_time.
        if name.endswith(("_median", "_stddev", "_cv", "_min", "_max", "_BigO", "_RMS")):
            continue
        base = name[: -len("_mean")] if name.endswith("_mean") else name
        out[base] = float(bench["real_time"])
    return out


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline, fresh = means(argv[1]), means(argv[2])
    factor = float(argv[3]) if len(argv) == 4 else 3.0
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print(f"check_bench: no shared benchmark names between {argv[1]} "
              f"and {argv[2]}", file=sys.stderr)
        return 2
    failed = 0
    for name in shared:
        old, new = baseline[name], fresh[name]
        ratio = new / old if old > 0 else float("inf")
        verdict = "FAIL" if ratio > factor else "ok"
        failed += verdict == "FAIL"
        print(f"  {verdict:4} {name}: {old:12.1f} -> {new:12.1f} ns "
              f"({ratio:5.2f}x, limit {factor:.1f}x)")
    if failed:
        print(f"check_bench: {failed}/{len(shared)} benchmark(s) regressed "
              f"past {factor:.1f}x the baseline", file=sys.stderr)
        return 1
    print(f"check_bench: {len(shared)} benchmark(s) within {factor:.1f}x "
          f"of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
