#!/usr/bin/env python3
"""Plan-level benchmark of the FARe simulator (see perfbench/README.md).

Run one workload, or all of them one after another (builds the harness on
first use):

    python3 perfbench/run.py --workload fig5_grid --seed 7 --seconds 30 --trace 0
        [--record results.jsonl]
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

Compare two recorded result sets of alternating parent/change runs:

    python3 perfbench/run.py compare parent.jsonl change.jsonl

Build and run the benchmark's own tests:

    python3 perfbench/run.py selftest
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_CAP = "2"  # FARE_THREADS for every workload; the harness checks it
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
MIN_PAIRS = 10


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory.
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_to_end(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group.

    Returns the exit code, or None on timeout. Every process started here has
    ended when this returns.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if sys.exc_info()[0] is subprocess.TimeoutExpired:
            return None
        raise


def build(target):
    """Configure (once) and build `target` in Release; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/ (expected CMakeLists.txt and src/)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j",
                  str(max(1, min(4, os.cpu_count() or 1)))])
    with open(log_path, "a") as log:
        for step in steps:
            code = run_to_end(step, BUILD_TIMEOUT_S, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build step failed (%s): %s" % (code, " ".join(step)), 1)
    return os.path.join(out, target)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append this run's record to a JSON-lines file")
    args = parser.parse_args(argv)

    harness = build("perfbench_harness")
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["FARE_THREADS"] = THREAD_CAP
    for knob in ("FARE_EPOCHS", "FARE_SIMD"):  # cells pin epochs; ISA is auto
        env.pop(knob, None)
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    else:
        names = [args.workload]
    commit = commit_id()
    worst = 0
    for name in names:
        cmd = [harness, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir,
               "--commit", commit]
        if args.record:
            cmd += ["--record", os.path.abspath(args.record)]
        sys.stdout.flush()
        code = run_to_end(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
        if code is None:
            fail("harness exceeded %d s on %s" % (RUN_TIMEOUT_S, name), 1)
        worst = worst or code
    return worst


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound):
    """Verdict for one metric over paired runs (parent[i] ran beside change[i]).

    improved:  the change wins >= 9/10 of the pairs and the medians differ, in
               its favour, by more than the parent's interquartile range;
    no worse:  the change's median is within `bound` (a share of the parent's
               median) of the parent's, and the parent's own spread is within
               the bound;
    unresolved: anything else, with the reason.
    """
    pairs = len(parent)
    if pairs < MIN_PAIRS or len(change) != pairs:
        return "unresolved", "need %d pairs, have %d" % (MIN_PAIRS, min(pairs, len(change)))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    gap = (c_med - p_med) if direction == "higher" else (p_med - c_med)
    iqr = p_q3 - p_q1
    if wins >= 0.9 * pairs and gap > iqr:
        return "improved", "wins %d/%d, gap %.3g > parent IQR %.3g" % (wins, pairs, gap, iqr)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if iqr > bound * abs(p_med) and not all_better:
        return "unresolved", "parent spread %.1f%% exceeds the %.0f%% bound" % (
            100 * iqr / abs(p_med), 100 * bound)
    worse_by = -gap / abs(p_med) if p_med else 0.0
    if worse_by <= bound:
        return "no worse", "median %s by %.1f%%, bound %.0f%%" % (
            "better" if gap >= 0 else "worse", 100 * abs(worse_by), 100 * bound)
    return "unresolved", "median worse by %.1f%% > bound %.0f%%" % (100 * worse_by, 100 * bound)


def load_records(path):
    """Untraced run records by workload, in file order."""
    runs = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                host, result = record["host"], record["result"]
            except (ValueError, KeyError) as e:
                fail("%s:%d: not a perfbench record (%s)" % (path, number, e))
            if host.get("trace") == 0:
                runs.setdefault(host["workload"], []).append(record)
    return runs


def compare(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py compare")
    parser.add_argument("parent", help="records of the parent commit (--record output)")
    parser.add_argument("change", help="records of the change, run alternately with parent")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load_records(args.parent), load_records(args.change)
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        pairs = min(len(p_runs), len(c_runs))
        same = [p["digest"] == c["digest"] for p, c in zip(p_runs, c_runs)
                if p["host"]["seed"] == c["host"]["seed"]]
        failed = sum(r["result"]["failed"] for r in p_runs + c_runs)
        print("%s: %d pairs, outputs %s, %d failed cells" % (
            workload, pairs,
            "identical" if same and all(same) else "DIFFER" if same else "not comparable",
            failed))
        print("  %-16s %-33s %-33s %-7s %s" % ("metric", "parent median [q1, q3]",
                                             "change median [q1, q3]", "wins", "verdict"))
        for m in metrics:
            pv = [r["result"]["metrics"][m["name"]]["value"] for r in p_runs[:pairs]]
            cv = [r["result"]["metrics"][m["name"]]["value"] for r in c_runs[:pairs]]
            if pairs < 2:
                print("  %-16s unresolved: need %d pairs, have %d" % (m["name"], MIN_PAIRS, pairs))
                continue
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(better(c, p, m["better"]) for p, c in zip(pv, cv))
            name, why = verdict(pv, cv, m["better"], m["bound"])
            print("  %-16s %-33s %-33s %-7s %s (%s)" % (
                m["name"], "%.5g [%.5g, %.5g]" % (pq[1], pq[0], pq[2]),
                "%.5g [%.5g, %.5g]" % (cq[1], cq[0], cq[2]), "%d/%d" % (wins, pairs),
                name, why))
    return 0


def selftest():
    test = build("perfbench_test")
    code = run_to_end([test], BUILD_TIMEOUT_S, cwd=ROOT)
    unit = run_to_end([sys.executable, "-m", "unittest", "-q", "test_run"], RUN_TIMEOUT_S,
                      cwd=HERE, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return 1 if code != 0 or unit != 0 else 0


def main(argv):
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["selftest"]:
        return selftest()
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
