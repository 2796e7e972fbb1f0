#!/usr/bin/env python3
"""Self-check of the benchmark: every workload, briefly, under two seeds.

    python3 perfbench/selfcheck.py [--seconds 2]

Run from the repository root.  For each workload in BENCHMARK.json and
each of two seeds it runs perfbench/run.py untraced and traced and
asserts that
  * the last line is the result object with exactly its four keys;
  * every metric BENCHMARK.json names is emitted, with its unit (the
    end-to-end set untraced, the per-layer set traced), and no other;
  * every end-to-end metric is a positive number;
  * nothing failed: failed == 0, correct is true, success_rate is 1
    (fail_rate 0);
  * the correctness digests match: paper_sweep's record digest equals
    the pinned one under both seeds.
Exits 0 when every check holds.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (101, 202)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None, None, "exit %d, %d stdout lines" % (done.returncode,
                                                         len(lines))
    return json.loads(lines[-1]), json.loads(lines[-2]).get("detail", {}), ""


def check(result, detail, expected, trace):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if result["failed"] != 0:
        problems.append("failed = %r" % result["failed"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted = %r" % result["attempted"])
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(expected)):
        problems.append("unexpected metric " + name)
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append("missing metric " + name)
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append("%s unit %r, want %r" % (name, m.get("unit"),
                                                     unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
        elif not trace and value <= 0:
            problems.append("%s is %r, must be positive" % (name, value))
    if not trace and metrics.get("success_rate", {}).get("value") != 1:
        problems.append("success_rate %r, fail_rate must be 0"
                        % metrics.get("success_rate"))
    if "records_digest" in detail and (
            detail["records_digest"] != detail.get("records_digest_pinned")):
        problems.append("records digest %s != pinned %s" % (
            detail["records_digest"], detail.get("records_digest_pinned")))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        digests = set()
        for seed in SEEDS:
            for trace in (0, 1):
                result, detail, error = run(workload, seed, args.seconds,
                                            trace)
                problems = [error] if error else check(
                    result, detail, expected[trace], trace)
                if detail and "records_digest" in detail:
                    digests.add(detail["records_digest"])
                status = "ok" if not problems else "FAIL"
                print("%-12s seed %d trace %d: %s" % (workload, seed, trace,
                                                      status))
                for p in problems:
                    print("    " + p)
                failures += bool(problems)
        if len(digests) > 1:
            print("%-12s digests differ across seeds: %s" % (workload,
                                                           sorted(digests)))
            failures += 1
    print("selfcheck: %s" % ("PASS" if failures == 0 else
                             "%d FAILED" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
