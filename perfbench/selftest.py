#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/selftest.py [--seconds 3] [--seed 5]

Run from the repository root. For every workload in BENCHMARK.json it
runs the benchmark twice at a short length with the same seed, once
untraced (--trace 0) and once traced (--trace 1, whose untraced first
pass prints the same detail counts), and checks that:

  * both runs exit 0 and report correct == true with failed == 0;
  * the exact counts repeat: queries offered per kind, events ingested
    and accepted, and the analytics output digest;
  * the parameters the binary runs with equal those recorded in
    perfbench/workloads.json;
  * every end-to-end metric (untraced run) and every per-layer metric
    (traced run) named in BENCHMARK.json is present with its unit.

Exits nonzero on the first failed check.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Detail counts that must repeat exactly for a fixed seed.
EXACT = ("offered.fixed", "offered.overload", "offered.churn",
         "offered.distances", "offered.journey", "events.instance",
         "events.accepted", "samples.update", "digest_lo32",
         "instance.contacts")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench_detail"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace={trace}: {result['failed']} of "
                 f"{result['attempted']} failed")
    return result, detail


def check_metrics(workload, metrics, expected):
    if set(metrics) != {m["name"] for m in expected}:
        missing = {m["name"] for m in expected} - set(metrics)
        extra = set(metrics) - {m["name"] for m in expected}
        sys.exit(f"FAIL {workload}: missing {sorted(missing)} extra {sorted(extra)}")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            sys.exit(f"FAIL {workload}: {m['name']} unit {got['unit']!r} "
                     f"!= {m['unit']!r}")
        if not isinstance(got["value"], (int, float)):
            sys.exit(f"FAIL {workload}: {m['name']} value {got['value']!r}")


def check_params(workload, detail, recorded):
    """The binary's parameters (param.* detail rows) == workloads.json."""
    ran = {k[len("param."):]: v for k, v in detail.items()
           if k.startswith("param.")}
    if set(ran) != set(recorded):
        sys.exit(f"FAIL {workload}: params {sorted(ran)} != workloads.json "
                 f"{sorted(recorded)}")
    for k, v in recorded.items():
        if abs(ran[k] - v) > 1e-12 * max(1.0, abs(v)):
            sys.exit(f"FAIL {workload}: param {k} runs as {ran[k]}, "
                     f"workloads.json records {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
        record = json.load(f)["workloads"]
    for w in bench["workloads"]:
        name = w["name"]
        plain, d1 = run(name, args.seed, args.seconds, 0)
        traced, d2 = run(name, args.seed, args.seconds, 1)
        check_params(name, d1, record[name]["params"])
        check_metrics(name, plain["metrics"], bench["end_to_end"])
        check_metrics(name, traced["metrics"], bench["per_layer"])
        for key in EXACT:
            if d1.get(key) != d2.get(key):
                sys.exit(f"FAIL {name}: {key} {d1.get(key)} != {d2.get(key)}")
        repeated = [k for k in EXACT if k in d1]
        print(f"ok {name}: {len(bench['end_to_end'])} end-to-end + "
              f"{len(bench['per_layer'])} per-layer metrics; repeated "
              + ", ".join(f"{k}={d1[k]:.0f}" for k in repeated))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
