#!/usr/bin/env bash
# Record benchmark results: run the Release temporal + multi-source +
# serving benches and append their machine-readable JSON lines, stamped
# with the date and commit, to BENCH_temporal.json,
# BENCH_multi_source.json and BENCH_serve.json at the repo root (one
# JSON object per line, append-only history). Then run the end-to-end
# benchmark (perfbench/run.py, untraced) for every workload in
# BENCHMARK.json on a fixed list of seeds at its run_seconds, and append
# one flat line per workload to BENCH_perfbench.json: the median of each
# end-to-end metric (named as in BENCHMARK.json), whether every run was
# correct, the total of failed operations, the seeds, and the date,
# commit and host tag (CPU model and count). Diff any two recordings
# with scripts/bench_compare.py, e.g.
#   scripts/bench_compare.py BENCH_perfbench.json --bench perfbench \
#       --metric throughput_per_s
# The host tag is part of a row's identity there, so only recordings
# from the same kind of host are compared.
#
#   scripts/bench_record.sh            # build, run, append every file
#   SKIP_BUILD=1 scripts/bench_record.sh   # reuse existing build-bench
#
# The perfbench pass takes workloads x seeds x run_seconds (~8 min).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${SKIP_BUILD:-0}" != "1" ]]; then
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-bench -j"$jobs" \
    --target bench_temporal_paths bench_multi_source bench_serve
fi

stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
# "<hash>-dirty" marks a recording of uncommitted changes on top of <hash>.
commit="$(git describe --always --dirty 2>/dev/null || echo unknown)"

record() {
  local bin="$1" out="$2"
  # The no-match filter skips registered google-benchmark loops; the
  # experiment tables (the JSON source) always run.
  ./build-bench/bench/"$bin" --benchmark_filter='^structnet_smoke_none$' \
    2>/dev/null |
    python3 -c '
import json, sys
stamp, commit = sys.argv[1], sys.argv[2]
n = 0
for line in sys.stdin:
    line = line.strip()
    if not line.startswith("{"):
        continue
    rec = json.loads(line)
    rec["date"] = stamp
    rec["commit"] = commit
    print(json.dumps(rec))
    n += 1
if n == 0:
    sys.exit("no BENCH JSON lines from bench run")
' "$stamp" "$commit" >>"$out"
  echo "bench_record: appended $(grep -c "\"date\": \"$stamp\"" "$out") \
lines from $bin to $out"
}

record bench_temporal_paths BENCH_temporal.json
record bench_multi_source BENCH_multi_source.json
record bench_serve BENCH_serve.json

python3 - "$stamp" "$commit" >>BENCH_perfbench.json <<'PY'
import json, statistics, subprocess, sys
stamp, commit = sys.argv[1], sys.argv[2]
SEEDS = [1, 2, 3, 4, 5]
spec = json.load(open("BENCHMARK.json"))
metrics = [m["name"] for m in spec["end_to_end"]]
models, cpus = [], 0
for line in open("/proc/cpuinfo"):
    key, _, value = line.partition(":")
    if key.strip() == "processor":
        cpus += 1
    elif key.strip() == "model name" and not models:
        models.append(" ".join(value.split()))
host = "%s x%d" % (models[0] if models else "unknown", cpus)
for workload in spec["workloads"]:
    name = workload["name"]
    runs, correct = [], True
    for seed in SEEDS:
        proc = subprocess.run(
            spec["command"] + ["--workload", name, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]),
                               "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
        if not lines:
            sys.exit("bench_record: no perfbench result for %s seed %d"
                     % (name, seed))
        result = json.loads(lines[-1])
        correct = correct and proc.returncode == 0 and bool(result["correct"])
        runs.append(result)
        print("bench_record: perfbench %s seed %d done" % (name, seed),
              file=sys.stderr)
    rec = {"bench": "perfbench", "workload": name}
    for m in metrics:
        rec[m] = statistics.median(r["metrics"][m]["value"] for r in runs)
    rec["correct"] = correct
    rec["failed"] = sum(int(r["failed"]) for r in runs)
    rec["seeds"] = SEEDS
    rec["run_seconds"] = spec["run_seconds"]
    rec["date"] = stamp
    rec["commit"] = commit
    rec["host"] = host
    print(json.dumps(rec))
PY
echo "bench_record: appended $(grep -c "\"date\": \"$stamp\"" \
BENCH_perfbench.json) lines from perfbench to BENCH_perfbench.json"
echo "bench_record: OK ($stamp, $commit)"
