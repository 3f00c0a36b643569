#!/usr/bin/env bash
# Tier-1 verify plus the whole test suite under ASan/UBSan, under TSan
# and with the obs layer compiled out, then the Release bench smoke and
# its gates, then the perfbench self-test. Every build compiles with
# -Werror (CMakeLists.txt) except the perfbench package (its own CMake
# project, perfbench/CMakeLists.txt). The ASan/UBSan build is Debug, so
# it is the one pass where the library's assert()s run; every other
# build defines NDEBUG.
#
#   scripts/check.sh          # plain build + full ctest, then ASan/UBSan (Debug) + TSan
#   SKIP_SANITIZE=1 scripts/check.sh   # skip the sanitizer passes
#   SKIP_BENCH=1 scripts/check.sh      # skip the bench smoke + perfbench self-test
#   SKIP_OBS_OFF=1 scripts/check.sh    # skip the STRUCTNET_OBS=OFF build
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure -j"$jobs"

if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
  echo "== sanitizer pass (ASan + UBSan, Debug with asserts): full test suite =="
  cmake -B build-asan -S . -DSTRUCTNET_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug \
    >/dev/null
  cmake --build build-asan -j"$jobs"
  ctest --test-dir build-asan --output-on-failure -j"$jobs"

  echo "== sanitizer pass (TSan): full test suite =="
  cmake -B build-tsan -S . -DSTRUCTNET_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$jobs"
  ctest --test-dir build-tsan --output-on-failure -j"$jobs"
fi

if [[ "${SKIP_OBS_OFF:-0}" != "1" ]]; then
  echo "== STRUCTNET_OBS=OFF build: full test suite on the stubbed obs layer =="
  cmake -B build-obs-off -S . -DSTRUCTNET_OBS=OFF >/dev/null
  cmake --build build-obs-off -j"$jobs"
  ctest --test-dir build-obs-off --output-on-failure -j"$jobs"
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  echo "== bench smoke (Release): every BENCH/METRICS JSON line must parse =="
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-bench -j"$jobs" \
    --target bench_temporal_paths bench_small_world bench_faults bench_serve \
             bench_multi_source
  # The '^$'-style no-match filter skips the registered google-benchmark
  # loops but still runs each binary's experiment tables, which is where
  # the machine-readable JSON lines come from.
  # bench_faults doubles as the crash-recovery smoke: its --smoke mode
  # replays randomized churn streams through checkpoint/restore and
  # exits nonzero on any divergence, before emitting its BENCH JSON.
  # bench_serve's tables double as the serving smoke: cache on/off,
  # throughput vs load, and shed-rate sweeps all run before the JSON
  # validation below sees their lines.
  bench_out="$(mktemp -d)"
  for b in bench_temporal_paths bench_small_world bench_faults bench_serve \
           bench_multi_source; do
    extra=()
    [[ "$b" == bench_faults ]] && extra=(--smoke)
    ./build-bench/bench/"$b" "${extra[@]}" \
      --benchmark_filter='^structnet_smoke_none$' 2>/dev/null |
      tee "$bench_out/$b.out" |
      python3 -c '
import json, sys
name = sys.argv[1]
lines = [l.strip() for l in sys.stdin if l.startswith("{")]
if not lines:
    sys.exit(name + ": no BENCH JSON lines emitted")
for l in lines:
    rec = json.loads(l)
    if "bench" not in rec and "metrics" not in rec:
        sys.exit(name + ": JSON line missing bench/metrics key: " + l)
print(name + ": " + str(len(lines)) + " BENCH/METRICS JSON lines parse")
' "$b"
  done

  echo "== churn gate: delta planner amortizes CSR builds at >= 10x =="
  # Kernel-level: folding 1% churn into the delta overlay must beat a
  # full rebuild by >= 10x with bit-identical kernel results.
  # Serve-level: under a churn workload the broker's served probe equals
  # a sweep over a freshly rebuilt index, and serve.csr_builds stays
  # bounded by 1 + compactions while serve.csr_delta_appends grows.
  # Update cost: on the 400k-contact index a relabel costs at most 8x a
  # fresh add (a ratio within one run, so it holds when the host's speed
  # drifts from run to run) and a node join at most 50 ms: neither may
  # scale with the contacts held.
  python3 - "$bench_out/bench_temporal_paths.out" "$bench_out/bench_serve.out" <<'PYEOF'
import json, sys

def recs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip().startswith("{")]

churn = [r for r in recs(sys.argv[1])
         if r.get("bench") == "churn_index_maintenance"]
if not churn:
    sys.exit("churn gate: no churn_index_maintenance record")
c = churn[0]
if c["results_match"] != "yes":
    sys.exit("churn gate: delta kernels diverged from rebuilt CSR")
if c["speedup_vs_rebuild"] < 10.0:
    sys.exit("churn gate: planning speedup %.2fx < 10x"
             % c["speedup_vs_rebuild"])

serve = [r for r in recs(sys.argv[2]) if r.get("bench") == "serve_churn"]
if not serve:
    sys.exit("churn gate: no serve_churn record")
d = serve[0]
if d["results_match"] != "yes":
    sys.exit("churn gate: served results diverged from a fresh rebuild")
if d["csr_delta_appends"] == 0:
    sys.exit("churn gate: delta planner recorded no csr_delta_appends")
if d["csr_builds"] > 1 + d["csr_compactions"]:
    sys.exit("churn gate: csr_builds %d exceeds 1 + compactions %d"
             % (d["csr_builds"], d["csr_compactions"]))

cost = [r for r in recs(sys.argv[2]) if r.get("bench") == "serve_update_cost"]
if not cost:
    sys.exit("churn gate: no serve_update_cost record")
u = cost[0]
if u["relabel_over_add"] > 8.0:
    sys.exit("churn gate: a relabel costs %.1fx an add > 8x"
             % u["relabel_over_add"])
if u["join_ms"] > 50.0:
    sys.exit("churn gate: a node join costs %.1f ms > 50 ms" % u["join_ms"])
print("churn gate: %.1fx planning speedup; %d builds, %d compactions, "
      "%d delta appends; relabel %.2fx add, join %.2f ms"
      % (c["speedup_vs_rebuild"], d["csr_builds"], d["csr_compactions"],
         d["csr_delta_appends"], u["relabel_over_add"], u["join_ms"]))
PYEOF

  echo "== journey gate: journey kernels match legacy, min-hop at >= 10x =="
  # Each per-query journey record carries its own results_match against
  # the legacy oracle (fastest: same span; min-hop: the same hops), and
  # the min-hop kernel, which settles the target before relaxing each
  # hop layer, must clear 10x over the legacy per-layer Bellman-Ford on
  # the 200-vertex RWP instance.
  python3 - "$bench_out/bench_temporal_paths.out" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    recs = {r["bench"]: r for r in
            (json.loads(l) for l in f if l.strip().startswith("{"))
            if "bench" in r}
for name in ("temporal_fastest_journey", "temporal_minimum_hop"):
    if name not in recs:
        sys.exit("journey gate: no %s record" % name)
    if recs[name]["results_match"] != "yes":
        sys.exit("journey gate: %s diverged from the legacy oracle" % name)
mh = recs["temporal_minimum_hop"]["speedup_vs_legacy"]
if mh < 10.0:
    sys.exit("journey gate: min-hop speedup %.2fx < 10x" % mh)
print("journey gate: fastest %.1fx, min-hop %.1fx over legacy"
      % (recs["temporal_fastest_journey"]["speedup_vs_legacy"], mh))
PYEOF

  echo "== recovery gate: WAL crash matrix + throughput JSON shape =="
  # bench_faults --smoke already exited nonzero on any crash-matrix
  # divergence (it truncates the WAL at every record boundary plus
  # random byte offsets and asserts bit-identical recovered state,
  # including a corrupted-newest-checkpoint fallback); this gate
  # re-asserts the records it emitted so a silently-skipped matrix or a
  # malformed WAL-throughput table also fails the check.
  python3 - "$bench_out/bench_faults.out" <<'PYEOF'
import json, sys

def recs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip().startswith("{")]

rows = recs(sys.argv[1])
matrix = [r for r in rows if r.get("bench") == "fault_wal_crash_matrix"]
if not matrix:
    sys.exit("recovery gate: no fault_wal_crash_matrix record")
m = matrix[0]
if m["passed"] != m["cuts"] or m["cuts"] < m["accepted"] + 1:
    sys.exit("recovery gate: crash matrix %d/%d cuts (accepted %d)"
             % (m["passed"], m["cuts"], m["accepted"]))

wal = [r for r in rows if r.get("bench") == "fault_wal"]
grid = {(r["group_commit"], r["fsync"]) for r in wal}
need = {(g, f) for g in (1, 64, 0) for f in (1.0, 0.0)}
if not need <= grid:
    sys.exit("recovery gate: WAL throughput grid incomplete: %s" % grid)
for r in wal:
    if r["events_per_sec"] <= 0 or r["events"] <= 0:
        sys.exit("recovery gate: degenerate WAL throughput row: %s" % r)

rec = {r["mode"]: r for r in rows if r.get("bench") == "fault_wal_recovery"}
if set(rec) != {"wal_only", "checkpointed"}:
    sys.exit("recovery gate: missing fault_wal_recovery modes: %s"
             % sorted(rec))
if rec["checkpointed"]["replayed"] >= rec["wal_only"]["replayed"]:
    sys.exit("recovery gate: checkpoint anchor did not shorten replay "
             "(%d vs %d)" % (rec["checkpointed"]["replayed"],
                             rec["wal_only"]["replayed"]))
print("recovery gate: crash matrix %d/%d cuts, WAL grid %d rows, "
      "replay %d -> %d events with a checkpoint anchor"
      % (m["passed"], m["cuts"], len(wal),
         rec["wal_only"]["replayed"], rec["checkpointed"]["replayed"]))
PYEOF

  echo "== multi-source gate: lane-packed sweeps match scalar at >= 4x =="
  # Every multi_source_sweep record must be bit-identical to the scalar
  # kernel (results_match) and the smoke instance must clear 4x single
  # thread; every fastest_batch record must match (every lane equals its
  # one-lane run; on smoke every lane, on the 20k instance the first 4,
  # also matches the legacy oracle's span), and 8 packed fastest-journey
  # lanes must clear 3x per query over one lane per query on the smoke
  # instance; the serving-side lane packer must save sweeps that grow
  # with queue depth while staying payload-identical to one-query
  # flushes.
  python3 - "$bench_out/bench_multi_source.out" "$bench_out/bench_serve.out" <<'PYEOF'
import json, sys

def recs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip().startswith("{")]

sweeps = {r["instance"]: r for r in recs(sys.argv[1])
          if r.get("bench") == "multi_source_sweep"}
if not {"smoke", "allpairs20k"} <= set(sweeps):
    sys.exit("multi-source gate: missing sweep instances: %s"
             % sorted(sweeps))
for name, r in sweeps.items():
    if r["results_match"] != "yes":
        sys.exit("multi-source gate: %s lanes diverged from scalar" % name)
if sweeps["smoke"]["speedup_vs_scalar"] < 4.0:
    sys.exit("multi-source gate: smoke speedup %.2fx < 4x"
             % sweeps["smoke"]["speedup_vs_scalar"])

fastest = {(r["instance"], r["lanes"]): r for r in recs(sys.argv[1])
           if r.get("bench") == "fastest_batch"}
need = {(i, l) for i in ("smoke", "allpairs20k") for l in (1, 8, 64)}
if not need <= set(fastest):
    sys.exit("multi-source gate: missing fastest_batch records: %s"
             % sorted(need - set(fastest)))
for (name, lanes), r in sorted(fastest.items()):
    if r["results_match"] != "yes":
        sys.exit("multi-source gate: %s fastest lanes=%d diverged from "
                 "one-lane runs or legacy" % (name, lanes))
if fastest[("smoke", 8)]["speedup_vs_one_lane"] < 3.0:
    sys.exit("multi-source gate: smoke fastest speedup at 8 lanes "
             "%.2fx < 3x over one lane"
             % fastest[("smoke", 8)]["speedup_vs_one_lane"])

packs = sorted((r for r in recs(sys.argv[2])
                if r.get("bench") == "serve_lane_pack"),
               key=lambda r: r["queued"])
if len(packs) < 2:
    sys.exit("multi-source gate: fewer than 2 serve_lane_pack rows")
for r in packs:
    if r["results_match"] != "yes":
        sys.exit("multi-source gate: packed serving payloads diverged "
                 "at queued=%d" % r["queued"])
    if r["sweeps_saved"] == 0:
        sys.exit("multi-source gate: no sweeps saved at queued=%d"
                 % r["queued"])
saved = [r["sweeps_saved"] for r in packs]
if saved != sorted(saved) or saved[0] == saved[-1]:
    sys.exit("multi-source gate: sweeps_saved not growing with depth: %s"
             % saved)
print("multi-source gate: smoke %.1fx, 20k %.1fx, fastest x8 lanes "
      "smoke %.1fx / 20k %.1fx, serve saves %s sweeps"
      % (sweeps["smoke"]["speedup_vs_scalar"],
         sweeps["allpairs20k"]["speedup_vs_scalar"],
         fastest[("smoke", 8)]["speedup_vs_one_lane"],
         fastest[("allpairs20k", 8)]["speedup_vs_one_lane"], saved))
PYEOF
  rm -rf "$bench_out"

  echo "== obs smoke: traced serving run must emit a valid Chrome trace =="
  # bench_serve --smoke installs a TraceSink, drives a deterministic
  # single-threaded workload, emits the broker registry as JSON lines,
  # and writes the Chrome trace_event JSON to $STRUCTNET_TRACE_OUT.
  trace_out="$(mktemp)"
  STRUCTNET_TRACE_OUT="$trace_out" ./build-bench/bench/bench_serve --smoke |
    python3 -c '
import json, sys
lines = [l.strip() for l in sys.stdin if l.startswith("{")]
if not lines:
    sys.exit("bench_serve --smoke: no JSON lines emitted")
for l in lines:
    rec = json.loads(l)
    if "bench" not in rec and "metrics" not in rec:
        sys.exit("bench_serve --smoke: JSON line missing bench/metrics key: " + l)
print("bench_serve --smoke: " + str(len(lines)) + " JSON lines parse")
'
  python3 - "$trace_out" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
if not events:
    sys.exit("obs smoke: empty Chrome trace")
names = {e["name"] for e in events}
need = ["serve.flush", "serve.admission", "serve.plan",
        "serve.execute", "serve.cache"]
missing = [n for n in need if n not in names]
if missing:
    sys.exit("obs smoke: trace missing spans: " + ", ".join(missing))
if not any(n.startswith("serve.kernel.") for n in names):
    sys.exit("obs smoke: trace has no per-query kernel spans")
for e in events:
    for key in ("name", "ph", "pid", "tid", "ts", "dur"):
        if key not in e:
            sys.exit("obs smoke: trace event missing field " + key)
print("obs smoke: %d trace events, %d span names, nesting OK"
      % (len(events), len(names)))
PYEOF
  rm -f "$trace_out"

  echo "== bench_compare: metric directions come from BENCHMARK.json =="
  # Two synthetic second recordings appended to a temp copy of the
  # latest BENCH_perfbench.json recording: one doubles setup_s and
  # peak_rss_mb (both "better": "lower") and must be flagged as a
  # regression without --direction; an unchanged one must pass.
  cmp_dir="$(mktemp -d)"
  python3 - "$cmp_dir" <<'PYEOF'
import json, sys
rows = [json.loads(l) for l in open("BENCH_perfbench.json") if l.startswith("{")]
stamp = lambda r: (r.get("date"), r.get("commit"))
latest = [r for r in rows if stamp(r) == stamp(rows[-1])]
for name, scale in (("doubled", 2.0), ("unchanged", 1.0)):
    with open(sys.argv[1] + "/" + name + ".json", "w") as f:
        for r in latest:
            f.write(json.dumps(r) + "\n")
        for r in latest:
            r = dict(r, date="synthetic", commit="synthetic",
                     setup_s=r["setup_s"] * scale,
                     peak_rss_mb=r["peak_rss_mb"] * scale)
            f.write(json.dumps(r) + "\n")
PYEOF
  for metric in setup_s peak_rss_mb; do
    rc=0
    python3 scripts/bench_compare.py "$cmp_dir/doubled.json" \
      --bench perfbench --metric "$metric" || rc=$?
    if [[ "$rc" != 1 ]]; then
      echo "bench_compare: doubled $metric exited $rc, want 1" >&2
      exit 1
    fi
    python3 scripts/bench_compare.py "$cmp_dir/unchanged.json" \
      --bench perfbench --metric "$metric"
  done
  rm -rf "$cmp_dir"

  echo "== perfbench self-test: correctness gates, determinism, metric surface =="
  # Builds the benchmark package (Release, the whole src/ tree) into
  # .bench_build or $CARGO_TARGET_DIR, runs each BENCHMARK.json workload
  # twice for 3 s (untraced, traced) and fails on a failed correctness
  # gate, a count that does not repeat, parameters that differ from
  # perfbench/workloads.json, or a missing metric. The analytics gate
  # checks static closeness and betweenness against BFS shortest-path
  # counts; the serving gate requires probe payloads byte-equal to fresh
  # kernel results.
  python3 perfbench/selftest.py
fi

echo "check.sh: OK"
