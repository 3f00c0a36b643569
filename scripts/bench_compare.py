#!/usr/bin/env python3
"""Diff the latest two recordings in a BENCH_*.json history file.

bench_record.sh appends one JSON object per line, every line stamped
with the recording's "date" and "commit".  This tool groups lines by
that stamp, takes the two most recent recordings, matches their rows
(by bench name plus every string-valued identity field such as
"instance" or "impl"), and compares one named numeric metric:

    scripts/bench_compare.py BENCH_multi_source.json \
        --metric speedup_vs_scalar
    scripts/bench_compare.py BENCH_serve.json \
        --metric packed_ns_per_query --bench serve_lane_pack

Exits nonzero when any matched row regressed by more than --threshold
percent (default 15).  Whether bigger is a regression comes from the
"better" field of BENCHMARK.json (at the repo root) when its end_to_end
or per_layer list names the metric; otherwise it is inferred from the
metric name (ns/us/latency/bytes => lower is better, anything else =>
higher is better).  --direction overrides both.  Fewer than two
recordings is not an error -- there is nothing to compare yet.
"""
import argparse
import json
import os
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def load_recordings(path):
    """Returns the file's recordings as a list of row-lists, oldest
    first, grouped by the (date, commit) stamp bench_record.sh wrote."""
    recordings = []   # [(stamp, [row, ...])]
    by_stamp = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            row = json.loads(line)
            stamp = (row.get("date", ""), row.get("commit", ""))
            if stamp not in by_stamp:
                by_stamp[stamp] = []
                recordings.append((stamp, by_stamp[stamp]))
            by_stamp[stamp].append(row)
    return recordings


def row_key(row):
    """Identity of a row across recordings: bench name plus every
    string field that is not the recording stamp."""
    return tuple(sorted((k, v) for k, v in row.items()
                        if isinstance(v, str) and k not in ("date", "commit")))


def declared_direction(metric):
    """"higher" or "lower" as BENCHMARK.json declares the metric, or
    None when the file is absent or does not name it."""
    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
    except FileNotFoundError:
        return None
    for entry in spec.get("end_to_end", []) + spec.get("per_layer", []):
        if entry.get("name") == metric:
            return entry.get("better")
    return None


def higher_is_better(metric):
    declared = declared_direction(metric)
    if declared is not None:
        return declared == "higher"
    metric = metric.lower()
    return not any(tok in metric for tok in ("ns", "_us", "latency", "bytes"))


def main():
    ap = argparse.ArgumentParser(
        description="compare the latest two BENCH_*.json recordings")
    ap.add_argument("file", help="BENCH_*.json history file")
    ap.add_argument("--metric", required=True,
                    help="numeric field to compare, e.g. speedup_vs_scalar")
    ap.add_argument("--bench", default=None,
                    help="only rows whose \"bench\" equals this name")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="regression tolerance in percent (default 15)")
    ap.add_argument("--direction", choices=("higher", "lower"), default=None,
                    help="which way is better (default: BENCHMARK.json's "
                         "\"better\" field, else inferred from the name)")
    args = ap.parse_args()

    recordings = load_recordings(args.file)
    if len(recordings) < 2:
        print("bench_compare: %d recording(s) in %s, nothing to compare"
              % (len(recordings), args.file))
        return 0

    (old_stamp, old_rows), (new_stamp, new_rows) = recordings[-2:]
    want = lambda r: (r.get("metrics") is None and
                      (args.bench is None or r.get("bench") == args.bench) and
                      isinstance(r.get(args.metric), (int, float)))
    old = {row_key(r): r for r in old_rows if want(r)}
    new = {row_key(r): r for r in new_rows if want(r)}
    matched = sorted(set(old) & set(new))
    if not matched:
        print("bench_compare: no rows with metric %r match between "
              "%s and %s" % (args.metric, old_stamp[1], new_stamp[1]),
              file=sys.stderr)
        return 1

    higher_better = (args.direction == "higher" if args.direction
                     else higher_is_better(args.metric))
    failed = 0
    for key in matched:
        before = float(old[key][args.metric])
        after = float(new[key][args.metric])
        if before == 0.0:
            change = 0.0
        elif higher_better:
            change = (before - after) / before * 100.0
        else:
            change = (after - before) / before * 100.0
        label = " ".join("%s=%s" % (k, v) for k, v in key) or args.metric
        verdict = "ok"
        if change > args.threshold:
            verdict = "REGRESSED"
            failed += 1
        print("bench_compare: %s %s: %g -> %g (%+.1f%% %s) %s"
              % (label, args.metric, before, after, change,
                 "worse" if change > 0 else "better-or-equal", verdict))
    print("bench_compare: %s vs %s, %d row(s), %d regression(s) over %.0f%%"
          % (old_stamp[1] or "?", new_stamp[1] or "?", len(matched),
             failed, args.threshold))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
