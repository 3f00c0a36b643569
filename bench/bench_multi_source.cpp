// Lane-packed multi-source sweep benchmark, single thread, two
// experiments on synthetic contact traces:
//
//   * multi_source_sweep — all-pairs-style earliest-arrival work,
//     scalar one-sweep-per-source vs. 64 sources sharing one
//     contact-stream pass (temporal/multi_source.hpp). Per-lane results
//     are asserted bit-identical (arrivals AND via parents, read off the
//     firing log) before anything is timed — "results_match" in the JSON
//     is that gate.
//   * fastest_batch — fastest-journey departure profiles
//     (csr_fastest_departure_batch), one lane per query vs. 1, 8 and 64
//     lanes sharing one per-unit union-find sweep, ns per query. Before
//     anything is timed, every lane is checked against its one-lane run
//     and the first `legacy_lanes` lanes against legacy::fastest_journey
//     in presence and span ("results_match"): all 64 on smoke, where the
//     legacy queries take ~1.6 s together, and 4 on allpairs20k, where
//     each takes ~1 s.
//
// Two instances: "smoke" (small, fast enough for check.sh's Release
// bench gate, which asserts >= 4x for the sweep and >= 3x per query at
// 8 fastest lanes over one lane) and "allpairs20k" (the 20k-vertex
// instance bench_temporal_paths uses, acceptance target >= 8x for the
// sweep).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "temporal/journeys.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_csr.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace structnet {
namespace {

constexpr std::size_t kLanes = MultiSourceWorkspace::kMaxLanes;

TemporalGraph make_trace(std::size_t n, TimeUnit horizon, std::size_t edges,
                         std::size_t labels_per_edge, std::uint64_t seed) {
  Rng rng(seed);
  TemporalGraph eg(n, horizon);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    for (std::size_t k = 0; k < labels_per_edge; ++k) {
      eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
    }
  }
  return eg;
}

/// Best of `reps` measurements: the timed regions are milliseconds, so
/// one scheduler preemption would otherwise dominate a ratio.
template <class Measure>
double best_of(int reps, Measure&& measure) {
  double best = measure();
  for (int r = 1; r < reps; ++r) best = std::min(best, measure());
  return best;
}

void sweep_speedup(Table& t, const char* instance, const TemporalCsr& csr,
                   std::size_t sample_blocks) {
  const std::size_t n = csr.vertex_count();

  // sample_blocks lane-blocks of 64 evenly spread sources — the same
  // source set both implementations sweep.
  std::vector<VertexId> sources;
  const std::size_t total = sample_blocks * kLanes;
  for (std::size_t i = 0; i < total; ++i) {
    sources.push_back(static_cast<VertexId>((i * n) / total));
  }

  // Equivalence gate before timing: every lane bit-identical to the
  // scalar kernel, arrivals and via parents alike (each lane's parents
  // rebuilt from the firing log).
  bool match = true;
  TemporalWorkspace scalar_ws;
  MultiSourceWorkspace ws;
  std::vector<VertexId> parent(n);
  for (std::size_t b = 0; b < sample_blocks && match; ++b) {
    const std::span<const VertexId> block(sources.data() + b * kLanes, kLanes);
    csr_earliest_arrival_batch(csr, block, 0, ws, /*record_via=*/true);
    for (std::size_t l = 0; l < kLanes && match; ++l) {
      std::fill(parent.begin(), parent.end(), kInvalidVertex);
      for (const MultiSourceWorkspace::Fire& f : ws.fires()) {
        if (((f.lanes >> l) & 1u) != 0) parent[f.vertex] = f.from;
      }
      csr_earliest_arrival(csr, block[l], 0, scalar_ws);
      for (std::size_t v = 0; v < n && match; ++v) {
        const auto id = static_cast<VertexId>(v);
        match = ws.arrival(l, id) == scalar_ws.arrival(id) &&
                parent[v] == scalar_ws.via(id).from;
      }
    }
  }

  const double scalar_ns = best_of(3, [&] {
    return time_ns_per_op(sources.size(), [&](std::size_t i) {
      csr_earliest_arrival(csr, sources[i], 0, scalar_ws);
      benchmark::DoNotOptimize(scalar_ws.reached_count());
    });
  });
  const double batch_ns =
      best_of(3, [&] {
        return time_ns_per_op(sample_blocks, [&](std::size_t b) {
          csr_earliest_arrival_batch(
              csr, {sources.data() + b * kLanes, kLanes}, 0, ws);
          benchmark::DoNotOptimize(ws.reached_count(0));
        });
      }) /
      static_cast<double>(kLanes);
  const double speedup = batch_ns > 0.0 ? scalar_ns / batch_ns : 0.0;

  t.add_row({instance, Table::num(std::uint64_t(n)),
             Table::num(std::uint64_t(csr.contact_count())),
             Table::num(scalar_ns / 1e3, 2), Table::num(batch_ns / 1e3, 2),
             Table::num(speedup, 2), match ? "yes" : "NO"});

  BenchJson("multi_source_sweep")
      .field("instance", instance)
      .field("n", std::uint64_t(n))
      .field("contacts", std::uint64_t(csr.contact_count()))
      .field("sources", std::uint64_t(sources.size()))
      .threads(1)
      .field("ns_per_source_scalar", scalar_ns)
      .field("ns_per_source_batch", batch_ns)
      .field("speedup_vs_scalar", speedup)
      .field("results_match", match ? "yes" : "no")
      .emit();
}

/// kLanes fastest-journey queries: random (source, target) pairs with
/// t_starts from a small fixed set in the first quarter of the horizon,
/// so most journeys exist.
std::vector<FastestLane> fastest_lanes(std::size_t n, TimeUnit horizon) {
  Rng rng(202);
  const TimeUnit step = std::max<TimeUnit>(horizon / 16, 1);
  std::vector<FastestLane> lanes;
  while (lanes.size() < kLanes) {
    const auto s = static_cast<VertexId>(rng.index(n));
    const auto d = static_cast<VertexId>(rng.index(n));
    if (s == d) continue;
    lanes.push_back({s, d, static_cast<TimeUnit>(rng.index(4)) * step});
  }
  return lanes;
}

void fastest_speedup(Table& t, const char* instance, const TemporalGraph& eg,
                     const TemporalCsr& csr, std::size_t legacy_lanes,
                     int reps) {
  const std::vector<FastestLane> lanes =
      fastest_lanes(csr.vertex_count(), csr.horizon());

  // One lane per query: both the expected result of every lane and the
  // per-query baseline (block sizes below average the same queries
  // they pack).
  MultiSourceWorkspace ws;
  std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>> want(kLanes);
  std::vector<double> one_lane_ns(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    one_lane_ns[l] = best_of(reps, [&] {
      return time_ns_per_op(1, [&](std::size_t) {
        want[l] = csr_fastest_departure_batch(csr, {&lanes[l], 1}, ws).front();
      });
    });
  }
  // The one-lane results against the legacy oracle: same presence, same
  // span.
  bool legacy_match = true;
  for (std::size_t l = 0; l < legacy_lanes && legacy_match; ++l) {
    const auto j = legacy::fastest_journey(eg, lanes[l].source,
                                           lanes[l].target, lanes[l].t_start);
    legacy_match = j.has_value() == want[l].has_value() &&
                   (!j || j->span() == want[l]->second - want[l]->first);
  }

  for (const std::size_t count : {std::size_t{1}, std::size_t{8}, kLanes}) {
    const std::span<const FastestLane> block(lanes.data(), count);
    // Equivalence gate before timing: every lane equals its one-lane run.
    const auto got = csr_fastest_departure_batch(csr, block, ws);
    const bool match =
        legacy_match && std::equal(got.begin(), got.end(), want.begin());
    double one_lane = 0.0;
    for (std::size_t l = 0; l < count; ++l) one_lane += one_lane_ns[l];
    one_lane /= static_cast<double>(count);
    const double batch =
        best_of(reps, [&] {
          return time_ns_per_op(1, [&](std::size_t) {
            benchmark::DoNotOptimize(csr_fastest_departure_batch(csr, block, ws));
          });
        }) /
        static_cast<double>(count);
    const double speedup = batch > 0.0 ? one_lane / batch : 0.0;

    t.add_row({instance, Table::num(std::uint64_t(csr.vertex_count())),
               Table::num(std::uint64_t(csr.contact_count())),
               Table::num(std::uint64_t(count)), Table::num(one_lane / 1e3, 2),
               Table::num(batch / 1e3, 2), Table::num(speedup, 2),
               match ? "yes" : "NO"});

    BenchJson("fastest_batch")
        .field("instance", instance)
        .field("n", std::uint64_t(csr.vertex_count()))
        .field("contacts", std::uint64_t(csr.contact_count()))
        .field("lanes", std::uint64_t(count))
        .field("legacy_lanes", std::uint64_t(legacy_lanes))
        .threads(1)
        .field("ns_per_query_one_lane", one_lane)
        .field("ns_per_query_batch", batch)
        .field("speedup_vs_one_lane", speedup)
        .field("results_match", match ? "yes" : "no")
        .emit();
  }
}

void multi_source_tables() {
  const TemporalGraph smoke_eg = make_trace(2000, 128, 15000, 4, 101);
  const TemporalGraph big_eg = make_trace(20000, 512, 150000, 8, 101);
  const TemporalCsr smoke(smoke_eg);
  const TemporalCsr big(big_eg);

  Table sweeps({"instance", "n", "contacts", "scalar_us_per_source",
                "batch_us_per_source", "speedup_vs_scalar", "results_match"});
  sweep_speedup(sweeps, "smoke", smoke, /*sample_blocks=*/2);
  sweep_speedup(sweeps, "allpairs20k", big, /*sample_blocks=*/4);
  sweeps.print(std::cout,
               "E-ms: lane-packed 64-source sweeps vs scalar "
               "earliest-arrival (single thread)");

  Table fastest({"instance", "n", "contacts", "lanes",
                 "one_lane_us_per_query", "batch_us_per_query",
                 "speedup_vs_one_lane", "results_match"});
  fastest_speedup(fastest, "smoke", smoke_eg, smoke, /*legacy_lanes=*/kLanes,
                  /*reps=*/3);
  fastest_speedup(fastest, "allpairs20k", big_eg, big, /*legacy_lanes=*/4,
                  /*reps=*/1);
  fastest.print(std::cout,
                "E-fj: lane-packed fastest-journey profiles vs one lane "
                "per query (single thread)");
}

}  // namespace
}  // namespace structnet

int main(int argc, char** argv) {
  structnet::multi_source_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  structnet::obs::emit_json(std::cout);
  return 0;
}
