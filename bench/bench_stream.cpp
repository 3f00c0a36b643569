// Streaming engine benchmark: events/sec for incremental structure
// maintenance (core/NSF tracker + dynamic MIS as stream observers)
// versus naively recomputing both structures from scratch after every
// event, on scale-free churn workloads of N = 10k / 100k nodes. The
// acceptance bar is a >= 10x advantage for the incremental path at 100k.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "core/generators.hpp"
#include "labeling/dynamic_mis.hpp"
#include "layering/nsf.hpp"
#include "mobility/contact_trace.hpp"
#include "mobility/edge_markovian.hpp"
#include "mobility/mobility_models.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "stream/replay.hpp"
#include "util/table.hpp"

namespace structnet {
namespace {

std::uint64_t pair_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Socially-plausible substrate: power-law configuration model (diverse
/// core structure, like the Gnutella snapshot the paper's NSF section
/// analyses).
Graph churn_substrate(std::size_t n, Rng& rng) {
  const auto seq = power_law_degree_sequence(n, 2.5, 2, 64, rng);
  return configuration_model(seq, rng);
}

/// A 50/50 insert/delete mix over the substrate's edge set: deletions
/// pick a live edge, insertions a fresh random pair.
std::vector<Event> churn_events(const Graph& g, std::size_t count, Rng& rng) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::unordered_set<std::uint64_t> present;
  for (const Graph::Edge& e : g.edges()) {
    edges.emplace_back(e.u, e.v);
    present.insert(pair_key(e.u, e.v));
  }
  const auto n = g.vertex_count();
  std::vector<Event> events;
  events.reserve(count);
  while (events.size() < count) {
    if (rng.bernoulli(0.5) && !edges.empty()) {
      const std::size_t i = rng.index(edges.size());
      const auto [u, v] = edges[i];
      edges[i] = edges.back();
      edges.pop_back();
      present.erase(pair_key(u, v));
      events.push_back(Event::edge_delete(u, v));
    } else {
      const auto u = static_cast<VertexId>(rng.index(n));
      const auto v = static_cast<VertexId>(rng.index(n));
      if (u == v || present.contains(pair_key(u, v))) continue;
      present.insert(pair_key(u, v));
      edges.emplace_back(u, v);
      events.push_back(Event::edge_insert(u, v));
    }
  }
  return events;
}

void incremental_vs_naive_table() {
  Table t({"n", "events", "incr_ns_per_event", "naive_ns_per_event",
           "speedup", "incr_events_per_sec"});
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000}}) {
    Rng rng(11);
    const Graph g = churn_substrate(n, rng);
    const std::size_t incr_events = 20'000;
    const auto events = churn_events(g, incr_events, rng);

    // Incremental path: core + MIS observers ride the stream.
    StreamEngine engine{DynamicGraph(g)};
    CoreObserver cores;
    MisObserver mis(42);
    engine.attach(&cores);
    engine.attach(&mis);
    const double incr_ns = time_ns_per_op(1, [&](std::size_t) {
                             replay(engine, events, 64);
                           }) /
                           static_cast<double>(events.size());

    // Naive path: apply the event, then recompute both structures from
    // scratch. A handful of events is enough to price one recompute.
    StreamEngine naive{DynamicGraph(g)};
    const std::size_t naive_events = 8;
    std::vector<double> priority(naive.graph().vertex_count());
    for (auto& p : priority) p = rng.uniform01();
    const double naive_ns = time_ns_per_op(naive_events, [&](std::size_t i) {
      naive.apply(events[i]);
      const Graph now = naive.graph().materialize();
      benchmark::DoNotOptimize(core_numbers(now));
      benchmark::DoNotOptimize(DynamicMis(now, priority));
    });

    const double speedup = naive_ns / incr_ns;
    t.add_row({Table::num(std::uint64_t(n)),
               Table::num(std::uint64_t(events.size())),
               Table::num(incr_ns, 1), Table::num(naive_ns, 1),
               Table::num(speedup, 1), Table::num(1e9 / incr_ns, 0)});
    BenchJson("stream_incremental")
        .field("n", std::uint64_t(n))
        .field("ns_per_op", incr_ns)
        .field("speedup_vs_naive", speedup)
        .threads(1)
        .emit();
    bench_json_line("stream_naive_recompute", n, naive_ns);

    // Full-recompute sweep across all observers (serial, attach order).
    BenchJson("stream_recompute_all")
        .field("n", std::uint64_t(n))
        .threads(1)
        .field("ns_per_op", time_ns_per_op(3, [&](std::size_t) {
                 benchmark::DoNotOptimize(engine.recompute_all());
               }))
        .emit();
  }
  t.print(std::cout,
          "Streaming engine: incremental core+MIS maintenance vs full "
          "recompute per event (acceptance: >= 10x at n = 100k)");
}

void replay_throughput_table() {
  // Edge-Markovian snapshot diffs and contact streams through the full
  // observer stack, including the lazily-trimmed temporal view.
  Table t({"source", "n", "events", "accepted", "events_per_sec"});
  Rng rng(7);
  EdgeMarkovianParams params;
  params.nodes = 512;
  params.horizon = 96;
  const TemporalGraph eg = edge_markovian_graph(params, rng);

  {
    const auto events = snapshot_edge_events(eg);
    StreamEngine engine{DynamicGraph(params.nodes)};
    CoreObserver cores;
    MisObserver mis(3);
    engine.attach(&cores);
    engine.attach(&mis);
    ReplayStats stats;
    const double ns = time_ns_per_op(1, [&](std::size_t) {
                        stats = replay(engine, events, 128);
                      }) /
                      static_cast<double>(events.size());
    t.add_row({"edge_markovian diffs", Table::num(std::uint64_t(params.nodes)),
               Table::num(std::uint64_t(stats.events)),
               Table::num(std::uint64_t(stats.accepted)),
               Table::num(1e9 / ns, 0)});
    bench_json_line("stream_replay_markovian", params.nodes, ns);
  }
  {
    RandomWaypointParams mob;
    mob.nodes = 256;
    mob.steps = 128;
    const auto trajectory = random_waypoint(mob, rng);
    const auto events = trajectory_events(trajectory, 0.05);
    StreamEngine engine{DynamicGraph(mob.nodes)};
    TemporalViewObserver view(mob.nodes, static_cast<TimeUnit>(mob.steps));
    engine.attach(&view);
    ReplayStats stats;
    const double ns = time_ns_per_op(1, [&](std::size_t) {
                        stats = replay(engine, events, 128);
                      }) /
                      static_cast<double>(std::max<std::size_t>(
                          events.size(), 1));
    t.add_row({"waypoint contacts", Table::num(std::uint64_t(mob.nodes)),
               Table::num(std::uint64_t(stats.events)),
               Table::num(std::uint64_t(stats.accepted)),
               Table::num(1e9 / ns, 0)});
    bench_json_line("stream_replay_contacts", mob.nodes, ns);
  }
  t.print(std::cout, "Trace replay throughput through the observer stack");
}

void BM_StreamApplyNoObservers(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = churn_substrate(n, rng);
  StreamEngine engine{DynamicGraph(g)};
  const auto events = churn_events(g, 1 << 14, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    engine.apply(events[i]);
    i = (i + 1) % events.size();
  }
}
BENCHMARK(BM_StreamApplyNoObservers)->Range(1 << 10, 1 << 14);

void BM_StreamApplyCoreMis(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = churn_substrate(n, rng);
  StreamEngine engine{DynamicGraph(g)};
  CoreObserver cores;
  MisObserver mis(9);
  engine.attach(&cores);
  engine.attach(&mis);
  const auto events = churn_events(g, 1 << 14, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    engine.apply(events[i]);
    i = (i + 1) % events.size();
  }
}
BENCHMARK(BM_StreamApplyCoreMis)->Range(1 << 10, 1 << 14);

}  // namespace
}  // namespace structnet

int main(int argc, char** argv) {
  structnet::incremental_vs_naive_table();
  structnet::replay_throughput_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  structnet::obs::emit_json(std::cout);
  return 0;
}
