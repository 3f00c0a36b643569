// Query-serving benchmark: the broker's levers measured head-on.
//
//   * cache on/off — ns per query for same-epoch repeats vs uncached
//     re-execution.
//   * throughput vs offered load — queries/sec through submit+flush at
//     increasing batch sizes, serial and default-parallel.
//   * shed rate vs queue bound — fraction of a fixed burst shed by
//     admission control as max_queue shrinks (backpressure, not blocking).
//   * churn serving — delta-advance planning under interleaved events,
//     checked against a freshly rebuilt contact index.
//   * update cost — per-call apply_events cost of contact adds, relabels
//     and node joins on a 20k-vertex / 400k-contact index.
//   * lane packing — one-query flushes vs one lane-packed flush.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/broker.hpp"
#include "serve/query.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/temporal_csr.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace structnet {
namespace {

constexpr std::size_t kNodes = 256;
constexpr TimeUnit kHorizon = 64;

/// Engine + temporal view filled with a random contact workload.
struct ServeFixture {
  StreamEngine engine;
  TemporalViewObserver view{kNodes, kHorizon};

  explicit ServeFixture(std::uint64_t seed = 17)
      : engine{DynamicGraph(kNodes)} {
    engine.attach(&view);
    Rng rng(seed);
    std::vector<Event> events;
    for (std::size_t i = 0; i < 6'000; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kNodes));
      const auto v = static_cast<VertexId>(rng.index(kNodes));
      if (rng.uniform01() < 0.25) {
        events.push_back(Event::edge_insert(u, v));
      } else {
        events.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(kHorizon))));
      }
    }
    engine.apply_batch(events);
  }
};

/// Submits `queries` and flushes until every future resolves; returns
/// ns per query.
double drive(QueryBroker& broker, const std::vector<Query>& queries) {
  return time_ns_per_op(1, [&](std::size_t) {
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(queries.size());
    for (const Query& q : queries) futures.push_back(broker.submit(q));
    while (broker.queue_depth() > 0) broker.flush();
    for (auto& f : futures) f.get();
  }) / static_cast<double>(queries.size());
}

/// Like drive(), but flushes after every submission: a one-query batch
/// shares no sweep, so each query runs on the scalar path.
double drive_one_by_one(QueryBroker& broker,
                        const std::vector<Query>& queries) {
  return time_ns_per_op(1, [&](std::size_t) {
    for (const Query& q : queries) {
      auto f = broker.submit(q);
      broker.flush();
      f.get();
    }
  }) / static_cast<double>(queries.size());
}

std::uint64_t counter(const QueryBroker& broker, std::string_view name) {
  return broker.metrics().snapshot().counter_value(name);
}

std::vector<Query> distinct_temporal_queries(std::size_t count) {
  std::vector<Query> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    qs.emplace_back(TemporalDistancesQuery{
        static_cast<VertexId>(i % kNodes),
        static_cast<TimeUnit>((i / kNodes) % kHorizon)});
  }
  return qs;
}

void cache_speedup_table() {
  ServeFixture fx;
  Table t({"queries", "uncached_ns_per_q", "cached_ns_per_q", "speedup"});
  for (const std::size_t count : {std::size_t{64}, std::size_t{256}}) {
    const std::vector<Query> queries = distinct_temporal_queries(count);

    BrokerConfig off;
    off.threads = 1;
    off.cache_bytes = 0;  // every repeat re-executes
    QueryBroker uncached(fx.engine, &fx.view, off);
    (void)drive(uncached, queries);  // warm the shared contact index
    const double cold_ns = drive(uncached, queries);

    BrokerConfig on;
    on.threads = 1;
    QueryBroker cached(fx.engine, &fx.view, on);
    (void)drive(cached, queries);  // first pass fills the cache
    const double hit_ns = drive(cached, queries);  // same epoch: all hits

    const double speedup = hit_ns > 0.0 ? cold_ns / hit_ns : 0.0;
    t.add_row({std::to_string(count), std::to_string(cold_ns),
               std::to_string(hit_ns), std::to_string(speedup)});
    BenchJson("serve_cache_speedup")
        .field("n", std::uint64_t(count))
        .field("uncached_ns_per_query", cold_ns)
        .field("cached_ns_per_query", hit_ns)
        .field("speedup", speedup)
        .threads(1)
        .emit();
  }
  t.print(std::cout, "result cache: same-epoch repeats, on vs off");
}

void throughput_table() {
  Table t({"offered", "threads", "ns_per_query", "queries_per_sec"});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ServeFixture fx;
    BrokerConfig cfg;
    cfg.threads = threads;
    cfg.cache_bytes = 0;  // measure execution, not hits
    cfg.max_queue = 8192;
    QueryBroker broker(fx.engine, &fx.view, cfg);
    for (const std::size_t offered :
         {std::size_t{64}, std::size_t{256}, std::size_t{1024}}) {
      const std::vector<Query> queries = distinct_temporal_queries(offered);
      (void)drive(broker, queries);  // warm up (index build, pool spin-up)
      const double ns = drive(broker, queries);
      const double qps = ns > 0.0 ? 1e9 / ns : 0.0;
      t.add_row({std::to_string(offered), std::to_string(threads),
                 std::to_string(ns), std::to_string(qps)});
      BenchJson("serve_throughput")
          .field("n", std::uint64_t(offered))
          .field("ns_per_op", ns)
          .field("queries_per_sec", qps)
          .threads(threads)
          .emit();
    }
  }
  t.print(std::cout, "serving throughput vs offered load");
}

void shed_rate_table() {
  constexpr std::size_t kBurst = 2048;
  Table t({"max_queue", "offered", "shed", "shed_rate"});
  for (const std::size_t max_queue :
       {std::size_t{64}, std::size_t{256}, std::size_t{1024}}) {
    ServeFixture fx;
    BrokerConfig cfg;
    cfg.threads = 1;
    cfg.max_queue = max_queue;
    QueryBroker broker(fx.engine, &fx.view, cfg);

    std::vector<std::future<QueryResult>> futures;
    futures.reserve(kBurst);
    const std::vector<Query> queries = distinct_temporal_queries(kBurst);
    for (const Query& q : queries) futures.push_back(broker.submit(q));
    while (broker.queue_depth() > 0) broker.flush();
    for (auto& f : futures) f.get();

    const std::uint64_t shed = counter(broker, "serve.shed_queue_full");
    const double rate = static_cast<double>(shed) / double(kBurst);
    t.add_row({std::to_string(max_queue), std::to_string(kBurst),
               std::to_string(shed), std::to_string(rate)});
    BenchJson("serve_shed_rate")
        .field("n", std::uint64_t(max_queue))
        .field("offered", std::uint64_t(kBurst))
        .field("shed", shed)
        .field("shed_rate", rate)
        .threads(1)
        .emit();
  }
  t.print(std::cout, "admission control: shed rate vs queue bound");
}

/// Interleaved churn + temporal queries: the broker folds each round's
/// events into its delta-maintained contact index instead of rebuilding
/// it per epoch. A closing probe must equal the same sweep over a
/// TemporalCsr built fresh from the temporal view.
void churn_serving_table() {
  constexpr std::size_t kRounds = 40, kChurn = 60, kQueries = 4;
  constexpr VertexId kProbe = 7;
  ServeFixture fx(29);
  BrokerConfig cfg;
  cfg.threads = 1;
  cfg.cache_bytes = 0;  // measure planning + execution, not hits
  QueryBroker broker(fx.engine, &fx.view, cfg);

  Rng rng(5);
  const double ns_per_round = time_ns_per_op(kRounds, [&](std::size_t) {
    std::vector<Event> batch;
    batch.reserve(kChurn);
    for (std::size_t i = 0; i < kChurn; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kNodes));
      auto v = static_cast<VertexId>(rng.index(kNodes));
      if (u == v) v = static_cast<VertexId>((v + 1) % kNodes);
      const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
      if (rng.uniform01() < 0.2) {
        batch.push_back(Event::contact_relabel(
            u, v, t, static_cast<TimeUnit>(rng.index(kHorizon))));
      } else {
        batch.push_back(Event::contact_add(u, v, t));
      }
    }
    broker.apply_events(batch);
    std::vector<std::future<QueryResult>> futures;
    for (std::size_t q = 0; q < kQueries; ++q) {
      futures.push_back(broker.submit(TemporalDistancesQuery{
          static_cast<VertexId>(rng.index(kNodes)), 0}));
    }
    broker.flush();
    for (auto& f : futures) f.get();
  });
  auto probe = broker.submit(TemporalDistancesQuery{kProbe, 0});
  broker.flush();
  TemporalWorkspace ws;
  csr_earliest_arrival(TemporalCsr(fx.view.view()), kProbe, 0, ws);
  const bool match = std::get<std::vector<TimeUnit>>(probe.get().payload) ==
                     ws.to_earliest_arrival().completion;

  const obs::MetricsRegistry::Snapshot m = broker.metrics().snapshot();
  const std::uint64_t builds = m.counter_value("serve.csr_builds");
  const std::uint64_t reuses = m.counter_value("serve.csr_reuses");
  const std::uint64_t appends = m.counter_value("serve.csr_delta_appends");
  const std::uint64_t compactions = m.counter_value("serve.csr_compactions");
  Table t({"rounds", "us_per_round", "csr_builds", "csr_reuses",
           "csr_delta_appends", "csr_compactions", "results_match"});
  t.add_row({Table::num(std::uint64_t(kRounds)),
             Table::num(ns_per_round / 1e3, 1), Table::num(builds),
             Table::num(reuses), Table::num(appends), Table::num(compactions),
             match ? "yes" : "NO"});
  t.print(std::cout, "churn serving: delta-advance planning (" +
                         std::to_string(kChurn) + " events + " +
                         std::to_string(kQueries) + " queries per round)");
  BenchJson("serve_churn")
      .field("n", std::uint64_t(kRounds))
      .threads(1)
      .field("ns_per_round", ns_per_round)
      .field("csr_builds", builds)
      .field("csr_reuses", reuses)
      .field("csr_delta_appends", appends)
      .field("csr_compactions", compactions)
      .field("results_match", match ? "yes" : "no")
      .emit();
}

/// Per-call apply_events cost once the index is large: fresh contact
/// adds, relabels of live contacts and node joins, each applied alone
/// through a broker over a 20k-vertex / 400k-contact instance. A relabel
/// or a join must not scale with the contacts held, so check.sh gates
/// relabel_over_add (a ratio within one run, so it holds when the
/// host's speed drifts from run to run) and join_ms.
void update_cost_table() {
  constexpr std::size_t kN = 20'000, kPairs = 100'000, kLabels = 4;
  constexpr TimeUnit kH = 512;
  constexpr std::size_t kAdds = 2'000, kRelabels = 200, kJoins = 3;
  Rng rng(41);
  const auto random_pair = [&] {
    const auto u = static_cast<VertexId>(rng.index(kN));
    auto v = static_cast<VertexId>(rng.index(kN));
    if (u == v) v = static_cast<VertexId>((v + 1) % kN);
    return std::pair{u, v};
  };
  const auto random_time = [&] {
    return static_cast<TimeUnit>(rng.index(kH));
  };

  StreamEngine engine{DynamicGraph(kN)};
  TemporalViewObserver view(kN, kH);
  engine.attach(&view);
  std::vector<Event> ingest;
  ingest.reserve(kPairs * kLabels);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto [u, v] = random_pair();
    for (std::size_t k = 0; k < kLabels; ++k) {
      ingest.push_back(Event::contact_add(u, v, random_time()));
    }
  }
  engine.apply_batch(ingest);
  BrokerConfig cfg;
  cfg.threads = 1;
  QueryBroker broker(engine, &view, cfg);

  std::vector<Event> adds;
  while (adds.size() < kAdds) {
    const auto [u, v] = random_pair();
    const TimeUnit t = random_time();
    if (!view.view().has_contact(u, v, t)) {
      adds.push_back(Event::contact_add(u, v, t));
    }
  }
  std::vector<Event> relabels;
  for (std::size_t i = 0; i < kRelabels; ++i) {
    const Event& live = ingest[rng.index(ingest.size())];
    relabels.push_back(
        Event::contact_relabel(live.u, live.v, live.time, random_time()));
  }
  const std::vector<Event> joins(kJoins, Event::node_join());

  const auto ns_per_call = [&](const std::vector<Event>& events) {
    return time_ns_per_op(events.size(), [&](std::size_t i) {
      broker.apply_events({&events[i], 1});
    });
  };
  const double add_ns = ns_per_call(adds);
  const double relabel_ns = ns_per_call(relabels);
  const double join_ms = ns_per_call(joins) / 1e6;
  const double ratio = add_ns > 0.0 ? relabel_ns / add_ns : 0.0;

  Table t({"contacts", "add_us", "relabel_us", "relabel_over_add",
           "join_ms"});
  t.add_row({Table::num(std::uint64_t(ingest.size())),
             Table::num(add_ns / 1e3, 2), Table::num(relabel_ns / 1e3, 2),
             Table::num(ratio, 2), Table::num(join_ms, 3)});
  t.print(std::cout, "update cost: one event per apply_events call (" +
                         std::to_string(kN) + " vertices)");
  BenchJson("serve_update_cost")
      .field("n", std::uint64_t(kN))
      .field("contacts", std::uint64_t(ingest.size()))
      .field("add_ns", add_ns)
      .field("relabel_ns", relabel_ns)
      .field("relabel_over_add", ratio)
      .field("join_ms", join_ms)
      .threads(1)
      .emit();
}

void lane_pack_table() {
  // Batched TemporalDistances serving: one query per flush (the scalar
  // path, one sweep per query) vs one flush for the whole queue
  // (distinct (source, t_start) queries share 64-lane sweeps). Payloads
  // are cross-checked bit-identical before timing; sweeps_saved must
  // grow with depth.
  Table t({"queued", "scalar_ns_per_q", "packed_ns_per_q", "speedup",
           "lanes_packed", "sweeps_saved", "results_match"});
  for (const std::size_t count :
       {std::size_t{8}, std::size_t{64}, std::size_t{256}}) {
    const std::vector<Query> queries = distinct_temporal_queries(count);

    ServeFixture fx;
    BrokerConfig cfg;
    cfg.threads = 1;
    cfg.cache_bytes = 0;  // every drive re-executes
    QueryBroker broker(fx.engine, &fx.view, cfg);

    // Bit-identity gate (also warms the broker's contact index).
    bool match = true;
    {
      std::vector<std::future<QueryResult>> fp;
      for (const Query& q : queries) fp.push_back(broker.submit(q));
      while (broker.queue_depth() > 0) broker.flush();
      for (std::size_t i = 0; i < count; ++i) {
        auto fs = broker.submit(queries[i]);
        broker.flush();
        match = match &&
                payload_equal(fs.get().payload, fp[i].get().payload);
      }
    }

    const double scalar_ns = drive_one_by_one(broker, queries);
    const std::uint64_t lanes_before = counter(broker, "serve.lanes_packed");
    const std::uint64_t saved_before = counter(broker, "serve.sweeps_saved");
    const double packed_ns = drive(broker, queries);
    const std::uint64_t lanes =
        counter(broker, "serve.lanes_packed") - lanes_before;
    const std::uint64_t saved =
        counter(broker, "serve.sweeps_saved") - saved_before;
    const double speedup = packed_ns > 0.0 ? scalar_ns / packed_ns : 0.0;

    t.add_row({Table::num(std::uint64_t(count)), Table::num(scalar_ns, 0),
               Table::num(packed_ns, 0), Table::num(speedup, 2),
               Table::num(lanes), Table::num(saved),
               match ? "yes" : "NO"});
    BenchJson("serve_lane_pack")
        .field("queued", std::uint64_t(count))
        .field("scalar_ns_per_query", scalar_ns)
        .field("packed_ns_per_query", packed_ns)
        .field("speedup", speedup)
        .field("lanes_packed", lanes)
        .field("sweeps_saved", saved)
        .field("results_match", match ? "yes" : "no")
        .threads(1)
        .emit();
  }
  t.print(std::cout,
          "lane-packed planner: batched TemporalDistances, one-query "
          "flushes vs shared 64-lane sweeps");
}

void serve_metrics_smoke() {
  // One mixed run whose registry lands in the BENCH stream.
  ServeFixture fx;
  QueryBroker broker(fx.engine, &fx.view);
  std::vector<std::future<QueryResult>> futures;
  for (std::size_t round = 0; round < 3; ++round) {
    for (const Query& q : distinct_temporal_queries(128)) {
      futures.push_back(broker.submit(q));
    }
    futures.push_back(broker.submit(CentralityQuery{}));
    broker.flush();
  }
  for (auto& f : futures) f.get();
  broker.metrics().emit_json(std::cout, "serve_metrics");
}

/// `bench_serve --smoke`: one deterministic traced serving run. Installs
/// a TraceSink, drives a mixed workload at threads=1 (every span lands
/// on one tid, fully nested admission -> plan -> kernel -> cache),
/// emits the broker's registry as JSON lines, and writes the Chrome
/// trace JSON to the path in $STRUCTNET_TRACE_OUT (when set). Returns a
/// process exit code.
int traced_smoke() {
  obs::TraceSink sink;
  sink.install();
  int rc = 0;
  {
    ServeFixture fx;
    BrokerConfig cfg;
    cfg.threads = 1;
    QueryBroker broker(fx.engine, &fx.view, cfg);
    std::vector<std::future<QueryResult>> futures;
    for (std::size_t round = 0; round < 3; ++round) {
      for (const Query& q : distinct_temporal_queries(64)) {
        futures.push_back(broker.submit(q));
      }
      futures.push_back(broker.submit(CentralityQuery{}));
      broker.flush();
    }
    for (auto& f : futures) f.get();

    broker.metrics().emit_json(std::cout, "serve_smoke");
  }
  obs::TraceSink::uninstall();

  if (const char* path = std::getenv("STRUCTNET_TRACE_OUT")) {
    std::ofstream out(path);
    out << sink.chrome_trace_json() << "\n";
    if (!out) {
      std::cerr << "smoke: failed writing trace to " << path << "\n";
      rc = 1;
    }
  }
  std::cout << "smoke: trace_events=" << sink.size()
            << " dropped=" << sink.dropped() << "\n";
  for (const obs::SpanStats& s : sink.aggregate()) {
    BenchJson("serve_smoke_span")
        .field("name", s.name)
        .field("count", s.count)
        .field("total_us", static_cast<double>(s.total_ns) / 1e3)
        .field("max_us", static_cast<double>(s.max_ns) / 1e3)
        .threads(1)
        .emit();
  }
  if (obs::kEnabled && sink.size() == 0) {
    std::cerr << "smoke: tracing compiled in but no spans were recorded\n";
    rc = 1;
  }
  return rc;
}

void BM_ServeSubmitFlushTemporal(benchmark::State& state) {
  ServeFixture fx;
  BrokerConfig cfg;
  cfg.threads = 1;
  cfg.cache_bytes = 0;
  QueryBroker broker(fx.engine, &fx.view, cfg);
  Rng rng(3);
  for (auto _ : state) {
    auto f = broker.submit(TemporalDistancesQuery{
        static_cast<VertexId>(rng.index(kNodes)), 0});
    broker.flush();
    benchmark::DoNotOptimize(f.get());
  }
}
BENCHMARK(BM_ServeSubmitFlushTemporal);

void BM_ServeCachedHit(benchmark::State& state) {
  ServeFixture fx;
  BrokerConfig cfg;
  cfg.threads = 1;
  QueryBroker broker(fx.engine, &fx.view, cfg);
  auto warm = broker.submit(TemporalDistancesQuery{0, 0});
  broker.flush();
  (void)warm.get();
  for (auto _ : state) {
    auto f = broker.submit(TemporalDistancesQuery{0, 0});
    broker.flush();
    benchmark::DoNotOptimize(f.get());
  }
}
BENCHMARK(BM_ServeCachedHit);

}  // namespace
}  // namespace structnet

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // Traced smoke only: deterministic, single-threaded, no tables.
      const int rc = structnet::traced_smoke();
      structnet::obs::emit_json(std::cout);
      return rc;
    }
  }
  structnet::cache_speedup_table();
  structnet::throughput_table();
  structnet::shed_rate_table();
  structnet::churn_serving_table();
  structnet::update_cost_table();
  structnet::lane_pack_table();
  structnet::serve_metrics_smoke();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  structnet::obs::emit_json(std::cout);
  return 0;
}
