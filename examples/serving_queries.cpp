// Query serving scenario: a live engine under churn, answered through
// the QueryBroker — batched execution, one-epoch result caching, and
// typed admission control, all against one consistent epoch per batch.
//
// Pipeline: StreamEngine + temporal view -> QueryBroker -> interleaved
// updates and queries -> serving metrics.
#include <chrono>
#include <iostream>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/broker.hpp"
#include "serve/query.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "util/rng.hpp"

int main() {
  using namespace structnet;
  Rng rng(2024);

  // A 64-node dynamic network whose temporal view keeps a 32-unit
  // contact horizon.
  const std::size_t nodes = 64;
  const TimeUnit horizon = 32;
  StreamEngine engine{DynamicGraph(nodes)};
  TemporalViewObserver view(nodes, horizon);
  engine.attach(&view);

  QueryBroker broker(engine, &view);

  // Helper: one round of random churn routed through the broker, so
  // updates serialize with query batches (and bump the graph epoch,
  // invalidating stale cache entries automatically).
  const auto churn = [&](std::size_t events) {
    std::vector<Event> batch;
    for (std::size_t i = 0; i < events; ++i) {
      const auto u = static_cast<VertexId>(rng.index(nodes));
      const auto v = static_cast<VertexId>(rng.index(nodes));
      if (rng.uniform01() < 0.4) {
        batch.push_back(Event::edge_insert(u, v));
      } else {
        batch.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(horizon))));
      }
    }
    broker.apply_events(batch);
  };
  churn(500);

  // --- 1. A batch of mixed queries at one epoch -----------------------
  auto distances = broker.submit(TemporalDistancesQuery{0, 0});
  auto journey = broker.submit(FastestJourneyQuery{0, 42, 0});
  auto degree = broker.submit(CentralityQuery{CentralityMeasure::kDegree});
  broker.flush();  // ONE contact index + ONE materialized graph serve all

  const QueryResult d = distances.get();
  std::cout << "temporal distances from node 0 (epoch " << d.epoch << "): "
            << std::get<std::vector<TimeUnit>>(d.payload).size()
            << " entries\n";
  const QueryResult jr = journey.get();
  if (const auto& j = std::get<std::optional<Journey>>(jr.payload)) {
    std::cout << "fastest journey 0 -> 42: " << j->hop_count()
              << " hops, span " << j->span() << "\n";
  } else {
    std::cout << "fastest journey 0 -> 42: unreachable in this horizon\n";
  }
  std::cout << "degree centrality entries: "
            << std::get<std::vector<double>>(degree.get().payload).size()
            << "\n";

  // --- 2. Same epoch, same query: served from the result cache --------
  auto repeat = broker.submit(TemporalDistancesQuery{0, 0});
  broker.flush();
  std::cout << "repeat at same epoch from_cache="
            << repeat.get().from_cache << "\n";

  // --- 3. Churn invalidates; the next repeat recomputes ---------------
  churn(50);
  auto recomputed = broker.submit(TemporalDistancesQuery{0, 0});
  broker.flush();
  const QueryResult r = recomputed.get();
  std::cout << "repeat after churn from_cache=" << r.from_cache
            << " (epoch " << r.epoch << ")\n";

  // --- 4. Admission control: deadlines and typed rejections -----------
  SubmitOptions opt;
  opt.deadline = std::chrono::nanoseconds(1);  // already expired
  auto late = broker.submit(TemporalDistancesQuery{1, 0}, opt);
  auto bogus = broker.submit(TemporalDistancesQuery{nodes + 9, 0});
  broker.flush();
  std::cout << "expired deadline  -> " << to_string(late.get().status) << "\n"
            << "bad vertex id     -> " << to_string(bogus.get().cause) << "\n";

  // --- 5. Background dispatcher + serving metrics ---------------------
  broker.start();
  std::vector<std::future<QueryResult>> stream;
  for (std::size_t i = 0; i < 200; ++i) {
    stream.push_back(broker.submit(TemporalDistancesQuery{
        static_cast<VertexId>(i % nodes), static_cast<TimeUnit>(i % 4)}));
  }
  broker.stop();  // drains: every admitted query resolves
  for (auto& f : stream) (void)f.get();

  // Deterministic slice of the broker's metrics registry (batch counts
  // and latency histograms depend on dispatcher timing; the full
  // picture, as bench-JSON lines, is one metrics().emit_json() away).
  const obs::MetricsRegistry::Snapshot m = broker.metrics().snapshot();
  const auto c = [&](std::string_view name) { return m.counter_value(name); };
  std::cout << "\nserving metrics:\n"
            << "  submitted=" << c("serve.submitted")
            << " admitted=" << c("serve.admitted")
            << " executed=" << c("serve.executed") << "\n"
            << "  shed=" << c("serve.shed_queue_full")
            << " invalid=" << c("serve.rejected_invalid")
            << " timed_out=" << c("serve.timed_out") << "\n"
            << "  cache: hits=" << c("serve.cache.hits")
            << " misses=" << c("serve.cache.misses")
            << " invalidations=" << c("serve.cache.invalidations")
            << " entries=" << m.gauge_value("serve.cache.entries") << "\n"
            << "  amortization: csr_builds=" << c("serve.csr_builds")
            << " graph_builds=" << c("serve.graph_builds") << "\n";
  return 0;
}
