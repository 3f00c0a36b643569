// Query-serving layer: result-cache semantics, broker admission control
// and per-kind correctness, and — the load-bearing guarantee — served
// results bit-identical to fresh uncached recomputes at the same epoch,
// at any thread count, under interleaved churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "centrality/centrality.hpp"
#include "core/generators.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "layering/nsf.hpp"
#include "obs/metrics.hpp"
#include "serve/broker.hpp"
#include "serve/query.hpp"
#include "serve/result_cache.hpp"
#include "sim/dtn_routing.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/journeys.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_centrality.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

QueryPayload make_payload(std::vector<TimeUnit> v) {
  return QueryPayload(std::move(v));
}

std::uint64_t counter(const obs::MetricsRegistry& registry,
                      std::string_view name) {
  return registry.snapshot().counter_value(name);
}

std::int64_t gauge(const obs::MetricsRegistry& registry,
                   std::string_view name) {
  return registry.snapshot().gauge_value(name);
}

TEST(ResultCacheTest, HitsMissesAndLruEviction) {
  obs::MetricsRegistry reg;
  ResultCache cache(payload_bytes(make_payload({1, 2, 3})) * 2, reg);

  EXPECT_FALSE(cache.lookup("a", 1).has_value());
  EXPECT_EQ(counter(reg, "serve.cache.misses"), 1u);

  cache.insert("a", 1, make_payload({1, 2, 3}));
  cache.insert("b", 1, make_payload({4, 5, 6}));
  ASSERT_TRUE(cache.lookup("a", 1).has_value());
  EXPECT_TRUE(payload_equal(*cache.lookup("a", 1), make_payload({1, 2, 3})));
  EXPECT_EQ(gauge(reg, "serve.cache.entries"), 2);
  EXPECT_EQ(counter(reg, "serve.cache.hits"), 2u);

  // "a" was refreshed by the lookups, so inserting "c" evicts "b".
  cache.insert("c", 1, make_payload({7, 8, 9}));
  EXPECT_EQ(counter(reg, "serve.cache.evictions"), 1u);
  EXPECT_TRUE(cache.lookup("a", 1).has_value());
  EXPECT_FALSE(cache.lookup("b", 1).has_value());
  EXPECT_TRUE(cache.lookup("c", 1).has_value());
}

TEST(ResultCacheTest, EpochIsPartOfTheKey) {
  // A lookup at any epoch but the cache's own misses.
  obs::MetricsRegistry reg;
  ResultCache cache(1 << 20, reg);
  cache.insert("q", 3, make_payload({1}));
  EXPECT_FALSE(cache.lookup("q", 4).has_value());
  EXPECT_FALSE(cache.lookup("q", 2).has_value());
  EXPECT_TRUE(cache.lookup("q", 3).has_value());
}

TEST(ResultCacheTest, InvalidateBeforeDropsOnlyStaleEpochs) {
  // The cache holds one epoch: a newer insert drops (and counts) every
  // older entry; an older insert is not stored and evicts nothing.
  obs::MetricsRegistry reg;
  ResultCache cache(1 << 20, reg);
  cache.insert("a", 2, make_payload({1}));
  cache.insert("b", 2, make_payload({2}));
  cache.insert("c", 5, make_payload({3}));
  EXPECT_EQ(counter(reg, "serve.cache.invalidations"), 2u);
  EXPECT_EQ(gauge(reg, "serve.cache.entries"), 1);
  EXPECT_FALSE(cache.lookup("a", 2).has_value());
  EXPECT_FALSE(cache.lookup("a", 5).has_value());
  EXPECT_TRUE(cache.lookup("c", 5).has_value());

  cache.insert("d", 4, make_payload({4}));
  EXPECT_EQ(counter(reg, "serve.cache.inserts"), 3u);
  EXPECT_EQ(counter(reg, "serve.cache.evictions"), 0u);
  EXPECT_EQ(counter(reg, "serve.cache.invalidations"), 2u);
  EXPECT_EQ(gauge(reg, "serve.cache.entries"), 1);
  EXPECT_FALSE(cache.lookup("d", 4).has_value());
  EXPECT_FALSE(cache.lookup("d", 5).has_value());
  EXPECT_TRUE(cache.lookup("c", 5).has_value());

  // invalidate_before() keeps the cache's own epoch and drops it for a
  // newer one.
  cache.invalidate_before(5);
  EXPECT_TRUE(cache.lookup("c", 5).has_value());
  cache.invalidate_before(6);
  EXPECT_EQ(counter(reg, "serve.cache.invalidations"), 3u);
  EXPECT_EQ(gauge(reg, "serve.cache.entries"), 0);
  EXPECT_EQ(gauge(reg, "serve.cache.bytes"), 0);
  EXPECT_FALSE(cache.lookup("c", 5).has_value());
}

TEST(ResultCacheTest, InsertReplacesExistingKey) {
  obs::MetricsRegistry reg;
  ResultCache cache(1 << 20, reg);
  cache.insert("k", 1, make_payload({1, 2}));
  cache.insert("k", 1, make_payload({9}));
  EXPECT_EQ(gauge(reg, "serve.cache.entries"), 1);
  EXPECT_EQ(gauge(reg, "serve.cache.bytes"),
            static_cast<std::int64_t>(payload_bytes(make_payload({9}))));
  EXPECT_TRUE(payload_equal(*cache.lookup("k", 1), make_payload({9})));
}

TEST(ResultCacheTest, QueryFingerprintsDistinguishKindsAndValues) {
  const Query a = TemporalDistancesQuery{3, 7};
  const Query b = TemporalDistancesQuery{3, 8};
  const Query c = FastestJourneyQuery{3, 7, 0};
  EXPECT_NE(query_fingerprint(a), query_fingerprint(b));
  EXPECT_NE(query_fingerprint(a), query_fingerprint(c));
  EXPECT_EQ(query_fingerprint(a),
            query_fingerprint(Query(TemporalDistancesQuery{3, 7})));

  FaultPlan plan;
  RoutingTrialsQuery rt;
  EXPECT_TRUE(query_cacheable(Query(rt)));
  rt.plan = &plan;
  EXPECT_FALSE(query_cacheable(Query(rt)));
}

// ------------------------------------------------------------- fixture

/// A small engine + temporal view with deterministic churn material.
struct ServeRig {
  static constexpr std::size_t kNodes = 24;
  static constexpr TimeUnit kHorizon = 16;

  StreamEngine engine;
  TemporalViewObserver view{kNodes, kHorizon};

  explicit ServeRig(std::uint64_t seed = 7) : engine{DynamicGraph(kNodes)} {
    engine.attach(&view);
    Rng rng(seed);
    std::vector<Event> events;
    for (std::size_t i = 0; i < 120; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kNodes));
      const auto v = static_cast<VertexId>(rng.index(kNodes));
      if (rng.uniform01() < 0.5) {
        events.push_back(Event::edge_insert(u, v));
      } else {
        events.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(kHorizon))));
      }
    }
    engine.apply_batch(events);
  }
};

QueryResult run_one(QueryBroker& broker, Query q, SubmitOptions opt = {}) {
  auto f = broker.submit(std::move(q), opt);
  broker.flush();
  return f.get();
}

/// One counter of the broker's metrics registry.
std::uint64_t counter(const QueryBroker& broker, std::string_view name) {
  return counter(broker.metrics(), name);
}

TEST(QueryBrokerTest, EachKindMatchesDirectComputation) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = 1;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  const TemporalGraph& tg = rig.view.view();
  const Graph g = rig.engine.graph().materialize();
  const std::uint64_t epoch = rig.engine.graph().epoch();

  {
    auto r = run_one(broker, TemporalDistancesQuery{2, 1});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(r.epoch, epoch);
    EXPECT_EQ(std::get<std::vector<TimeUnit>>(r.payload),
              earliest_arrival(tg, 2, 1).completion);
  }
  {
    auto r = run_one(broker, FastestJourneyQuery{0, 5, 0});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(std::get<std::optional<Journey>>(r.payload),
              fastest_journey(tg, 0, 5, 0));
  }
  {
    auto r = run_one(broker, MinHopJourneyQuery{1, 9, 0});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(std::get<std::optional<Journey>>(r.payload),
              minimum_hop_journey(tg, 1, 9, 0));
  }
  {
    auto r = run_one(broker, NsfReportQuery{0.5, 0.15});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    const auto& served = std::get<NsfReport>(r.payload);
    EXPECT_TRUE(payload_equal(r.payload,
                              QueryPayload(nsf_report(g, 0.5, 0.15, 1))));
    EXPECT_EQ(served.sizes.front(), g.vertex_count());
  }
  for (const auto measure :
       {CentralityMeasure::kDegree, CentralityMeasure::kCloseness,
        CentralityMeasure::kBetweenness, CentralityMeasure::kClustering,
        CentralityMeasure::kTemporalCloseness}) {
    auto r = run_one(broker, CentralityQuery{measure});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    std::vector<double> expect;
    switch (measure) {
      case CentralityMeasure::kDegree: expect = degree_centrality(g); break;
      case CentralityMeasure::kCloseness:
        expect = closeness_centrality(g);
        break;
      case CentralityMeasure::kBetweenness:
        expect = betweenness_centrality(g);
        break;
      case CentralityMeasure::kClustering:
        expect = clustering_coefficients(g);
        break;
      case CentralityMeasure::kTemporalCloseness:
        expect = temporal_closeness(tg, 1);
        break;
    }
    EXPECT_EQ(std::get<std::vector<double>>(r.payload), expect);
  }
  {
    RoutingTrialsQuery q;
    q.source = 0;
    q.destination = 7;
    q.strategy = RoutingStrategy::kEpidemic;
    q.trials = 8;
    q.loss_probability = 0.2;
    q.loss_seed = 99;
    auto r = run_one(broker, q);
    ASSERT_EQ(r.status, QueryStatus::kOk);
    SimulationFaults faults;
    faults.loss_probability = 0.2;
    faults.loss_seed = 99;
    const RoutingTrialStats expect = simulate_routing_trials(
        tg, 0, 7, 0, epidemic_strategy(), q.initial_copies, faults, 8, 1);
    EXPECT_TRUE(payload_equal(r.payload, QueryPayload(expect)));
  }

  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  EXPECT_EQ(snap.counter_value("serve.executed"),
            snap.counter_value("serve.admitted"));
  // One contact index for all batches, one materialization likewise.
  EXPECT_EQ(snap.counter_value("serve.csr_builds"), 1u);
  EXPECT_EQ(snap.counter_value("serve.graph_builds"), 1u);
  EXPECT_GT(snap.counter_value("serve.csr_reuses") +
                snap.counter_value("serve.graph_reuses"),
            0u);
}

TEST(QueryBrokerTest, CacheHitIsBitIdenticalAndFlagged) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  const Query q = TemporalDistancesQuery{4, 0};
  const auto first = run_one(broker, q);
  const auto second = run_one(broker, q);
  ASSERT_EQ(first.status, QueryStatus::kOk);
  ASSERT_EQ(second.status, QueryStatus::kOk);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  EXPECT_TRUE(payload_equal(first.payload, second.payload));
  EXPECT_EQ(counter(broker, "serve.cache.hits"), 1u);
}

TEST(QueryBrokerTest, EngineAdvanceInvalidatesCache) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  const Query q = TemporalDistancesQuery{0, 0};
  ASSERT_FALSE(run_one(broker, q).from_cache);
  ASSERT_TRUE(run_one(broker, q).from_cache);

  // Mutate through the broker: epoch bumps, cache entries below it die.
  const Event event = Event::contact_add(0, 1, 2);
  ASSERT_EQ(broker.apply_events({&event, 1}), 1u);

  const auto after = run_one(broker, q);
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.epoch, rig.engine.graph().epoch());
  EXPECT_GT(counter(broker, "serve.cache.invalidations"), 0u);

  // And the new result reflects the new contact.
  EXPECT_EQ(std::get<std::vector<TimeUnit>>(after.payload),
            earliest_arrival(rig.view.view(), 0, 0).completion);
}

TEST(QueryBrokerTest, SaturatedQueueShedsInsteadOfBlocking) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.max_queue = 4;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  std::vector<std::future<QueryResult>> futures;
  for (VertexId s = 0; s < 10; ++s) {
    futures.push_back(broker.submit(TemporalDistancesQuery{s, 0}));
  }
  // Submissions 5..10 must already be resolved (shed), not blocked.
  std::size_t shed = 0;
  for (std::size_t i = 4; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto r = futures[i].get();
    EXPECT_EQ(r.status, QueryStatus::kRejected);
    EXPECT_EQ(r.cause, RejectCause::kQueueFull);
    ++shed;
  }
  EXPECT_EQ(shed, 6u);

  broker.flush();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get().status, QueryStatus::kOk);
  }
  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  EXPECT_EQ(snap.counter_value("serve.shed_queue_full"), 6u);
  EXPECT_EQ(snap.counter_value("serve.admitted"), 4u);
  EXPECT_EQ(snap.gauge_value("serve.max_queue_depth"), 4);
}

TEST(QueryBrokerTest, ExpiredDeadlineResolvesTimedOut) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  SubmitOptions opt;
  opt.deadline = std::chrono::nanoseconds(1);
  auto f = broker.submit(TemporalDistancesQuery{0, 0}, opt);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  broker.flush();
  EXPECT_EQ(f.get().status, QueryStatus::kTimedOut);
  EXPECT_EQ(counter(broker, "serve.timed_out"), 1u);
}

// The destination is reachable only through a relay (0-1 @ t1, then
// 1-2 @ t2), so direct delivery never arrives. A default routing query
// is epidemic and must flood: every trial delivers at t = 2.
TEST(QueryBrokerTest, DefaultRoutingQueryFloodsThroughRelay) {
  constexpr std::size_t kNodes = 3;
  StreamEngine engine{DynamicGraph(kNodes)};
  TemporalViewObserver view(kNodes, /*horizon=*/4);
  engine.attach(&view);
  const std::vector<Event> contacts{Event::contact_add(0, 1, 1),
                                    Event::contact_add(1, 2, 2)};
  engine.apply_batch(contacts);
  QueryBroker broker(engine, &view);

  RoutingTrialsQuery q;
  q.source = 0;
  q.destination = 2;
  q.trials = 4;
  const QueryResult r = run_one(broker, q);
  ASSERT_EQ(r.status, QueryStatus::kOk);
  const auto& stats = std::get<RoutingTrialStats>(r.payload);
  EXPECT_EQ(stats.delivered, 4u);
  for (const RoutingOutcome& o : stats.outcomes) {
    EXPECT_TRUE(o.delivered);
    EXPECT_EQ(o.delivery_time, 2);
    EXPECT_EQ(o.hops, 2u);
  }
}

TEST(QueryBrokerTest, InvalidArgumentsAreRejectedTyped) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  auto r = run_one(broker, TemporalDistancesQuery{ServeRig::kNodes + 5, 0});
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_EQ(r.cause, RejectCause::kInvalidArgument);

  auto nan = run_one(broker, NsfReportQuery{-1.0, 0.15});
  EXPECT_EQ(nan.status, QueryStatus::kRejected);
  EXPECT_EQ(nan.cause, RejectCause::kInvalidArgument);

  // A broker without a temporal view rejects temporal queries but still
  // serves static ones.
  QueryBroker blind(rig.engine, nullptr);
  EXPECT_EQ(run_one(blind, TemporalDistancesQuery{0, 0}).cause,
            RejectCause::kInvalidArgument);
  EXPECT_EQ(run_one(blind, CentralityQuery{}).status, QueryStatus::kOk);
}

TEST(QueryBrokerTest, ShutdownResolvesLeftoverQueries) {
  ServeRig rig;
  std::future<QueryResult> orphan;
  {
    QueryBroker broker(rig.engine, &rig.view);
    orphan = broker.submit(TemporalDistancesQuery{0, 0});
    // No flush: the destructor must still resolve the promise.
  }
  const auto r = orphan.get();
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_EQ(r.cause, RejectCause::kShutdown);
}

TEST(QueryBrokerTest, PlanBearingRoutingQueriesBypassCache) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  FaultPlan plan(11);
  plan.set_contact_loss(0.3);
  RoutingTrialsQuery q;
  q.source = 0;
  q.destination = 3;
  q.trials = 4;
  q.plan = &plan;
  const auto a = run_one(broker, q);
  const auto b = run_one(broker, q);
  ASSERT_EQ(a.status, QueryStatus::kOk);
  ASSERT_EQ(b.status, QueryStatus::kOk);
  EXPECT_FALSE(a.from_cache);
  EXPECT_FALSE(b.from_cache);  // same query, still never cached
  EXPECT_TRUE(payload_equal(a.payload, b.payload));  // but deterministic
  EXPECT_EQ(counter(broker, "serve.cache.hits"), 0u);
}

TEST(QueryBrokerTest, DispatcherDrainsOnStop) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.max_queue = 4096;
  QueryBroker broker(rig.engine, &rig.view, cfg);
  broker.start();
  EXPECT_TRUE(broker.dispatching());

  std::vector<std::future<QueryResult>> futures;
  for (std::size_t i = 0; i < 200; ++i) {
    futures.push_back(broker.submit(
        TemporalDistancesQuery{static_cast<VertexId>(i % ServeRig::kNodes),
                               static_cast<TimeUnit>(i % 4)}));
  }
  broker.stop();  // drains: every admitted future is resolved after this
  EXPECT_FALSE(broker.dispatching());
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().status, QueryStatus::kOk);
  }
  EXPECT_GT(counter(broker, "serve.cache.hits"), 0u);  // duplicates
}

// -------------------------------------------------------------- churn

/// The acceptance gate: interleave churn with a query mix; at every
/// checkpoint, served results (cache on, batched, parallel) must be
/// bit-identical to fresh uncached recomputes at the same epoch, and
/// identical across thread counts 1 / 2 / 8.
struct ChurnRun {
  std::vector<QueryPayload> payloads;
  obs::MetricsRegistry::Snapshot metrics;
};

ChurnRun churn_run(std::size_t threads) {
  constexpr std::size_t kNodes = 32;
  constexpr TimeUnit kHorizon = 20;
  StreamEngine engine{DynamicGraph(kNodes)};
  TemporalViewObserver view(kNodes, kHorizon);
  engine.attach(&view);

  BrokerConfig cfg;
  cfg.threads = threads;
  QueryBroker broker(engine, &view, cfg);

  Rng rng(2024);
  ChurnRun run;
  for (std::size_t round = 0; round < 12; ++round) {
    // Churn: a batch of mixed events (same sequence at every thread
    // count: the RNG draws are independent of `threads`).
    std::vector<Event> batch;
    for (std::size_t i = 0; i < 20; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kNodes));
      const auto v = static_cast<VertexId>(rng.index(kNodes));
      const double dice = rng.uniform01();
      if (dice < 0.35) {
        batch.push_back(Event::edge_insert(u, v));
      } else if (dice < 0.55) {
        batch.push_back(Event::edge_delete(u, v));
      } else if (dice < 0.85) {
        batch.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(kHorizon))));
      } else {
        batch.push_back(Event::contact_relabel(
            u, v, static_cast<TimeUnit>(rng.index(kHorizon)),
            static_cast<TimeUnit>(rng.index(kHorizon))));
      }
    }
    broker.apply_events(batch);

    // Query mix for this round — includes a duplicate to exercise the
    // cache inside the equivalence gate.
    std::vector<Query> queries;
    const auto s = static_cast<VertexId>(rng.index(kNodes));
    const auto t = static_cast<VertexId>(rng.index(kNodes));
    queries.emplace_back(TemporalDistancesQuery{s, 0});
    queries.emplace_back(TemporalDistancesQuery{s, 0});  // cache hit
    queries.emplace_back(FastestJourneyQuery{s, t, 0});
    // A second journey miss with another t_start: the two share one
    // lane-packed fastest sweep over the batch's contact index.
    queries.emplace_back(
        FastestJourneyQuery{t, s, static_cast<TimeUnit>(1 + round % 4)});
    queries.emplace_back(MinHopJourneyQuery{t, s, 0});
    queries.emplace_back(CentralityQuery{CentralityMeasure::kDegree});
    if (round % 3 == 0) {
      queries.emplace_back(NsfReportQuery{0.5, 0.15});
      RoutingTrialsQuery rt;
      rt.source = s;
      rt.destination = t;
      rt.trials = 4;
      rt.loss_probability = 0.15;
      rt.loss_seed = 7 + round;
      queries.emplace_back(rt);
    }

    std::vector<std::future<QueryResult>> futures;
    for (const Query& q : queries) futures.push_back(broker.submit(q));
    broker.flush();

    const std::uint64_t epoch = engine.graph().epoch();
    const TemporalGraph& tg = view.view();
    const Graph g = engine.graph().materialize();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryResult r = futures[i].get();
      EXPECT_EQ(r.status, QueryStatus::kOk) << "round " << round;
      EXPECT_EQ(r.epoch, epoch) << "round " << round;

      // Fresh, uncached, serial recompute through the public API.
      QueryPayload fresh = std::visit(
          [&](const auto& q) -> QueryPayload {
            using T = std::decay_t<decltype(q)>;
            if constexpr (std::is_same_v<T, TemporalDistancesQuery>) {
              return earliest_arrival(tg, q.source, q.t_start).completion;
            } else if constexpr (std::is_same_v<T, FastestJourneyQuery>) {
              return fastest_journey(tg, q.source, q.target, q.t_start);
            } else if constexpr (std::is_same_v<T, MinHopJourneyQuery>) {
              return minimum_hop_journey(tg, q.source, q.target, q.t_start);
            } else if constexpr (std::is_same_v<T, NsfReportQuery>) {
              return nsf_report(g, q.stop_fraction, q.ks_threshold, 1);
            } else if constexpr (std::is_same_v<T, CentralityQuery>) {
              return degree_centrality(g);
            } else {
              SimulationFaults faults;
              faults.loss_probability = q.loss_probability;
              faults.loss_seed = q.loss_seed;
              return simulate_routing_trials(
                  tg, q.source, q.destination, q.t0, epidemic_strategy(),
                  q.initial_copies, faults, q.trials, 1);
            }
          },
          queries[i]);
      EXPECT_TRUE(payload_equal(r.payload, fresh))
          << "round " << round << " query " << i << " threads " << threads;
      run.payloads.push_back(std::move(r.payload));
    }
  }
  run.metrics = broker.metrics().snapshot();
  return run;
}

TEST(ServeChurnTest, ServedEqualsFreshRecomputeAtAnyThreadCount) {
  const ChurnRun serial = churn_run(1);
  const auto serial_count = [&](std::string_view name) {
    return serial.metrics.counter_value(name);
  };
  EXPECT_GT(serial_count("serve.cache.hits"), 0u);  // the duplicate hits
  EXPECT_GT(serial_count("serve.executed"), 0u);
  // Journeys were lane-packed.
  EXPECT_GT(serial_count("serve.fastest_lanes_packed"), 0u);
  // The delta planner folded the churn and compacted at least once, so
  // the fresh-recompute identity above held across compactions; every
  // base build past the attach-time one was a compaction.
  EXPECT_GT(serial_count("serve.csr_delta_appends"), 0u);
  EXPECT_GE(serial_count("serve.csr_compactions"), 1u);
  EXPECT_EQ(serial_count("serve.csr_builds"),
            1u + serial_count("serve.csr_compactions"));

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const ChurnRun parallel_run = churn_run(threads);
    ASSERT_EQ(parallel_run.payloads.size(), serial.payloads.size());
    for (std::size_t i = 0; i < serial.payloads.size(); ++i) {
      EXPECT_TRUE(
          payload_equal(serial.payloads[i], parallel_run.payloads[i]))
          << "payload " << i << " differs at threads=" << threads;
    }
    for (const std::string_view name :
         {"serve.cache.hits", "serve.executed", "serve.fastest_lanes_packed",
          "serve.csr_builds", "serve.csr_compactions"}) {
      EXPECT_EQ(parallel_run.metrics.counter_value(name), serial_count(name))
          << name << " at threads=" << threads;
    }
  }
}

TEST(ServeChurnTest, ConcurrentSubmitAndApplyNeverDeadlocks) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.max_queue = 64;  // small queue: shedding is expected and fine
  QueryBroker broker(rig.engine, &rig.view, cfg);
  broker.start();

  std::atomic<bool> go{true};
  std::thread mutator([&] {
    Rng rng(5);
    while (go.load()) {
      const auto u = static_cast<VertexId>(rng.index(ServeRig::kNodes));
      const auto v = static_cast<VertexId>(rng.index(ServeRig::kNodes));
      const Event e = Event::contact_add(
          u, v, static_cast<TimeUnit>(rng.index(ServeRig::kHorizon)));
      broker.apply_events({&e, 1});
    }
  });

  std::vector<std::future<QueryResult>> futures;
  Rng rng(6);
  for (std::size_t i = 0; i < 500; ++i) {
    futures.push_back(broker.submit(TemporalDistancesQuery{
        static_cast<VertexId>(rng.index(ServeRig::kNodes)), 0}));
  }
  go.store(false);
  mutator.join();
  broker.stop();

  std::size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.status == QueryStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.cause, RejectCause::kQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 500u);
  EXPECT_GT(ok, 0u);
}

// ------------------------------------------------------------ restore

/// A seeded stream on ServeRig's ids mixing every event the temporal
/// view folds: contact adds inside and past the horizon, relabels (old
/// label live, old label missing, new label past the horizon), node
/// joins, departures and revivals.
std::vector<Event> restore_stream(std::uint64_t seed) {
  constexpr TimeUnit kHorizon = ServeRig::kHorizon;
  Rng rng(seed);
  std::vector<Event> events;
  std::vector<Contact> added;
  std::size_t n = ServeRig::kNodes;
  while (events.size() < 240) {
    const auto u = static_cast<VertexId>(rng.index(n));
    auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) v = static_cast<VertexId>((v + 1) % n);
    const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
    const auto t2 = static_cast<TimeUnit>(rng.index(kHorizon));
    const double dice = rng.uniform01();
    if (dice < 0.45) {
      events.push_back(Event::contact_add(u, v, t));
      added.push_back(Contact{u, v, t});
    } else if (dice < 0.50) {
      events.push_back(Event::contact_add(u, v, kHorizon + t));
    } else if (dice < 0.62 && !added.empty()) {
      const Contact c = added[rng.index(added.size())];
      events.push_back(Event::contact_relabel(c.u, c.v, c.t, t2));
    } else if (dice < 0.70) {
      events.push_back(Event::contact_relabel(u, v, t, t2));
    } else if (dice < 0.75) {
      events.push_back(Event::contact_relabel(u, v, t, kHorizon + t2));
    } else if (dice < 0.82) {
      events.push_back(Event::edge_insert(u, v));
    } else if (dice < 0.86) {
      events.push_back(Event::node_leave(u));
    } else if (dice < 0.95) {
      events.push_back(Event::node_join(u));  // revival when u departed
    } else {
      events.push_back(Event::node_join());  // fresh id
      ++n;
    }
  }
  return events;
}

/// Serves `queries` in one flush; every one must resolve Ok.
std::vector<QueryPayload> serve_all(QueryBroker& broker,
                                    const std::vector<Query>& queries) {
  std::vector<std::future<QueryResult>> futures;
  for (const Query& q : queries) futures.push_back(broker.submit(q));
  broker.flush();
  std::vector<QueryPayload> payloads;
  for (auto& f : futures) {
    QueryResult r = f.get();
    EXPECT_EQ(r.status, QueryStatus::kOk);
    payloads.push_back(std::move(r.payload));
  }
  return payloads;
}

// fault/checkpoint.hpp's contract: a restored engine has no observers,
// and re-attaching one resynchronizes it. A temporal view and a broker
// attached to the restored engine must therefore land where an
// uninterrupted stack lands after the same stream.
TEST(ServeRestoreTest, ReattachedViewAndBrokerMatchUninterruptedRun) {
  constexpr std::size_t kNodes = ServeRig::kNodes;
  constexpr TimeUnit kHorizon = ServeRig::kHorizon;
  Rng kills(31);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<Event> events = restore_stream(seed);
    const std::span<const Event> stream(events);
    const std::size_t kill = kills.index(events.size() + 1);

    StreamEngine whole{DynamicGraph(kNodes)};
    TemporalViewObserver whole_view(kNodes, kHorizon);
    whole.attach(&whole_view);
    QueryBroker whole_broker(whole, &whole_view);
    whole_broker.apply_events(stream);

    StreamEngine head{DynamicGraph(kNodes)};
    head.apply_batch(stream.first(kill));
    std::stringstream checkpoint;
    write_checkpoint(checkpoint, head);
    CheckpointResult restored = read_checkpoint(checkpoint);
    ASSERT_TRUE(restored) << restored.error;
    TemporalViewObserver view(kNodes, kHorizon);
    restored.engine->attach(&view);
    QueryBroker broker(*restored.engine, &view);
    broker.apply_events(stream.subspan(kill));

    ASSERT_EQ(view.view(), whole_view.view())
        << "seed " << seed << " kill " << kill;
    ASSERT_EQ(view.out_of_horizon(), whole_view.out_of_horizon())
        << "seed " << seed << " kill " << kill;

    std::vector<Query> probes;
    const auto n = static_cast<VertexId>(view.view().vertex_count());
    for (VertexId s = 0; s < n; ++s) {
      const auto target = static_cast<VertexId>((s * 7 + 5) % n);
      const auto t_start = static_cast<TimeUnit>(s % 4);
      probes.emplace_back(TemporalDistancesQuery{s, t_start});
      probes.emplace_back(MinHopJourneyQuery{s, target, t_start});
      probes.emplace_back(FastestJourneyQuery{s, target, t_start});
    }
    const std::vector<QueryPayload> got = serve_all(broker, probes);
    const std::vector<QueryPayload> want = serve_all(whole_broker, probes);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_TRUE(payload_equal(got[i], want[i]))
          << "seed " << seed << " kill " << kill << " probe " << i;
    }
  }
}

// ---------------------------------------------- accounting regressions

TEST(ResultCacheTest, ChurnKeepsByteAccountingExact) {
  // Deterministic churn across every mutation path — same-key
  // overwrites (shrinking and growing), budget evictions, epoch
  // advances with and without an eager invalidation — asserting after
  // every operation that the published bytes/entries gauges equal a
  // full recount of the live entries.
  Rng rng(99);
  obs::MetricsRegistry reg;
  ResultCache cache(/*byte_budget=*/600, reg);
  const auto assert_exact = [&](const char* where, std::size_t step) {
    const ResultCache::Recount r = cache.recount();
    const std::int64_t bytes = gauge(reg, "serve.cache.bytes");
    const std::int64_t entries = gauge(reg, "serve.cache.entries");
    ASSERT_EQ(bytes, static_cast<std::int64_t>(r.bytes))
        << where << " step " << step;
    ASSERT_EQ(entries, static_cast<std::int64_t>(r.entries))
        << where << " step " << step;
    ASSERT_LE(bytes, static_cast<std::int64_t>(cache.byte_budget()))
        << where << " step " << step;
  };
  std::uint64_t epoch = 1;
  for (std::size_t step = 0; step < 500; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.55) {
      // Insert / overwrite under a handful of keys so overwrites with a
      // different payload size happen constantly.
      std::string key = "k";
      key += std::to_string(rng.index(6));
      std::vector<TimeUnit> payload(rng.index(40));
      for (TimeUnit& t : payload) t = static_cast<TimeUnit>(rng.index(100));
      cache.insert(key, epoch, QueryPayload(std::move(payload)));
      assert_exact("insert", step);
    } else if (roll < 0.75) {
      std::string key = "k";
      key += std::to_string(rng.index(8));
      (void)cache.lookup(key, epoch);
      assert_exact("lookup", step);
    } else if (roll < 0.92) {
      ++epoch;
      if (rng.uniform01() < 0.5) cache.invalidate_before(epoch);
      assert_exact("advance", step);
    } else {
      // The broker's own drop path: the engine advanced an epoch.
      cache.invalidate_before(++epoch);
      assert_exact("invalidate", step);
    }
  }
  // The churn reached every drop path.
  EXPECT_GT(counter(reg, "serve.cache.evictions"), 0u);
  EXPECT_GT(counter(reg, "serve.cache.invalidations"), 0u);
  // Drain and confirm the empty cache accounts to zero.
  cache.invalidate_before(epoch + 1);
  EXPECT_EQ(gauge(reg, "serve.cache.bytes"), 0);
  EXPECT_EQ(gauge(reg, "serve.cache.entries"), 0);
  EXPECT_EQ(cache.recount().bytes, 0u);
}

// ------------------------------------------------- deterministic clock

std::atomic<std::int64_t> g_fake_now_ns{0};

std::chrono::steady_clock::time_point fake_now() {
  return std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(g_fake_now_ns.load()));
}

TEST(QueryBrokerTest, DeadlineExpiringExactlyAtDequeueTimesOut) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  SubmitOptions opt;
  opt.deadline = std::chrono::nanoseconds(100);

  // Zero budget remaining at the admission gate: boundary-exact expiry.
  g_fake_now_ns.store(0);
  auto exact = broker.submit(TemporalDistancesQuery{0, 0}, opt);
  g_fake_now_ns.store(100);  // now == deadline
  broker.flush();
  EXPECT_EQ(exact.get().status, QueryStatus::kTimedOut);

  // One nanosecond of budget left: runs and resolves Ok.
  g_fake_now_ns.store(1000);
  auto alive = broker.submit(TemporalDistancesQuery{0, 0}, opt);
  g_fake_now_ns.store(1099);  // now < deadline (1100)
  broker.flush();
  EXPECT_EQ(alive.get().status, QueryStatus::kOk);
  EXPECT_EQ(counter(broker, "serve.timed_out"), 1u);
}

TEST(QueryBrokerTest, BackwardsClockYieldsZeroLatencyNotUnderflow) {
  // A non-monotonic clock (or a fake one stepping backwards) must never
  // wrap the unsigned latency into ~2^64 ns.
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  g_fake_now_ns.store(1'000'000);
  auto f = broker.submit(TemporalDistancesQuery{0, 0});
  g_fake_now_ns.store(500);  // clock stepped backwards before the flush
  broker.flush();
  EXPECT_EQ(f.get().status, QueryStatus::kOk);

  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  const obs::HistogramSnapshot* h =
      snap.histogram_snapshot("serve.latency.temporal_distances");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->count, 1u);
  EXPECT_EQ(h->max, 0u);
  EXPECT_DOUBLE_EQ(h->mean(), 0.0);
}

// ------------------------------------------------- registry surface

TEST(QueryBrokerTest, RegistryCountsExactAdmissionTraffic) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = 1;
  cfg.max_queue = 4;  // force shedding
  QueryBroker broker(rig.engine, &rig.view, cfg);

  // 3 rounds of 9 submissions into a queue of 4: one invalid query and
  // sources {0, 1, 2} are admitted, the other 5 shed. Round 1 misses
  // (one 3-lane sweep), rounds 2 and 3 hit the cache at the same epoch;
  // each round's second flush finds the queue empty.
  std::vector<std::future<QueryResult>> futures;
  for (std::size_t round = 0; round < 3; ++round) {
    futures.push_back(
        broker.submit(TemporalDistancesQuery{ServeRig::kNodes + 9, 0}));
    for (std::size_t i = 0; i < 8; ++i) {  // queue bound 4: the rest shed
      futures.push_back(broker.submit(
          TemporalDistancesQuery{static_cast<VertexId>(i % 3), 0}));
    }
    broker.flush();
    broker.flush();
  }
  std::size_t cached_bytes = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult r = futures[i].get();
    if (i >= 1 && i <= 3) cached_bytes += payload_bytes(r.payload);
  }

  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  EXPECT_EQ(snap.counter_value("serve.submitted"), 27u);
  EXPECT_EQ(snap.counter_value("serve.admitted"), 12u);
  EXPECT_EQ(snap.counter_value("serve.shed_queue_full"), 15u);
  EXPECT_EQ(snap.counter_value("serve.rejected_invalid"), 3u);
  EXPECT_EQ(snap.counter_value("serve.timed_out"), 0u);
  EXPECT_EQ(snap.counter_value("serve.executed"), 3u);
  EXPECT_EQ(snap.counter_value("serve.batches"), 3u);
  EXPECT_EQ(snap.counter_value("serve.lanes_packed"), 3u);
  EXPECT_EQ(snap.counter_value("serve.sweeps_saved"), 2u);
  EXPECT_EQ(snap.counter_value("serve.csr_builds"), 1u);  // attach-time
  EXPECT_EQ(snap.counter_value("serve.csr_reuses"), 1u);
  EXPECT_EQ(snap.counter_value("serve.csr_delta_appends"), 0u);
  EXPECT_EQ(snap.counter_value("serve.csr_compactions"), 0u);
  EXPECT_EQ(snap.counter_value("serve.cache.hits"), 6u);
  EXPECT_EQ(snap.counter_value("serve.cache.misses"), 3u);
  EXPECT_EQ(snap.counter_value("serve.cache.evictions"), 0u);
  EXPECT_EQ(snap.counter_value("serve.cache.invalidations"), 0u);
  EXPECT_EQ(snap.gauge_value("serve.cache.entries"), 3);
  EXPECT_EQ(snap.gauge_value("serve.cache.bytes"),
            static_cast<std::int64_t>(cached_bytes));
  EXPECT_EQ(snap.gauge_value("serve.queue_depth"), 0);
  EXPECT_EQ(snap.gauge_value("serve.max_queue_depth"), 4);

  // Every dequeued query waited; only Ok results record a latency.
  const obs::HistogramSnapshot* wait =
      snap.histogram_snapshot("serve.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 12u);
  const obs::HistogramSnapshot* lat =
      snap.histogram_snapshot("serve.latency.temporal_distances");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 9u);

  // There was real traffic behind the counts.
  EXPECT_GT(snap.counter_value("serve.shed_queue_full"), 0u);
  EXPECT_GT(snap.counter_value("serve.rejected_invalid"), 0u);
  EXPECT_GT(snap.counter_value("serve.cache.hits"), 0u);
}

// The executor's per-worker TemporalWorkspaces persist across batches;
// a NodeJoin between batches grows the vertex space, and the next sweep
// must re-bind them to the new count instead of reading stale bounds.
TEST(QueryBrokerTest, WorkspaceRebindsAfterVertexGrowthBetweenBatches) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = 2;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  // Batch 1 binds every worker workspace to the current vertex count.
  {
    auto r = run_one(broker, TemporalDistancesQuery{0, 0});
    ASSERT_EQ(r.status, QueryStatus::kOk);
  }
  const std::size_t old_n = rig.view.view().vertex_count();

  // Grow the vertex space between batches; contacts touch the newcomer.
  const std::vector<Event> growth{Event::node_join()};
  ASSERT_EQ(broker.apply_events(growth), 1u);
  const auto fresh_v = static_cast<VertexId>(old_n);
  const std::vector<Event> contacts{Event::contact_add(fresh_v, 0, 1),
                                    Event::contact_add(fresh_v, 3, 2)};
  ASSERT_EQ(broker.apply_events(contacts), 2u);
  ASSERT_EQ(rig.view.view().vertex_count(), old_n + 1);

  // Batch 2 sweeps from (and to) the grown vertex.
  auto r1 = run_one(broker, TemporalDistancesQuery{fresh_v, 0});
  ASSERT_EQ(r1.status, QueryStatus::kOk);
  EXPECT_EQ(std::get<std::vector<TimeUnit>>(r1.payload),
            earliest_arrival(rig.view.view(), fresh_v, 0).completion);
  auto r2 = run_one(broker, FastestJourneyQuery{0, fresh_v, 0});
  ASSERT_EQ(r2.status, QueryStatus::kOk);
  EXPECT_EQ(std::get<std::optional<Journey>>(r2.payload),
            fastest_journey(rig.view.view(), 0, fresh_v, 0));
}

// --------------------------------------------- self-healing update path

TEST(HealthMonitorTest, StateMachineFollowsTheDiagram) {
  // The walk below degrades before it trips, so it needs a threshold
  // of at least two failures.
  static_assert(HealthMonitor::kCircuitThreshold >= 2);
  constexpr std::int64_t kBackoff = HealthMonitor::kProbeBackoff.count();
  obs::MetricsRegistry reg;
  HealthMonitor hm(reg);
  const auto at = [](std::int64_t ns) {
    return HealthMonitor::TimePoint(std::chrono::nanoseconds(ns));
  };

  EXPECT_EQ(hm.state(), HealthState::kHealthy);
  hm.begin_probe();  // only legal from ReadOnly: no-op here
  EXPECT_EQ(hm.state(), HealthState::kHealthy);

  hm.on_failure(at(0));
  EXPECT_EQ(hm.state(), HealthState::kDegraded);
  EXPECT_EQ(hm.consecutive_failures(), 1u);
  hm.on_success();
  EXPECT_EQ(hm.state(), HealthState::kHealthy);
  EXPECT_EQ(hm.consecutive_failures(), 0u);

  // A streak below the threshold degrades; the streak at the threshold
  // trips the circuit.
  std::int64_t t = 10;
  for (std::size_t i = 1; i < HealthMonitor::kCircuitThreshold; ++i, t += 10) {
    hm.on_failure(at(t));
    EXPECT_EQ(hm.state(), HealthState::kDegraded);
  }
  hm.on_failure(at(t));
  EXPECT_EQ(hm.state(), HealthState::kReadOnly);
  EXPECT_EQ(hm.consecutive_failures(), HealthMonitor::kCircuitThreshold);
  EXPECT_FALSE(hm.probe_due(at(t + kBackoff - 1)));  // dwelt < backoff
  EXPECT_TRUE(hm.probe_due(at(t + kBackoff)));

  t += kBackoff;
  hm.begin_probe();
  EXPECT_EQ(hm.state(), HealthState::kRecovering);
  EXPECT_FALSE(hm.probe_due(at(t + 100 * kBackoff)));  // only while ReadOnly

  // A failed probe re-opens the circuit and re-arms the backoff.
  t += 10;
  hm.on_failure(at(t));
  EXPECT_EQ(hm.state(), HealthState::kReadOnly);
  EXPECT_FALSE(hm.probe_due(at(t + kBackoff - 1)));  // re-armed from t
  EXPECT_TRUE(hm.probe_due(at(t + kBackoff)));
  hm.begin_probe();
  hm.on_success();
  EXPECT_EQ(hm.state(), HealthState::kHealthy);
  EXPECT_EQ(hm.consecutive_failures(), 0u);

  // Every transition landed in the registry.
  const obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauge_value("serve.health.state"),
            static_cast<std::int64_t>(HealthState::kHealthy));
  // H->D, D->H, H->D, D->RO, RO->Rec, Rec->RO, RO->Rec, Rec->H.
  EXPECT_EQ(hm.transitions(), 8u);
  EXPECT_EQ(snap.counter_value("serve.health.transitions"), 8u);
  EXPECT_EQ(snap.counter_value("serve.health.to_degraded"), 2u);
  EXPECT_EQ(snap.counter_value("serve.health.to_read_only"), 2u);
  EXPECT_EQ(snap.counter_value("serve.health.to_recovering"), 2u);
  EXPECT_EQ(snap.counter_value("serve.health.to_healthy"), 2u);
}

// Fault / sleep seams are function pointers, so the scripts are globals.
std::atomic<int> g_fault_budget{0};  // fail the next N fault checks
bool budgeted_fault() {
  int cur = g_fault_budget.load();
  while (cur > 0 && !g_fault_budget.compare_exchange_weak(cur, cur - 1)) {
  }
  return cur > 0;
}
std::atomic<bool> g_fault_on{false};
bool toggled_fault() { return g_fault_on.load(); }
std::atomic<std::int64_t> g_slept_ns{0};
void recording_sleep(std::chrono::nanoseconds d) { g_slept_ns += d.count(); }

/// Exhausted updates that trip the broker's circuit: every attempt of
/// each call hits the (still failing) fault seam.
void trip_circuit(QueryBroker& broker, const Event& e) {
  for (std::size_t i = 1; i < HealthMonitor::kCircuitThreshold; ++i) {
    EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
    EXPECT_EQ(broker.health(), HealthState::kDegraded);
  }
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);
}

TEST(QueryBrokerTest, TransientUpdateFaultRetriesWithBackoffThenApplies) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.update_fault_fn = &budgeted_fault;
  cfg.sleep_fn = &recording_sleep;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  // One transient fault per retry the broker allows: the last attempt
  // is clean.
  constexpr std::size_t kFaults = QueryBroker::kUpdateMaxAttempts - 1;
  static_assert(kFaults >= 1);
  const std::uint64_t epoch0 = rig.engine.graph().epoch();
  g_fault_budget.store(static_cast<int>(kFaults));
  g_slept_ns.store(0);
  const Event e = Event::contact_add(0, 1, 3);
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);
  EXPECT_EQ(rig.engine.graph().epoch(), epoch0 + 1);  // applied exactly once
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  // Retry k sleeps base * factor^(k-1), capped.
  std::chrono::nanoseconds want_sleep{0};
  std::chrono::nanoseconds delay = QueryBroker::kUpdateBackoffBase;
  for (std::size_t k = 0; k < kFaults; ++k) {
    want_sleep += delay;
    delay = std::min(delay * QueryBroker::kUpdateBackoffFactor,
                     QueryBroker::kUpdateBackoffCap);
  }
  EXPECT_EQ(g_slept_ns.load(), want_sleep.count());

  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  EXPECT_EQ(snap.counter_value("serve.update.faults"), kFaults);
  EXPECT_EQ(snap.counter_value("serve.update.retries"), kFaults);
  EXPECT_EQ(snap.counter_value("serve.update.failures"), 0u);
  EXPECT_EQ(snap.counter_value("serve.health.transitions"), 0u);
}

TEST(QueryBrokerTest, PersistentFaultTripsCircuitServesStaleThenHeals) {
  static_assert(HealthMonitor::kCircuitThreshold >= 2);
  constexpr std::int64_t kBackoff = HealthMonitor::kProbeBackoff.count();
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;  // deterministic probe-backoff clock
  cfg.update_fault_fn = &toggled_fault;
  cfg.sleep_fn = &recording_sleep;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  const std::uint64_t good_epoch = rig.engine.graph().epoch();
  const Event e = Event::contact_add(0, 1, 3);

  // Exhausted updates: Healthy -> Degraded -> ... -> ReadOnly.
  g_fake_now_ns.store(0);
  g_fault_on.store(true);
  trip_circuit(broker, e);
  EXPECT_EQ(rig.engine.graph().epoch(), good_epoch);  // engine untouched
  const std::uint64_t trip_faults =
      HealthMonitor::kCircuitThreshold * QueryBroker::kUpdateMaxAttempts;
  EXPECT_EQ(counter(broker, "serve.update.faults"), trip_faults);

  // Circuit open, backoff not elapsed: updates fast-fail without
  // touching the fault seam (no retry burn).
  g_fake_now_ns.store(kBackoff / 2);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(counter(broker, "serve.update.rejected_read_only"), 1u);
  EXPECT_EQ(counter(broker, "serve.update.faults"), trip_faults);

  // Queries keep serving the last good epoch, annotated stale.
  const auto stale = run_one(broker, TemporalDistancesQuery{2, 0});
  ASSERT_EQ(stale.status, QueryStatus::kOk);
  EXPECT_EQ(stale.epoch, good_epoch);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.health, HealthState::kReadOnly);
  EXPECT_EQ(std::get<std::vector<TimeUnit>>(stale.payload),
            earliest_arrival(rig.view.view(), 2, 0).completion);
  EXPECT_GE(counter(broker, "serve.stale_served"), 1u);

  // Backoff elapsed but the fault persists: the update doubles as the
  // probe, fails, and re-opens the circuit (backoff re-armed).
  g_fake_now_ns.store(2 * kBackoff);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);
  g_fake_now_ns.store(2 * kBackoff + kBackoff / 2);  // not due yet
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(counter(broker, "serve.update.rejected_read_only"), 2u);

  // Fault clears, backoff elapses: probe succeeds, the update applies,
  // and the broker returns to Healthy — results lose the stale mark.
  g_fault_on.store(false);
  g_fake_now_ns.store(4 * kBackoff);
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  EXPECT_EQ(rig.engine.graph().epoch(), good_epoch + 1);
  const auto fresh = run_one(broker, TemporalDistancesQuery{2, 0});
  ASSERT_EQ(fresh.status, QueryStatus::kOk);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.health, HealthState::kHealthy);
  EXPECT_EQ(fresh.epoch, good_epoch + 1);

  // The whole episode is visible in the metrics registry.
  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  // H->D, D->RO, RO->Rec, Rec->RO, RO->Rec, Rec->H.
  EXPECT_EQ(snap.counter_value("serve.health.transitions"), 6u);
  // The trip plus one failed probe, each burning every attempt.
  const std::uint64_t failed_calls = HealthMonitor::kCircuitThreshold + 1;
  EXPECT_EQ(snap.counter_value("serve.update.failures"), failed_calls);
  EXPECT_EQ(snap.counter_value("serve.update.faults"),
            failed_calls * QueryBroker::kUpdateMaxAttempts);
  EXPECT_EQ(snap.counter_value("serve.update.retries"),
            failed_calls * (QueryBroker::kUpdateMaxAttempts - 1));
  // Probes: failed + successful.
  EXPECT_EQ(snap.counter_value("serve.update.probes"), 2u);
  EXPECT_EQ(snap.counter_value("serve.update.rejected_read_only"), 2u);
  EXPECT_EQ(snap.gauge_value("serve.health.state"),
            static_cast<std::int64_t>(HealthState::kHealthy));
}

TEST(QueryBrokerTest, ManualProbeRespectsBackoffAndOutcome) {
  constexpr std::int64_t kBackoff = HealthMonitor::kProbeBackoff.count();
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;
  cfg.update_fault_fn = &toggled_fault;
  cfg.sleep_fn = &recording_sleep;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  g_fake_now_ns.store(0);
  g_fault_on.store(true);
  const Event e = Event::contact_add(0, 1, 3);
  trip_circuit(broker, e);
  ASSERT_EQ(broker.health(), HealthState::kReadOnly);

  EXPECT_FALSE(broker.probe());  // not due yet: no state change
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);

  g_fake_now_ns.store(kBackoff + kBackoff / 2);
  EXPECT_FALSE(broker.probe());  // due, but the fault persists
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);

  g_fault_on.store(false);
  g_fake_now_ns.store(2 * kBackoff);  // re-armed at 1.5x: not due yet
  EXPECT_FALSE(broker.probe());
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);
  g_fake_now_ns.store(3 * kBackoff);
  EXPECT_TRUE(broker.probe());
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  EXPECT_EQ(counter(broker, "serve.update.probes"), 2u);
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);
}

TEST(QueryBrokerTest, WatchdogHealsCircuitWithoutTraffic) {
  // Real clock: the background dispatcher must re-probe on its own —
  // no queries, no update calls — once the fault clears.
  ServeRig rig;
  BrokerConfig cfg;
  cfg.update_fault_fn = &toggled_fault;
  cfg.sleep_fn = &recording_sleep;
  QueryBroker broker(rig.engine, &rig.view, cfg);
  broker.start();

  g_fault_on.store(true);
  const Event e = Event::contact_add(0, 1, 3);
  trip_circuit(broker, e);

  g_fault_on.store(false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (broker.health() != HealthState::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  EXPECT_GE(counter(broker, "serve.update.probes"), 1u);
  broker.stop();
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);  // path really works again
}

void run_stop_race(std::size_t threads) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = threads;
  cfg.max_queue = 4096;
  std::vector<std::future<QueryResult>> futures;
  {
    QueryBroker broker(rig.engine, &rig.view, cfg);
    broker.start();

    std::atomic<bool> go{true};
    std::thread mutator([&] {
      Rng rng(17);
      while (go.load()) {
        std::vector<Event> batch;
        for (int i = 0; i < 8; ++i) {
          batch.push_back(Event::contact_add(
              static_cast<VertexId>(rng.index(ServeRig::kNodes)),
              static_cast<VertexId>(rng.index(ServeRig::kNodes)),
              static_cast<TimeUnit>(rng.index(ServeRig::kHorizon))));
        }
        broker.apply_events(batch);
      }
    });

    Rng rng(18);
    for (std::size_t i = 0; i < 300; ++i) {
      futures.push_back(broker.submit(TemporalDistancesQuery{
          static_cast<VertexId>(rng.index(ServeRig::kNodes)), 0}));
      if (i == 150) broker.stop();  // stop() races the in-flight updates
    }
    go.store(false);
    mutator.join();
    // Destructor: whatever the drain left queued resolves as shutdown.
  }
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "unresolved future at threads=" << threads;
    const auto r = f.get();
    if (r.status == QueryStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, QueryStatus::kRejected);
      ASSERT_TRUE(r.cause == RejectCause::kShutdown ||
                  r.cause == RejectCause::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 300u);
  EXPECT_GT(ok, 0u) << "threads=" << threads;
}

TEST(QueryBrokerTest, StopRacingApplyEventsDrainsCleanly) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    run_stop_race(threads);
  }
}

/// The same mixed queries, flushed as one batch (lane-packed) or one
/// query per flush (a one-query batch shares no sweep, so every query
/// takes the scalar path); cache off so duplicates stay in the
/// execution list (exercising lane sharing instead of the cache dedup).
std::vector<QueryResult> lane_pack_run(
    bool one_query_flushes, std::size_t threads,
    obs::MetricsRegistry::Snapshot* metrics_out = nullptr) {
  ServeRig rig(404);
  // A contact-free newcomer: fastest journeys to it are unreachable.
  const std::vector<Event> growth{Event::node_join()};
  rig.engine.apply_batch(growth);
  const auto isolated = static_cast<VertexId>(ServeRig::kNodes);
  BrokerConfig cfg;
  cfg.threads = threads;
  cfg.cache_bytes = 0;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  std::vector<std::future<QueryResult>> futures;
  const auto submit = [&](Query q) {
    futures.push_back(broker.submit(std::move(q)));
    if (one_query_flushes) broker.flush();
  };
  // Mixed kinds, duplicate (source, t_start) pairs, several t_starts —
  // all in one batch so the lane-pack plan sees everything at once.
  Rng rng(9);
  for (std::size_t i = 0; i < 40; ++i) {
    submit(TemporalDistancesQuery{
        static_cast<VertexId>(rng.index(ServeRig::kNodes)),
        static_cast<TimeUnit>(rng.index(3))});
  }
  submit(TemporalDistancesQuery{1, 0});
  submit(TemporalDistancesQuery{1, 0});  // duplicate pair shares a lane
  // Fastest misses share one block across t_starts; the contact-free
  // target is unreachable and source == target stays scalar.
  submit(FastestJourneyQuery{0, 5, 0});
  submit(FastestJourneyQuery{7, 2, 3});
  submit(FastestJourneyQuery{3, isolated, 1});
  submit(FastestJourneyQuery{5, 0, 6});
  submit(FastestJourneyQuery{4, 4, 2});
  submit(MinHopJourneyQuery{5, 0, 0});  // min-hop stays scalar
  submit(CentralityQuery{CentralityMeasure::kDegree});
  submit(CentralityQuery{CentralityMeasure::kTemporalCloseness});
  broker.flush();

  std::vector<QueryResult> results;
  for (auto& f : futures) results.push_back(f.get());
  if (metrics_out != nullptr) *metrics_out = broker.metrics().snapshot();
  return results;
}

TEST(QueryBrokerLanePack, PackedPayloadsByteIdenticalToScalarPlanner) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    obs::MetricsRegistry::Snapshot packed_metrics, scalar_metrics;
    const auto packed = lane_pack_run(false, threads, &packed_metrics);
    const auto scalar = lane_pack_run(true, threads, &scalar_metrics);
    ASSERT_EQ(packed.size(), scalar.size());
    std::size_t journeys = 0, unreachable = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) {
      ASSERT_EQ(packed[i].status, QueryStatus::kOk) << "i=" << i;
      ASSERT_EQ(scalar[i].status, QueryStatus::kOk) << "i=" << i;
      EXPECT_TRUE(payload_equal(packed[i].payload, scalar[i].payload))
          << "i=" << i << " threads=" << threads;
      if (const auto* j =
              std::get_if<std::optional<Journey>>(&packed[i].payload)) {
        if (!j->has_value()) {
          ++unreachable;
        } else if (!(*j)->empty()) {
          ++journeys;
        }
      }
    }
    // Packed journeys really materialized, and the unreachable lane
    // really came back empty.
    EXPECT_GE(journeys, 3u);
    EXPECT_GE(unreachable, 1u);
    EXPECT_GT(packed_metrics.counter_value("serve.lanes_packed"), 0u);
    EXPECT_GT(packed_metrics.counter_value("serve.sweeps_saved"), 0u);
    EXPECT_GT(packed_metrics.counter_value("serve.fastest_lanes_packed"), 0u);
    EXPECT_EQ(scalar_metrics.counter_value("serve.lanes_packed"), 0u);
    EXPECT_EQ(scalar_metrics.counter_value("serve.sweeps_saved"), 0u);
    EXPECT_EQ(scalar_metrics.counter_value("serve.fastest_lanes_packed"), 0u);
  }
}

TEST(QueryBrokerLanePack, CountersReflectExactPlan) {
  ServeRig rig(11);
  BrokerConfig cfg;
  cfg.threads = 1;
  cfg.cache_bytes = 0;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  std::vector<std::future<QueryResult>> futures;
  // Group t=0: sources {1, 2, 3, 1} -> 3 lanes, 4 packed queries.
  for (const VertexId s : {1u, 2u, 3u, 1u}) {
    futures.push_back(broker.submit(TemporalDistancesQuery{s, 0}));
  }
  // Group t=2: sources {4, 5} -> 2 lanes, 2 packed queries.
  futures.push_back(broker.submit(TemporalDistancesQuery{4, 2}));
  futures.push_back(broker.submit(TemporalDistancesQuery{5, 2}));
  // Singleton group t=5: stays scalar (packing saves nothing).
  futures.push_back(broker.submit(TemporalDistancesQuery{6, 5}));
  // Fastest misses with source != target: one 3-lane block whatever
  // their t_starts; source == target stays scalar.
  futures.push_back(broker.submit(FastestJourneyQuery{0, 5, 0}));
  futures.push_back(broker.submit(FastestJourneyQuery{5, 0, 4}));
  futures.push_back(broker.submit(FastestJourneyQuery{2, 9, 1}));
  futures.push_back(broker.submit(FastestJourneyQuery{3, 3, 0}));
  broker.flush();
  for (auto& f : futures) EXPECT_EQ(f.get().status, QueryStatus::kOk);

  const auto fastest_packed = [&] {
    return counter(broker, "serve.fastest_lanes_packed");
  };
  // 3 + 2 distinct (source, t) lanes; 6 packed queries - 2 sweeps.
  EXPECT_EQ(counter(broker, "serve.lanes_packed"), 5u);
  EXPECT_EQ(counter(broker, "serve.sweeps_saved"), 4u);
  EXPECT_EQ(fastest_packed(), 3u);  // distances counters exclude them
  EXPECT_EQ(counter(broker, "serve.executed"), 11u);

  // A lone FastestJourney miss (next to a source == target one) stays
  // on the scalar path.
  std::vector<std::future<QueryResult>> lone;
  lone.push_back(broker.submit(FastestJourneyQuery{1, 6, 0}));
  lone.push_back(broker.submit(FastestJourneyQuery{2, 2, 0}));
  broker.flush();
  for (auto& f : lone) EXPECT_EQ(f.get().status, QueryStatus::kOk);
  EXPECT_EQ(fastest_packed(), 3u);
  EXPECT_EQ(counter(broker, "serve.executed"), 13u);
}

/// Five distinct queries, then each again, all in one batch: the
/// second instance of a cacheable query is an in-batch duplicate.
std::vector<QueryResult> duplicate_run(std::size_t cache_bytes,
                                       std::size_t threads,
                                       std::uint64_t* evictions = nullptr) {
  ServeRig rig(21);
  BrokerConfig cfg;
  cfg.threads = threads;
  cfg.cache_bytes = cache_bytes;
  QueryBroker broker(rig.engine, &rig.view, cfg);
  const std::vector<Query> firsts = {
      TemporalDistancesQuery{3, 0}, FastestJourneyQuery{0, 5, 0},
      // Span 7 from t = 2 on, span 2 from t = 0: the start matters.
      FastestJourneyQuery{2, 11, 2}, FastestJourneyQuery{4, 4, 2},
      MinHopJourneyQuery{5, 0, 0}};
  std::vector<std::future<QueryResult>> futures;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Query& q : firsts) futures.push_back(broker.submit(q));
  }
  broker.flush();
  std::vector<QueryResult> results;
  for (auto& f : futures) results.push_back(f.get());
  if (evictions != nullptr) {
    *evictions = counter(broker, "serve.cache.evictions");
  }
  return results;
}

TEST(QueryBrokerTest, EvictedInBatchDuplicatesRecomputeByteIdentical) {
  // A one-byte budget evicts every payload as it is inserted, so phase 5
  // of flush() misses each duplicate's first instance and recomputes the
  // duplicate on its own: a FastestJourney as a one-lane block where its
  // first instance ran in a two-lane block, source == target, distances
  // and min-hop on the scalar kernels.
  constexpr std::size_t kFirsts = 5;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    std::uint64_t evictions = 0;
    const auto got = duplicate_run(/*cache_bytes=*/1, threads, &evictions);
    const auto uncached = duplicate_run(/*cache_bytes=*/0, threads);
    ASSERT_EQ(got.size(), 2 * kFirsts);
    ASSERT_EQ(uncached.size(), got.size());
    EXPECT_GT(evictions, 0u) << "threads=" << threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].status, QueryStatus::kOk) << "i=" << i;
      ASSERT_EQ(uncached[i].status, QueryStatus::kOk) << "i=" << i;
      EXPECT_FALSE(got[i].from_cache) << "i=" << i;
      EXPECT_TRUE(payload_equal(got[i].payload, uncached[i].payload))
          << "i=" << i << " threads=" << threads;
      if (i >= kFirsts) {
        EXPECT_TRUE(payload_equal(got[i].payload, got[i - kFirsts].payload))
            << "i=" << i << " threads=" << threads;
      }
    }
    // The source != target fastest queries really found journeys.
    for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
      const auto& j = std::get<std::optional<Journey>>(got[i].payload);
      ASSERT_TRUE(j.has_value()) << "i=" << i;
      EXPECT_FALSE(j->empty()) << "i=" << i;
    }
  }
}

TEST(QueryBrokerLanePack, TemporalClosenessServedMatchesDirect) {
  ServeRig rig(13);
  BrokerConfig cfg;
  cfg.threads = 1;
  QueryBroker broker(rig.engine, &rig.view, cfg);
  const QueryResult r =
      run_one(broker, CentralityQuery{CentralityMeasure::kTemporalCloseness});
  ASSERT_EQ(r.status, QueryStatus::kOk);
  const QueryPayload want(temporal_closeness(rig.view.view(), 1));
  EXPECT_TRUE(payload_equal(r.payload, want));
}

// ------------------------------------------------------- contact index

TEST(QueryBrokerTest, IndexCountersTrackFoldsAndCompactions) {
  StreamEngine engine{DynamicGraph(6)};
  TemporalViewObserver view(6, 8);
  engine.attach(&view);
  BrokerConfig cfg;
  cfg.threads = 1;
  QueryBroker broker(engine, &view, cfg);
  EXPECT_EQ(counter(broker, "serve.csr_builds"), 1u);  // attach-time build

  const std::vector<Event> events = {
      Event::contact_add(0, 1, 2),
      Event::contact_add(1, 2, 3),
      Event::contact_add(0, 1, 2),         // duplicate: no fold
      Event::contact_add(0, 1, 20),        // out of horizon: no fold
      Event::contact_relabel(0, 1, 2, 4),  // 2 folds
  };
  ASSERT_EQ(broker.apply_events(events), events.size());
  EXPECT_EQ(counter(broker, "serve.csr_delta_appends"), 4u);
  EXPECT_EQ(counter(broker, "serve.csr_compactions"), 0u);

  // Routing reads the merged index like every temporal kind, so its
  // batch compacts nothing. Every contact sits in the delta (the base
  // was built empty at attach): 2 meets 1 at t=3, 1 meets 0 at t=4.
  RoutingTrialsQuery rt;
  rt.source = 2;
  rt.destination = 0;
  const QueryResult r = run_one(broker, rt);
  ASSERT_EQ(r.status, QueryStatus::kOk);
  EXPECT_EQ(counter(broker, "serve.csr_compactions"), 0u);
  EXPECT_EQ(counter(broker, "serve.csr_builds"), 1u);
  EXPECT_EQ(counter(broker, "serve.csr_reuses"), 1u);
  const RoutingTrialStats over_view = simulate_routing_trials(
      view.view(), 2, 0, 0, epidemic_strategy(), 0, SimulationFaults{}, 1, 1);
  EXPECT_EQ(over_view.delivered, 1u);
  EXPECT_EQ(over_view.mean_delivery_time, 4.0);
  EXPECT_TRUE(payload_equal(r.payload, QueryPayload(over_view)));
  // A second, distinct routing query reuses the index too.
  rt.destination = 1;
  ASSERT_EQ(run_one(broker, rt).status, QueryStatus::kOk);
  EXPECT_EQ(counter(broker, "serve.csr_compactions"), 0u);
  EXPECT_EQ(counter(broker, "serve.csr_builds"), 1u);
  EXPECT_EQ(counter(broker, "serve.csr_reuses"), 2u);
  EXPECT_EQ(counter(broker, "serve.csr_delta_appends"), 4u);
}

// recompute_all rebuilds observers in attach order, so the broker
// builds its index from a view that has finished rebuilding. Recomputed
// in parallel, the index could be built from a view mid-rebuild and
// serve wrong payloads (or crash).
TEST(QueryBrokerTest, RecomputeAllRebasesIndexOffRebuiltView) {
  constexpr std::size_t kNodes = 400;
  constexpr TimeUnit kHorizon = 48;
  StreamEngine engine{DynamicGraph(kNodes)};
  TemporalViewObserver view(kNodes, kHorizon);
  engine.attach(&view);
  BrokerConfig cfg;
  cfg.threads = 2;
  QueryBroker broker(engine, &view, cfg);

  Rng rng(41);
  const auto churn = [&](std::size_t count) {
    std::vector<Event> events;
    for (std::size_t i = 0; i < count; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kNodes));
      const auto v = static_cast<VertexId>((u + 1 + rng.index(kNodes - 1)) %
                                           kNodes);
      const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
      if (rng.uniform01() < 0.9) {
        events.push_back(Event::contact_add(u, v, t));
      } else {
        events.push_back(Event::contact_relabel(
            u, v, t, static_cast<TimeUnit>(rng.index(kHorizon))));
      }
    }
    broker.apply_events(events);
  };
  churn(20000);

  TemporalWorkspace ws;
  for (std::size_t round = 0; round < 5; ++round) {
    EXPECT_EQ(engine.recompute_all(), 2u);
    const TemporalCsr fresh(view.view());
    std::vector<Query> queries;
    for (const VertexId s : {0u, 37u, 101u, 211u, 399u}) {
      const auto t = static_cast<VertexId>((s + 7 * (round + 1)) % kNodes);
      queries.emplace_back(TemporalDistancesQuery{s, 0});
      queries.emplace_back(FastestJourneyQuery{s, t, 2});
      queries.emplace_back(MinHopJourneyQuery{t, s, 1});
    }
    std::vector<std::future<QueryResult>> futures;
    for (const Query& q : queries) futures.push_back(broker.submit(q));
    broker.flush();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const QueryResult r = futures[i].get();
      ASSERT_EQ(r.status, QueryStatus::kOk) << "round " << round;
      const QueryPayload want = std::visit(
          [&](const auto& q) -> QueryPayload {
            using T = std::decay_t<decltype(q)>;
            if constexpr (std::is_same_v<T, TemporalDistancesQuery>) {
              csr_earliest_arrival(fresh, q.source, q.t_start, ws);
              return ws.to_earliest_arrival().completion;
            } else if constexpr (std::is_same_v<T, FastestJourneyQuery>) {
              return fastest_journey(view.view(), q.source, q.target,
                                     q.t_start);
            } else if constexpr (std::is_same_v<T, MinHopJourneyQuery>) {
              return csr_minimum_hop_journey(fresh, q.source, q.target,
                                             q.t_start, ws);
            } else {
              return QueryPayload();
            }
          },
          queries[i]);
      EXPECT_TRUE(payload_equal(r.payload, want))
          << "round " << round << " query " << i;
    }
    churn(200);  // a new epoch, so the next round misses the cache
  }
}

}  // namespace
}  // namespace structnet
