// Streaming engine: versioned dynamic graph, observer registry, replay
// drivers, and — the load-bearing guarantee — incremental == from-scratch
// for every observer after arbitrary churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "layering/nsf.hpp"
#include "mobility/contact_trace.hpp"
#include "mobility/edge_markovian.hpp"
#include "mobility/mobility_models.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "stream/replay.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

TEST(DynamicGraphTest, AppliesAndRejectsEvents) {
  DynamicGraph g(4);
  EXPECT_TRUE(g.apply(Event::edge_insert(0, 1)).accepted);
  EXPECT_FALSE(g.apply(Event::edge_insert(0, 1)).accepted);  // duplicate
  EXPECT_FALSE(g.apply(Event::edge_insert(2, 2)).accepted);  // self loop
  EXPECT_FALSE(g.apply(Event::edge_insert(0, 9)).accepted);  // out of range
  EXPECT_TRUE(g.apply(Event::edge_delete(1, 0)).accepted);
  EXPECT_FALSE(g.apply(Event::edge_delete(1, 0)).accepted);  // absent
  EXPECT_EQ(g.epoch(), 2u);
  EXPECT_EQ(g.edge_count(), 0u);
}

// Epoch monotonicity is what makes (query fingerprint, epoch) a sound
// result-cache key: every ACCEPTED event must advance the epoch by
// exactly one, every rejected event must leave it untouched, and the
// fast-path accessor must stay in lockstep with the event log.
TEST(DynamicGraphTest, EpochAdvancesExactlyOncePerAcceptedEvent) {
  Rng rng(11);
  DynamicGraph g(8);
  EXPECT_EQ(g.epoch(), 0u);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.index(g.vertex_count()));
    const auto v = static_cast<VertexId>(rng.index(g.vertex_count()));
    Event e;
    switch (rng.index(6)) {
      case 0: e = Event::edge_insert(u, v); break;
      case 1: e = Event::edge_delete(u, v); break;
      case 2: e = Event::contact_add(u, v, static_cast<TimeUnit>(i % 16)); break;
      case 3: e = Event::node_leave(u); break;
      case 4: e = Event::node_join(u); break;
      default: e = Event::edge_insert(u, u); break;  // always rejected
    }
    const std::uint64_t before = g.epoch();
    const bool ok = g.apply(e).accepted;
    ASSERT_EQ(g.epoch(), before + (ok ? 1 : 0))
        << "event " << i << (ok ? " accepted" : " rejected");
    accepted += ok ? 1 : 0;
    ASSERT_EQ(g.epoch(), g.log().size());  // fast path == log length
  }
  EXPECT_EQ(g.epoch(), accepted);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 400u);  // the mix provokes rejections too
}

TEST(DynamicGraphTest, NodeJoinAssignsAndRevives) {
  DynamicGraph g(2);
  const auto fresh = g.apply(Event::node_join());
  ASSERT_TRUE(fresh.accepted);
  EXPECT_EQ(fresh.vertex, 2u);
  EXPECT_EQ(g.vertex_count(), 3u);

  ASSERT_TRUE(g.apply(Event::edge_insert(0, 2)).accepted);
  const auto leave = g.apply(Event::node_leave(2));
  ASSERT_TRUE(leave.accepted);
  ASSERT_EQ(leave.removed_edges.size(), 1u);
  EXPECT_EQ(leave.removed_edges[0].u, 2u);
  EXPECT_EQ(leave.removed_edges[0].v, 0u);
  EXPECT_FALSE(g.alive(2));
  EXPECT_FALSE(g.apply(Event::edge_insert(0, 2)).accepted);  // dead endpoint
  EXPECT_FALSE(g.apply(Event::node_leave(2)).accepted);      // already dead

  const auto revive = g.apply(Event::node_join(2));
  ASSERT_TRUE(revive.accepted);
  EXPECT_EQ(revive.vertex, 2u);
  EXPECT_TRUE(g.alive(2));
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_FALSE(g.apply(Event::node_join(1)).accepted);  // alive already
}

TEST(DynamicGraphTest, MaterializeEqualsReplayOfInitialAndLog) {
  // The graph keeps only its current epoch; history is initial() plus
  // log(). Replaying the log over a fresh graph built from initial()
  // must reproduce every epoch's materialize() edge for edge, through
  // joins (fresh and revived), leaves and edge deletes.
  Rng rng(1);
  const Graph seed = erdos_renyi(24, 0.2, rng);
  DynamicGraph g(seed);
  const Graph initial = g.materialize();
  EXPECT_EQ(g.initial(), initial);

  std::vector<std::pair<std::uint64_t, Graph>> frozen;
  for (std::size_t step = 0; step < 600; ++step) {
    const auto n = static_cast<VertexId>(g.vertex_count());
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      g.apply(Event::edge_insert(u, v));
    } else if (roll < 0.8) {
      g.apply(Event::edge_delete(u, v));
    } else if (roll < 0.9) {
      g.apply(Event::node_leave(u));
    } else {
      g.apply(rng.bernoulli(0.5) ? Event::node_join() : Event::node_join(u));
    }
    if (step % 50 == 0) frozen.emplace_back(g.epoch(), g.materialize());
  }
  // The churn really exercised every path the replay must reproduce.
  const auto count = [&](EventKind kind) {
    return std::count_if(g.log().begin(), g.log().end(),
                         [&](const Event& e) { return e.kind == kind; });
  };
  ASSERT_GT(count(EventKind::kEdgeDelete), 0);
  ASSERT_GT(count(EventKind::kNodeLeave), 0);
  ASSERT_GT(count(EventKind::kNodeJoin), 0);
  ASSERT_GT(g.vertex_count(), seed.vertex_count());
  // initial() is the epoch-0 graph, untouched by the churn.
  EXPECT_EQ(g.initial(), initial);

  DynamicGraph replay(g.initial());
  std::size_t next = 0;
  const auto check_frozen = [&] {
    while (next < frozen.size() && frozen[next].first == replay.epoch()) {
      EXPECT_EQ(replay.materialize(), frozen[next].second)
          << "epoch " << replay.epoch();
      ++next;
    }
  };
  check_frozen();
  for (const Event& e : g.log()) {
    ASSERT_TRUE(replay.apply(e).accepted) << "epoch " << replay.epoch();
    check_frozen();
  }
  EXPECT_EQ(next, frozen.size());
  EXPECT_EQ(replay.epoch(), g.epoch());
  EXPECT_EQ(replay.log(), g.log());
  EXPECT_EQ(replay.materialize(), g.materialize());
  EXPECT_EQ(replay.initial(), g.initial());
}

TEST(DynamicGraphTest, ConcurrentMaterializeIsRaceFree) {
  // materialize() is const, so concurrent readers may call it (under
  // the caller's exclusion of writers). It must mutate no shared state,
  // even when events were applied after the last read. Run under TSan
  // to see a data race; the equality checks below only catch its
  // corruptions.
  const std::size_t n = 64;
  DynamicGraph g(n);
  (void)g.materialize();
  Rng rng(5);
  while (g.epoch() < 4000) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    g.apply(rng.bernoulli(0.6) ? Event::edge_insert(u, v)
                               : Event::edge_delete(u, v));
  }
  Graph a, b;
  std::thread ta([&] { a = g.materialize(); });
  std::thread tb([&] { b = g.materialize(); });
  ta.join();
  tb.join();
  const Graph want = g.materialize();
  EXPECT_EQ(a, want);
  EXPECT_EQ(b, want);
  EXPECT_EQ(want.edge_count(), g.edge_count());
}

TEST(StreamEngineTest, CountsAcceptedAndRejected) {
  StreamEngine engine{DynamicGraph(3)};
  EXPECT_TRUE(engine.apply(Event::edge_insert(0, 1)));
  EXPECT_FALSE(engine.apply(Event::edge_insert(0, 1)));
  const std::vector<Event> batch{Event::edge_insert(1, 2),
                                 Event::edge_insert(1, 2),
                                 Event::edge_delete(0, 1)};
  EXPECT_EQ(engine.apply_batch(batch), 2u);
  EXPECT_EQ(engine.accepted(), 3u);
  EXPECT_EQ(engine.rejected(), 2u);
}

TEST(ReplayTest, SnapshotDiffsReproduceEverySnapshot) {
  Rng rng(3);
  EdgeMarkovianParams params;
  params.nodes = 24;
  params.horizon = 20;
  const TemporalGraph eg = edge_markovian_graph(params, rng);
  const auto events = snapshot_edge_events(eg);

  // Replaying the diff stream step by step must land on each G_t. Split
  // the stream at snapshot boundaries by replaying against a reference.
  DynamicGraph g(params.nodes);
  std::size_t cursor = 0;
  for (TimeUnit t = 0; t < params.horizon; ++t) {
    const Graph want = eg.snapshot(t);
    // Apply events until the live edge count and membership match G_t:
    // the diff stream is ordered per time unit, so apply until the next
    // event would belong to t+1. We detect the boundary by count.
    std::size_t inserts = 0;
    std::size_t deletes = 0;
    if (t == 0) {
      inserts = want.edge_count();
    } else {
      const Graph prev = eg.snapshot(t - 1);
      for (const auto& e : prev.edges()) {
        deletes += !want.has_edge(e.u, e.v);
      }
      for (const auto& e : want.edges()) {
        inserts += !prev.has_edge(e.u, e.v);
      }
    }
    for (std::size_t k = 0; k < inserts + deletes; ++k) {
      ASSERT_TRUE(g.apply(events[cursor++]).accepted);
    }
    const Graph got = g.materialize();
    ASSERT_EQ(got.edge_count(), want.edge_count()) << "t=" << t;
    for (const auto& e : want.edges()) {
      EXPECT_TRUE(got.has_edge(e.u, e.v)) << "t=" << t;
    }
  }
  EXPECT_EQ(cursor, events.size());
}

TEST(ReplayTest, ContactEventsRebuildTheTemporalView) {
  Rng rng(4);
  RandomWaypointParams mob;
  mob.nodes = 20;
  mob.steps = 30;
  const auto trajectory = random_waypoint(mob, rng);
  const auto events = trajectory_events(trajectory, 0.2);

  StreamEngine engine{DynamicGraph(mob.nodes)};
  TemporalViewObserver view(mob.nodes, static_cast<TimeUnit>(mob.steps));
  engine.attach(&view);
  const ReplayStats stats = replay(engine, events, 32);
  EXPECT_EQ(stats.events, events.size());
  EXPECT_EQ(stats.accepted, events.size());
  EXPECT_EQ(stats.batches, (events.size() + 31) / 32);

  // A second view attached after the replay rebuilds from the engine's
  // event log and lands on the incrementally maintained one.
  TemporalViewObserver late(mob.nodes, static_cast<TimeUnit>(mob.steps));
  engine.attach(&late);
  EXPECT_EQ(view.view(), late.view());
  EXPECT_EQ(view.out_of_horizon(), late.out_of_horizon());
  // Same multiset of contacts as the offline extraction.
  auto offline = contacts_from_trajectory(trajectory, 0.2).contacts();
  auto streamed = view.view().contacts();
  EXPECT_EQ(offline.size(), streamed.size());
}

TEST(TemporalViewObserverTest, TrimCacheInvalidatesLazily) {
  StreamEngine engine{DynamicGraph(6)};
  TemporalViewObserver view(6, 10);
  engine.attach(&view);
  engine.apply(Event::contact_add(0, 1, 1));
  engine.apply(Event::contact_add(1, 2, 2));
  engine.apply(Event::contact_add(2, 3, 3));
  EXPECT_FALSE(view.trim_cache_valid());
  (void)view.trimmed();
  EXPECT_TRUE(view.trim_cache_valid());
  engine.apply(Event::contact_add(3, 4, 4));  // mutation invalidates
  EXPECT_FALSE(view.trim_cache_valid());
  (void)view.trimmed();
  EXPECT_TRUE(view.trim_cache_valid());
  engine.apply(Event::edge_insert(0, 1));  // structural: view untouched
  EXPECT_TRUE(view.trim_cache_valid());
  // Out-of-horizon contacts are dropped and counted, not applied.
  engine.apply(Event::contact_add(0, 5, 99));
  EXPECT_EQ(view.out_of_horizon(), 1u);
  EXPECT_TRUE(view.trim_cache_valid());
  // Events that leave the view as it was keep the cache: a duplicate
  // add, and a relabel of a missing label onto a present one.
  engine.apply(Event::contact_add(4, 3, 4));
  engine.apply(Event::contact_relabel(3, 4, 7, 4));
  EXPECT_TRUE(view.trim_cache_valid());
  engine.apply(Event::contact_relabel(3, 4, 4, 5));
  EXPECT_FALSE(view.trim_cache_valid());
}

TEST(CoreObserverTest, TracksSimplePromotionsAndDemotions) {
  // Star + an extra edge between two leaves: the triangle is the 2-core.
  StreamEngine engine{DynamicGraph(5)};
  CoreObserver cores;
  engine.attach(&cores);
  for (VertexId leaf = 1; leaf < 5; ++leaf) {
    engine.apply(Event::edge_insert(0, leaf));
  }
  EXPECT_EQ(cores.core(0), 1u);
  EXPECT_EQ(cores.core(1), 1u);
  engine.apply(Event::edge_insert(1, 2));
  EXPECT_EQ(cores.core(0), 2u);
  EXPECT_EQ(cores.core(1), 2u);
  EXPECT_EQ(cores.core(2), 2u);
  EXPECT_EQ(cores.core(3), 1u);
  engine.apply(Event::edge_delete(0, 1));
  EXPECT_EQ(cores.core(0), 1u);
  EXPECT_EQ(cores.core(1), 1u);
  EXPECT_EQ(cores.core(2), 1u);
  // NodeLeave can drop cores by more than one level in one event.
  StreamEngine k5{DynamicGraph(5)};
  CoreObserver k5cores;
  k5.attach(&k5cores);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) k5.apply(Event::edge_insert(u, v));
  }
  EXPECT_EQ(k5cores.core(0), 4u);
  k5.apply(Event::node_leave(4));
  k5.apply(Event::node_leave(3));
  EXPECT_EQ(k5cores.core(0), 2u);
  EXPECT_EQ(k5cores.core(4), 0u);
}

// The headline randomized-churn equivalence: > 1000 mixed events, and
// after every batch each observer's incremental state must equal its own
// from-scratch recompute.
TEST(StreamChurnTest, IncrementalMatchesRecomputeForEveryObserver) {
  Rng rng(42);
  const std::size_t n0 = 48;
  const TimeUnit horizon = 32;
  const Graph seed = erdos_renyi(n0, 4.0 / double(n0), rng);

  StreamEngine engine{DynamicGraph(seed)};
  CoreObserver cores(0.5);
  MisObserver mis(1234);
  TemporalViewObserver view(n0, horizon);
  engine.attach(&cores);
  engine.attach(&mis);
  engine.attach(&view);

  const std::size_t batches = 80;
  const std::size_t batch_size = 16;  // 1280 events total
  std::size_t generated = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<Event> batch;
    while (batch.size() < batch_size) {
      const auto n = engine.graph().vertex_count();
      const auto u = static_cast<VertexId>(rng.index(n));
      const auto v = static_cast<VertexId>(rng.index(n));
      const double dice = rng.uniform01();
      if (dice < 0.30) {
        batch.push_back(Event::edge_insert(u, v));
      } else if (dice < 0.55) {
        batch.push_back(Event::edge_delete(u, v));
      } else if (dice < 0.70) {
        batch.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(horizon + 8))));
      } else if (dice < 0.80) {
        batch.push_back(Event::contact_relabel(
            u, v, static_cast<TimeUnit>(rng.index(horizon)),
            static_cast<TimeUnit>(rng.index(horizon + 8))));
      } else if (dice < 0.90) {
        batch.push_back(Event::node_leave(u));
      } else if (n < 64) {
        batch.push_back(Event::node_join());
      } else {
        batch.push_back(Event::node_join(u));  // revival attempt
      }
    }
    generated += batch.size();
    engine.apply_batch(batch);

    const DynamicGraph& g = engine.graph();

    // Core tracker: exact core numbers and the NSF membership they feed.
    CoreObserver fresh_cores = cores;
    fresh_cores.recompute(g);
    ASSERT_EQ(cores.cores(), fresh_cores.cores()) << "batch " << b;
    ASSERT_EQ(cores.nsf_members(g), fresh_cores.nsf_members(g))
        << "batch " << b;

    // MIS: the maintained set is a valid greedy MIS and identical to the
    // from-scratch greedy MIS under the same priorities.
    ASSERT_TRUE(mis.mis().verify()) << "batch " << b;
    MisObserver fresh_mis = mis;
    fresh_mis.recompute(g);
    for (VertexId x = 0; x < g.vertex_count(); ++x) {
      if (!g.alive(x)) continue;
      ASSERT_EQ(mis.in_mis(x), fresh_mis.in_mis(x))
          << "batch " << b << " vertex " << x;
    }

    // Temporal view: incremental structure equals a rebuild off the log.
    TemporalViewObserver fresh_view = view;
    fresh_view.recompute(g);
    ASSERT_EQ(view.view(), fresh_view.view()) << "batch " << b;
    ASSERT_EQ(view.out_of_horizon(), fresh_view.out_of_horizon())
        << "batch " << b;
  }
  EXPECT_GE(generated, 1000u);
  EXPECT_GT(engine.accepted(), 0u);
  EXPECT_GT(engine.rejected(), 0u);  // churn mix provokes rejections too
}

// Safety levels on a faulty hypercube: NodeLeave = fault (localized
// incremental wave), NodeJoin = recovery (restabilization); both must
// match a cube rebuilt from the current fault set after every event.
TEST(StreamChurnTest, SafetyLevelsMatchRecomputeUnderFaultChurn) {
  const std::size_t dims = 6;
  Rng rng(5);
  StreamEngine engine{DynamicGraph(std::size_t{1} << dims)};
  SafetyLevelObserver safety(dims);
  engine.attach(&safety);

  std::size_t events = 0;
  for (std::size_t step = 0; step < 220; ++step) {
    const auto v =
        static_cast<VertexId>(rng.index(engine.graph().vertex_count()));
    const bool leave = engine.graph().alive(v) ? rng.bernoulli(0.7) : false;
    events += engine.apply(leave ? Event::node_leave(v) : Event::node_join(v));

    SafetyLevelObserver fresh = safety;
    fresh.recompute(engine.graph());
    for (std::size_t u = 0; u < safety.cube().node_count(); ++u) {
      ASSERT_EQ(safety.cube().level(u), fresh.cube().level(u))
          << "step " << step << " node " << u;
    }
  }
  EXPECT_GT(events, 100u);
}

TEST(MisObserverTest, JoinLeaveReviveKeepsInvariant) {
  Rng rng(8);
  StreamEngine engine{DynamicGraph(erdos_renyi(20, 0.2, rng))};
  MisObserver mis(99);
  engine.attach(&mis);
  ASSERT_TRUE(engine.apply(Event::node_leave(3)));
  ASSERT_TRUE(engine.apply(Event::node_join()));  // fresh id 20
  ASSERT_TRUE(engine.apply(Event::edge_insert(20, 0)));
  ASSERT_TRUE(engine.apply(Event::node_join(3)));  // revival
  ASSERT_TRUE(engine.apply(Event::edge_insert(3, 20)));
  EXPECT_TRUE(mis.mis().verify());
  EXPECT_EQ(mis.mis().vertex_count(), 21u);
}

// Per-reason rejection taxonomy: every reject is counted under exactly
// one RejectReason and the counts reconcile with rejected().
TEST(StreamEngineTest, CountsRejectionsPerReason) {
  StreamEngine engine{DynamicGraph(std::size_t{3})};
  const auto count = [&](RejectReason why) { return engine.rejected(why); };

  ASSERT_TRUE(engine.apply(Event::edge_insert(0, 1)));
  EXPECT_FALSE(engine.apply(Event::edge_insert(0, 1)));  // duplicate
  EXPECT_FALSE(engine.apply(Event::edge_insert(2, 2)));  // self loop
  EXPECT_FALSE(engine.apply(Event::edge_insert(0, 9)));  // unknown id
  EXPECT_FALSE(engine.apply(Event::edge_delete(1, 2)));  // missing edge
  ASSERT_TRUE(engine.apply(Event::node_leave(2)));
  EXPECT_FALSE(engine.apply(Event::edge_insert(0, 2)));  // dead endpoint
  EXPECT_FALSE(engine.apply(Event::contact_add(2, 0, 5)));  // dead too
  EXPECT_FALSE(engine.apply(Event::node_leave(2)));      // already dead
  EXPECT_FALSE(engine.apply(Event::node_join(0)));       // already alive
  EXPECT_FALSE(engine.apply(Event::node_join(7)));       // gap beyond fresh

  EXPECT_EQ(count(RejectReason::kDuplicateEdge), 1u);
  EXPECT_EQ(count(RejectReason::kSelfLoop), 1u);
  EXPECT_EQ(count(RejectReason::kUnknownVertex), 2u);
  EXPECT_EQ(count(RejectReason::kMissingEdge), 1u);
  EXPECT_EQ(count(RejectReason::kDeadVertex), 3u);
  EXPECT_EQ(count(RejectReason::kAlreadyAlive), 1u);
  EXPECT_EQ(count(RejectReason::kNone), 0u);  // accepted events never count

  std::uint64_t sum = 0;
  for (const std::uint64_t c : engine.reject_counts()) sum += c;
  EXPECT_EQ(sum, engine.rejected());
  EXPECT_EQ(engine.rejected(), 9u);
  EXPECT_EQ(engine.accepted(), 2u);

  EXPECT_EQ(to_string(RejectReason::kNone), "none");
  EXPECT_EQ(to_string(RejectReason::kUnknownVertex), "unknown_vertex");
  EXPECT_EQ(to_string(RejectReason::kDeadVertex), "dead_vertex");
  EXPECT_EQ(to_string(RejectReason::kSelfLoop), "self_loop");
  EXPECT_EQ(to_string(RejectReason::kDuplicateEdge), "duplicate_edge");
  EXPECT_EQ(to_string(RejectReason::kMissingEdge), "missing_edge");
  EXPECT_EQ(to_string(RejectReason::kAlreadyAlive), "already_alive");
}

}  // namespace
}  // namespace structnet
