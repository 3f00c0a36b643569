// DeltaCsrObserver equivalence: the stream-tracked delta index against
// a fresh TemporalCsr rebuilt from the TemporalViewObserver's graph,
// under randomized engine churn (contact adds incl. out-of-horizon,
// relabels with and without a live old label, node joins growing the
// vertex space, leave/edge noise), across compaction boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "stream/csr_observer.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_delta.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

// The merged index must reproduce a fresh rebuild of the view exactly:
// same layout (unit streams in order, labels) and bit-identical
// earliest-arrival sweeps (completion + via) from every source.
void expect_index_equals_view(const DeltaCsrObserver& obs,
                              const TemporalGraph& view) {
  const TemporalCsr fresh(view);
  const DeltaTemporalCsr& delta = obs.index();
  ASSERT_EQ(delta.vertex_count(), fresh.vertex_count());
  ASSERT_EQ(delta.edge_count(), fresh.edge_count());
  ASSERT_EQ(delta.contact_count(), fresh.contact_count());
  for (TimeUnit t = 0; t < fresh.horizon(); ++t) {
    const auto want = fresh.edges_at(t);
    std::vector<EdgeId> got;
    delta.for_each_edge_at(t, [&](EdgeId e) {
      got.push_back(e);
      return true;
    });
    ASSERT_EQ(got.size(), want.size()) << "t=" << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "t=" << t << " i=" << i;
    }
  }
  TemporalWorkspace wsa, wsb;
  for (VertexId s = 0; s < fresh.vertex_count(); ++s) {
    csr_earliest_arrival(fresh, s, 0, wsa);
    csr_earliest_arrival(delta, s, 0, wsb);
    for (VertexId v = 0; v < fresh.vertex_count(); ++v) {
      ASSERT_EQ(wsb.arrival(v), wsa.arrival(v)) << "s=" << s << " v=" << v;
      ASSERT_EQ(wsb.via(v), wsa.via(v)) << "s=" << s << " v=" << v;
    }
  }
}

TEST(DeltaCsrObserver, TracksEngineBitIdenticalToViewRebuild) {
  constexpr std::size_t kN = 14;
  constexpr TimeUnit kHorizon = 10;
  StreamEngine engine{DynamicGraph(kN)};
  TemporalViewObserver view(kN, kHorizon);
  DeltaCsrObserver delta(view, /*compact_ratio=*/0.15);
  engine.attach(&view);
  engine.attach(&delta);  // after the view: recompute() reads it

  Rng rng(17);
  std::size_t joins = 0;
  for (int step = 0; step < 600; ++step) {
    const std::size_t n = engine.graph().vertex_count();
    const auto u = static_cast<VertexId>(rng.index(n));
    auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) v = static_cast<VertexId>((v + 1) % n);
    // Times deliberately overflow the horizon sometimes: the view drops
    // those (out_of_horizon) and the delta must drop them identically.
    const auto t = static_cast<TimeUnit>(rng.index(kHorizon + 3));
    const auto t2 = static_cast<TimeUnit>(rng.index(kHorizon + 3));
    switch (rng.index(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
        engine.apply(Event::contact_add(u, v, t));
        break;
      case 6:
      case 7:
        engine.apply(Event::contact_relabel(u, v, t, t2));
        break;
      case 8:
        engine.apply(rng.bernoulli(0.5) ? Event::edge_insert(u, v)
                                        : Event::edge_delete(u, v));
        break;
      case 9:
        if (joins < 4 && rng.bernoulli(0.3)) {
          engine.apply(Event::node_join());  // fresh vertex
          ++joins;
        } else {
          engine.apply(Event::node_leave(u));
          engine.apply(Event::node_join(u));  // revive for later contacts
        }
        break;
      default:
        break;
    }
    // Let the ratio policy fire mid-stream so equivalence holds across
    // compaction boundaries too.
    if (step % 50 == 49) delta.advance();
    if (step % 40 == 39) expect_index_equals_view(delta, view.view());
  }
  expect_index_equals_view(delta, view.view());

  // Force-compacting for a full base leaves an empty delta and an
  // unchanged merged view.
  delta.advance(/*force_full_base=*/true);
  EXPECT_TRUE(delta.index().delta_empty());
  expect_index_equals_view(delta, view.view());
  engine.detach(&delta);
  engine.detach(&view);
}

TEST(DeltaCsrObserver, NodeJoinGrowsVertexSpaceMidStream) {
  StreamEngine engine{DynamicGraph(3)};
  TemporalViewObserver view(3, 8);
  DeltaCsrObserver delta(view);
  engine.attach(&view);
  engine.attach(&delta);

  ASSERT_TRUE(engine.apply(Event::contact_add(0, 1, 2)));
  const auto join = engine.graph().log().empty();  // silence unused warn
  (void)join;
  ASSERT_TRUE(engine.apply(Event::node_join()));  // vertex 3
  ASSERT_TRUE(engine.apply(Event::contact_add(3, 0, 4)));
  ASSERT_TRUE(engine.apply(Event::contact_add(3, 2, 5)));
  EXPECT_EQ(delta.index().vertex_count(), 4u);
  expect_index_equals_view(delta, view.view());
  engine.detach(&delta);
  engine.detach(&view);
}

TEST(DeltaCsrObserver, CountersTrackFoldsAndCompactions) {
  obs::MetricsRegistry reg;
  StreamEngine engine{DynamicGraph(6)};
  TemporalViewObserver view(6, 8);
  DeltaCsrObserver delta(view, 0.25, &reg, "serve");
  const auto counter = [&](std::string_view name) {
    return reg.snapshot().counter_value(name);
  };
  engine.attach(&view);
  engine.attach(&delta);
  EXPECT_EQ(counter("serve.csr_builds"), 1u);  // the attach-time recompute

  ASSERT_TRUE(engine.apply(Event::contact_add(0, 1, 2)));
  ASSERT_TRUE(engine.apply(Event::contact_add(1, 2, 3)));
  engine.apply(Event::contact_add(0, 1, 2));   // duplicate: no fold
  engine.apply(Event::contact_add(0, 1, 20));  // out of horizon: no fold
  ASSERT_TRUE(engine.apply(Event::contact_relabel(0, 1, 2, 4)));  // 2 folds
  EXPECT_EQ(counter("serve.csr_delta_appends"), 4u);
  EXPECT_EQ(counter("serve.csr_compactions"), 0u);

  EXPECT_TRUE(delta.advance(/*force_full_base=*/true));
  EXPECT_FALSE(delta.advance(/*force_full_base=*/true));  // already empty
  EXPECT_EQ(counter("serve.csr_compactions"), 1u);
  EXPECT_EQ(counter("serve.csr_builds"), 2u);
  EXPECT_EQ(counter("serve.csr_delta_appends"), 4u);
  engine.detach(&delta);
  engine.detach(&view);
}

}  // namespace
}  // namespace structnet
