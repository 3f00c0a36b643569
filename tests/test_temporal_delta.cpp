// The shared contact fold (fold_contact_event, stream/observers.hpp)
// driving a DeltaTemporalCsr, as the QueryBroker drives its index: each
// event the engine logs folds into the delta, which must stay
// bit-identical to a fresh TemporalCsr rebuilt from the
// TemporalViewObserver's graph — kernels and routing simulation alike —
// across compaction boundaries. The view itself is checked against a
// test-local model of the contact rules, so a wrong rule in the shared
// fold cannot hide behind the equivalence.
// Churn is randomized: contact adds incl. out-of-horizon, relabels with
// and without a live old label, node joins growing the vertex space,
// leave/edge noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/dtn_routing.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_delta.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

using Contact = std::tuple<VertexId, VertexId, TimeUnit>;

Contact contact_key(VertexId u, VertexId v, TimeUnit t) {
  return {std::min(u, v), std::max(u, v), t};
}

/// The contact rules written out independently of fold_contact_event:
/// the live contact set, plus the events the horizon dropped.
struct ContactModel {
  TimeUnit horizon = 0;
  std::set<Contact> live;
  std::uint64_t dropped = 0;

  void apply(const Event& e) {
    if (e.kind == EventKind::kContactAdd) {
      if (e.time >= horizon) {
        ++dropped;
        return;
      }
      live.insert(contact_key(e.u, e.v, e.time));
    } else if (e.kind == EventKind::kContactRelabel) {
      if (e.new_time >= horizon) {
        ++dropped;  // the old contact stays
        return;
      }
      live.erase(contact_key(e.u, e.v, e.time));
      live.insert(contact_key(e.u, e.v, e.new_time));
    }
  }
};

/// Folds every event the engine logged since `folded` into the index
/// (through the shared fold) and into the model.
void fold_new_events(const StreamEngine& engine, std::size_t& folded,
                     DeltaTemporalCsr& index, ContactModel& model) {
  const std::vector<Event>& log = engine.graph().log();
  for (; folded < log.size(); ++folded) {
    fold_contact_event(index, log[folded]);
    model.apply(log[folded]);
  }
}

void expect_view_matches_model(const TemporalViewObserver& view,
                               const ContactModel& model) {
  std::set<Contact> got;
  for (const auto& edge : view.view().edges()) {
    for (const TimeUnit t : edge.labels) {
      got.insert(contact_key(edge.u, edge.v, t));
    }
  }
  EXPECT_EQ(got, model.live);
  EXPECT_EQ(view.out_of_horizon(), model.dropped);
}

// The merged index must reproduce a fresh rebuild of the view exactly:
// same layout (unit streams in order, labels) and bit-identical
// earliest-arrival sweeps (completion + via) from every source.
void expect_index_equals_view(const DeltaTemporalCsr& delta,
                              const TemporalGraph& view) {
  const TemporalCsr fresh(view);
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

// Routing over the merged index must replay the run over a fresh
// rebuild: the same unit order, so the same loss draws, FaultPlan
// lookups and retry state, for a few (source, destination, t0) triples
// under no faults, legacy loss, and a plan with contact loss, a global
// blackout and a bounded RetryPolicy.
void expect_routing_equals_view(const DeltaTemporalCsr& delta,
                                const TemporalGraph& view) {
  const TemporalCsr fresh(view);
  FaultPlan plan(5);
  plan.set_contact_loss(0.3).add_blackout({kInvalidVertex, kInvalidVertex, 3,
                                           5});
  SimulationFaults lossy;
  lossy.loss_probability = 0.3;
  lossy.loss_seed = 11;
  SimulationFaults planned;
  planned.plan = &plan;
  planned.retry.max_attempts = 3;
  planned.retry.backoff_base = 1;
  const std::tuple<VertexId, VertexId, TimeUnit> triples[] = {
      {0, 7, 0}, {3, 12, 2}, {13, 1, 4}};
  for (const auto& [s, d, t0] : triples) {
    for (const SimulationFaults& faults :
         {SimulationFaults{}, lossy, planned}) {
      EXPECT_EQ(simulate_routing(delta, s, d, t0, epidemic_strategy(), 0,
                                 faults),
                simulate_routing(fresh, s, d, t0, epidemic_strategy(), 0,
                                 faults))
          << "epidemic s=" << s << " d=" << d << " t0=" << t0;
      EXPECT_EQ(simulate_routing(delta, s, d, t0, spray_and_wait_strategy(),
                                 4, faults),
                simulate_routing(fresh, s, d, t0, spray_and_wait_strategy(),
                                 4, faults))
          << "spray s=" << s << " d=" << d << " t0=" << t0;
    }
    EXPECT_EQ(simulate_routing_trials(delta, s, d, t0, epidemic_strategy(), 0,
                                      planned, 4, 1),
              simulate_routing_trials(fresh, s, d, t0, epidemic_strategy(), 0,
                                      planned, 4, 1))
        << "trials s=" << s << " d=" << d << " t0=" << t0;
  }
}

TEST(ContactFold, TracksEngineBitIdenticalToViewRebuild) {
  constexpr std::size_t kN = 14;
  constexpr TimeUnit kHorizon = 10;
  StreamEngine engine{DynamicGraph(kN)};
  TemporalViewObserver view(kN, kHorizon);
  engine.attach(&view);
  DeltaTemporalCsr delta(view.view());
  ContactModel model{kHorizon, {}, 0};
  std::size_t folded = 0;

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
    fold_new_events(engine, folded, delta, model);
    // Compact mid-stream on a fixed cadence so equivalence holds across
    // compaction boundaries too.
    if (step % 150 == 149) delta.rebase(view.view());
    if (step % 40 == 39) {
      expect_view_matches_model(view, model);
      expect_index_equals_view(delta, view.view());
      expect_routing_equals_view(delta, view.view());
    }
  }
  expect_view_matches_model(view, model);
  expect_index_equals_view(delta, view.view());
  expect_routing_equals_view(delta, view.view());

  // Compacting for a full base leaves an empty delta and an unchanged
  // merged view.
  delta.rebase(view.view());
  EXPECT_TRUE(delta.delta_empty());
  expect_index_equals_view(delta, view.view());
  engine.detach(&view);
}

TEST(ContactFold, NodeJoinGrowsVertexSpaceMidStream) {
  StreamEngine engine{DynamicGraph(3)};
  TemporalViewObserver view(3, 8);
  engine.attach(&view);
  DeltaTemporalCsr delta(view.view());
  ContactModel model{8, {}, 0};
  std::size_t folded = 0;

  ASSERT_TRUE(engine.apply(Event::contact_add(0, 1, 2)));
  ASSERT_TRUE(engine.apply(Event::node_join()));  // vertex 3
  ASSERT_TRUE(engine.apply(Event::contact_add(3, 0, 4)));
  ASSERT_TRUE(engine.apply(Event::contact_add(3, 2, 5)));
  fold_new_events(engine, folded, delta, model);
  EXPECT_EQ(delta.vertex_count(), 4u);
  expect_view_matches_model(view, model);
  expect_index_equals_view(delta, view.view());
  engine.detach(&view);
}

}  // namespace
}  // namespace structnet
