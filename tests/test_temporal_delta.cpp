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
// leave/edge noise. DeltaTemporalCsr::compact() merges the index's own
// base and delta, so a compacted index must hold, accessor by accessor,
// the layout a fresh TemporalCsr of the view has.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
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

// The index's view of one thing at a time, read through the kernel
// iteration interface both index types share.
template <class Index>
std::vector<VertexId> contacts_at(const Index& index, VertexId v, TimeUnit t) {
  std::vector<VertexId> nbrs;
  index.find_contact_at(v, t, [&](VertexId nbr) {
    nbrs.push_back(nbr);
    return false;
  });
  return nbrs;
}

template <class Index>
std::vector<TimeUnit> labels_of(const Index& index, EdgeId e) {
  std::vector<TimeUnit> labels;
  for (TimeUnit t = index.first_label_at(e, 0); t != kNeverTime;
       t = index.first_label_at(e, t + 1)) {
    labels.push_back(t);
  }
  return labels;
}

/// v's incident (edge, neighbour) entries in order; `labelled_only`
/// drops the label-free entries the overlay may list.
template <class Index>
std::vector<std::pair<EdgeId, VertexId>> incident_of(const Index& index,
                                                     VertexId v,
                                                     bool labelled_only) {
  std::vector<std::pair<EdgeId, VertexId>> entries;
  index.for_each_incident(v, [&](EdgeId e, VertexId nbr) {
    if (!labelled_only || index.first_label_at(e, 0) != kNeverTime) {
      entries.emplace_back(e, nbr);
    }
    return true;
  });
  return entries;
}

template <class Index>
std::vector<EdgeId> unit_edges(const Index& index, TimeUnit t) {
  std::vector<EdgeId> edges;
  index.for_each_edge_at(t, [&](EdgeId e) {
    edges.push_back(e);
    return true;
  });
  return edges;
}

// A compacted index (empty delta) holds exactly a fresh TemporalCsr's
// layout, accessor by accessor: counts, horizon, each edge's endpoints
// and labels, each vertex's contacts unit by unit (in edge-id order) and
// incident edges, and each unit's edge span.
void expect_compacted_equals(const DeltaTemporalCsr& index,
                             const TemporalCsr& fresh) {
  ASSERT_EQ(index.delta_size(), 0u);
  ASSERT_EQ(index.vertex_count(), fresh.vertex_count());
  ASSERT_EQ(index.horizon(), fresh.horizon());
  ASSERT_EQ(index.edge_count(), fresh.edge_count());
  ASSERT_EQ(index.contact_count(), fresh.contact_count());
  for (EdgeId e = 0; e < fresh.edge_count(); ++e) {
    ASSERT_EQ(index.edge_u(e), fresh.edge_u(e)) << "e=" << e;
    ASSERT_EQ(index.edge_v(e), fresh.edge_v(e)) << "e=" << e;
    ASSERT_EQ(labels_of(index, e), labels_of(fresh, e)) << "e=" << e;
  }
  for (VertexId v = 0; v < fresh.vertex_count(); ++v) {
    ASSERT_EQ(index.has_contacts(v), fresh.has_contacts(v)) << "v=" << v;
    ASSERT_EQ(incident_of(index, v, false), incident_of(fresh, v, false))
        << "v=" << v;
    for (TimeUnit t = 0; t < fresh.horizon(); ++t) {
      ASSERT_EQ(contacts_at(index, v, t), contacts_at(fresh, v, t))
          << "v=" << v << " t=" << t;
    }
  }
  for (TimeUnit t = 0; t < fresh.horizon(); ++t) {
    ASSERT_EQ(index.unit_size(t), fresh.unit_size(t)) << "t=" << t;
    ASSERT_EQ(unit_edges(index, t), unit_edges(fresh, t)) << "t=" << t;
  }
}

// The merged index must reproduce a fresh rebuild of the view exactly:
// same layout (unit streams in order, labels, the labelled incident
// entries) and bit-identical earliest-arrival sweeps (completion + via)
// from every source and min-hop journeys from a few.
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
  for (VertexId v = 0; v < fresh.vertex_count(); ++v) {
    ASSERT_EQ(incident_of(delta, v, true), incident_of(fresh, v, false))
        << "v=" << v;
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
  for (VertexId s = 0; s < fresh.vertex_count(); s += 5) {
    for (VertexId d = 0; d < fresh.vertex_count(); ++d) {
      if (d == s) continue;
      for (const TimeUnit t_start : {TimeUnit{0}, TimeUnit{3}}) {
        ASSERT_EQ(csr_minimum_hop_journey(delta, s, d, t_start, wsb),
                  csr_minimum_hop_journey(fresh, s, d, t_start, wsa))
            << "s=" << s << " d=" << d << " t_start=" << t_start;
      }
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
    if (step % 150 == 149) delta.compact();
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
  delta.compact();
  EXPECT_EQ(delta.delta_size(), 0u);
  expect_index_equals_view(delta, view.view());
  engine.detach(&view);
}

TEST(ContactFold, CompactedCopyEqualsViewRebuildAfterEveryStep) {
  constexpr std::size_t kN = 12;
  constexpr TimeUnit kHorizon = 9;
  StreamEngine engine{DynamicGraph(kN)};
  TemporalViewObserver view(kN, kHorizon);
  engine.attach(&view);
  DeltaTemporalCsr delta(view.view());
  ContactModel model{kHorizon, {}, 0};
  std::size_t folded = 0;

  // Which shapes the stream produced; each must occur.
  std::size_t past_horizon = 0, duplicates = 0, live_relabels = 0,
              missing_relabels = 0, fresh_joins = 0, revivals = 0,
              edge_events = 0;
  Rng rng(29);
  for (int step = 0; step < 500; ++step) {
    const std::size_t n = engine.graph().vertex_count();
    const auto u = static_cast<VertexId>(rng.index(n));
    auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) v = static_cast<VertexId>((v + 1) % n);
    const auto t = static_cast<TimeUnit>(rng.index(kHorizon + 2));
    const auto t2 = static_cast<TimeUnit>(rng.index(kHorizon + 2));
    const std::size_t dice = rng.index(10);
    if (dice < 4) {
      past_horizon += t >= kHorizon;
      engine.apply(Event::contact_add(u, v, t));
    } else if (dice < 6 && !model.live.empty()) {
      // A live contact: re-added (a duplicate) or relabelled.
      const auto [a, b, lt] = *std::next(
          model.live.begin(),
          static_cast<std::ptrdiff_t>(rng.index(model.live.size())));
      if (dice == 4) {
        ++duplicates;
        engine.apply(Event::contact_add(b, a, lt));
      } else {
        ++live_relabels;
        engine.apply(Event::contact_relabel(a, b, lt, t2));
      }
    } else if (dice < 8) {
      missing_relabels += model.live.count(contact_key(u, v, t)) == 0;
      engine.apply(Event::contact_relabel(u, v, t, t2));
    } else if (dice == 8) {
      ++edge_events;
      engine.apply(rng.bernoulli(0.5) ? Event::edge_insert(u, v)
                                      : Event::edge_delete(u, v));
    } else if (fresh_joins < 4 && rng.bernoulli(0.3)) {
      ++fresh_joins;
      engine.apply(Event::node_join());
    } else {
      ++revivals;
      engine.apply(Event::node_leave(u));
      engine.apply(Event::node_join(u));
    }
    fold_new_events(engine, folded, delta, model);

    // A compacted copy holds the view's layout; the folded index itself
    // is untouched and keeps serving the same view.
    DeltaTemporalCsr compacted = delta;
    compacted.compact();
    const TemporalCsr fresh(view.view());
    expect_compacted_equals(compacted, fresh);
    expect_index_equals_view(compacted, view.view());
    if (HasFatalFailure()) return;
    // No engine event empties an edge (a relabel leaves its new label),
    // so the copy empties one itself against a mirror of the view, then
    // compacts and re-adds one label: the edge must be listed again.
    if (!model.live.empty()) {
      const auto [a, b, lt] = *std::next(
          model.live.begin(),
          static_cast<std::ptrdiff_t>(rng.index(model.live.size())));
      TemporalGraph mirror = view.view();
      const std::vector<TimeUnit> labels =
          mirror.edge(mirror.find_edge(a, b)).labels;
      for (const TimeUnit l : labels) {
        ASSERT_TRUE(compacted.remove_label(a, b, l));
        mirror.remove_label(a, b, l);
      }
      compacted.compact();
      ASSERT_TRUE(compacted.add_contact(a, b, lt));
      mirror.add_contact(a, b, lt);
      expect_index_equals_view(compacted, mirror);
      if (HasFatalFailure()) return;
    }
    if (step % 25 == 24) {
      expect_view_matches_model(view, model);
      expect_index_equals_view(delta, view.view());
      if (HasFatalFailure()) return;
    }
    // The folded index compacts too, so folding continues over bases
    // compaction built.
    if (step % 7 == 6) delta.compact();
  }
  expect_view_matches_model(view, model);
  expect_index_equals_view(delta, view.view());
  EXPECT_GT(past_horizon, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(live_relabels, 0u);
  EXPECT_GT(missing_relabels, 0u);
  EXPECT_GT(fresh_joins, 0u);
  EXPECT_GT(revivals, 0u);
  EXPECT_GT(edge_events, 0u);
  engine.detach(&view);
}

// Three compaction cases the engine's fold never produces (a relabel
// always leaves its new label on the edge), driven on the index
// directly and mirrored into a TemporalGraph:
//   * a base edge whose labels are all tombstoned, then compacted, then
//     re-added: its new adjacency entry must exist, so min-hop takes it;
//   * a delta edge whose adds drained before compaction keeps its id and
//     has no labels;
//   * compact() on an empty delta changes no accessor.
TEST(DeltaCompaction, EmptiedEdgesKeepIdsAndEmptyDeltaChangesNothing) {
  TemporalGraph eg(5, 8);
  eg.add_contact(0, 1, 1);
  eg.add_contact(1, 2, 3);
  eg.add_contact(0, 2, 5);  // edge 2, tombstoned below
  DeltaTemporalCsr delta(eg);
  TemporalWorkspace ws;
  const Journey direct{{JourneyHop{0, 2, 2}}};

  ASSERT_TRUE(delta.remove_label(0, 2, 5));
  ASSERT_TRUE(eg.remove_label(0, 2, 5));
  delta.compact();
  expect_compacted_equals(delta, TemporalCsr(eg));
  EXPECT_TRUE(labels_of(delta, 2).empty());
  ASSERT_TRUE(delta.add_contact(0, 2, 2));
  ASSERT_TRUE(eg.add_contact(0, 2, 2));
  EXPECT_EQ(incident_of(delta, 2, true),
            incident_of(TemporalCsr(eg), 2, false));
  EXPECT_EQ(csr_minimum_hop_journey(delta, 0, 2, 0, ws), direct);
  EXPECT_EQ(csr_minimum_hop_journey(TemporalCsr(eg), 0, 2, 0, ws), direct);
  delta.compact();
  expect_compacted_equals(delta, TemporalCsr(eg));
  EXPECT_EQ(csr_minimum_hop_journey(delta, 0, 2, 0, ws), direct);

  // Edge 3 is created by the delta and drained before compaction.
  ASSERT_TRUE(delta.add_contact(3, 4, 4));
  ASSERT_TRUE(delta.remove_label(3, 4, 4));
  eg.add_contact(3, 4, 4);
  eg.remove_label(3, 4, 4);
  ASSERT_EQ(delta.edge_count(), 4u);
  delta.compact();
  expect_compacted_equals(delta, TemporalCsr(eg));
  EXPECT_EQ(delta.edge_u(3), 3u);
  EXPECT_EQ(delta.edge_v(3), 4u);
  EXPECT_TRUE(labels_of(delta, 3).empty());
  EXPECT_FALSE(delta.has_contacts(4));
  ASSERT_TRUE(delta.add_contact(4, 3, 6));  // re-added: same id, listed
  eg.add_contact(4, 3, 6);
  EXPECT_EQ(delta.edge_count(), 4u);
  EXPECT_EQ(incident_of(delta, 4, false),
            (std::vector<std::pair<EdgeId, VertexId>>{{3, 3}}));
  EXPECT_EQ(csr_minimum_hop_journey(delta, 3, 4, 0, ws),
            (Journey{{JourneyHop{3, 4, 6}}}));
  delta.compact();

  // An empty delta: compacting again changes no accessor.
  expect_compacted_equals(delta, TemporalCsr(eg));
  delta.compact();
  expect_compacted_equals(delta, TemporalCsr(eg));
  expect_index_equals_view(delta, eg);
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
