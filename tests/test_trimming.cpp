// Tests for src/trimming: the paper's EG trimming rules on the Fig. 2
// example, property tests on random traces, and UDG topology control.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "algo/components.hpp"
#include "algo/mst.hpp"
#include "algo/traversal.hpp"
#include "core/generators.hpp"
#include "mobility/contact_trace.hpp"
#include "mobility/mobility_models.hpp"
#include "temporal/fig2_example.hpp"
#include "temporal/journeys.hpp"
#include "trimming/eg_trimming.hpp"
#include "trimming/topology_control.hpp"

namespace structnet {
namespace {

std::vector<double> fig2_priorities() {
  // p(A) > p(B) > p(C) > p(D) (> E > F), per the paper.
  return {6.0, 5.0, 4.0, 3.0, 2.0, 1.0};
}

TEST(EgTrimming, Fig2ACanIgnoreNeighborD) {
  // The paper: "any path A -> D -> C can be replaced by a path
  // A -> B -> C ... Therefore, A can ignore neighbor D."
  const auto eg = fig2::build();
  const auto prio = fig2_priorities();
  EXPECT_TRUE(can_ignore_neighbor(eg, fig2::A, fig2::D, prio));
}

TEST(EgTrimming, Fig2StatedReplacementHolds) {
  // A -3-> D -6-> C is replaced by A -4-> B -5-> C: i'=4 >= 3, j'=5 <= 6.
  const auto eg = fig2::build();
  const auto prio = fig2_priorities();
  EXPECT_TRUE(replacement_exists(eg, fig2::A, fig2::D, fig2::C, 3, 6, prio,
                                 TrimVariant::kCompletionTimePreserving));
  // And even under the minimum-hop variant (one intermediate).
  EXPECT_TRUE(replacement_exists(eg, fig2::A, fig2::D, fig2::C, 3, 6, prio,
                                 TrimVariant::kMinimumHopPreserving));
}

TEST(EgTrimming, Fig2DCannotIgnoreA) {
  // The paper: "path D -> A -> B cannot be replaced by D -> B".
  const auto eg = fig2::build();
  const auto prio = fig2_priorities();
  EXPECT_FALSE(can_ignore_neighbor(eg, fig2::D, fig2::A, prio));
}

TEST(EgTrimming, Fig2NodeDNotTrimmableButLinkIs) {
  // Node trimming must also protect B -> D -> C at time 0, which has no
  // replacement; so the node rule rejects D while the link rule lets A
  // drop its D link. This is exactly the node-vs-link distinction the
  // paper draws.
  const auto eg = fig2::build();
  const auto prio = fig2_priorities();
  EXPECT_FALSE(can_trim_node(eg, fig2::D, prio));
}

TEST(EgTrimming, ReplacementNeedsPriorityOrdering) {
  // The replacement A -> B -> C requires p(B) > p(D); with the priority
  // of B pushed below D the rule must refuse (circular replacement
  // protection).
  const auto eg = fig2::build();
  std::vector<double> prio{6.0, 2.5, 4.0, 3.0, 2.0, 1.0};  // p(B) < p(D)
  EXPECT_FALSE(can_ignore_neighbor(eg, fig2::A, fig2::D, prio));
}

TEST(EgTrimming, ReplacementLabelWindowEnforced) {
  // For the pair (i=3, j=4) no replacement exists: A -4-> B -5-> C
  // arrives at 5 > 4.
  const auto eg = fig2::build();
  const auto prio = fig2_priorities();
  EXPECT_FALSE(replacement_exists(eg, fig2::A, fig2::D, fig2::C, 3, 4, prio,
                                  TrimVariant::kCompletionTimePreserving));
}

TEST(EgTrimming, TrimNodesOnTriangleWithShadowNode) {
  // Node 3 (priority lowest) duplicates a connection the path through
  // node 1 already provides with a wider label window: it must be
  // trimmed, while the load-bearing nodes 0 and 2 must not be
  // (pre-trim, against the original graph).
  TemporalGraph eg(4, 6);
  eg.add_contact(0, 1, 1);
  eg.add_contact(1, 2, 2);
  eg.add_contact(0, 2, 0);
  eg.add_contact(0, 3, 0);
  eg.add_contact(3, 2, 4);
  std::vector<double> prio{4.0, 3.0, 2.0, 1.0};
  // 0 -0-> 3 -4-> 2: replacement 0 -1-> 1 -2-> 2 has i'=1 >= 0, j'=2 <= 4.
  EXPECT_TRUE(can_trim_node(eg, 3, prio));
  EXPECT_FALSE(can_trim_node(eg, 0, prio));
  EXPECT_FALSE(can_trim_node(eg, 2, prio));
  const auto result = trim_nodes(eg, prio);
  EXPECT_NE(std::find(result.removed_nodes.begin(), result.removed_nodes.end(),
                      VertexId{3}),
            result.removed_nodes.end());
  EXPECT_EQ(result.trimmed.find_edge(0, 3), kInvalidEdge);
  EXPECT_EQ(result.trimmed.find_edge(2, 3), kInvalidEdge);
}

TEST(EgTrimming, ContactlessVertexIsNeverATrimCandidate) {
  // Vertex 0's only edge record lost its one label, so 0 passes the
  // node rule vacuously. Whether it lands in removed_nodes must not
  // depend on whether some other removal came first (the first
  // removal's copy drops label-less records): it never does.
  TemporalGraph eg(5, 4);
  eg.add_contact(0, 1, 1);
  ASSERT_TRUE(eg.remove_label(0, 1, 1));
  eg.add_contact(1, 2, 0);
  eg.add_contact(2, 3, 1);
  eg.add_contact(1, 3, 0);
  eg.add_contact(3, 4, 2);
  eg.add_contact(1, 4, 3);
  const std::vector<VertexId> expected{2, 1, 3};
  // 0 first in priority order, then 0 after the first removal.
  for (const std::vector<double>& prio : {std::vector<double>{0, 5, 1, 6, 7},
                                          std::vector<double>{3, 5, 1, 6, 7}}) {
    EXPECT_EQ(trim_nodes(eg, prio).removed_nodes, expected) << prio[0];
  }
}

TEST(EgTrimming, TrimNodesPreservesReachabilityOnRandomTraces) {
  // Property: after node trimming, every surviving pair keeps its
  // earliest completion time at every start time.
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    RandomWaypointParams p;
    p.nodes = 10;
    p.steps = 12;
    const auto traj = random_waypoint(p, rng);
    const auto eg = contacts_from_trajectory(traj, 0.4);
    std::vector<double> prio(p.nodes);
    for (std::size_t v = 0; v < p.nodes; ++v) {
      prio[v] = static_cast<double>(p.nodes - v);
    }
    const auto result = trim_nodes(eg, prio);
    std::vector<bool> alive(p.nodes, true);
    for (VertexId v : result.removed_nodes) alive[v] = false;
    EXPECT_TRUE(preserves_reachability(eg, result.trimmed, alive,
                                       /*check_completion=*/true))
        << "trial " << trial;
  }
}

TEST(EgTrimming, TrimLinksPreservesReachability) {
  Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    RandomWaypointParams p;
    p.nodes = 9;
    p.steps = 10;
    const auto traj = random_waypoint(p, rng);
    const auto eg = contacts_from_trajectory(traj, 0.45);
    std::vector<double> prio(p.nodes);
    for (std::size_t v = 0; v < p.nodes; ++v) {
      prio[v] = static_cast<double>(p.nodes - v);
    }
    const auto result = trim_links(eg, prio);
    const std::vector<bool> alive(p.nodes, true);
    EXPECT_TRUE(preserves_reachability(eg, result.trimmed, alive,
                                       /*check_completion=*/false))
        << "trial " << trial << " removed " << result.removed_links.size();
  }
}

TEST(EgTrimming, LinkTrimMayDelayEndpointArrival) {
  // Canonical example: (w,u)={1}, (w,v)={2}, (u,v)={2}. Both directions
  // of the link rule hold (through traffic is windowed), so (w, u) is
  // trimmable — but afterwards w reaches u at time 2 instead of 1. Link
  // trimming trades endpoint completion time for sparsity; it must never
  // trade away reachability.
  TemporalGraph eg(3, 4);
  const VertexId w = 0, u = 1, v = 2;
  eg.add_contact(w, u, 1);
  eg.add_contact(w, v, 2);
  eg.add_contact(u, v, 2);
  const std::vector<double> prio{3, 2, 1};
  EXPECT_TRUE(can_ignore_neighbor(eg, w, u, prio));
  EXPECT_TRUE(can_ignore_neighbor(eg, u, w, prio));
  const auto result = trim_links(eg, prio);
  ASSERT_EQ(result.removed_links.size(), 1u);
  // Reachability preserved at every start time...
  const std::vector<bool> alive(3, true);
  EXPECT_TRUE(preserves_reachability(eg, result.trimmed, alive, false));
  // ...but the w -> u completion at start 0 degraded from 1 to 2.
  EXPECT_EQ(earliest_arrival(eg, w, 0).completion[u], 1u);
  EXPECT_EQ(earliest_arrival(result.trimmed, w, 0).completion[u], 2u);
}

TEST(EgTrimming, PendantLinkNeverTrimmed) {
  // A pendant vertex satisfies the link rule vacuously (no through
  // paths); the endpoint guard must keep its only link.
  TemporalGraph eg(3, 4);
  eg.add_contact(0, 1, 1);
  eg.add_contact(1, 2, 2);  // 2 is pendant via (1, 2)
  const std::vector<double> prio{3, 2, 1};
  const auto result = trim_links(eg, prio);
  EXPECT_NE(result.trimmed.find_edge(1, 2), kInvalidEdge);
  const std::vector<bool> alive(3, true);
  EXPECT_TRUE(preserves_reachability(eg, result.trimmed, alive, false));
}

TEST(EgTrimming, LabelTrimmingPreservesCompletionTimes) {
  Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    RandomWaypointParams p;
    p.nodes = 8;
    p.steps = 10;
    const auto traj = random_waypoint(p, rng);
    const auto eg = contacts_from_trajectory(traj, 0.5);
    const auto result = trim_labels(eg);
    const std::vector<bool> alive(p.nodes, true);
    EXPECT_TRUE(preserves_reachability(eg, result.trimmed, alive, true))
        << "trial " << trial << " removed " << result.removed_labels;
  }
}

TEST(EgTrimming, LabelIsRedundantExactCheck) {
  // Triangle active entirely at time 2: each single label is redundant.
  TemporalGraph eg(3, 4);
  eg.add_contact(0, 1, 2);
  eg.add_contact(1, 2, 2);
  eg.add_contact(0, 2, 2);
  EXPECT_TRUE(label_is_redundant(eg, 0, 1, 2));
  // A lone bridge label is not.
  TemporalGraph bridge(3, 4);
  bridge.add_contact(0, 1, 1);
  bridge.add_contact(1, 2, 2);
  EXPECT_FALSE(label_is_redundant(bridge, 0, 1, 1));
}

TEST(EgTrimming, MinimumHopVariantIsStricter) {
  // A replacement path with two intermediates satisfies the base rule
  // but not the minimum-hop-preserving variant.
  TemporalGraph eg(5, 8);
  eg.add_contact(0, 4, 1);  // through candidate node 4
  eg.add_contact(4, 3, 5);
  eg.add_contact(0, 1, 2);  // replacement chain 0-1-2-3
  eg.add_contact(1, 2, 3);
  eg.add_contact(2, 3, 4);
  std::vector<double> prio{5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_TRUE(replacement_exists(eg, 0, 4, 3, 1, 5, prio,
                                 TrimVariant::kCompletionTimePreserving));
  EXPECT_FALSE(replacement_exists(eg, 0, 4, 3, 1, 5, prio,
                                  TrimVariant::kMinimumHopPreserving));
}

// ------------------------------ per-target reference (the old rules)

/// The replacement closure as one run per (w, v, i): earliest completion
/// of a journey w -> v departing at or after t_start that never touches
/// `banned` and relays only through vertices above priority[banned]
/// (and inside `mask` when given), stopping at v.
TimeUnit reference_completion(const TemporalGraph& eg, VertexId w, VertexId v,
                              VertexId banned, TimeUnit t_start,
                              std::span<const double> priority,
                              const std::vector<bool>* mask) {
  std::vector<bool> have(eg.vertex_count(), false);
  have[w] = true;
  std::vector<std::vector<EdgeId>> bucket(eg.horizon());
  for (EdgeId e = 0; e < eg.edge_count(); ++e) {
    for (TimeUnit t : eg.edge(e).labels) bucket[t].push_back(e);
  }
  const auto can_relay = [&](VertexId x) {
    if (x == w) return true;
    if (priority[x] <= priority[banned]) return false;
    return mask == nullptr || (*mask)[x];
  };
  for (TimeUnit t = t_start; t < eg.horizon(); ++t) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (EdgeId e : bucket[t]) {
        const auto& edge = eg.edge(e);
        if (edge.u == banned || edge.v == banned) continue;
        const auto relax = [&](VertexId from, VertexId to) {
          if (have[from] && !have[to] && can_relay(from)) {
            have[to] = true;
            changed = true;
            return to == v;
          }
          return false;
        };
        if (relax(edge.u, edge.v) || relax(edge.v, edge.u)) return t;
      }
    }
  }
  return kNeverTime;
}

/// The link/node rules' engine with one closure per (v, i).
bool reference_replaceable(const TemporalGraph& eg, VertexId w, VertexId u,
                           std::span<const double> priority,
                           TrimVariant variant,
                           const std::vector<bool>* mask = nullptr) {
  const EdgeId wu = eg.find_edge(w, u);
  if (wu == kInvalidEdge) return true;
  for (EdgeId e : eg.incident_edges(u)) {
    const VertexId v = eg.other_endpoint(e, u);
    if (v == w) continue;
    const auto& out_labels = eg.edge(e).labels;
    for (TimeUnit i : eg.edge(wu).labels) {
      const auto it = std::lower_bound(out_labels.begin(), out_labels.end(), i);
      if (it == out_labels.end()) continue;
      if (variant == TrimVariant::kMinimumHopPreserving) {
        if (!replacement_exists(eg, w, u, v, i, *it, priority, variant)) {
          return false;
        }
        continue;
      }
      const TimeUnit c = reference_completion(eg, w, v, u, i, priority, mask);
      if (c == kNeverTime || c > *it) return false;
    }
  }
  return true;
}

bool reference_khop(const TemporalGraph& eg, VertexId w, VertexId u,
                    std::span<const double> priority, std::uint32_t k,
                    TrimVariant variant) {
  std::vector<bool> mask(eg.vertex_count(), false);
  for (VertexId x : k_hop_neighborhood(eg.footprint(), w, k)) mask[x] = true;
  return reference_replaceable(eg, w, u, priority, variant, &mask);
}

bool reference_can_trim_node(const TemporalGraph& eg, VertexId u,
                             std::span<const double> priority,
                             TrimVariant variant) {
  for (EdgeId e : eg.incident_edges(u)) {
    if (!reference_replaceable(eg, eg.other_endpoint(e, u), u, priority,
                               variant)) {
      return false;
    }
  }
  return true;
}

/// trim_nodes' greedy loop over the reference rule (contact-less
/// vertices are never candidates).
TrimResult reference_trim_nodes(const TemporalGraph& eg,
                                std::span<const double> priority,
                                TrimVariant variant) {
  TrimResult result;
  result.trimmed = eg;
  std::vector<VertexId> order(eg.vertex_count());
  for (VertexId v = 0; v < eg.vertex_count(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return priority[a] < priority[b];
  });
  for (VertexId u : order) {
    const auto inc = result.trimmed.incident_edges(u);
    if (std::none_of(inc.begin(), inc.end(), [&](EdgeId e) {
          return !result.trimmed.edge(e).labels.empty();
        })) {
      continue;
    }
    if (reference_can_trim_node(result.trimmed, u, priority, variant)) {
      result.trimmed = result.trimmed.without_vertex(u);
      result.removed_nodes.push_back(u);
    }
  }
  return result;
}

/// trim_links' greedy loop (endpoint guard included) over the reference
/// rule.
TrimResult reference_trim_links(const TemporalGraph& eg,
                                std::span<const double> priority,
                                TrimVariant variant) {
  TrimResult result;
  result.trimmed = eg;
  for (const auto& edge : eg.edges()) {
    const VertexId w = edge.u, u = edge.v;
    if (result.trimmed.find_edge(w, u) == kInvalidEdge) continue;
    if (!reference_replaceable(result.trimmed, w, u, priority, variant) ||
        !reference_replaceable(result.trimmed, u, w, priority, variant)) {
      continue;
    }
    const TemporalGraph candidate = result.trimmed.without_edge(w, u);
    bool ok = true;
    for (TimeUnit t = 0; t < eg.horizon() && ok; ++t) {
      ok = !(is_connected_at(result.trimmed, w, u, t) &&
             !is_connected_at(candidate, w, u, t)) &&
           !(is_connected_at(result.trimmed, u, w, t) &&
             !is_connected_at(candidate, u, w, t));
    }
    if (!ok) continue;
    result.trimmed = candidate;
    result.removed_links.emplace_back(w, u);
  }
  return result;
}

/// Random trace with distinct random priorities; some edge records lose
/// every label (relabels leave them behind, as the streaming view does).
struct RandomInstance {
  TemporalGraph eg;
  std::vector<double> priority;
};

RandomInstance random_instance(Rng& rng) {
  const std::size_t n = 8 + rng.index(14);
  const auto horizon = static_cast<TimeUnit>(3 + rng.index(10));
  RandomInstance out{TemporalGraph(n, horizon), std::vector<double>(n)};
  const std::size_t contacts = n + rng.index(4 * n);
  for (std::size_t c = 0; c < contacts; ++c) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    out.eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
  }
  for (EdgeId e = 0; e < out.eg.edge_count(); ++e) {
    if (!rng.bernoulli(0.1)) continue;
    const auto edge = out.eg.edge(e);
    for (TimeUnit t : edge.labels) out.eg.remove_label(edge.u, edge.v, t);
  }
  for (std::size_t v = 0; v < n; ++v) out.priority[v] = static_cast<double>(v);
  for (std::size_t v = n; v > 1; --v) {
    std::swap(out.priority[v - 1], out.priority[rng.index(v)]);
  }
  return out;
}

TEST(EgTrimmingReference, RulesMatchPerTargetClosures) {
  Rng rng(2024);
  // Outcome tallies: the instances must exercise both answers.
  std::size_t ignorable = 0, kept = 0, nodes_removed = 0, links_removed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const TemporalGraph& eg = inst.eg;
    const std::span<const double> prio = inst.priority;
    for (const TrimVariant variant : {TrimVariant::kCompletionTimePreserving,
                                      TrimVariant::kMinimumHopPreserving}) {
      for (const auto& edge : eg.edges()) {
        for (const auto& [w, u] : {std::pair{edge.u, edge.v},
                                   std::pair{edge.v, edge.u}}) {
          const bool ignore = can_ignore_neighbor(eg, w, u, prio, variant);
          ASSERT_EQ(ignore, reference_replaceable(eg, w, u, prio, variant))
              << "trial=" << trial << " w=" << w << " u=" << u;
          ++(ignore ? ignorable : kept);
          for (const std::uint32_t k : {1u, 2u}) {
            ASSERT_EQ(can_ignore_neighbor_khop(eg, w, u, prio, k, variant),
                      reference_khop(eg, w, u, prio, k, variant))
                << "trial=" << trial << " w=" << w << " u=" << u << " k=" << k;
          }
        }
      }
      for (VertexId u = 0; u < eg.vertex_count(); ++u) {
        ASSERT_EQ(can_trim_node(eg, u, prio, variant),
                  reference_can_trim_node(eg, u, prio, variant))
            << "trial=" << trial << " u=" << u;
      }
      const TrimResult nodes = trim_nodes(eg, prio, variant);
      const TrimResult ref_nodes = reference_trim_nodes(eg, prio, variant);
      EXPECT_EQ(nodes.removed_nodes, ref_nodes.removed_nodes) << trial;
      EXPECT_EQ(nodes.trimmed, ref_nodes.trimmed) << trial;
      const TrimResult links = trim_links(eg, prio, variant);
      const TrimResult ref_links = reference_trim_links(eg, prio, variant);
      EXPECT_EQ(links.removed_links, ref_links.removed_links) << trial;
      EXPECT_EQ(links.trimmed, ref_links.trimmed) << trial;
      nodes_removed += nodes.removed_nodes.size();
      links_removed += links.removed_links.size();
    }
  }
  EXPECT_GT(ignorable, 0u);
  EXPECT_GT(kept, 0u);
  EXPECT_GT(nodes_removed, 0u);
  EXPECT_GT(links_removed, 0u);
}

TEST(EgTrimmingReference, ReplacementExistsMatchesPerTargetClosure) {
  Rng rng(2025);
  for (int trial = 0; trial < 40; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const TemporalGraph& eg = inst.eg;
    const auto n = eg.vertex_count();
    for (int q = 0; q < 40; ++q) {
      const auto w = static_cast<VertexId>(rng.index(n));
      const auto banned = static_cast<VertexId>(rng.index(n));
      const auto v = static_cast<VertexId>(rng.index(n));
      const auto i = static_cast<TimeUnit>(rng.index(eg.horizon() + 1));
      const auto j = static_cast<TimeUnit>(rng.index(eg.horizon() + 1));
      const TimeUnit c =
          reference_completion(eg, w, v, banned, i, inst.priority, nullptr);
      EXPECT_EQ(replacement_exists(eg, w, banned, v, i, j, inst.priority,
                                   TrimVariant::kCompletionTimePreserving),
                c != kNeverTime && c <= j)
          << "trial=" << trial << " w=" << w << " banned=" << banned
          << " v=" << v << " i=" << i << " j=" << j;
    }
  }
}

// ------------------------------------------------- topology control

TEST(TopologyControl, GabrielAndRngAreSubgraphs) {
  Rng rng(19);
  std::vector<Point2D> pts;
  const Graph g = random_geometric(120, 0.18, rng, &pts);
  const Graph gg = gabriel_graph(g, pts);
  const Graph rng_graph = relative_neighborhood_graph(g, pts);
  EXPECT_LE(gg.edge_count(), g.edge_count());
  EXPECT_LE(rng_graph.edge_count(), gg.edge_count());  // RNG subset of GG
  for (const auto& e : rng_graph.edges()) {
    EXPECT_TRUE(gg.has_edge(e.u, e.v));
  }
  for (const auto& e : gg.edges()) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(TopologyControl, TrimmingPreservesConnectivity) {
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Point2D> pts;
    Graph g = random_geometric(100, 0.25, rng, &pts);
    const auto mask = largest_component_mask(g);
    std::vector<VertexId> map;
    const Graph comp = g.induced_subgraph(mask, &map);
    std::vector<Point2D> comp_pts;
    for (std::size_t v = 0; v < pts.size(); ++v) {
      if (mask[v]) comp_pts.push_back(pts[v]);
    }
    ASSERT_TRUE(is_connected(comp));
    EXPECT_TRUE(is_connected(gabriel_graph(comp, comp_pts))) << trial;
    EXPECT_TRUE(is_connected(relative_neighborhood_graph(comp, comp_pts)))
        << trial;
  }
}

TEST(TopologyControl, BothContainEveryMst) {
  Rng rng(29);
  std::vector<Point2D> pts;
  Graph g = random_geometric(80, 0.3, rng, &pts);
  // Euclidean edge weights; MST edges must survive in GG and RNG.
  std::vector<double> w;
  for (const auto& e : g.edges()) w.push_back(distance(pts[e.u], pts[e.v]));
  const auto mst = kruskal_mst(g, w);
  const Graph gg = gabriel_graph(g, pts);
  const Graph rg = relative_neighborhood_graph(g, pts);
  for (EdgeId e : mst) {
    EXPECT_TRUE(gg.has_edge(g.edge(e).u, g.edge(e).v));
    EXPECT_TRUE(rg.has_edge(g.edge(e).u, g.edge(e).v));
  }
}

TEST(TopologyControl, StretchReportSane) {
  Rng rng(31);
  std::vector<Point2D> pts;
  Graph g = random_geometric(90, 0.25, rng, &pts);
  const Graph rg = relative_neighborhood_graph(g, pts);
  const auto report = hop_stretch(g, rg);
  EXPECT_GE(report.average, 1.0);
  EXPECT_GE(report.maximum, report.average);
  EXPECT_GT(report.pairs, 0u);
}

}  // namespace
}  // namespace structnet
