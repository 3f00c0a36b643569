// Tests for the Sec. IV-C hybrid mechanisms and the temporal
// small-world metrics: hybrid central guidance (fake links), distributed
// Dijkstra cost accounting, clustering coefficients, and temporal
// correlation / path length.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "algo/shortest_paths.hpp"
#include "algo/traversal.hpp"
#include "centrality/centrality.hpp"
#include "core/generators.hpp"
#include "mobility/contact_trace.hpp"
#include "mobility/edge_markovian.hpp"
#include "mobility/mobility_models.hpp"
#include "sim/distributed_dijkstra.hpp"
#include "sim/hybrid_control.hpp"
#include "temporal/smallworld_metrics.hpp"

namespace structnet {
namespace {

// ----------------------------------------------------- hybrid control

TEST(HybridControl, ShortcutsConnectFarthestPairs) {
  const Graph g = path_graph(32);
  const auto shortcuts = select_shortcuts(g, 1);
  ASSERT_EQ(shortcuts.size(), 1u);
  // The farthest pair on a path is its two ends.
  EXPECT_EQ(std::min(shortcuts[0].u, shortcuts[0].v), 0u);
  EXPECT_EQ(std::max(shortcuts[0].u, shortcuts[0].v), 31u);
  // The tunnel is the real path between them.
  EXPECT_EQ(shortcuts[0].real_path.size(), 32u);
}

TEST(HybridControl, AugmentationAddsExactlyTheFakeLinks) {
  const Graph g = cycle_graph(20);
  const auto shortcuts = select_shortcuts(g, 3);
  const Graph aug = augment(g, shortcuts);
  EXPECT_EQ(aug.edge_count(), g.edge_count() + shortcuts.size());
  for (const auto& sc : shortcuts) {
    EXPECT_TRUE(aug.has_edge(sc.u, sc.v));
  }
}

TEST(HybridControl, FakeLinksCutConvergenceRounds) {
  // The paper's promise: central guidance accelerates the distributed
  // protocol. On a long path, a few shortcuts slash BF rounds.
  const Graph g = path_graph(128);
  const auto r0 = hybrid_route_to(g, {}, 0);
  const auto r4 = hybrid_route_to(g, select_shortcuts(g, 4), 0);
  EXPECT_EQ(r0.rounds, 127u);
  EXPECT_LT(r4.rounds, r0.rounds / 2);
}

TEST(HybridControl, ExpandedRoutesAreRealAndBounded) {
  Rng rng(1);
  Graph g = erdos_renyi(60, 0.06, rng);
  for (VertexId v = 0; v + 1 < 60; ++v) g.add_edge_unique(v, v + 1);
  const auto shortcuts = select_shortcuts(g, 3);
  const auto r = hybrid_route_to(g, shortcuts, 5);
  EXPECT_GE(r.average_stretch, 1.0);
  EXPECT_GE(r.max_stretch, r.average_stretch);
  // Tunnels ride shortest real paths, so stretch stays moderate.
  EXPECT_LT(r.average_stretch, 3.0);
}

TEST(HybridControl, NoShortcutsIsPlainBellmanFord) {
  const Graph g = grid_graph(6, 6);
  const auto r = hybrid_route_to(g, {}, 0);
  const std::vector<double> w(g.edge_count(), 1.0);
  EXPECT_EQ(r.rounds, bellman_ford(g, w, 0).rounds);
  EXPECT_DOUBLE_EQ(r.average_stretch, 1.0);
}

// ----------------------------------------------- distributed Dijkstra

TEST(DistributedDijkstra, DistancesMatchCentralized) {
  Rng rng(2);
  Graph g = erdos_renyi(40, 0.12, rng);
  for (VertexId v = 0; v + 1 < 40; ++v) g.add_edge_unique(v, v + 1);
  std::vector<double> w(g.edge_count());
  for (auto& x : w) x = rng.uniform(0.1, 2.0);
  const auto dd = distributed_dijkstra(g, w, 0);
  const auto oracle = dijkstra(g, w, 0);
  for (std::size_t v = 0; v < 40; ++v) {
    EXPECT_NEAR(dd.distance[v], oracle.distance[v], 1e-9) << v;
  }
  EXPECT_EQ(dd.expansions, 39u);
}

TEST(DistributedDijkstra, BackAndForthIsExpensive) {
  // The inefficiency the paper calls out: on a path, root-coordinated
  // Dijkstra pays Theta(n^2) rounds while Bellman-Ford pays n - 1.
  const Graph g = path_graph(64);
  const std::vector<double> w(g.edge_count(), 1.0);
  const auto dd = distributed_dijkstra(g, w, 0);
  const auto bf = bellman_ford(g, w, 0);
  EXPECT_GT(dd.rounds, 20 * bf.rounds);
}

TEST(DistributedDijkstra, HandlesDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  const std::vector<double> w(1, 1.0);
  const auto dd = distributed_dijkstra(g, w, 0);
  EXPECT_EQ(dd.expansions, 1u);
  EXPECT_EQ(dd.distance[2], kInfDistance);
}

// ------------------------------------------------------- clustering

TEST(Clustering, TriangleAndPath) {
  EXPECT_DOUBLE_EQ(average_clustering_coefficient(complete_graph(3)), 1.0);
  EXPECT_DOUBLE_EQ(average_clustering_coefficient(path_graph(5)), 0.0);
}

TEST(Clustering, WattsStrogatzRewiringLowersClustering) {
  Rng rng(3);
  const Graph lattice = watts_strogatz(200, 4, 0.0, rng);
  const Graph rewired = watts_strogatz(200, 4, 0.5, rng);
  EXPECT_GT(average_clustering_coefficient(lattice), 0.5);
  EXPECT_LT(average_clustering_coefficient(rewired),
            average_clustering_coefficient(lattice));
}

// ------------------------------------------- temporal small-world [15]

TEST(TemporalSmallWorld, PersistentGraphHasFullCorrelation) {
  TemporalGraph eg(4, 10);
  for (TimeUnit t = 0; t < 10; ++t) {
    eg.add_contact(0, 1, t);
    eg.add_contact(1, 2, t);
    eg.add_contact(2, 3, t);
  }
  EXPECT_DOUBLE_EQ(temporal_correlation_coefficient(eg), 1.0);
}

TEST(TemporalSmallWorld, CorrelationAveragesOverAllVertexPairSamples) {
  // Hand-computed 3-snapshot example pinning the [15] convention:
  // C = (1 / (N * (T-1))) * Σ_v Σ_t overlap_v(t, t+1), where an empty
  // neighborhood on either side gives overlap 0 (0/0 := 0) and NO
  // sample is skipped — vertices inactive in both snapshots still
  // count in the denominator.
  TemporalGraph eg(4, 3);
  eg.add_contact(0, 1, 0);  // t=0: 0-1, 1-2
  eg.add_contact(1, 2, 0);
  eg.add_contact(0, 1, 1);  // t=1: 0-1
  eg.add_contact(0, 1, 2);  // t=2: 0-1, 2-3
  eg.add_contact(2, 3, 2);
  // Pair (t0,t1): v0 {1}∩{1} -> 1; v1 {0,2}∩{0} -> 1/sqrt(2);
  //               v2 {1}∩{}  -> 0; v3 {}∩{}   -> 0.
  // Pair (t1,t2): v0 -> 1; v1 -> 1; v2 {}∩{3} -> 0; v3 {}∩{2} -> 0.
  // C = (1 + 1/sqrt(2) + 1 + 1) / (4 * 2) = (3 + 1/sqrt(2)) / 8.
  EXPECT_NEAR(temporal_correlation_coefficient(eg),
              (3.0 + 1.0 / std::sqrt(2.0)) / 8.0, 1e-12);
}

/// The [15] formula over std::set neighbourhoods of eg.snapshot(t),
/// summed in the same (t, v) order as the library.
double set_correlation(const TemporalGraph& eg) {
  if (eg.horizon() < 2 || eg.vertex_count() == 0) return 0.0;
  const std::size_t n = eg.vertex_count();
  const auto neighborhoods = [&](TimeUnit t) {
    std::vector<std::set<VertexId>> out(n);
    const Graph snap = eg.snapshot(t);
    for (const Graph::Edge& e : snap.edges()) {
      out[e.u].insert(e.v);
      out[e.v].insert(e.u);
    }
    return out;
  };
  std::vector<std::set<VertexId>> prev = neighborhoods(0);
  double total = 0.0;
  for (TimeUnit t = 1; t < eg.horizon(); ++t) {
    std::vector<std::set<VertexId>> cur = neighborhoods(t);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t a = prev[v].size(), b = cur[v].size();
      if (a == 0 || b == 0) continue;
      std::size_t common = 0;
      for (VertexId w : prev[v]) common += cur[v].count(w);
      total += static_cast<double>(common) /
               std::sqrt(static_cast<double>(a) * static_cast<double>(b));
    }
    prev = std::move(cur);
  }
  return total /
         (static_cast<double>(n) * static_cast<double>(eg.horizon() - 1));
}

TEST(TemporalSmallWorld, CorrelationMatchesNeighbourSetFormulaBitForBit) {
  Rng rng(15);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.index(40);
    // Horizon 2 (a single consecutive pair) on every fourth trial.
    const auto horizon =
        static_cast<TimeUnit>(trial % 4 == 0 ? 2 : 2 + rng.index(14));
    TemporalGraph eg(n, horizon);
    const std::size_t contacts = rng.index(6 * n);
    for (std::size_t c = 0; c < contacts; ++c) {
      const auto u = static_cast<VertexId>(rng.index(n));
      const auto v = static_cast<VertexId>(rng.index(n));
      if (u == v) continue;
      eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
    }
    // Relabels leave label-less edge records behind, as in the view.
    for (EdgeId e = 0; e < eg.edge_count(); ++e) {
      const auto edge = eg.edge(e);
      const double drop = rng.bernoulli(0.15) ? 1.0 : 0.2;
      for (TimeUnit t : edge.labels) {
        if (rng.bernoulli(drop)) eg.remove_label(edge.u, edge.v, t);
      }
    }
    EXPECT_EQ(temporal_correlation_coefficient(eg), set_correlation(eg))
        << "trial=" << trial << " n=" << n << " horizon=" << horizon;
  }
}

TEST(TemporalSmallWorld, MemorylessGraphHasLowCorrelation) {
  Rng rng(4);
  EdgeMarkovianParams p;
  p.nodes = 30;
  p.horizon = 50;
  p.death_probability = 0.8;  // contacts barely persist
  p.birth_probability = 0.1;
  const auto eg = edge_markovian_graph(p, rng);
  EXPECT_LT(temporal_correlation_coefficient(eg), 0.4);
}

TEST(TemporalSmallWorld, MobilityPersistsMoreThanMarkovNoise) {
  // Physical movement changes neighborhoods slowly: RWP contacts carry
  // far more temporal correlation than density-matched Markov noise.
  Rng rng(5);
  RandomWaypointParams rwp;
  rwp.nodes = 30;
  rwp.steps = 60;
  rwp.max_speed = 0.02;
  const auto mobile = contacts_from_trajectory(random_waypoint(rwp, rng), 0.2);
  EdgeMarkovianParams m;
  m.nodes = 30;
  m.horizon = 60;
  m.death_probability = 0.5;
  m.birth_probability = 0.05;
  const auto noise = edge_markovian_graph(m, rng);
  EXPECT_GT(temporal_correlation_coefficient(mobile),
            temporal_correlation_coefficient(noise) + 0.2);
}

TEST(TemporalSmallWorld, PathLengthOnKnownChain) {
  TemporalGraph eg(3, 5);
  eg.add_contact(0, 1, 1);
  eg.add_contact(1, 2, 3);
  const auto l = characteristic_temporal_path_length(eg);
  // Reachable ordered pairs: 0->1 (1), 1->0 (1), 0->2 (3), 1->2 (3),
  // 2->1 (3); 2->0 is unreachable (labels would have to decrease).
  EXPECT_NEAR(l.characteristic_length, 11.0 / 5.0, 1e-12);
  EXPECT_NEAR(l.reachable_fraction, 5.0 / 6.0, 1e-12);
}

TEST(TemporalSmallWorld, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(temporal_correlation_coefficient(TemporalGraph(5, 1)), 0.0);
  const auto l = characteristic_temporal_path_length(TemporalGraph(5, 3));
  EXPECT_DOUBLE_EQ(l.reachable_fraction, 0.0);
}

}  // namespace
}  // namespace structnet
