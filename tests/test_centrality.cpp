// Tests for src/centrality: centralities, PageRank/HITS dynamic labels,
// and power-law fitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "algo/traversal.hpp"
#include "centrality/centrality.hpp"
#include "centrality/link_analysis.hpp"
#include "centrality/powerlaw.hpp"
#include "core/csr.hpp"
#include "core/generators.hpp"

namespace structnet {
namespace {

// Closeness by one deque BFS per source: the scalar kernel the
// lane-packed sweep replaced, kept as its byte-equality reference.
std::vector<double> per_source_closeness(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<double> c(n, 0.0);
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(n);
  std::deque<VertexId> queue;
  for (std::size_t s = 0; s < n; ++s) {
    dist.assign(n, kUnreached);
    dist[s] = 0;
    queue.assign(1, static_cast<VertexId>(s));
    double sum = 0.0;
    std::size_t reached = 0;
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      sum += dist[u];
      ++reached;
      for (VertexId w : g.neighbors(u)) {
        if (dist[w] == kUnreached) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
      }
    }
    if (reached > 1 && sum > 0.0) {
      c[s] = static_cast<double>(reached - 1) / sum;
    }
  }
  return c;
}

// Scalar per-source Brandes in the summation order centrality.hpp
// documents: sigma pulled from the previous level and delta from the
// next, each over CsrGraph's ascending neighbours; sources folded in
// ascending id.
std::vector<double> pull_order_betweenness(const Graph& g) {
  const CsrGraph csr(g);
  const std::size_t n = g.vertex_count();
  std::vector<double> bc(n, 0.0);
  for (VertexId s = 0; s < n; ++s) {
    const auto dist = bfs_distances(g, s);
    const auto order = bfs_order(g, s);  // nondecreasing distance
    std::vector<double> sigma(n, 0.0), delta(n, 0.0);
    sigma[s] = 1.0;
    for (const VertexId v : order) {
      for (const VertexId u : csr.neighbors(v)) {
        if (dist[u] + 1 == dist[v]) sigma[v] += sigma[u];
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const VertexId u = *it;
      for (const VertexId w : csr.neighbors(u)) {
        if (dist[w] == dist[u] + 1) {
          delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
        }
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (v != s) bc[v] += delta[v];
    }
  }
  for (double& x : bc) x /= 2.0;
  return bc;
}

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

// Two ER components and isolated vertices; the second component
// straddles the 64-source block boundary.
Graph disconnected_graph(Rng& rng) {
  Graph g(90);
  const Graph a = erdos_renyi(30, 0.15, rng);
  const Graph b = erdos_renyi(40, 0.1, rng);
  for (const Graph::Edge& e : a.edges()) g.add_edge(e.u + 2, e.v + 2);
  for (const Graph::Edge& e : b.edges()) g.add_edge(e.u + 45, e.v + 45);
  return g;
}

// 30 layers of 8 vertices, consecutive layers joined at random (plus a
// matching, so every layer is reached). Shortest-path counts pass 2^53
// with several unequal predecessors per vertex, so sigma sums round and
// their order shows in the bits.
Graph layered_graph(Rng& rng) {
  constexpr std::size_t kLayers = 30, kWidth = 8;
  Graph g(kLayers * kWidth);
  for (std::size_t k = 0; k + 1 < kLayers; ++k) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      for (std::size_t j = 0; j < kWidth; ++j) {
        if (i == j || rng.uniform01() < 0.5) {
          g.add_edge(static_cast<VertexId>(k * kWidth + i),
                     static_cast<VertexId>((k + 1) * kWidth + j));
        }
      }
    }
  }
  return g;
}

// Every input the lane-packed sweeps are held to: empty, single and
// all-isolated graphs, regular shapes (grids have many equal shortest
// paths), and random graphs below, at and across the 64-source block.
std::vector<std::pair<std::string, Graph>> identity_graphs() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("empty", Graph(0));
  out.emplace_back("single", Graph(1));
  out.emplace_back("isolated", Graph(70));
  out.emplace_back("path", path_graph(150));
  out.emplace_back("star", star_graph(140));
  out.emplace_back("grid", grid_graph(9, 15));
  Rng rng(41);
  for (const std::size_t n : {63, 64, 65, 130, 200}) {
    const std::string tag = std::to_string(n);
    out.emplace_back("er" + tag, erdos_renyi(n, 5.0 / n, rng));
    out.emplace_back("ba" + tag, barabasi_albert(n, 2, rng));
    out.emplace_back("ws" + tag, watts_strogatz(n, 2, 0.1, rng));
  }
  out.emplace_back("disconnected", disconnected_graph(rng));
  out.emplace_back("layered", layered_graph(rng));
  return out;
}

TEST(Centrality, DegreeOnStar) {
  const Graph g = star_graph(5);
  const auto c = degree_centrality(g);
  EXPECT_DOUBLE_EQ(c[0], 5.0);
  for (VertexId v = 1; v <= 5; ++v) EXPECT_DOUBLE_EQ(c[v], 1.0);
}

TEST(Centrality, ClosenessOnPathPeaksAtCenter) {
  const Graph g = path_graph(5);
  const auto c = closeness_centrality(g);
  EXPECT_GT(c[2], c[1]);
  EXPECT_GT(c[1], c[0]);
  // Known value for the center of P5: 4 / (2+1+1+2).
  EXPECT_DOUBLE_EQ(c[2], 4.0 / 6.0);
}

TEST(Centrality, ClosenessHandlesDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto c = closeness_centrality(g);
  EXPECT_DOUBLE_EQ(c[0], 1.0);  // reaches one node at distance 1
  EXPECT_DOUBLE_EQ(c[2], 0.0);  // isolated
}

TEST(Centrality, BetweennessOnPath) {
  // On P5, interior node i lies on (i)(4-i) shortest pairs.
  const Graph g = path_graph(5);
  const auto b = betweenness_centrality(g);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[1], 3.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 3.0);
}

TEST(Centrality, BetweennessBridgeDominates) {
  // Two triangles joined by a bridge node.
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(4, 6);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto b = betweenness_centrality(g);
  const double peak = *std::max_element(b.begin(), b.end());
  EXPECT_DOUBLE_EQ(b[3], peak);
}

TEST(Centrality, ClosenessByteEqualsPerSourceBfs) {
  for (const auto& [name, g] : identity_graphs()) {
    EXPECT_EQ(bits(closeness_centrality(g)), bits(per_source_closeness(g)))
        << name;
  }
}

TEST(Centrality, BetweennessByteEqualsPullOrderReference) {
  for (const auto& [name, g] : identity_graphs()) {
    EXPECT_EQ(bits(betweenness_centrality(g)),
              bits(pull_order_betweenness(g)))
        << name;
  }
}

TEST(Centrality, BetweennessIgnoresEdgeInsertionOrder) {
  // The documented order is by vertex id, so reinserting the same edges
  // reversed (and with swapped endpoints) changes no bit.
  Rng rng(43);
  const Graph g = barabasi_albert(130, 3, rng);
  Graph reversed(g.vertex_count());
  const auto edges = g.edges();
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    reversed.add_edge(it->v, it->u);
  }
  EXPECT_EQ(bits(betweenness_centrality(reversed)),
            bits(betweenness_centrality(g)));
}

TEST(Centrality, EigenvectorSymmetricOnCycle) {
  const Graph g = cycle_graph(6);
  const auto c = eigenvector_centrality(g);
  for (VertexId v = 1; v < 6; ++v) EXPECT_NEAR(c[v], c[0], 1e-9);
}

TEST(Centrality, EigenvectorPrefersHub) {
  const Graph g = star_graph(6);
  const auto c = eigenvector_centrality(g);
  for (VertexId v = 1; v <= 6; ++v) EXPECT_GT(c[0], c[v]);
}

TEST(PageRank, SumsToOneAndConverges) {
  Rng rng(3);
  const Graph g = barabasi_albert(100, 2, rng);
  const auto pr = pagerank(g);
  EXPECT_TRUE(pr.converged);
  double sum = 0.0;
  for (double s : pr.score) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRank, DirectedChainAccumulatesAtEnd) {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  const auto pr = pagerank(g);
  EXPECT_GT(pr.score[3], pr.score[0]);
  EXPECT_GT(pr.score[2], pr.score[1]);
}

TEST(PageRank, IterationCountIsDynamicLabelMetric) {
  // The convergence metric of experiment E10: more damping, slower.
  Rng rng(4);
  const Graph g = watts_strogatz(80, 3, 0.1, rng);
  const auto fast = pagerank(g, 0.5);
  const auto slow = pagerank(g, 0.95);
  EXPECT_TRUE(fast.converged);
  EXPECT_TRUE(slow.converged);
  EXPECT_LT(fast.iterations, slow.iterations);
}

TEST(Hits, HubAndAuthoritySeparation) {
  // 0 and 1 point at 2 and 3: {0,1} hubs, {2,3} authorities.
  Digraph g(4);
  g.add_arc(0, 2);
  g.add_arc(0, 3);
  g.add_arc(1, 2);
  g.add_arc(1, 3);
  const auto h = hits(g);
  EXPECT_TRUE(h.converged);
  EXPECT_GT(h.hub[0], h.hub[2]);
  EXPECT_GT(h.authority[2], h.authority[0]);
  EXPECT_NEAR(h.hub[0], h.hub[1], 1e-9);
  EXPECT_NEAR(h.authority[2], h.authority[3], 1e-9);
}

TEST(PowerLaw, RecoverExponentFromParetoSamples) {
  Rng rng(5);
  std::vector<std::size_t> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(static_cast<std::size_t>(rng.pareto(1.0, 2.5)));
  }
  const auto fit = fit_power_law(samples, 2);
  // Flooring continuous Pareto draws biases the discrete MLE slightly and
  // puts a staircase into the empirical CCDF; allow for both.
  EXPECT_NEAR(fit.alpha, 2.5, 0.4);
  EXPECT_LT(fit.ks, 0.2);
}

TEST(PowerLaw, BaGraphLooksScaleFree) {
  Rng rng(6);
  const Graph g = barabasi_albert(3000, 3, rng);
  const auto fit = fit_degree_power_law(g, 3);
  // BA exponent is ~3 in theory; accept the usual finite-size window.
  EXPECT_GT(fit.alpha, 2.0);
  EXPECT_LT(fit.alpha, 4.0);
  EXPECT_LT(fit.ks, 0.25);
}

TEST(PowerLaw, UniformDegreesFitPoorly) {
  // A regular graph is as far from a power law as it gets: the fitted
  // alpha collapses toward its defined floor or the KS distance is huge.
  const Graph g = cycle_graph(200);
  const auto fit = fit_degree_power_law(g, 1);
  EXPECT_TRUE(fit.ks > 0.3 || fit.alpha > 5.0);
}

TEST(PowerLaw, AutoKminPicksBetterFit) {
  Rng rng(7);
  std::vector<std::size_t> samples;
  // Pareto tail above 4 with uniform noise below.
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(static_cast<std::size_t>(rng.pareto(4.0, 2.2)));
    samples.push_back(1 + rng.index(3));
  }
  const auto fixed = fit_power_law(samples, 1);
  const auto culled = fit_power_law_auto_kmin(samples, 8);
  EXPECT_LE(culled.ks, fixed.ks);
  EXPECT_GE(culled.k_min, 1u);
}

TEST(PowerLaw, DegenerateInputs) {
  const std::vector<std::size_t> empty;
  EXPECT_EQ(fit_power_law(empty, 1).samples, 0u);
  const std::vector<std::size_t> one{5};
  EXPECT_EQ(fit_power_law(one, 1).samples, 1u);
  EXPECT_EQ(fit_power_law(one, 1).alpha, 0.0);
}

}  // namespace
}  // namespace structnet
