// Tests for src/core: graph containers, generators, IO, geometry.
#include <gtest/gtest.h>

#include <sstream>

#include <algorithm>

#include "core/csr.hpp"
#include "core/digraph.hpp"
#include "core/generators.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "core/io.hpp"

namespace structnet {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, AddVertexAndEdge) {
  Graph g(3);
  EXPECT_EQ(g.add_vertex(), 3u);
  const EdgeId e = g.add_edge(0, 3);
  EXPECT_EQ(e, 0u);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(Graph, AddEdgeUniqueSkipsDuplicates) {
  Graph g(3);
  EXPECT_NE(g.add_edge_unique(0, 1), kInvalidEdge);
  EXPECT_EQ(g.add_edge_unique(1, 0), kInvalidEdge);
  EXPECT_EQ(g.add_edge_unique(1, 1), kInvalidEdge);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, DegreesVector) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto d = g.degrees();
  EXPECT_EQ(d, (std::vector<std::size_t>{3, 1, 1, 1}));
}

TEST(Graph, InducedSubgraphRenumbers) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  std::vector<bool> keep{true, false, true, true, false};
  std::vector<VertexId> map;
  const Graph sub = g.induced_subgraph(keep, &map);
  EXPECT_EQ(sub.vertex_count(), 3u);
  EXPECT_EQ(sub.edge_count(), 1u);  // only (2,3) survives
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map[1], kInvalidVertex);
  EXPECT_EQ(map[2], 1u);
  EXPECT_EQ(map[3], 2u);
  EXPECT_TRUE(sub.has_edge(1, 2));
}

TEST(Digraph, ArcDirectionality) {
  Digraph g(3);
  g.add_arc(0, 1);
  EXPECT_TRUE(g.has_arc(0, 1));
  EXPECT_FALSE(g.has_arc(1, 0));
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(Digraph, ReversedSwapsArcs) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  const Digraph r = g.reversed();
  EXPECT_TRUE(r.has_arc(1, 0));
  EXPECT_TRUE(r.has_arc(2, 1));
  EXPECT_FALSE(r.has_arc(0, 1));
}

TEST(Digraph, ToUndirectedCollapsesAntiparallel) {
  Digraph g(2);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  const Graph u = g.to_undirected();
  EXPECT_EQ(u.edge_count(), 1u);
}

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  Rng rng(1);
  const std::size_t n = 300;
  const double p = 0.05;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, expected * 0.2);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(2);
  EXPECT_EQ(erdos_renyi(10, 0.0, rng).edge_count(), 0u);
  EXPECT_EQ(erdos_renyi(10, 1.0, rng).edge_count(), 45u);
}

TEST(Generators, BarabasiAlbertDegreeSum) {
  Rng rng(3);
  const std::size_t n = 200, m = 3;
  const Graph g = barabasi_albert(n, m, rng);
  EXPECT_EQ(g.vertex_count(), n);
  // Seed clique (m+1 choose 2) + m edges per later vertex.
  EXPECT_EQ(g.edge_count(), (m + 1) * m / 2 + (n - m - 1) * m);
  // Preferential attachment produces a hub much bigger than the median.
  auto deg = g.degrees();
  std::sort(deg.begin(), deg.end());
  EXPECT_GT(deg.back(), 3 * deg[n / 2]);
}

TEST(Generators, WattsStrogatzKeepsDegreeTotal) {
  Rng rng(4);
  const Graph g = watts_strogatz(100, 3, 0.2, rng);
  EXPECT_EQ(g.vertex_count(), 100u);
  // Rewiring preserves the number of edges.
  EXPECT_EQ(g.edge_count(), 300u);
}

TEST(Generators, ConfigurationModelRoughDegrees) {
  Rng rng(5);
  std::vector<std::size_t> want(60, 4);
  const Graph g = configuration_model(want, rng);
  // Erased duplicates allowed, but most stubs must survive.
  EXPECT_GT(g.edge_count(), 90u);
  EXPECT_LE(g.edge_count(), 120u);
}

TEST(Generators, PowerLawDegreeSequenceEvenSum) {
  Rng rng(6);
  const auto seq = power_law_degree_sequence(101, 2.5, 1, 50, rng);
  std::size_t sum = 0;
  for (auto d : seq) sum += d;
  EXPECT_EQ(sum % 2, 0u);
  EXPECT_EQ(seq.size(), 101u);
}

TEST(Generators, UnitDiskGraphMatchesBruteForce) {
  Rng rng(7);
  const auto pts = random_points(80, rng);
  const double r = 0.2;
  const Graph fast = unit_disk_graph(pts, r);
  // Brute force oracle.
  std::size_t edges = 0;
  for (std::size_t a = 0; a < pts.size(); ++a) {
    for (std::size_t b = a + 1; b < pts.size(); ++b) {
      const bool close = squared_distance(pts[a], pts[b]) <= r * r;
      EXPECT_EQ(close, fast.has_edge(static_cast<VertexId>(a),
                                     static_cast<VertexId>(b)));
      edges += close;
    }
  }
  EXPECT_EQ(fast.edge_count(), edges);
}

TEST(Generators, DeterministicFamilies) {
  EXPECT_EQ(path_graph(5).edge_count(), 4u);
  EXPECT_EQ(cycle_graph(5).edge_count(), 5u);
  EXPECT_EQ(star_graph(6).edge_count(), 6u);
  EXPECT_EQ(star_graph(6).degree(0), 6u);
  EXPECT_EQ(complete_graph(6).edge_count(), 15u);
  EXPECT_EQ(grid_graph(3, 4).edge_count(), 3u * 3 + 2u * 4);
}

TEST(Generators, BinaryHypercubeStructure) {
  const Graph g = binary_hypercube(4);
  EXPECT_EQ(g.vertex_count(), 16u);
  EXPECT_EQ(g.edge_count(), 32u);  // n * 2^(n-1)
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(g.has_edge(0b0000, 0b0100));
  EXPECT_FALSE(g.has_edge(0b0000, 0b0110));
}

TEST(Generators, GeneralizedHypercubeFig6Shape) {
  // Fig. 6: gender x occupation x nationality = GH(2, 2, 3).
  const std::vector<std::size_t> radices{2, 2, 3};
  const Graph g = generalized_hypercube(radices);
  EXPECT_EQ(g.vertex_count(), 12u);
  // Degree = (2-1) + (2-1) + (3-1) = 4 for every vertex.
  for (VertexId v = 0; v < 12; ++v) EXPECT_EQ(g.degree(v), 4u);
  // Edges differ in exactly one coordinate.
  for (const auto& e : g.edges()) {
    const auto a = gh_address(e.u, radices);
    const auto b = gh_address(e.v, radices);
    int diff = 0;
    for (std::size_t i = 0; i < radices.size(); ++i) diff += a[i] != b[i];
    EXPECT_EQ(diff, 1);
  }
}

TEST(Generators, GhAddressRoundTrip) {
  const std::vector<std::size_t> radices{3, 4, 2};
  for (std::size_t v = 0; v < gh_vertex_count(radices); ++v) {
    EXPECT_EQ(gh_vertex(gh_address(v, radices), radices), v);
  }
}

TEST(Io, EdgeListRoundTrip) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  std::stringstream ss;
  write_edge_list(ss, g);
  const auto back = read_edge_list(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(Io, RejectsMalformedInput) {
  std::stringstream bad1("3 1\n0 7\n");   // vertex out of range
  EXPECT_FALSE(read_edge_list(bad1).has_value());
  std::stringstream bad2("3 2\n0 1\n0 1\n");  // duplicate edge
  EXPECT_FALSE(read_edge_list(bad2).has_value());
  std::stringstream bad3("3 2\n0 1\n");  // truncated
  EXPECT_FALSE(read_edge_list(bad3).has_value());
}

TEST(Io, ArcListRoundTrip) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(2, 1);
  std::stringstream ss;
  write_arc_list(ss, g);
  const auto back = read_arc_list(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(Io, DotContainsEdges) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_NE(to_dot(g).find("0 -- 1"), std::string::npos);
  Digraph d(2);
  d.add_arc(1, 0);
  EXPECT_NE(to_dot(d).find("1 -> 0"), std::string::npos);
}

TEST(Csr, MirrorsAdjacency) {
  Rng rng(9);
  const Graph g = erdos_renyi(60, 0.1, rng);
  const CsrGraph csr(g);
  EXPECT_EQ(csr.vertex_count(), g.vertex_count());
  EXPECT_EQ(csr.edge_count(), g.edge_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    ASSERT_EQ(csr.degree(v), g.degree(v));
    auto expected = std::vector<VertexId>(g.neighbors(v).begin(),
                                          g.neighbors(v).end());
    std::sort(expected.begin(), expected.end());
    const auto got = csr.neighbors(v);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin(),
                           got.end()));
  }
}

TEST(Csr, EmptyGraph) {
  const CsrGraph csr{Graph(0)};
  EXPECT_EQ(csr.vertex_count(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(Geometry, DistanceAndMidpoint) {
  const Point2D a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  const Point2D m = midpoint(a, b);
  EXPECT_DOUBLE_EQ(m.x, 1.5);
  EXPECT_DOUBLE_EQ(m.y, 2.0);
}

}  // namespace
}  // namespace structnet
