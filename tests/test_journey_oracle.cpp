// Brute-force oracles: exhaustively enumerate journeys on small random
// time-evolving graphs and check that the three optimizers return truly
// optimal values (completion, hops, span), and that static betweenness
// and closeness match naive path counting and BFS distance sums on
// graphs within and across 64-source lane blocks.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "algo/traversal.hpp"
#include "centrality/centrality.hpp"
#include "core/generators.hpp"
#include "temporal/journeys.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

struct OptimalJourneys {
  TimeUnit best_completion = kNeverTime;
  std::size_t best_hops = std::numeric_limits<std::size_t>::max();
  TimeUnit best_span = kNeverTime;
  bool reachable = false;
};

/// DFS over all label-respecting journeys from s to d with start >= t0.
/// Journeys never need to revisit a vertex for any of the three optima
/// (a revisit can be cut out without hurting completion/hops/span), so
/// the search is over simple journeys.
void enumerate(const TemporalGraph& eg, VertexId cur, VertexId d,
               TimeUnit min_label, TimeUnit first_label, std::size_t hops,
               std::vector<bool>& visited, OptimalJourneys& best) {
  if (cur == d) {
    best.reachable = true;
    const TimeUnit completion = min_label;  // label of last hop taken
    best.best_completion = std::min(best.best_completion, completion);
    best.best_hops = std::min(best.best_hops, hops);
    const TimeUnit span = completion - first_label;
    best.best_span = std::min(best.best_span, span);
    return;
  }
  for (EdgeId e : eg.incident_edges(cur)) {
    const VertexId next = eg.other_endpoint(e, cur);
    if (visited[next]) continue;
    for (TimeUnit t : eg.edge(e).labels) {
      if (t < min_label) continue;
      visited[next] = true;
      enumerate(eg, next, d, t, hops == 0 ? t : first_label, hops + 1,
                visited, best);
      visited[next] = false;
    }
  }
}

OptimalJourneys brute_force(const TemporalGraph& eg, VertexId s, VertexId d,
                            TimeUnit t0) {
  OptimalJourneys best;
  if (s == d) {
    best.reachable = true;
    best.best_completion = t0;
    best.best_hops = 0;
    best.best_span = 0;
    return best;
  }
  std::vector<bool> visited(eg.vertex_count(), false);
  visited[s] = true;
  // first_label is fixed on the first hop; pass t0 as the initial
  // min_label so only journeys departing >= t0 are generated.
  enumerate(eg, s, d, t0, /*first_label=*/0, 0, visited, best);
  return best;
}

// Oracle subtlety: enumerate() tracks completion as the label of the
// last hop, and span via first hop; both align with Journey's methods.

TemporalGraph random_eg(Rng& rng, std::size_t n, TimeUnit horizon,
                        std::size_t contacts) {
  TemporalGraph eg(n, horizon);
  for (std::size_t i = 0; i < contacts; ++i) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
  }
  return eg;
}

TEST(JourneyOracle, EarliestCompletionIsOptimal) {
  Rng rng(1);
  for (int trial = 0; trial < 40; ++trial) {
    const auto eg = random_eg(rng, 6, 8, 10);
    for (VertexId s = 0; s < 6; ++s) {
      const auto ea = earliest_arrival(eg, s, 0);
      for (VertexId d = 0; d < 6; ++d) {
        if (s == d) continue;
        const auto oracle = brute_force(eg, s, d, 0);
        if (!oracle.reachable) {
          EXPECT_EQ(ea.completion[d], kNeverTime) << trial;
        } else {
          EXPECT_EQ(ea.completion[d], oracle.best_completion)
              << "trial " << trial << " " << s << "->" << d;
        }
      }
    }
  }
}

TEST(JourneyOracle, MinimumHopIsOptimal) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const auto eg = random_eg(rng, 6, 8, 10);
    for (VertexId s = 0; s < 6; ++s) {
      for (VertexId d = 0; d < 6; ++d) {
        if (s == d) continue;
        const auto oracle = brute_force(eg, s, d, 0);
        const auto mh = minimum_hop_journey(eg, s, d, 0);
        EXPECT_EQ(mh.has_value(), oracle.reachable) << trial;
        if (mh && oracle.reachable) {
          EXPECT_EQ(mh->hop_count(), oracle.best_hops)
              << "trial " << trial << " " << s << "->" << d;
          EXPECT_TRUE(mh->valid_for(eg));
        }
      }
    }
  }
}

TEST(JourneyOracle, FastestSpanIsOptimal) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const auto eg = random_eg(rng, 6, 8, 10);
    for (VertexId s = 0; s < 6; ++s) {
      for (VertexId d = 0; d < 6; ++d) {
        if (s == d) continue;
        const auto oracle = brute_force(eg, s, d, 0);
        const auto fp = fastest_journey(eg, s, d, 0);
        EXPECT_EQ(fp.has_value(), oracle.reachable) << trial;
        if (fp && oracle.reachable) {
          EXPECT_EQ(fp->span(), oracle.best_span)
              << "trial " << trial << " " << s << "->" << d;
          EXPECT_TRUE(fp->valid_for(eg));
        }
      }
    }
  }
}

TEST(JourneyOracle, StartTimeRespected) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const auto eg = random_eg(rng, 5, 8, 8);
    for (TimeUnit t0 : {2u, 5u}) {
      for (VertexId d = 1; d < 5; ++d) {
        const auto oracle = brute_force(eg, 0, d, t0);
        const auto ea = earliest_arrival(eg, 0, t0);
        if (!oracle.reachable) {
          EXPECT_EQ(ea.completion[d], kNeverTime);
        } else {
          EXPECT_EQ(ea.completion[d], oracle.best_completion) << trial;
        }
      }
    }
  }
}

// --------------------------- Brandes vs naive betweenness (static)

std::vector<double> naive_betweenness(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<double> bc(n, 0.0);
  // All-pairs shortest path counting by BFS layers, per pair.
  for (VertexId s = 0; s < n; ++s) {
    const auto ds = bfs_distances(g, s);
    for (VertexId t = 0; t < n; ++t) {
      if (t == s || ds[t] == std::numeric_limits<std::uint32_t>::max()) {
        continue;
      }
      const auto dt = bfs_distances(g, t);
      // sigma_st = number of shortest s-t paths, counted by DP over the
      // DAG of tight edges.
      std::vector<double> sigma(n, 0.0);
      sigma[s] = 1.0;
      // order vertices by distance from s
      std::vector<VertexId> order;
      for (VertexId v = 0; v < n; ++v) {
        if (ds[v] <= ds[t]) order.push_back(v);
      }
      std::sort(order.begin(), order.end(),
                [&](VertexId a, VertexId b) { return ds[a] < ds[b]; });
      for (VertexId v : order) {
        for (VertexId w : g.neighbors(v)) {
          if (ds[w] == ds[v] + 1) sigma[w] += sigma[v];
        }
      }
      if (sigma[t] == 0.0) continue;
      for (VertexId v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        if (ds[v] + dt[v] == ds[t]) {
          // Paths through v: sigma_sv * sigma_vt; recompute sigma_vt by
          // symmetry from t.
          std::vector<double> sigma_t(n, 0.0);
          sigma_t[t] = 1.0;
          std::vector<VertexId> order_t;
          for (VertexId x = 0; x < n; ++x) {
            if (dt[x] <= dt[s]) order_t.push_back(x);
          }
          std::sort(order_t.begin(), order_t.end(),
                    [&](VertexId a, VertexId b) { return dt[a] < dt[b]; });
          for (VertexId x : order_t) {
            for (VertexId w : g.neighbors(x)) {
              if (dt[w] == dt[x] + 1) sigma_t[w] += sigma_t[x];
            }
          }
          bc[v] += sigma[v] * sigma_t[v] / sigma[t];
        }
      }
    }
  }
  for (double& x : bc) x /= 2.0;  // each unordered pair counted twice
  return bc;
}

// Five 12-vertex ER graphs (one 64-source block each), then graphs that
// fill a block exactly plus one lane, span a ragged third block, and
// leave lanes unreached: two ER components and isolated vertices, the
// second component straddling the block boundary.
std::vector<Graph> oracle_graphs() {
  Rng rng(5);
  std::vector<Graph> out;
  for (int trial = 0; trial < 5; ++trial) {
    out.push_back(erdos_renyi(12, 0.25, rng));
  }
  out.push_back(erdos_renyi(65, 0.06, rng));
  out.push_back(erdos_renyi(130, 0.03, rng));
  Graph split(80);
  const Graph a = erdos_renyi(25, 0.15, rng);
  const Graph b = erdos_renyi(30, 0.12, rng);
  for (const Graph::Edge& e : a.edges()) split.add_edge(e.u + 3, e.v + 3);
  for (const Graph::Edge& e : b.edges()) split.add_edge(e.u + 45, e.v + 45);
  out.push_back(std::move(split));
  return out;
}

TEST(BetweennessOracle, BrandesMatchesNaive) {
  const auto graphs = oracle_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto fast = betweenness_centrality(g);
    const auto slow = naive_betweenness(g);
    for (std::size_t v = 0; v < g.vertex_count(); ++v) {
      EXPECT_NEAR(fast[v], slow[v], 1e-9) << "graph " << i << " v " << v;
    }
  }
}

TEST(BetweennessOracle, ClosenessMatchesBfsDistanceSums) {
  const auto graphs = oracle_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto fast = closeness_centrality(g);
    for (VertexId s = 0; s < g.vertex_count(); ++s) {
      std::size_t reached = 0, sum = 0;
      for (const std::uint32_t d : bfs_distances(g, s)) {
        if (d == std::numeric_limits<std::uint32_t>::max()) continue;
        ++reached;
        sum += d;
      }
      const double expected =
          reached > 1 ? static_cast<double>(reached - 1) /
                            static_cast<double>(sum)
                      : 0.0;
      EXPECT_EQ(fast[s], expected) << "graph " << i << " s " << s;
    }
  }
}

}  // namespace
}  // namespace structnet
