#include "centrality/centrality.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/csr.hpp"

namespace structnet {

namespace {

// Sources per sweep: lane l of every 64-bit word is source `first + l`.
constexpr std::size_t kLanes = 64;

/// Calls f(l) for every set bit l of `word`, in ascending lane order.
template <class F>
void for_each_lane(std::uint64_t word, F&& f) {
  while (word != 0) {
    f(static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

/// Multi-source BFS (Then et al., "The More the Merrier", VLDB 2015):
/// one traversal serves a block of up to 64 consecutive sources. Each
/// vertex carries a `seen` word (lanes that reached it) and a `frontier`
/// word (lanes reaching it at the level being built). Level d is
/// recorded as (vertex, lanes) entries, lanes = exactly the lanes whose
/// source is d hops away; a vertex appears at most once per level.
class LaneBfs {
 public:
  struct Entry {
    VertexId v;
    std::uint64_t lanes;
  };

  explicit LaneBfs(std::size_t n) : seen_(n), frontier_(n) {}

  /// Sweeps sources first .. first + lanes - 1 (lanes in [1, 64]).
  void sweep(const CsrGraph& g, std::size_t first, std::size_t lanes) {
    std::fill(seen_.begin(), seen_.end(), 0);
    entries_.clear();
    level_begin_.assign(1, 0);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t bit = std::uint64_t{1} << l;
      seen_[first + l] = bit;
      entries_.push_back({static_cast<VertexId>(first + l), bit});
    }
    for (std::size_t lo = 0; lo < entries_.size();) {
      const std::size_t hi = entries_.size();
      level_begin_.push_back(hi);
      for (std::size_t i = lo; i < hi; ++i) {
        const Entry e = entries_[i];
        for (const VertexId w : g.neighbors(e.v)) {
          const std::uint64_t fresh = e.lanes & ~seen_[w];
          if (fresh == 0) continue;
          if (frontier_[w] == 0) touched_.push_back(w);
          frontier_[w] |= fresh;
        }
      }
      for (const VertexId w : touched_) {
        seen_[w] |= frontier_[w];
        entries_.push_back({w, frontier_[w]});
        frontier_[w] = 0;
      }
      touched_.clear();
      lo = hi;
    }
  }

  std::size_t depth() const { return level_begin_.size() - 1; }
  std::span<const Entry> level(std::size_t d) const {
    return std::span<const Entry>(entries_).subspan(
        level_begin_[d], level_begin_[d + 1] - level_begin_[d]);
  }
  std::uint64_t seen(std::size_t v) const { return seen_[v]; }

 private:
  std::vector<std::uint64_t> seen_, frontier_;
  std::vector<VertexId> touched_;
  std::vector<Entry> entries_;            // every level, back to back
  std::vector<std::size_t> level_begin_;  // depth() + 1 offsets
};

}  // namespace

std::vector<double> degree_centrality(const Graph& g) {
  std::vector<double> c(g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    c[v] = static_cast<double>(g.degree(static_cast<VertexId>(v)));
  }
  return c;
}

std::vector<double> closeness_centrality(const Graph& g) {
  const CsrGraph csr(g);
  const std::size_t n = csr.vertex_count();
  std::vector<double> c(n, 0.0);
  LaneBfs bfs(n);
  for (std::size_t first = 0; first < n; first += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - first);
    bfs.sweep(csr, first, lanes);
    // Per lane: vertices reached and the sum of their distances. Both are
    // exact integers, so the quotient equals a per-source BFS's bit for
    // bit.
    std::array<std::uint64_t, kLanes> reached{}, sum{};
    for (std::size_t d = 0; d < bfs.depth(); ++d) {
      for (const LaneBfs::Entry& e : bfs.level(d)) {
        for_each_lane(e.lanes, [&](std::size_t l) {
          ++reached[l];
          sum[l] += d;
        });
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (reached[l] > 1) {
        c[first + l] = static_cast<double>(reached[l] - 1) /
                       static_cast<double>(sum[l]);
      }
    }
  }
  return c;
}

std::vector<double> betweenness_centrality(const Graph& g) {
  const CsrGraph csr(g);
  const std::size_t n = csr.vertex_count();
  std::vector<double> bc(n, 0.0);
  LaneBfs bfs(n);
  // Lane-strided: sigma[v * kLanes + l] is sigma_s(v) for lane l's source
  // s, likewise delta. A block writes every entry it reads before reading
  // it, so nothing is cleared between blocks.
  std::vector<double> sigma(n * kLanes), delta(n * kLanes);
  // Lanes for which each vertex sits on the neighbouring level being
  // pulled from; zero outside a pull.
  std::vector<std::uint64_t> adjacent(n, 0);
  const auto mark = [&](std::span<const LaneBfs::Entry> level, bool on) {
    for (const LaneBfs::Entry& e : level) adjacent[e.v] = on ? e.lanes : 0;
  };

  for (std::size_t first = 0; first < n; first += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - first);
    bfs.sweep(csr, first, lanes);
    const std::size_t depth = bfs.depth();

    // sigma_s(v) = sum of sigma_s(u) over neighbours u one level closer
    // to s, in ascending id.
    for (std::size_t l = 0; l < lanes; ++l) {
      sigma[(first + l) * kLanes + l] = 1.0;
    }
    for (std::size_t d = 1; d < depth; ++d) {
      mark(bfs.level(d - 1), true);
      for (const LaneBfs::Entry& e : bfs.level(d)) {
        double* sv = &sigma[e.v * kLanes];
        for_each_lane(e.lanes, [&](std::size_t l) { sv[l] = 0.0; });
        for (const VertexId u : csr.neighbors(e.v)) {
          const double* su = &sigma[u * kLanes];
          for_each_lane(e.lanes & adjacent[u],
                        [&](std::size_t l) { sv[l] += su[l]; });
        }
      }
      mark(bfs.level(d - 1), false);
    }

    // delta_s(u) = sum of sigma_s(u) / sigma_s(w) * (1 + delta_s(w)) over
    // neighbours w one level farther from s, in ascending id; deepest
    // level first (its delta is 0). Sources need none: bc skips them.
    for (std::size_t d = depth - 1; d >= 1; --d) {
      const bool deepest = d + 1 == depth;
      if (!deepest) mark(bfs.level(d + 1), true);
      for (const LaneBfs::Entry& e : bfs.level(d)) {
        double* du = &delta[e.v * kLanes];
        for_each_lane(e.lanes, [&](std::size_t l) { du[l] = 0.0; });
        if (deepest) continue;
        const double* su = &sigma[e.v * kLanes];
        for (const VertexId w : csr.neighbors(e.v)) {
          const double* sw = &sigma[w * kLanes];
          const double* dw = &delta[w * kLanes];
          for_each_lane(e.lanes & adjacent[w], [&](std::size_t l) {
            du[l] += su[l] / sw[l] * (1.0 + dw[l]);
          });
        }
      }
      if (!deepest) mark(bfs.level(d + 1), false);
    }

    // bc(v) += delta_s(v) over this block's sources s != v that reach v,
    // in ascending s.
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t word = bfs.seen(v);
      if (v >= first && v < first + lanes) {
        word &= ~(std::uint64_t{1} << (v - first));
      }
      const double* dv = &delta[v * kLanes];
      for_each_lane(word, [&](std::size_t l) { bc[v] += dv[l]; });
    }
  }
  // Undirected: each pair counted twice above.
  for (double& v : bc) v /= 2.0;
  return bc;
}

std::vector<double> clustering_coefficients(const Graph& g) {
  std::vector<double> c(g.vertex_count(), 0.0);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto nbrs = g.neighbors(v);
    if (nbrs.size() < 2) continue;
    std::size_t closed = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        closed += g.has_edge(nbrs[i], nbrs[j]);
      }
    }
    c[v] = 2.0 * static_cast<double>(closed) /
           (static_cast<double>(nbrs.size()) *
            static_cast<double>(nbrs.size() - 1));
  }
  return c;
}

double average_clustering_coefficient(const Graph& g) {
  if (g.vertex_count() == 0) return 0.0;
  const auto c = clustering_coefficients(g);
  double sum = 0.0;
  for (double x : c) sum += x;
  return sum / static_cast<double>(c.size());
}

std::vector<double> eigenvector_centrality(const Graph& g,
                                           std::size_t iterations) {
  const std::size_t n = g.vertex_count();
  if (n == 0) return {};
  std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> next(n);
  for (std::size_t it = 0; it < iterations; ++it) {
    // Iterate (A + I) x: the identity shift breaks the period-2
    // oscillation power iteration exhibits on bipartite graphs without
    // changing the eigenvector ordering.
    next = x;
    for (const Graph::Edge& e : g.edges()) {
      next[e.u] += x[e.v];
      next[e.v] += x[e.u];
    }
    double norm = 0.0;
    for (double v : next) norm += v * v;
    norm = std::sqrt(norm);
    if (norm == 0.0) return next;  // edgeless graph
    for (std::size_t v = 0; v < n; ++v) next[v] /= norm;
    x.swap(next);
  }
  return x;
}

}  // namespace structnet
