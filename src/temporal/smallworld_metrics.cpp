#include "temporal/smallworld_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "temporal/journeys.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_csr.hpp"

namespace structnet {

double temporal_correlation_coefficient(const TemporalGraph& eg) {
  if (eg.horizon() < 2 || eg.vertex_count() == 0) return 0.0;
  const std::size_t n = eg.vertex_count();
  const TimeUnit horizon = eg.horizon();
  // Edge ids bucketed by label once (a counting sort): unit t's edges
  // are by_unit[unit_start[t] .. unit_start[t + 1]).
  std::vector<std::size_t> unit_start(static_cast<std::size_t>(horizon) + 1,
                                      0);
  for (const auto& edge : eg.edges()) {
    for (const TimeUnit t : edge.labels) ++unit_start[t + 1];
  }
  for (TimeUnit t = 0; t < horizon; ++t) unit_start[t + 1] += unit_start[t];
  std::vector<EdgeId> by_unit(unit_start[horizon]);
  {
    std::vector<std::size_t> next(unit_start.begin(), unit_start.end() - 1);
    for (EdgeId e = 0; e < eg.edge_count(); ++e) {
      for (const TimeUnit t : eg.edge(e).labels) by_unit[next[t]++] = e;
    }
  }
  // One unit's neighbour lists: v's are nbr[off[v] .. off[v + 1]). An
  // edge record is one vertex pair, so no list holds a duplicate. Two
  // units are kept at a time, the previous and the current.
  struct Neighbors {
    std::vector<std::size_t> off;
    std::vector<VertexId> nbr;
  };
  std::vector<std::size_t> cursor;
  const auto fill = [&](TimeUnit t, Neighbors& out) {
    out.off.assign(n + 1, 0);
    for (std::size_t i = unit_start[t]; i < unit_start[t + 1]; ++i) {
      const auto& edge = eg.edge(by_unit[i]);
      ++out.off[edge.u + 1];
      ++out.off[edge.v + 1];
    }
    for (std::size_t v = 0; v < n; ++v) out.off[v + 1] += out.off[v];
    out.nbr.resize(out.off[n]);
    cursor.assign(out.off.begin(), out.off.end() - 1);
    for (std::size_t i = unit_start[t]; i < unit_start[t + 1]; ++i) {
      const auto& edge = eg.edge(by_unit[i]);
      out.nbr[cursor[edge.u]++] = edge.v;
      out.nbr[cursor[edge.v]++] = edge.u;
    }
  };
  Neighbors prev, cur;
  // mark[w] == stamp: w neighbours v in the previous unit. Every (t, v)
  // sample takes a fresh stamp, so no mark outlives its sample.
  std::vector<std::uint64_t> mark(n, 0);
  std::uint64_t stamp = 0;
  fill(0, prev);
  double total = 0.0;
  for (TimeUnit t = 1; t < horizon; ++t) {
    fill(t, cur);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t a = prev.off[v + 1] - prev.off[v];
      const std::size_t b = cur.off[v + 1] - cur.off[v];
      // Per [15] the overlap is averaged over ALL N(T-1) vertex/pair
      // samples; an empty neighborhood on either side means overlap 0
      // (the 0/0 case included), it does not shrink the denominator.
      if (a == 0 || b == 0) continue;
      ++stamp;
      for (std::size_t i = prev.off[v]; i < prev.off[v + 1]; ++i) {
        mark[prev.nbr[i]] = stamp;
      }
      std::size_t common = 0;
      for (std::size_t i = cur.off[v]; i < cur.off[v + 1]; ++i) {
        common += mark[cur.nbr[i]] == stamp;
      }
      total += static_cast<double>(common) /
               std::sqrt(static_cast<double>(a) * static_cast<double>(b));
    }
    std::swap(prev, cur);
  }
  const double samples =
      static_cast<double>(n) * static_cast<double>(horizon - 1);
  return total / samples;
}

TemporalPathLength characteristic_temporal_path_length(const TemporalGraph& eg,
                                                       std::size_t threads) {
  TemporalPathLength out;
  const std::size_t n = eg.vertex_count();
  if (n < 2) return out;
  struct Partial {
    double delay = 0.0;
    std::size_t reachable = 0;
  };
  // One lane-packed sweep per 64-source block over the build-once
  // contact index (for_each_source_lane, temporal/multi_source.hpp);
  // each block accumulates into its own partial, and the partials are
  // folded serially in block order below. The delays summed are
  // integer-valued doubles, so any regrouping of the partial sums is
  // exact — the result is bit-identical to the legacy per-source loop
  // at any thread count.
  const TemporalCsr csr(eg);
  std::vector<Partial> partial(lane_block_count(n));
  for_each_source_lane(
      csr, 0, threads,
      [&](std::size_t block, std::size_t, std::size_t lane, VertexId s,
          const MultiSourceWorkspace& w) {
        Partial& p = partial[block];
        for (std::size_t v = 0; v < n; ++v) {
          const TimeUnit c = w.arrival(lane, static_cast<VertexId>(v));
          if (v == s || c == kNeverTime) continue;
          p.delay += static_cast<double>(c);
          ++p.reachable;
        }
        return true;
      });
  Partial sum;
  for (const Partial& p : partial) {
    sum.delay += p.delay;
    sum.reachable += p.reachable;
  }
  const auto pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  out.reachable_fraction = static_cast<double>(sum.reachable) / pairs;
  out.characteristic_length =
      sum.reachable ? sum.delay / static_cast<double>(sum.reachable) : 0.0;
  return out;
}

}  // namespace structnet
