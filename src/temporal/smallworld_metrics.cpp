#include "temporal/smallworld_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "temporal/journeys.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_csr.hpp"

namespace structnet {

double temporal_correlation_coefficient(const TemporalGraph& eg) {
  if (eg.horizon() < 2 || eg.vertex_count() == 0) return 0.0;
  const std::size_t n = eg.vertex_count();
  // Neighbor sets per snapshot.
  std::vector<std::set<VertexId>> prev(n), cur(n);
  auto fill = [&](TimeUnit t, std::vector<std::set<VertexId>>& out) {
    for (auto& s : out) s.clear();
    const Graph snap = eg.snapshot(t);
    for (const Graph::Edge& e : snap.edges()) {
      out[e.u].insert(e.v);
      out[e.v].insert(e.u);
    }
  };
  fill(0, prev);
  double total = 0.0;
  for (TimeUnit t = 1; t < eg.horizon(); ++t) {
    fill(t, cur);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t a = prev[v].size();
      const std::size_t b = cur[v].size();
      // Per [15] the overlap is averaged over ALL N(T-1) vertex/pair
      // samples; an empty neighborhood on either side means overlap 0
      // (the 0/0 case included), it does not shrink the denominator.
      if (a == 0 || b == 0) continue;
      std::size_t common = 0;
      for (VertexId w : prev[v]) common += cur[v].count(w);
      total += static_cast<double>(common) /
               std::sqrt(static_cast<double>(a) * static_cast<double>(b));
    }
    prev.swap(cur);
  }
  const double samples =
      static_cast<double>(n) * static_cast<double>(eg.horizon() - 1);
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
      csr, 0, /*record_via=*/false, threads,
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
