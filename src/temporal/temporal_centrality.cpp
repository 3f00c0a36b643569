#include "temporal/temporal_centrality.hpp"

#include "parallel/parallel.hpp"
#include "temporal/journeys.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/smallworld_metrics.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_delta.hpp"

namespace structnet {

namespace {

// All-sources closeness over any contact index: one lane-packed sweep
// per 64-source block (for_each_source_lane, bit-identical at any
// thread count) instead of 64 scalar sweeps. The per-lane reduction
// reads arrivals in the same ascending vertex order the scalar loop
// used, so every sum is the exact same float sequence.
template <class Index>
std::vector<double> closeness_over_index(const Index& csr,
                                         std::size_t threads) {
  const std::size_t n = csr.vertex_count();
  std::vector<double> closeness(n, 0.0);
  if (n < 2) return closeness;
  for_each_source_lane(
      csr, 0, threads,
      [&](std::size_t, std::size_t, std::size_t lane, VertexId s,
          const MultiSourceWorkspace& w) {
        double sum = 0.0;
        for (std::size_t v = 0; v < n; ++v) {
          const TimeUnit c = w.arrival(lane, static_cast<VertexId>(v));
          if (v == s || c == kNeverTime) continue;
          sum += 1.0 / (1.0 + static_cast<double>(c));
        }
        closeness[s] = sum / static_cast<double>(n - 1);
        return true;
      });
  return closeness;
}

}  // namespace

std::vector<double> temporal_closeness(const TemporalGraph& eg,
                                       std::size_t threads) {
  // Build the contact index once; the lane-packed sweep does the rest.
  const TemporalCsr csr(eg);
  return closeness_over_index(csr, threads);
}

std::vector<double> temporal_closeness(const DeltaTemporalCsr& csr,
                                       std::size_t threads) {
  return closeness_over_index(csr, threads);
}

std::vector<double> temporal_betweenness(const TemporalGraph& eg,
                                         std::size_t threads) {
  const std::size_t n = eg.vertex_count();
  std::vector<double> betweenness(n, 0.0);
  if (n == 0) return betweenness;
  // Sources credit arbitrary interior vertices, so each worker slot
  // accumulates privately and the slots are folded in order afterwards.
  // Credits are whole numbers (exact in double), so the totals are
  // identical no matter which worker counted them or in which order.
  const std::size_t slots = resolve_threads(threads);
  std::vector<std::vector<double>> partial(
      slots, std::vector<double>(n, 0.0));
  // The lane-packed kernel reproduces the legacy via trees bit-for-bit
  // per lane, and a vertex relays the canonical journey s -> d exactly
  // when d lies below it on s's tree. So one reverse fold of each
  // block's firing log (subtree sizes) gives the credits the per-pair
  // via-chain walks gave.
  const TemporalCsr csr(eg);
  for_each_source_block(
      csr, 0, /*record_via=*/true, threads,
      [&](std::size_t, std::size_t worker, std::span<const VertexId>,
          MultiSourceWorkspace& w) { w.fold_relay_credits(partial[worker]); });
  for (const std::vector<double>& acc : partial) {
    for (std::size_t v = 0; v < n; ++v) betweenness[v] += acc[v];
  }
  return betweenness;
}

std::vector<double> temporal_degree(const TemporalGraph& eg) {
  std::vector<double> degree(eg.vertex_count(), 0.0);
  for (const auto& edge : eg.edges()) {
    degree[edge.u] += static_cast<double>(edge.labels.size());
    degree[edge.v] += static_cast<double>(edge.labels.size());
  }
  return degree;
}

}  // namespace structnet
