#include "temporal/temporal_csr.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_delta.hpp"
#include "temporal/temporal_kernels.hpp"

namespace structnet {

TemporalCsr::TemporalCsr(const TemporalGraph& eg)
    : TemporalCsr(
          eg.vertex_count(), eg.horizon(), eg.edge_count(),
          [&eg](EdgeId e) { return std::pair{eg.edge(e).u, eg.edge(e).v}; },
          [&eg](EdgeId e) -> std::span<const TimeUnit> {
            return eg.edge(e).labels;
          }) {}

std::size_t TemporalCsr::first_contact_at(VertexId v, TimeUnit t) const {
  const auto lo = contact_time_.begin() + vertex_offsets_[v];
  const auto hi = contact_time_.begin() + vertex_offsets_[v + 1];
  return static_cast<std::size_t>(
      std::lower_bound(lo, hi, t) - contact_time_.begin());
}

void TemporalWorkspace::bind(std::size_t n) {
  if (n_ == n) return;
  n_ = n;
  // epoch_/tick_ keep counting monotonically: zeroed stamps are always
  // stale relative to the next begin_sweep()/next_tick().
  stamp_.assign(n_, 0);
  arrival_.assign(n_, 0);
  via_.assign(n_, JourneyHop{});
  value_tick_.assign(n_, 0);
  value_.assign(n_, 0);
  value_edge_.assign(n_, 0);
  hop_cand_.assign(n_, JourneyHop{});
}

EarliestArrival TemporalWorkspace::to_earliest_arrival() const {
  EarliestArrival ea;
  ea.completion.resize(n_);
  ea.via.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    const auto id = static_cast<VertexId>(v);
    ea.completion[v] = arrival(id);
    ea.via[v] = via(id);
  }
  return ea;
}

Journey TemporalWorkspace::journey(VertexId source, VertexId target) const {
  Journey j;
  VertexId cur = target;
  while (cur != source) {
    const JourneyHop hop = via(cur);
    assert(hop.from != kInvalidVertex);
    j.hops.push_back(hop);
    cur = hop.from;
  }
  std::reverse(j.hops.begin(), j.hops.end());
  return j;
}

template <class Index>
void csr_earliest_arrival(const Index& csr, VertexId source, TimeUnit t_start,
                          TemporalWorkspace& ws, VertexId stop_at) {
  STRUCTNET_OBS_SPAN("temporal.csr_earliest_arrival");
  static obs::Counter& calls = obs::MetricsRegistry::global().counter(
      "temporal.csr_earliest_arrival_calls");
  calls.add();
  detail::WorkspaceOps::earliest_arrival(csr, source, t_start, ws, stop_at);
}

std::optional<std::pair<TimeUnit, TimeUnit>> csr_fastest_departure(
    const TemporalCsr& csr, VertexId source, VertexId target, TimeUnit t_start,
    TemporalWorkspace&) {
  MultiSourceWorkspace ws;
  const FastestLane lane{source, target, t_start};
  return csr_fastest_departure_batch(csr, {&lane, 1}, ws).front();
}

template <class Index>
std::optional<Journey> csr_minimum_hop_journey(const Index& csr,
                                               VertexId source, VertexId target,
                                               TimeUnit t_start,
                                               TemporalWorkspace& ws) {
  STRUCTNET_OBS_SPAN("temporal.csr_minimum_hop_journey");
  static obs::Counter& calls = obs::MetricsRegistry::global().counter(
      "temporal.csr_minimum_hop_journey_calls");
  calls.add();
  return detail::WorkspaceOps::minimum_hop(csr, source, target, t_start, ws);
}

template <class Index>
void csr_earliest_arrival_batch(const Index& csr,
                                std::span<const VertexId> sources,
                                TimeUnit t_start, MultiSourceWorkspace& ws,
                                bool record_via) {
  STRUCTNET_OBS_SPAN("temporal.csr_earliest_arrival_batch");
  static obs::Counter& calls = obs::MetricsRegistry::global().counter(
      "temporal.csr_earliest_arrival_batch_calls");
  static obs::Counter& lanes = obs::MetricsRegistry::global().counter(
      "temporal.csr_earliest_arrival_batch_lanes");
  calls.add();
  lanes.add(sources.size());
  detail::WorkspaceOps::earliest_arrival_batch(csr, sources, t_start, ws,
                                               record_via);
}

template <class Index>
std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
csr_fastest_departure_batch(const Index& csr,
                            std::span<const FastestLane> lanes,
                            MultiSourceWorkspace& ws) {
  STRUCTNET_OBS_SPAN("temporal.csr_fastest_departure_batch");
  static obs::Counter& calls = obs::MetricsRegistry::global().counter(
      "temporal.csr_fastest_departure_batch_calls");
  static obs::Counter& lane_count = obs::MetricsRegistry::global().counter(
      "temporal.csr_fastest_departure_batch_lanes");
  calls.add();
  lane_count.add(lanes.size());
  return detail::WorkspaceOps::fastest_departure_batch(csr, lanes, ws);
}

// Every kernel entry point, for both index types.
template void csr_earliest_arrival(const TemporalCsr&, VertexId, TimeUnit,
                                   TemporalWorkspace&, VertexId);
template void csr_earliest_arrival(const DeltaTemporalCsr&, VertexId, TimeUnit,
                                   TemporalWorkspace&, VertexId);
template std::optional<Journey> csr_minimum_hop_journey(
    const TemporalCsr&, VertexId, VertexId, TimeUnit, TemporalWorkspace&);
template std::optional<Journey> csr_minimum_hop_journey(
    const DeltaTemporalCsr&, VertexId, VertexId, TimeUnit, TemporalWorkspace&);
template void csr_earliest_arrival_batch(const TemporalCsr&,
                                         std::span<const VertexId>, TimeUnit,
                                         MultiSourceWorkspace&, bool);
template void csr_earliest_arrival_batch(const DeltaTemporalCsr&,
                                         std::span<const VertexId>, TimeUnit,
                                         MultiSourceWorkspace&, bool);
template std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
csr_fastest_departure_batch(const TemporalCsr&, std::span<const FastestLane>,
                            MultiSourceWorkspace&);
template std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
csr_fastest_departure_batch(const DeltaTemporalCsr&,
                            std::span<const FastestLane>,
                            MultiSourceWorkspace&);

}  // namespace structnet
