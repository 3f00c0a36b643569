#include "temporal/multi_source.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/temporal_delta.hpp"
#include "temporal/temporal_kernels.hpp"

namespace structnet {

namespace {

template <class Index>
void batch_sweep(const Index& csr, std::span<const VertexId> sources,
                 TimeUnit t_start, MultiSourceWorkspace& ws, bool record_via) {
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
std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>> fastest_batch(
    const Index& csr, std::span<const FastestLane> lanes,
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

}  // namespace

void csr_earliest_arrival_batch(const TemporalCsr& csr,
                                std::span<const VertexId> sources,
                                TimeUnit t_start, MultiSourceWorkspace& ws,
                                bool record_via) {
  batch_sweep(csr, sources, t_start, ws, record_via);
}

void csr_earliest_arrival_batch(const DeltaTemporalCsr& csr,
                                std::span<const VertexId> sources,
                                TimeUnit t_start, MultiSourceWorkspace& ws,
                                bool record_via) {
  batch_sweep(csr, sources, t_start, ws, record_via);
}

std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
csr_fastest_departure_batch(const TemporalCsr& csr,
                            std::span<const FastestLane> lanes,
                            MultiSourceWorkspace& ws) {
  return fastest_batch(csr, lanes, ws);
}

std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
csr_fastest_departure_batch(const DeltaTemporalCsr& csr,
                            std::span<const FastestLane> lanes,
                            MultiSourceWorkspace& ws) {
  return fastest_batch(csr, lanes, ws);
}

}  // namespace structnet
