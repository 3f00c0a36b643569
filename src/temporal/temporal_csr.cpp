#include "temporal/temporal_csr.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_kernels.hpp"

namespace structnet {

TemporalCsr::TemporalCsr(const TemporalGraph& eg)
    : n_(eg.vertex_count()), horizon_(eg.horizon()) {
  STRUCTNET_OBS_SPAN("temporal.csr_build");
  static obs::Counter& builds =
      obs::MetricsRegistry::global().counter("temporal.csr_builds");
  builds.add();
  const std::size_t m = eg.edge_count();
  edge_u_.resize(m);
  edge_v_.resize(m);
  std::vector<std::size_t> vertex_deg(n_, 0);
  std::vector<std::size_t> time_count(horizon_, 0);
  for (EdgeId e = 0; e < m; ++e) {
    const auto& edge = eg.edge(e);
    edge_u_[e] = edge.u;
    edge_v_[e] = edge.v;
    contact_count_ += edge.labels.size();
    vertex_deg[edge.u] += edge.labels.size();
    vertex_deg[edge.v] += edge.labels.size();
    for (TimeUnit t : edge.labels) ++time_count[t];
  }

  // Per-edge label arrays: a straight copy (TemporalGraph keeps each
  // label set sorted ascending already).
  edge_label_offsets_.assign(m + 1, 0);
  for (EdgeId e = 0; e < m; ++e) {
    edge_label_offsets_[e + 1] =
        edge_label_offsets_[e] + eg.edge(e).labels.size();
  }
  edge_labels_.resize(contact_count_);
  for (EdgeId e = 0; e < m; ++e) {
    const auto& labels = eg.edge(e).labels;
    std::copy(labels.begin(), labels.end(),
              edge_labels_.begin() + edge_label_offsets_[e]);
  }

  // Global stream: per-unit spans in edge id order (edge ids visited
  // ascending), matching the legacy bucket_by_time bucket contents.
  time_offsets_.assign(static_cast<std::size_t>(horizon_) + 1, 0);
  for (TimeUnit t = 0; t < horizon_; ++t) {
    time_offsets_[t + 1] = time_offsets_[t] + time_count[t];
  }
  stream_edge_.resize(contact_count_);
  std::vector<std::size_t> tfill(time_offsets_.begin(),
                                 time_offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    for (TimeUnit t : eg.edge(e).labels) stream_edge_[tfill[t]++] = e;
  }

  // Per-vertex contact regions, (time, edge id)-sorted, via a counting
  // pass instead of a per-vertex comparison sort: one chronological walk
  // over the finished stream visits contacts in globally ascending
  // (t, e), so appending each contact to both endpoint regions fills
  // every region already in the required order. O(C) instead of the
  // previous O(C log C) stable_sort per vertex.
  vertex_offsets_.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    vertex_offsets_[v + 1] = vertex_offsets_[v] + vertex_deg[v];
  }
  contact_time_.resize(2 * contact_count_);
  contact_neighbor_.resize(2 * contact_count_);
  contact_edge_.resize(2 * contact_count_);
  std::vector<std::size_t> fill(vertex_offsets_.begin(),
                                vertex_offsets_.end() - 1);
  for (TimeUnit t = 0; t < horizon_; ++t) {
    for (const EdgeId e : edges_at(t)) {
      const VertexId u = edge_u_[e], v = edge_v_[e];
      std::size_t i = fill[u]++;
      contact_time_[i] = t;
      contact_neighbor_[i] = v;
      contact_edge_[i] = e;
      i = fill[v]++;
      contact_time_[i] = t;
      contact_neighbor_[i] = u;
      contact_edge_[i] = e;
    }
  }

  // Distinct-edge adjacency (edges that still carry labels only) and
  // per-edge label arrays: the min-hop kernel's "first use of e at or
  // after t" is a lower_bound into edge_labels(e). incident_edges()
  // lists ids ascending, which is the tie-break order the kernels need.
  std::vector<std::size_t> adj_deg(n_, 0);
  for (EdgeId e = 0; e < m; ++e) {
    if (eg.edge(e).labels.empty()) continue;
    ++adj_deg[edge_u_[e]];
    ++adj_deg[edge_v_[e]];
  }
  adj_offsets_.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    adj_offsets_[v + 1] = adj_offsets_[v] + adj_deg[v];
  }
  adj_edge_.resize(adj_offsets_[n_]);
  adj_neighbor_.resize(adj_offsets_[n_]);
  std::vector<std::size_t> afill(adj_offsets_.begin(),
                                 adj_offsets_.end() - 1);
  for (std::size_t v = 0; v < n_; ++v) {
    for (EdgeId e : eg.incident_edges(v)) {
      const auto& edge = eg.edge(e);
      if (edge.labels.empty()) continue;
      const std::size_t i = afill[v]++;
      adj_edge_[i] = e;
      adj_neighbor_[i] = edge.u == v ? edge.v : edge.u;
    }
  }
}

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

void csr_earliest_arrival(const TemporalCsr& csr, VertexId source,
                          TimeUnit t_start, TemporalWorkspace& ws,
                          VertexId stop_at) {
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

std::optional<Journey> csr_minimum_hop_journey(const TemporalCsr& csr,
                                               VertexId source, VertexId target,
                                               TimeUnit t_start,
                                               TemporalWorkspace& ws) {
  STRUCTNET_OBS_SPAN("temporal.csr_minimum_hop_journey");
  static obs::Counter& calls = obs::MetricsRegistry::global().counter(
      "temporal.csr_minimum_hop_journey_calls");
  calls.add();
  return detail::WorkspaceOps::minimum_hop(csr, source, target, t_start, ws);
}

}  // namespace structnet
