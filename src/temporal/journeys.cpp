#include "temporal/journeys.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

#include "temporal/multi_source.hpp"
#include "temporal/smallworld_metrics.hpp"
#include "temporal/temporal_csr.hpp"

namespace structnet {

namespace {

/// Contacts at or after t_start bucketed by time unit: bucket[t - t_start]
/// lists edge ids active at t. Labels before t_start can never be taken
/// (journeys depart at or after t_start), so they are not bucketed at all.
std::vector<std::vector<EdgeId>> bucket_by_time(const TemporalGraph& eg,
                                                TimeUnit t_start) {
  const TimeUnit horizon = eg.horizon();
  std::vector<std::vector<EdgeId>> bucket(
      horizon > t_start ? horizon - t_start : 0);
  for (EdgeId e = 0; e < eg.edge_count(); ++e) {
    const auto& labels = eg.edge(e).labels;
    for (auto it = std::lower_bound(labels.begin(), labels.end(), t_start);
         it != labels.end(); ++it) {
      bucket[*it - t_start].push_back(e);
    }
  }
  return bucket;
}

Journey journey_from_via(const EarliestArrival& ea, VertexId source,
                         VertexId target) {
  Journey j;
  VertexId cur = target;
  while (cur != source) {
    const JourneyHop& hop = ea.via[cur];
    assert(hop.from != kInvalidVertex);
    j.hops.push_back(hop);
    cur = hop.from;
  }
  std::reverse(j.hops.begin(), j.hops.end());
  return j;
}

}  // namespace

bool Journey::valid_for(const TemporalGraph& eg) const {
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const JourneyHop& h = hops[i];
    if (!eg.has_contact(h.from, h.to, h.t)) return false;
    if (i > 0 && (hops[i - 1].to != h.from || hops[i - 1].t > h.t)) {
      return false;
    }
  }
  return true;
}

// The reference kernel: walks the whole bucketed contact stream. Kept as
// the oracle the CSR kernels are tested against (and used by the legacy::
// journey functions below).
EarliestArrival earliest_arrival(const TemporalGraph& eg, VertexId source,
                                 TimeUnit t_start) {
  assert(source < eg.vertex_count());
  EarliestArrival ea;
  ea.completion.assign(eg.vertex_count(), kNeverTime);
  ea.via.assign(eg.vertex_count(), JourneyHop{});
  ea.completion[source] = t_start;

  const auto bucket = bucket_by_time(eg, t_start);
  std::vector<bool> have(eg.vertex_count(), false);
  have[source] = true;

  for (TimeUnit t = t_start; t < eg.horizon(); ++t) {
    const auto& unit = bucket[t - t_start];
    if (unit.empty()) continue;
    // Within one time unit transmission is instantaneous, so take the
    // closure over the snapshot's active edges.
    bool changed = true;
    while (changed) {
      changed = false;
      for (EdgeId e : unit) {
        const auto& edge = eg.edge(e);
        if (have[edge.u] && !have[edge.v]) {
          have[edge.v] = true;
          ea.completion[edge.v] = t;
          ea.via[edge.v] = JourneyHop{edge.u, edge.v, t};
          changed = true;
        } else if (have[edge.v] && !have[edge.u]) {
          have[edge.u] = true;
          ea.completion[edge.u] = t;
          ea.via[edge.u] = JourneyHop{edge.v, edge.u, t};
          changed = true;
        }
      }
    }
  }
  return ea;
}

std::optional<Journey> earliest_completion_journey(const TemporalGraph& eg,
                                                   VertexId source,
                                                   VertexId target,
                                                   TimeUnit t_start) {
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;
  csr_earliest_arrival(csr, source, t_start, ws, target);
  if (ws.arrival(target) == kNeverTime) return std::nullopt;
  return ws.journey(source, target);
}

std::optional<Journey> minimum_hop_journey(const TemporalGraph& eg,
                                           VertexId source, VertexId target,
                                           TimeUnit t_start) {
  assert(source < eg.vertex_count() && target < eg.vertex_count());
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;
  return csr_minimum_hop_journey(csr, source, target, t_start, ws);
}

std::optional<Journey> fastest_journey(const TemporalGraph& eg,
                                       VertexId source, VertexId target,
                                       TimeUnit t_start) {
  assert(source < eg.vertex_count() && target < eg.vertex_count());
  if (source == target) return Journey{};
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;
  // One profile pass finds the span-minimal departure d*; one earliest-
  // arrival sweep from d* materializes a journey realizing that span
  // (instead of one sweep per candidate departure time).
  const auto fd = csr_fastest_departure(csr, source, target, t_start, ws);
  if (!fd) return std::nullopt;
  csr_earliest_arrival(csr, source, fd->first, ws, target);
  assert(ws.arrival(target) != kNeverTime);
  return ws.journey(source, target);
}

bool is_connected_at(const TemporalGraph& eg, VertexId u, VertexId v,
                     TimeUnit t) {
  if (u == v) return true;
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;
  csr_earliest_arrival(csr, u, t, ws, v);
  return ws.arrival(v) != kNeverTime;
}

bool is_time_connected(const TemporalGraph& eg, TimeUnit t,
                       std::size_t threads) {
  const std::size_t n = eg.vertex_count();
  if (n == 0) return true;
  const TemporalCsr csr(eg);
  // One lane-packed sweep per 64-source block; a shard abandons its
  // remaining blocks as soon as any lane falls short (the answer is
  // already "no").
  std::vector<char> shard_ok(lane_block_count(n), 1);
  for_each_source_lane(
      csr, t, threads,
      [&](std::size_t block, std::size_t, std::size_t lane, VertexId,
          const MultiSourceWorkspace& w) {
        if (w.reached_count(lane) != n) {
          shard_ok[block] = 0;
          return false;
        }
        return true;
      });
  return std::all_of(shard_ok.begin(), shard_ok.end(),
                     [](char ok) { return ok != 0; });
}

TimeUnit flooding_time(const TemporalGraph& eg, VertexId source) {
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;
  csr_earliest_arrival(csr, source, 0, ws);
  if (ws.reached_count() != eg.vertex_count()) return kNeverTime;
  TimeUnit worst = 0;
  for (std::size_t v = 0; v < eg.vertex_count(); ++v) {
    worst = std::max(worst, ws.arrival(static_cast<VertexId>(v)));
  }
  return worst;
}

std::vector<TimeUnit> flooding_times(const TemporalGraph& eg,
                                     std::size_t threads) {
  const std::size_t n = eg.vertex_count();
  std::vector<TimeUnit> out(n, 0);
  if (n == 0) return out;
  const TemporalCsr csr(eg);
  // Per-source slot writes need no ordering; each value is the exact
  // scalar flooding_time(eg, s).
  for_each_source_lane(
      csr, 0, threads,
      [&](std::size_t, std::size_t, std::size_t lane, VertexId s,
          const MultiSourceWorkspace& w) {
        if (w.reached_count(lane) != n) {
          out[s] = kNeverTime;
          return true;
        }
        TimeUnit worst = 0;
        for (std::size_t v = 0; v < n; ++v) {
          worst = std::max(worst, w.arrival(lane, static_cast<VertexId>(v)));
        }
        out[s] = worst;
        return true;
      });
  return out;
}

TimeUnit dynamic_diameter(const TemporalGraph& eg, std::size_t threads) {
  const std::size_t n = eg.vertex_count();
  if (n == 0) return 0;
  // Max is order-independent and a source that cannot flood everywhere
  // contributes kNeverTime, which dominates the fold — exactly the
  // legacy per-source result.
  TimeUnit worst = 0;
  for (const TimeUnit w : flooding_times(eg, threads)) {
    worst = std::max(worst, w);
  }
  return worst;
}

std::vector<TimeUnit> temporal_distances(const TemporalGraph& eg,
                                         VertexId source, TimeUnit t_start) {
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;
  csr_earliest_arrival(csr, source, t_start, ws);
  std::vector<TimeUnit> out(eg.vertex_count());
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = ws.arrival(static_cast<VertexId>(v));
  }
  return out;
}

std::vector<std::vector<TimeUnit>> temporal_distance_matrix(
    const TemporalGraph& eg, TimeUnit t_start, std::size_t threads) {
  const std::size_t n = eg.vertex_count();
  std::vector<std::vector<TimeUnit>> rows(n);
  if (n == 0) return rows;
  const TemporalCsr csr(eg);
  // Row s is byte-identical to temporal_distances(eg, s, t_start); each
  // lane writes only its own row.
  for_each_source_lane(csr, t_start, threads,
                       [&](std::size_t, std::size_t, std::size_t lane,
                           VertexId s, const MultiSourceWorkspace& w) {
                         rows[s] = w.completion(lane);
                         return true;
                       });
  return rows;
}

namespace legacy {

std::optional<Journey> minimum_hop_journey(const TemporalGraph& eg,
                                           VertexId source, VertexId target,
                                           TimeUnit t_start) {
  assert(source < eg.vertex_count() && target < eg.vertex_count());
  if (source == target) return Journey{};
  const std::size_t n = eg.vertex_count();
  // ready[v]: minimal label-bound such that some journey with exactly h
  // hops leaves v able to take any next contact with label >= ready[v].
  std::vector<TimeUnit> ready(n, kNeverTime);
  std::vector<TimeUnit> next_ready(n);
  // Per-layer predecessor hops for reconstruction.
  std::vector<std::vector<JourneyHop>> via_layer;
  ready[source] = t_start;

  for (std::size_t h = 0; h + 1 < n + 1; ++h) {
    next_ready = ready;
    std::vector<JourneyHop> via(n, JourneyHop{});
    bool improved = false;
    for (EdgeId e = 0; e < eg.edge_count(); ++e) {
      const auto& edge = eg.edge(e);
      auto relax = [&](VertexId from, VertexId to) {
        if (ready[from] == kNeverTime) return;
        const auto& labels = edge.labels;
        const auto it =
            std::lower_bound(labels.begin(), labels.end(), ready[from]);
        if (it == labels.end()) return;
        if (*it < next_ready[to]) {
          next_ready[to] = *it;
          via[to] = JourneyHop{from, to, *it};
          improved = true;
        }
      };
      relax(edge.u, edge.v);
      relax(edge.v, edge.u);
    }
    via_layer.push_back(std::move(via));
    const bool target_hit =
        next_ready[target] != kNeverTime && ready[target] == kNeverTime;
    ready.swap(next_ready);
    if (target_hit) {
      // Reconstruct backwards through the layers.
      Journey j;
      VertexId cur = target;
      for (std::size_t layer = via_layer.size(); layer-- > 0;) {
        if (cur == source) break;
        const JourneyHop& hop = via_layer[layer][cur];
        if (hop.from == kInvalidVertex) continue;  // reached earlier layer
        j.hops.push_back(hop);
        cur = hop.from;
      }
      assert(cur == source);
      std::reverse(j.hops.begin(), j.hops.end());
      return j;
    }
    if (!improved) break;
  }
  return std::nullopt;
}

std::optional<Journey> fastest_journey(const TemporalGraph& eg,
                                       VertexId source, VertexId target,
                                       TimeUnit t_start) {
  assert(source < eg.vertex_count() && target < eg.vertex_count());
  if (source == target) return Journey{};
  // Candidate departure times: labels of source-incident edges >= t_start.
  std::vector<TimeUnit> candidates;
  for (EdgeId e : eg.incident_edges(source)) {
    for (TimeUnit t : eg.edge(e).labels) {
      if (t >= t_start) candidates.push_back(t);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::optional<Journey> best;
  TimeUnit best_span = kNeverTime;
  for (TimeUnit s : candidates) {
    const auto ea = earliest_arrival(eg, source, s);
    if (ea.completion[target] == kNeverTime) continue;
    Journey j = journey_from_via(ea, source, target);
    const TimeUnit span = j.span();
    if (span < best_span) {
      best_span = span;
      best = std::move(j);
      if (best_span == 0) break;
    }
  }
  return best;
}

}  // namespace legacy

}  // namespace structnet
