// Internal: the temporal-path kernel bodies, templated over the contact
// index they read. Two instantiations exist — the immutable TemporalCsr
// and the base+delta DeltaTemporalCsr overlay — and both must replay the
// legacy fixed point bit-for-bit, so the kernels only touch the index
// through a narrow iteration interface that hides the memory layout:
//
//   vertex_count() / horizon() / edge_u(e) / edge_v(e)
//   has_contacts(v)          — v has at least one live contact
//   unit_size(t)             — number of live contacts during unit t
//   find_contact_at(v, t, p) — any contact of v at exactly t with p(nbr)?
//   for_each_edge_at(t, f)   — live edges of unit t, ASCENDING edge id
//                              (the legacy bucket scan order); f returns
//                              false to stop early
//   for_each_incident(v, f)  — distinct incident edges of v, ASCENDING
//                              edge id; edges with no live labels may
//                              appear (they can never produce a
//                              candidate); f returns false to stop
//   first_label_at(e, t)     — earliest live label of e at or after t,
//                              kNeverTime when none
//
// Ascending-edge-id iteration is the load-bearing requirement: it is
// what makes the same-unit closure fire in the legacy sequence and the
// min-hop (label, edge id) tie-breaks resolve identically on every
// index, and what keeps the routing simulator (sim/dtn_routing.cpp),
// which walks units through for_each_edge_at too, replaying the same
// contact sequence. Earliest arrival has a scalar and a lane-packed
// body; fastest departure has only the lane-packed one (a single query
// is a one-lane block); minimum hop is scalar. TemporalCsr's one builder
// lives here too. Included only by temporal_csr.cpp / temporal_delta.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_csr.hpp"

namespace structnet::detail {

// The single friend of TemporalWorkspace / MultiSourceWorkspace: every
// kernel body lives here as a static member template so one friend
// declaration covers all index instantiations.
struct WorkspaceOps {
  template <class Index>
  static void earliest_arrival(const Index& csr, VertexId source,
                               TimeUnit t_start, TemporalWorkspace& ws,
                               VertexId stop_at);
  template <class Index>
  static void earliest_arrival_batch(const Index& csr,
                                     std::span<const VertexId> sources,
                                     TimeUnit t_start, MultiSourceWorkspace& ws,
                                     bool record_via);
  template <class Index>
  static std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
  fastest_departure_batch(const Index& csr, std::span<const FastestLane> lanes,
                          MultiSourceWorkspace& ws);
  template <class Index>
  static std::optional<Journey> minimum_hop(const Index& csr, VertexId source,
                                            VertexId target, TimeUnit t_start,
                                            TemporalWorkspace& ws);

  /// Refreshes a workspace's cached has-contacts vertex list (ascending
  /// vertex id) for `csr`. Keyed on the index's unique state token, so
  /// an all-pairs sweep pays the O(n) has_contacts scan once per index
  /// state instead of once per source.
  template <class Index, class Ws>
  static void refresh_contact_list(const Index& csr, Ws& ws) {
    if (ws.contact_state_ == csr.state_id()) return;
    ws.contact_list_.clear();
    const std::size_t n = csr.vertex_count();
    for (std::size_t v = 0; v < n; ++v) {
      const auto id = static_cast<VertexId>(v);
      if (csr.has_contacts(id)) ws.contact_list_.push_back(id);
    }
    ws.contact_state_ = csr.state_id();
  }
};

template <class Index>
void WorkspaceOps::earliest_arrival(const Index& csr, VertexId source,
                                    TimeUnit t_start, TemporalWorkspace& ws,
                                    VertexId stop_at) {
  assert(source < csr.vertex_count());
  ws.bind(csr.vertex_count());
  ws.begin_sweep();
  ws.reached_ = 0;
  ws.set_arrival(source, t_start, JourneyHop{});
  if (stop_at != kInvalidVertex && stop_at == source) return;

  // seeds_ holds the still-unreached vertices that can ever be reached
  // (vertices with no contacts stay at kNeverTime in the legacy kernel
  // too); the sweep is done the moment it drains. Rebuilt as a copy of
  // the per-index-state cached contact list, not an O(n) has_contacts
  // scan per source.
  refresh_contact_list(csr, ws);
  ws.seeds_.clear();
  for (const VertexId id : ws.contact_list_) {
    if (id != source) ws.seeds_.push_back(id);
  }

  for (TimeUnit t = t_start; t < csr.horizon() && !ws.seeds_.empty(); ++t) {
    const std::size_t unit_size = csr.unit_size(t);
    if (unit_size == 0) continue;

    // A unit fires nothing unless some edge starts it with exactly one
    // reached endpoint (every cascade needs a first firing), i.e. some
    // unreached vertex has a contact at t with a reached neighbor.
    // Probe through whichever side is smaller: the unreached list (one
    // lower_bound + walk each) or the unit's edge span.
    bool active = false;
    if (ws.seeds_.size() < unit_size) {
      for (const VertexId w : ws.seeds_) {
        if (csr.find_contact_at(
                w, t, [&](VertexId nbr) { return ws.reached(nbr); })) {
          active = true;
          break;
        }
      }
    } else {
      csr.for_each_edge_at(t, [&](EdgeId e) {
        if (ws.reached(csr.edge_u(e)) != ws.reached(csr.edge_v(e))) {
          active = true;
          return false;
        }
        return true;
      });
    }
    if (!active) continue;

    // Legacy fixed point in ascending edge id order (= the legacy
    // bucket scan order, so the firing sequence and via hops match
    // exactly). The first pass covers the whole unit; edges that fire
    // or already have both endpoints reached can never fire again, so
    // re-scan passes keep only the both-unreached remainder.
    ws.local_edges_.clear();
    bool changed = false;
    csr.for_each_edge_at(t, [&](EdgeId e) {
      const VertexId u = csr.edge_u(e), v = csr.edge_v(e);
      const bool ru = ws.reached(u), rv = ws.reached(v);
      if (ru && !rv) {
        ws.set_arrival(v, t, JourneyHop{u, v, t});
        changed = true;
      } else if (rv && !ru) {
        ws.set_arrival(u, t, JourneyHop{v, u, t});
        changed = true;
      } else if (!ru && !rv) {
        ws.local_edges_.push_back(e);
      }
      return true;
    });
    while (changed) {
      changed = false;
      std::size_t live = 0;
      for (const EdgeId e : ws.local_edges_) {
        const VertexId u = csr.edge_u(e), v = csr.edge_v(e);
        const bool ru = ws.reached(u), rv = ws.reached(v);
        if (ru && !rv) {
          ws.set_arrival(v, t, JourneyHop{u, v, t});
          changed = true;
        } else if (rv && !ru) {
          ws.set_arrival(u, t, JourneyHop{v, u, t});
          changed = true;
        } else if (!ru && !rv) {
          ws.local_edges_[live++] = e;
        }
      }
      ws.local_edges_.resize(live);
    }

    if (stop_at != kInvalidVertex && ws.reached(stop_at)) return;

    std::size_t keep = 0;
    for (const VertexId w : ws.seeds_) {
      if (!ws.reached(w)) ws.seeds_[keep++] = w;
    }
    ws.seeds_.resize(keep);
  }
}

// The lane-packed replay of earliest_arrival: every decision the scalar
// kernel makes for lane l is a function of lane l's reached bits alone,
// so evaluating all lanes word-wide walks each lane through the exact
// scalar pass sequence (see multi_source.hpp for the full argument).
template <class Index>
void WorkspaceOps::earliest_arrival_batch(const Index& csr,
                                          std::span<const VertexId> sources,
                                          TimeUnit t_start,
                                          MultiSourceWorkspace& ws,
                                          bool record_via) {
  const std::size_t lanes = sources.size();
  assert(lanes >= 1 && lanes <= MultiSourceWorkspace::kMaxLanes);
  ws.bind(csr.vertex_count(), lanes, record_via);
  ws.begin_sweep();
  const std::uint64_t full = lanes == MultiSourceWorkspace::kMaxLanes
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << lanes) - 1;
  for (std::size_t l = 0; l < lanes; ++l) {
    assert(sources[l] < csr.vertex_count());
    // Sources arrive at t_start with no via hop, exactly like the
    // scalar set_arrival(source, t_start, JourneyHop{}). Duplicate
    // sources just accumulate bits on the same vertex.
    ws.fire(sources[l], std::uint64_t{1} << l, kInvalidVertex, t_start);
  }

  // pending_ = contact-bearing vertices some lane has yet to reach (the
  // union of every lane's scalar seeds_); the sweep is done when it
  // drains — each lane's state froze when its own seeds drained.
  refresh_contact_list(csr, ws);
  ws.pending_.clear();
  for (const VertexId v : ws.contact_list_) {
    if (ws.word(v) != full) ws.pending_.push_back(v);
  }

  for (TimeUnit t = t_start; t < csr.horizon() && !ws.pending_.empty(); ++t) {
    const std::size_t unit_size = csr.unit_size(t);
    if (unit_size == 0) continue;

    // A unit can fire iff some pending vertex has a contact at t with a
    // neighbor holding a bit it lacks — the word-wide generalization of
    // the scalar activity probe (lanes that cannot fire are untouched
    // by the passes below, so probing the union is exact per lane).
    bool active = false;
    if (ws.pending_.size() < unit_size) {
      for (const VertexId w : ws.pending_) {
        const std::uint64_t mw = ws.word(w);
        if (csr.find_contact_at(w, t, [&](VertexId nbr) {
              return (ws.word(nbr) & ~mw) != 0;
            })) {
          active = true;
          break;
        }
      }
    } else {
      csr.for_each_edge_at(t, [&](EdgeId e) {
        if (ws.word(csr.edge_u(e)) != ws.word(csr.edge_v(e))) {
          active = true;
          return false;
        }
        return true;
      });
    }
    if (!active) continue;

    // Same-unit closure, word-wide. Pass 1 covers the whole unit in
    // ascending edge id (per lane: the scalar pass 1); re-scans keep
    // the edges whose merged word is not yet full — per lane a superset
    // of the scalar both-unreached list whose extras can never fire
    // that lane (both endpoints already carry its bit).
    ws.live_edges_.clear();
    bool changed = false;
    const auto relax = [&](EdgeId e, std::size_t* live) {
      const VertexId u = csr.edge_u(e), v = csr.edge_v(e);
      const std::uint64_t mu = ws.word(u), mv = ws.word(v);
      if (mu != mv) {
        const std::uint64_t to_v = mu & ~mv;
        const std::uint64_t to_u = mv & ~mu;
        if (to_v != 0) ws.fire(v, to_v, u, t);
        if (to_u != 0) ws.fire(u, to_u, v, t);
        changed = true;
        if ((mu | mv) != full) {
          if (live != nullptr) {
            ws.live_edges_[(*live)++] = e;
          } else {
            ws.live_edges_.push_back(e);
          }
        }
      } else if (mu != full) {
        if (live != nullptr) {
          ws.live_edges_[(*live)++] = e;
        } else {
          ws.live_edges_.push_back(e);
        }
      }
    };
    csr.for_each_edge_at(t, [&](EdgeId e) {
      relax(e, nullptr);
      return true;
    });
    while (changed) {
      changed = false;
      std::size_t live = 0;
      for (const EdgeId e : ws.live_edges_) relax(e, &live);
      ws.live_edges_.resize(live);
    }

    std::size_t keep = 0;
    for (const VertexId w : ws.pending_) {
      if (ws.word(w) != full) ws.pending_[keep++] = w;
    }
    ws.pending_.resize(keep);
  }
}

// Fastest-journey departure profiles, one chronological pass for up to
// kMaxLanes lanes. Profile state, per lane l and vertex x: row(x)[l]
// holds d + 1 for the latest departure d >= lanes[l].t_start such that
// some journey source -> x departing at d has arrived by the time unit
// being processed (0 = none has). Each unit merges the rows over the
// unit's snapshot components — the union-find is built once for every
// lane, rows merge lane-wise into the roots and copy back out to the
// members — with a live lane's source contributing "depart now". Within
// a unit a message crosses any number of contacts, so a component's
// members all hold the component's latest departure afterwards. One pass
// is exact: whenever a lane's target row strictly improves to d at unit
// t, a journey departing at d arrives exactly at t, so t - d is a
// candidate span. A unit that leaves the row at d offers nothing new:
// the journey departing at d already arrived at an earlier unit, with a
// shorter span. So the minimum over the strict improvements is the
// fastest-journey span.
// Lanes share only the union-find, which depends on the unit alone, so
// every lane's result equals its one-lane run (multi_source.hpp).
template <class Index>
std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
WorkspaceOps::fastest_departure_batch(const Index& csr,
                                      std::span<const FastestLane> lanes,
                                      MultiSourceWorkspace& ws) {
  constexpr std::size_t kMaxLanes = MultiSourceWorkspace::kMaxLanes;
  const std::size_t count = lanes.size();
  assert(count >= 1 && count <= kMaxLanes);
  ws.bind(csr.vertex_count(), count, /*record_via=*/false);
  ws.bind_union_find(csr.vertex_count());
  ws.begin_sweep();

  std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>> best(count);
  std::array<TimeUnit, kMaxLanes> best_span;
  std::array<TimeUnit, kMaxLanes> before;  // target's row entering a unit
  TimeUnit t_first = kNeverTime;
  for (std::size_t l = 0; l < count; ++l) {
    assert(lanes[l].source < csr.vertex_count());
    assert(lanes[l].target < csr.vertex_count());
    assert(lanes[l].source != lanes[l].target);
    best_span[l] = kNeverTime;
    t_first = std::min(t_first, lanes[l].t_start);
  }
  // Lanes still recording candidates: a lane at span 0 is done (no
  // later candidate can be shorter).
  std::uint64_t open = count == kMaxLanes ? ~std::uint64_t{0}
                                          : (std::uint64_t{1} << count) - 1;
  auto& uf = ws.uf_;

  // find() with per-unit lazy init, path halving.
  std::uint32_t tick = 0;
  const auto find = [&](VertexId x) {
    if (uf[x].tick != tick) {
      uf[x] = {x, tick};
      ws.touched_.push_back(x);
      return x;
    }
    while (uf[x].parent != x) {
      uf[x].parent = uf[uf[x].parent].parent;
      x = uf[x].parent;
    }
    return x;
  };
  // A root's row, zero-filled ("nothing arrived") on first claim.
  const auto root_row = [&](VertexId r) {
    if (!ws.has_row(r)) {
      ws.claim_row(r);
      std::fill_n(ws.row(r), count, TimeUnit{0});
    }
    return ws.row(r);
  };

  for (TimeUnit t = t_first; t < csr.horizon() && open != 0; ++t) {
    if (csr.unit_size(t) == 0) continue;
    // Open lanes that have started. Before its t_start a lane's rows
    // are all empty and its source contributes nothing, so a unit with
    // no live lane changes nothing any open lane can observe.
    std::uint64_t live = 0;
    for (std::uint64_t bits = open; bits != 0; bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      if (t >= lanes[l].t_start) live |= std::uint64_t{1} << l;
    }
    if (live == 0) continue;

    tick = ws.next_unit_tick();
    ws.touched_.clear();
    csr.for_each_edge_at(t, [&](EdgeId e) {
      const VertexId ru = find(csr.edge_u(e)), rv = find(csr.edge_v(e));
      if (ru != rv) uf[ru].parent = rv;
      return true;
    });

    for (std::uint64_t bits = live; bits != 0; bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      const VertexId target = lanes[l].target;
      before[l] = ws.has_row(target) ? ws.row(target)[l] : 0;
    }

    // Gather: every member's row merges lane-wise into its root's (and
    // points straight at the root, so the scatter needs no find).
    for (const VertexId x : ws.touched_) {
      const VertexId r = find(x);
      uf[x].parent = r;
      if (r == x || !ws.has_row(x)) continue;
      TimeUnit* dst = root_row(r);
      const TimeUnit* src = ws.row(x);
      for (std::size_t l = 0; l < count; ++l) {
        dst[l] = std::max(dst[l], src[l]);
      }
    }
    // A live lane's source departs "now": t + 1 dominates every row.
    for (std::uint64_t bits = live; bits != 0; bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      const VertexId source = lanes[l].source;
      if (uf[source].tick == tick) root_row(uf[source].parent)[l] = t + 1;
    }
    // Scatter: members adopt their component's merged row (never lower
    // than their own, which the root row already absorbed).
    for (const VertexId x : ws.touched_) {
      const VertexId r = uf[x].parent;
      if (r == x || !ws.has_row(r)) continue;
      if (!ws.has_row(x)) ws.claim_row(x);
      std::copy_n(ws.row(r), count, ws.row(x));
    }

    for (std::uint64_t bits = live; bits != 0; bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      const VertexId target = lanes[l].target;
      if (uf[target].tick != tick || !ws.has_row(target)) continue;
      const TimeUnit d1 = ws.row(target)[l];
      if (d1 <= before[l]) continue;
      const TimeUnit span = t - (d1 - 1);
      if (span < best_span[l]) {
        best_span[l] = span;
        best[l] = {d1 - 1, t};
        if (span == 0) open &= ~(std::uint64_t{1} << l);
      }
    }
  }
  return best;
}

template <class Index>
std::optional<Journey> WorkspaceOps::minimum_hop(const Index& csr,
                                                 VertexId source,
                                                 VertexId target,
                                                 TimeUnit t_start,
                                                 TemporalWorkspace& ws) {
  assert(source < csr.vertex_count() && target < csr.vertex_count());
  if (source == target) return Journey{};
  ws.bind(csr.vertex_count());
  ws.begin_sweep();
  ws.reached_ = 0;

  const std::size_t n = csr.vertex_count();
  // ready(v) lives in arrival_ (epoch-stamped; unreached = kNeverTime).
  ws.set_arrival(source, t_start, JourneyHop{});
  ws.seeds_.assign(1, source);  // current frontier
  ws.via_flat_.clear();
  ws.layer_off_.assign(1, 0);

  for (std::size_t h = 0; h + 1 < n + 1; ++h) {
    // Settle the target before relaxing layer h. Its layer-h candidate
    // is the minimal (label, edge id) over edges e = (u, target) with u
    // in the frontier and label = first_label_at(e, ready(u)), and the
    // walk-back reads nothing else from layer h — so when such an edge
    // exists the journey is known without relaxing the layer (on random
    // queries the final layer holds most of the relaxations). Testing
    // reached(u) instead of frontier membership is exact: a reached u
    // outside the frontier kept the ready time it had in an earlier
    // frontier, where a finite label would already have settled the
    // target. for_each_incident yields ascending edge ids, so the first
    // strict label minimum is the (label, edge id) tie-break winner.
    VertexId last_from = kInvalidVertex;
    TimeUnit last_t = kNeverTime;
    csr.for_each_incident(target, [&](EdgeId e, VertexId u) {
      if (!ws.reached(u)) return true;
      const TimeUnit t = csr.first_label_at(e, ws.arrival_[u]);
      if (t < last_t) {
        last_t = t;
        last_from = u;
      }
      return true;
    });
    if (last_t != kNeverTime) {
      Journey j;
      j.hops.push_back(JourneyHop{last_from, target, last_t});
      VertexId cur = last_from;
      for (std::size_t layer = ws.layer_off_.size() - 1; layer-- > 0;) {
        if (cur == source) break;
        const auto lo = ws.via_flat_.begin() + ws.layer_off_[layer];
        const auto hi = ws.via_flat_.begin() + ws.layer_off_[layer + 1];
        const auto it = std::lower_bound(
            lo, hi, cur, [](const auto& p, VertexId v) { return p.first < v; });
        if (it == hi || it->first != cur) continue;  // reached earlier layer
        j.hops.push_back(it->second);
        cur = it->second.from;
      }
      assert(cur == source);
      std::reverse(j.hops.begin(), j.hops.end());
      return j;
    }

    // Per-layer candidate state in value_ (stamped by value_tick_):
    // value_[w] = best next-ready so far, value_edge_[w] = its edge id
    // (legacy takes the FIRST strict improvement in edge id scan order,
    // i.e. the minimal (label, edge id) pair among strict improvers —
    // the two directions of an edge target different vertices, so edge
    // id alone breaks ties). Only vertices improved in the previous
    // layer can strictly improve anything (an older ready[from] already
    // produced the same candidate one layer earlier), so relaxing only
    // frontier-incident contacts matches the full Bellman-Ford scan.
    const std::uint64_t tick = ws.next_tick();
    ws.newly_.clear();
    for (VertexId v : ws.seeds_) {
      const TimeUnit rv = ws.arrival_[v];
      // One candidate per distinct incident edge: its first live label
      // at or after ready(v) (later labels of the same edge lose the
      // (label, edge id) comparison to it, so skipping them changes
      // nothing).
      csr.for_each_incident(v, [&](EdgeId e, VertexId w) {
        const TimeUnit t = csr.first_label_at(e, rv);
        if (t == kNeverTime) return true;
        if (ws.value_tick_[w] == tick) {
          if (t < ws.value_[w] ||
              (t == ws.value_[w] && e < ws.value_edge_[w])) {
            ws.value_[w] = t;
            ws.value_edge_[w] = e;
            ws.hop_cand_[w] = JourneyHop{v, w, t};
          }
        } else if (!(ws.reached(w)) || t < ws.arrival_[w]) {
          ws.value_tick_[w] = tick;
          ws.value_[w] = t;
          ws.value_edge_[w] = e;
          ws.hop_cand_[w] = JourneyHop{v, w, t};
          ws.newly_.push_back(w);
        }
        return true;
      });
    }
    if (ws.newly_.empty()) return std::nullopt;

    std::sort(ws.newly_.begin(), ws.newly_.end());
    for (VertexId w : ws.newly_) {
      // The settle check above found no finite label into the target
      // from any reached vertex, so this layer cannot improve it.
      assert(w != target);
      if (!ws.reached(w)) {
        ws.set_arrival(w, ws.value_[w], ws.hop_cand_[w]);
      } else {
        ws.arrival_[w] = ws.value_[w];
      }
      ws.via_flat_.emplace_back(w, ws.hop_cand_[w]);
    }
    ws.layer_off_.push_back(ws.via_flat_.size());
    ws.seeds_.swap(ws.newly_);
  }
  return std::nullopt;
}

}  // namespace structnet::detail

namespace structnet {

template <class EndpointsOf, class LabelsOf>
TemporalCsr::TemporalCsr(std::size_t n, TimeUnit horizon, std::size_t m,
                         EndpointsOf&& endpoints_of, LabelsOf&& labels_of)
    : n_(n), horizon_(horizon) {
  STRUCTNET_OBS_SPAN("temporal.csr_build");
  static obs::Counter& builds =
      obs::MetricsRegistry::global().counter("temporal.csr_builds");
  builds.add();
  edge_u_.resize(m);
  edge_v_.resize(m);
  edge_label_offsets_.assign(m + 1, 0);
  std::vector<std::size_t> vertex_deg(n_, 0), adj_deg(n_, 0);
  std::vector<std::size_t> time_count(horizon_, 0);
  for (EdgeId e = 0; e < m; ++e) {
    const auto [u, v] = endpoints_of(e);
    const std::span<const TimeUnit> labels = labels_of(e);
    edge_u_[e] = u;
    edge_v_[e] = v;
    edge_label_offsets_[e + 1] = edge_label_offsets_[e] + labels.size();
    vertex_deg[u] += labels.size();
    vertex_deg[v] += labels.size();
    adj_deg[u] += !labels.empty();
    adj_deg[v] += !labels.empty();
    for (TimeUnit t : labels) ++time_count[t];
  }
  contact_count_ = edge_label_offsets_[m];

  // Per-edge label arrays: a straight copy (labels arrive ascending).
  edge_labels_.resize(contact_count_);
  for (EdgeId e = 0; e < m; ++e) {
    const std::span<const TimeUnit> labels = labels_of(e);
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
    for (TimeUnit t : labels_of(e)) stream_edge_[tfill[t]++] = e;
  }

  // Per-vertex contact regions, (time, edge id)-sorted, by counting: one
  // chronological walk over the finished stream visits contacts in
  // globally ascending (t, e), so appending each contact to both
  // endpoint regions fills every region already in order. O(C).
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

  // Distinct-edge adjacency (labelled edges only), filled in edge id
  // order so each vertex's range lists ids ascending — the tie-break
  // order the kernels need.
  adj_offsets_.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    adj_offsets_[v + 1] = adj_offsets_[v] + adj_deg[v];
  }
  adj_edge_.resize(adj_offsets_[n_]);
  adj_neighbor_.resize(adj_offsets_[n_]);
  std::vector<std::size_t> afill(adj_offsets_.begin(),
                                 adj_offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    if (labels_of(e).empty()) continue;
    const VertexId u = edge_u_[e], v = edge_v_[e];
    std::size_t i = afill[u]++;
    adj_edge_[i] = e;
    adj_neighbor_[i] = v;
    i = afill[v]++;
    adj_edge_[i] = e;
    adj_neighbor_[i] = u;
  }
}

}  // namespace structnet
