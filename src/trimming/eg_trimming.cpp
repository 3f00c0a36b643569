#include "trimming/eg_trimming.hpp"

#include <algorithm>
#include <cassert>

#include "algo/traversal.hpp"
#include "temporal/journeys.hpp"
#include "temporal/temporal_csr.hpp"

namespace structnet {

namespace {

/// Minimum-hop variant: direct contact or a single allowed intermediate.
bool short_replacement_exists(const TemporalGraph& eg, VertexId w,
                              VertexId banned, VertexId v, TimeUnit i,
                              TimeUnit j, std::span<const double> priority) {
  // Direct w -> v with a label in [i, j].
  const EdgeId direct = eg.find_edge(w, v);
  if (direct != kInvalidEdge) {
    const auto& labels = eg.edge(direct).labels;
    const auto it = std::lower_bound(labels.begin(), labels.end(), i);
    if (it != labels.end() && *it <= j) return true;
  }
  // Two hops w -l1-> x -l2-> v with i <= l1 <= l2 <= j and x allowed.
  for (EdgeId e1 : eg.incident_edges(w)) {
    const VertexId x = eg.other_endpoint(e1, w);
    if (x == banned || x == v || priority[x] <= priority[banned]) continue;
    const auto& l1s = eg.edge(e1).labels;
    const auto it1 = std::lower_bound(l1s.begin(), l1s.end(), i);
    if (it1 == l1s.end() || *it1 > j) continue;
    const TimeUnit l1 = *it1;  // smallest feasible first label widens [l1,j]
    const EdgeId e2 = eg.find_edge(x, v);
    if (e2 == kInvalidEdge) continue;
    const auto& l2s = eg.edge(e2).labels;
    const auto it2 = std::lower_bound(l2s.begin(), l2s.end(), l1);
    if (it2 != l2s.end() && *it2 <= j) return true;
  }
  return false;
}

/// A vertex some replacement journey must reach by the end of unit
/// `deadline`.
struct Target {
  VertexId v = kInvalidVertex;
  TimeUnit deadline = 0;
};

/// The replacement rules evaluated against one graph state. The graph's
/// contacts are bucketed by unit once (a counting sort, ascending edge
/// id within a unit); call rebucket() after the graph changes. A check
/// runs one constrained closure per (w, banned, departure label) and
/// reads every target off it: the closure never looks at its targets,
/// so each target's completion is the unit at which the closure first
/// reaches it — what a per-target run that stopped there returned.
class ReplacementChecker {
 public:
  /// `horizon_mask`, when given, confines relays to the marked vertices
  /// (the k-hop information horizon); it must outlive the checker.
  ReplacementChecker(const TemporalGraph& eg, std::span<const double> priority,
                     TrimVariant variant,
                     const std::vector<bool>* horizon_mask = nullptr)
      : eg_(eg),
        priority_(priority),
        variant_(variant),
        horizon_mask_(horizon_mask),
        have_(eg.vertex_count(), 0) {
    rebucket();
  }

  void rebucket() {
    // The minimum-hop variant never runs the closure.
    if (variant_ == TrimVariant::kMinimumHopPreserving) return;
    const TimeUnit horizon = eg_.horizon();
    unit_start_.assign(static_cast<std::size_t>(horizon) + 1, 0);
    for (const auto& edge : eg_.edges()) {
      for (const TimeUnit t : edge.labels) ++unit_start_[t + 1];
    }
    for (TimeUnit t = 0; t < horizon; ++t) unit_start_[t + 1] += unit_start_[t];
    contacts_.resize(unit_start_[horizon]);
    std::vector<std::size_t> next(unit_start_.begin(), unit_start_.end() - 1);
    for (const auto& edge : eg_.edges()) {
      for (const TimeUnit t : edge.labels) {
        contacts_[next[t]++] = {edge.u, edge.v};
      }
    }
  }

  /// True iff one journey closure from w, departing at or after t_start,
  /// never touching `banned` and relaying only through vertices of
  /// priority strictly greater than priority[banned] (and inside the
  /// horizon mask), reaches every target by its deadline. Stops at the
  /// first deadline that passes unreached; drops reached targets from
  /// `targets` as it goes.
  bool reaches_in_time(VertexId w, VertexId banned, TimeUnit t_start,
                       std::vector<Target>& targets) {
    const double floor_priority = priority_[banned];
    const std::uint64_t mark = ++mark_;
    have_[w] = mark;
    const auto can_relay = [&](VertexId x) {
      if (x == w) return true;
      if (priority_[x] <= floor_priority) return false;
      return horizon_mask_ == nullptr || (*horizon_mask_)[x];
    };
    for (TimeUnit t = t_start; t < eg_.horizon(); ++t) {
      const std::size_t lo = unit_start_[t], hi = unit_start_[t + 1];
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t c = lo; c < hi; ++c) {
          const auto [a, b] = contacts_[c];
          if (a == banned || b == banned) continue;
          const bool ha = have_[a] == mark, hb = have_[b] == mark;
          if (ha && !hb && can_relay(a)) {
            have_[b] = mark;
            changed = true;
          } else if (hb && !ha && can_relay(b)) {
            have_[a] = mark;
            changed = true;
          }
        }
      }
      std::size_t open = 0;
      for (const Target& x : targets) {
        if (have_[x.v] == mark) continue;
        if (x.deadline <= t) return false;
        targets[open++] = x;
      }
      targets.resize(open);
      if (open == 0) return true;
    }
    return targets.empty();
  }

  /// Shared engine for the link and node rules: every 2-hop path
  /// w -i-> u -j-> v has a replacement. Only the tightest j (smallest
  /// label >= i) needs checking: a replacement with last label <= j_min
  /// also serves every j > j_min.
  bool all_paths_replaceable(VertexId w, VertexId u) {
    const EdgeId wu = eg_.find_edge(w, u);
    if (wu == kInvalidEdge) return true;
    for (TimeUnit i : eg_.edge(wu).labels) {
      targets_.clear();
      for (EdgeId e : eg_.incident_edges(u)) {
        const VertexId v = eg_.other_endpoint(e, u);
        if (v == w) continue;
        const auto& out_labels = eg_.edge(e).labels;
        const auto it =
            std::lower_bound(out_labels.begin(), out_labels.end(), i);
        if (it != out_labels.end()) targets_.push_back({v, *it});
      }
      if (targets_.empty()) continue;
      // The minimum-hop variant checks its direct and one-intermediate
      // paths per target; otherwise one closure from (w, i) serves them
      // all.
      if (variant_ == TrimVariant::kMinimumHopPreserving) {
        for (const Target& x : targets_) {
          if (!short_replacement_exists(eg_, w, u, x.v, i, x.deadline,
                                        priority_)) {
            return false;
          }
        }
      } else if (!reaches_in_time(w, u, i, targets_)) {
        return false;
      }
    }
    return true;
  }

  bool can_trim_node(VertexId u) {
    for (EdgeId e : eg_.incident_edges(u)) {
      if (!all_paths_replaceable(eg_.other_endpoint(e, u), u)) return false;
    }
    return true;
  }

 private:
  struct Endpoints {
    VertexId u;
    VertexId v;
  };

  const TemporalGraph& eg_;
  std::span<const double> priority_;
  TrimVariant variant_;
  const std::vector<bool>* horizon_mask_;
  std::vector<std::size_t> unit_start_;  // horizon + 1 offsets
  std::vector<Endpoints> contacts_;      // by unit, edge id ascending
  std::vector<std::uint64_t> have_;      // == this closure's mark: reached
  std::uint64_t mark_ = 0;               // one per closure, never wraps
  std::vector<Target> targets_;
};

/// True iff some edge at u carries a label.
bool has_contacts(const TemporalGraph& eg, VertexId u) {
  return std::any_of(
      eg.incident_edges(u).begin(), eg.incident_edges(u).end(),
      [&](EdgeId e) { return !eg.edge(e).labels.empty(); });
}

}  // namespace

bool replacement_exists(const TemporalGraph& eg, VertexId w, VertexId banned,
                        VertexId v, TimeUnit i, TimeUnit j,
                        std::span<const double> priority,
                        TrimVariant variant) {
  assert(priority.size() == eg.vertex_count());
  if (variant == TrimVariant::kMinimumHopPreserving) {
    return short_replacement_exists(eg, w, banned, v, i, j, priority);
  }
  // No journey departing at i arrives by an earlier j, and a journey
  // back to w itself never counts (w is reached before any contact).
  if (j < i || v == w) return false;
  std::vector<Target> target{{v, j}};
  return ReplacementChecker(eg, priority, variant)
      .reaches_in_time(w, banned, i, target);
}

bool can_ignore_neighbor_khop(const TemporalGraph& eg, VertexId w, VertexId u,
                              std::span<const double> priority,
                              std::uint32_t k, TrimVariant variant) {
  const Graph footprint = eg.footprint();
  const auto nearby = k_hop_neighborhood(footprint, w, k);
  std::vector<bool> mask(eg.vertex_count(), false);
  for (VertexId x : nearby) mask[x] = true;
  return ReplacementChecker(eg, priority, variant, &mask)
      .all_paths_replaceable(w, u);
}

bool can_ignore_neighbor(const TemporalGraph& eg, VertexId w, VertexId u,
                         std::span<const double> priority,
                         TrimVariant variant) {
  return ReplacementChecker(eg, priority, variant).all_paths_replaceable(w, u);
}

bool can_trim_node(const TemporalGraph& eg, VertexId u,
                   std::span<const double> priority, TrimVariant variant) {
  return ReplacementChecker(eg, priority, variant).can_trim_node(u);
}

bool label_is_redundant(const TemporalGraph& eg, VertexId u, VertexId v,
                        TimeUnit t) {
  if (!eg.has_contact(u, v, t)) return false;
  const TemporalGraph pruned = eg.without_label(u, v, t);
  for (VertexId s = 0; s < eg.vertex_count(); ++s) {
    for (TimeUnit t0 = 0; t0 <= t; ++t0) {
      const auto before = earliest_arrival(eg, s, t0);
      const auto after = earliest_arrival(pruned, s, t0);
      if (before.completion != after.completion) return false;
    }
  }
  return true;
}

TrimResult trim_nodes(const TemporalGraph& eg,
                      std::span<const double> priority, TrimVariant variant) {
  assert(priority.size() == eg.vertex_count());
  TrimResult result;
  result.trimmed = eg;
  // Lowest-priority vertices are candidates first (they may be replaced
  // by anything above them).
  std::vector<VertexId> order(eg.vertex_count());
  for (VertexId v = 0; v < eg.vertex_count(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return priority[a] < priority[b];
  });
  ReplacementChecker check(result.trimmed, priority, variant);
  for (VertexId u : order) {
    // A vertex with no contacts is never a candidate: it would pass the
    // node rule vacuously, but only until the first removal's copy
    // drops its label-less edge records.
    if (!has_contacts(result.trimmed, u)) continue;
    if (check.can_trim_node(u)) {
      result.trimmed = result.trimmed.without_vertex(u);
      check.rebucket();
      result.removed_nodes.push_back(u);
    }
  }
  return result;
}

TrimResult trim_links(const TemporalGraph& eg,
                      std::span<const double> priority, TrimVariant variant) {
  assert(priority.size() == eg.vertex_count());
  TrimResult result;
  result.trimmed = eg;
  // Deterministic scan over the original edge list; each removal is
  // re-validated against the current (already-trimmed) graph.
  //
  // The replacement rule protects every journey that uses the link as an
  // intermediate segment. Journeys that START or END on the link itself
  // are protected by the additional endpoint guard: after removal, the
  // two endpoints must still reach each other at every start time they
  // could before (their completion may degrade, but never connectivity;
  // this also rejects the degenerate pendant case where the rule holds
  // vacuously).
  //
  // The guard sweeps an index of the current graph and one of the
  // candidate, which becomes current when the candidate is accepted.
  ReplacementChecker check(result.trimmed, priority, variant);
  TemporalCsr current(result.trimmed);
  TemporalWorkspace ws;
  const auto connected = [&ws](const TemporalCsr& csr, VertexId from,
                               VertexId to, TimeUnit t) {
    csr_earliest_arrival(csr, from, t, ws, to);
    return ws.arrival(to) != kNeverTime;
  };
  for (const auto& edge : eg.edges()) {
    const VertexId w = edge.u;
    const VertexId u = edge.v;
    if (result.trimmed.find_edge(w, u) == kInvalidEdge) continue;
    if (!check.all_paths_replaceable(w, u) ||
        !check.all_paths_replaceable(u, w)) {
      continue;
    }
    TemporalGraph candidate = result.trimmed.without_edge(w, u);
    TemporalCsr next(candidate);
    bool endpoints_ok = true;
    for (TimeUnit t = 0; t < eg.horizon() && endpoints_ok; ++t) {
      endpoints_ok =
          !(connected(current, w, u, t) && !connected(next, w, u, t)) &&
          !(connected(current, u, w, t) && !connected(next, u, w, t));
    }
    if (!endpoints_ok) continue;
    result.trimmed = std::move(candidate);
    current = std::move(next);
    check.rebucket();
    result.removed_links.emplace_back(w, u);
  }
  return result;
}

TrimResult trim_labels(const TemporalGraph& eg) {
  TrimResult result;
  result.trimmed = eg;
  TemporalGraph& g = result.trimmed;
  // Local criterion: the label t on (u, v) is redundant when u and v are
  // already joined at time t through other edges of the same snapshot
  // (transmission is instantaneous within a unit, so the detour costs
  // nothing and every journey through the removed contact still works).
  //
  // Per-time-unit edge buckets keep each redundancy check to a BFS over
  // the edges active in that one unit; removals update the bucket in
  // place, so the whole pass is near-linear in the number of contacts.
  std::vector<std::vector<EdgeId>> bucket(g.horizon());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    for (TimeUnit t : g.edge(e).labels) bucket[t].push_back(e);
  }
  // Connectivity of u..v within one bucket, excluding edge `skip`.
  const auto connected_without = [&](TimeUnit t, EdgeId skip, VertexId u,
                                     VertexId v) {
    std::vector<VertexId> stack{u};
    std::vector<bool> seen(g.vertex_count(), false);
    seen[u] = true;
    while (!stack.empty()) {
      const VertexId x = stack.back();
      stack.pop_back();
      for (EdgeId e : bucket[t]) {
        if (e == skip) continue;
        const auto& edge = g.edge(e);
        VertexId y = kInvalidVertex;
        if (edge.u == x) {
          y = edge.v;
        } else if (edge.v == x) {
          y = edge.u;
        } else {
          continue;
        }
        if (y == v) return true;
        if (!seen[y]) {
          seen[y] = true;
          stack.push_back(y);
        }
      }
    }
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (TimeUnit t = 0; t < g.horizon(); ++t) {
      for (std::size_t i = 0; i < bucket[t].size(); ++i) {
        const EdgeId e = bucket[t][i];
        const auto& edge = g.edge(e);
        if (connected_without(t, e, edge.u, edge.v)) {
          g.remove_label(edge.u, edge.v, t);
          bucket[t].erase(bucket[t].begin() +
                          static_cast<std::ptrdiff_t>(i));
          --i;
          ++result.removed_labels;
          changed = true;
        }
      }
    }
  }
  return result;
}

bool preserves_reachability(const TemporalGraph& original,
                            const TemporalGraph& trimmed,
                            const std::vector<bool>& alive,
                            bool check_completion) {
  assert(original.vertex_count() == trimmed.vertex_count());
  assert(alive.size() == original.vertex_count());
  for (VertexId s = 0; s < original.vertex_count(); ++s) {
    if (!alive[s]) continue;
    for (TimeUnit t0 = 0; t0 < original.horizon(); ++t0) {
      const auto before = earliest_arrival(original, s, t0);
      const auto after = earliest_arrival(trimmed, s, t0);
      for (VertexId v = 0; v < original.vertex_count(); ++v) {
        if (!alive[v]) continue;
        if (check_completion) {
          if (before.completion[v] != after.completion[v]) return false;
        } else {
          const bool was = before.completion[v] != kNeverTime;
          const bool is = after.completion[v] != kNeverTime;
          if (was && !is) return false;
        }
      }
    }
  }
  return true;
}

}  // namespace structnet
