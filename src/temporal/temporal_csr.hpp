// Flat time-indexed contact CSR over a TemporalGraph, plus the
// single-pass temporal-path kernels that run on it.
//
// Every temporal metric (closeness/betweenness, characteristic temporal
// path length, flooding time, dynamic diameter, time-t-connectivity)
// bottoms out in earliest-arrival sweeps. The legacy kernels in
// journeys.cpp re-bucket the whole contact stream per call and scan the
// entire horizon; TemporalCsr is the build-once index that makes each
// sweep touch only the contacts of vertices the message actually
// reaches:
//
//   * per-vertex contacts, time-sorted and flat: for each vertex, a
//     contiguous (time, neighbor, edge) array sorted by (time, edge id),
//     so "first contact of v at or after time t" is one lower_bound and
//     a linear walk;
//   * a global time-ordered contact stream with per-time-unit offsets
//     (the flat equivalent of bucket_by_time), so per-unit snapshots
//     are contiguous spans in edge-id order;
//   * distinct-edge adjacency plus per-edge sorted label arrays, so
//     "first use of edge e at or after time t" is one lower_bound
//     (the min-hop kernel relaxes one candidate per incident edge
//     instead of walking every contact).
//
// The kernels carry their per-sweep state in a reusable, epoch-stamped
// TemporalWorkspace: arrays are sized once per graph and invalidated by
// bumping a 64-bit epoch instead of clearing, so an all-sources sweep
// performs zero allocations after the first source.
//
// Determinism contract: csr_earliest_arrival reproduces the legacy
// earliest_arrival() via trees BIT-FOR-BIT (same completion times, same
// predecessor hops). The legacy kernel resolves same-time-unit closure
// by repeatedly scanning the unit's active edges in edge id order until
// a fixed point; the CSR kernel runs the identical fixed-point loop
// over the unit's contiguous edge span (same edge-id order, so the same
// firing sequence and thus the same via hops), with three exact
// shortcuts the legacy pass structure cannot express:
//   * it tracks the shrinking set of still-unreached vertices; a unit
//     where no unreached vertex has a contact with a reached neighbor
//     cannot fire anything (the legacy first pass is a no-op), so it is
//     skipped after one lower_bound per unreached vertex;
//   * within a unit, re-scan passes only revisit edges whose endpoints
//     were both unreached at the previous scan — edges with both ends
//     reached can never fire again, so dropping them preserves the
//     firing sequence;
//   * the sweep ends as soon as every vertex that has any contact is
//     reached (vertices without contacts are unreachable in the legacy
//     kernel too).
// This is what lets the converted callers (temporal betweenness walks
// via chains!) keep legacy-identical results.
//
// Rebuild-on-mutation contract (revised): TemporalCsr itself is an
// immutable snapshot of the TemporalGraph it was built from — mutating
// the graph (add_contact, remove_label, ...) does NOT invalidate the
// index lazily, and callers that hold a bare TemporalCsr must rebuild.
// For churny callers the intended pattern is no longer rebuild-per-
// mutation: DeltaTemporalCsr (temporal_delta.hpp) wraps an immutable
// base TemporalCsr plus compact sorted delta arrays, absorbs
// add_contact/remove_label in O(log delta) each, serves the same
// kernels bit-identically through a merged base+delta view, and folds
// the delta into a fresh base only when a size-ratio compaction policy
// triggers. Build-once-per-analysis remains the right pattern for
// static traces; DeltaTemporalCsr is the right pattern when the trace
// keeps evolving under a query stream (see QueryBroker).
//
// The kernels themselves are templates over the index (internal header
// temporal_kernels.hpp), and so are the public csr_* entry points here
// and in multi_source.hpp: each is declared once and instantiated in
// temporal_csr.cpp for TemporalCsr and DeltaTemporalCsr. Fastest
// journeys have one kernel, the lane-packed csr_fastest_departure_batch;
// csr_fastest_departure below runs it on one lane.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "temporal/journeys.hpp"
#include "temporal/temporal_graph.hpp"

namespace structnet {

namespace detail {
struct WorkspaceOps;

/// Globally unique index-state token. Every index construction — and
/// every mutation of a DeltaTemporalCsr — takes a fresh one, so a
/// workspace can cache per-index derived state (the has-contacts vertex
/// list) keyed by a single 64-bit compare instead of re-deriving it
/// O(n) on every sweep. 0 is never returned (it marks "no cache").
inline std::uint64_t next_index_state_id() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

/// Immutable cache-friendly index over a TemporalGraph's contacts.
class TemporalCsr {
 public:
  TemporalCsr() = default;
  explicit TemporalCsr(const TemporalGraph& eg);

  std::size_t vertex_count() const { return n_; }
  /// Edge records (including edges whose label sets were emptied by
  /// remove_label — they contribute no contacts but keep ids stable).
  std::size_t edge_count() const { return edge_u_.size(); }
  /// Total number of (edge, label) contacts.
  std::size_t contact_count() const { return contact_count_; }
  TimeUnit horizon() const { return horizon_; }
  /// Unique token of this immutable snapshot (workspace cache key; see
  /// detail::next_index_state_id).
  std::uint64_t state_id() const { return state_id_; }

  VertexId edge_u(EdgeId e) const { return edge_u_[e]; }
  VertexId edge_v(EdgeId e) const { return edge_v_[e]; }

  // ---- per-vertex time-sorted contacts (indices into flat arrays)

  std::size_t contacts_begin(VertexId v) const { return vertex_offsets_[v]; }
  std::size_t contacts_end(VertexId v) const { return vertex_offsets_[v + 1]; }
  TimeUnit contact_time(std::size_t i) const { return contact_time_[i]; }
  VertexId contact_neighbor(std::size_t i) const { return contact_neighbor_[i]; }
  EdgeId contact_edge(std::size_t i) const { return contact_edge_[i]; }

  /// Index of v's first contact with time >= t (contacts_end(v) if none).
  std::size_t first_contact_at(VertexId v, TimeUnit t) const;

  // ---- distinct-edge adjacency (edges with at least one label only,
  //      ascending edge id within each vertex's range)

  std::size_t incident_begin(VertexId v) const { return adj_offsets_[v]; }
  std::size_t incident_end(VertexId v) const { return adj_offsets_[v + 1]; }
  EdgeId incident_edge(std::size_t i) const { return adj_edge_[i]; }
  VertexId incident_neighbor(std::size_t i) const { return adj_neighbor_[i]; }

  /// Edge e's label set, ascending (empty for emptied edges).
  std::span<const TimeUnit> edge_labels(EdgeId e) const {
    return {edge_labels_.data() + edge_label_offsets_[e],
            edge_label_offsets_[e + 1] - edge_label_offsets_[e]};
  }

  // ---- global time-ordered contact stream

  /// Edge ids active during time unit t, in edge id order (the flat
  /// equivalent of the legacy per-call bucket_by_time buckets).
  std::span<const EdgeId> edges_at(TimeUnit t) const {
    return {stream_edge_.data() + time_offsets_[t],
            time_offsets_[t + 1] - time_offsets_[t]};
  }

  // ---- kernel iteration interface (shared shape with DeltaTemporalCsr;
  //      contract documented in temporal_kernels.hpp)

  bool has_contacts(VertexId v) const {
    return vertex_offsets_[v] != vertex_offsets_[v + 1];
  }
  std::size_t unit_size(TimeUnit t) const {
    return time_offsets_[t + 1] - time_offsets_[t];
  }
  /// Any contact of v at exactly time t whose neighbor satisfies pred?
  template <class Pred>
  bool find_contact_at(VertexId v, TimeUnit t, Pred&& pred) const {
    for (std::size_t i = first_contact_at(v, t);
         i < vertex_offsets_[v + 1] && contact_time_[i] == t; ++i) {
      if (pred(contact_neighbor_[i])) return true;
    }
    return false;
  }
  /// f(EdgeId) over unit t in ascending edge id order; f returns false
  /// to stop early.
  template <class Fn>
  void for_each_edge_at(TimeUnit t, Fn&& f) const {
    for (const EdgeId e : edges_at(t)) {
      if (!f(e)) return;
    }
  }
  /// f(EdgeId, VertexId neighbor) over v's distinct incident edges in
  /// ascending edge id order; f returns false to stop early.
  template <class Fn>
  void for_each_incident(VertexId v, Fn&& f) const {
    for (std::size_t i = adj_offsets_[v]; i < adj_offsets_[v + 1]; ++i) {
      if (!f(adj_edge_[i], adj_neighbor_[i])) return;
    }
  }
  /// Earliest label of e at or after t (kNeverTime when none).
  TimeUnit first_label_at(EdgeId e, TimeUnit t) const {
    const auto labels = edge_labels(e);
    const auto it = std::lower_bound(labels.begin(), labels.end(), t);
    return it == labels.end() ? kNeverTime : *it;
  }

 private:
  friend class DeltaTemporalCsr;
  /// The one builder (temporal_kernels.hpp): edge e < m joins the pair
  /// endpoints_of(e) with the ascending span labels_of(e); an edge
  /// without labels keeps its record and stays out of the adjacency.
  template <class EndpointsOf, class LabelsOf>
  TemporalCsr(std::size_t n, TimeUnit horizon, std::size_t m,
              EndpointsOf&& endpoints_of, LabelsOf&& labels_of);

  std::size_t n_ = 0;
  TimeUnit horizon_ = 0;
  std::size_t contact_count_ = 0;
  std::uint64_t state_id_ = detail::next_index_state_id();
  std::vector<VertexId> edge_u_, edge_v_;       // per edge record
  std::vector<std::size_t> vertex_offsets_;     // n + 1
  std::vector<TimeUnit> contact_time_;          // 2C, per-vertex regions
  std::vector<VertexId> contact_neighbor_;      // 2C
  std::vector<EdgeId> contact_edge_;            // 2C
  std::vector<std::size_t> adj_offsets_;        // n + 1
  std::vector<EdgeId> adj_edge_;                // distinct incident edges
  std::vector<VertexId> adj_neighbor_;          // other endpoint per entry
  std::vector<std::size_t> edge_label_offsets_; // m + 1
  std::vector<TimeUnit> edge_labels_;           // C, per-edge ascending
  std::vector<std::size_t> time_offsets_;       // horizon + 1
  std::vector<EdgeId> stream_edge_;             // C, per-unit in edge order
};

/// Reusable per-thread scratch for the CSR kernels. Arrays are sized to
/// the bound graph once; each sweep bumps a 64-bit epoch so stale
/// entries are ignored without clearing (zero allocations per source
/// after the first sweep on a graph of the same shape). One workspace
/// serves one thread; all-sources parallel sweeps hand one workspace
/// per worker slot through parallel_for_shards.
class TemporalWorkspace {
 public:
  /// Completion time of v in the last earliest-arrival sweep
  /// (kNeverTime when unreached).
  TimeUnit arrival(VertexId v) const {
    return stamp_[v] == epoch_ ? arrival_[v] : kNeverTime;
  }
  /// Contact used to reach v ({kInvalidVertex, ...} for the source or
  /// unreached vertices) — identical to the legacy EarliestArrival::via.
  JourneyHop via(VertexId v) const {
    return stamp_[v] == epoch_ ? via_[v] : JourneyHop{};
  }
  /// Vertices reached by the last earliest-arrival sweep (incl. source).
  std::size_t reached_count() const { return reached_; }

  /// Materializes the last sweep as the legacy result struct.
  EarliestArrival to_earliest_arrival() const;
  /// Backtracks the via chain of the last earliest-arrival sweep from
  /// `target` to `source` into a realized journey. Requires that sweep
  /// to have started at `source` and reached `target`.
  Journey journey(VertexId source, VertexId target) const;

 private:
  friend struct detail::WorkspaceOps;

  void bind(std::size_t n);
  std::uint64_t begin_sweep() { return ++epoch_; }
  std::uint64_t next_tick() { return ++tick_; }
  bool reached(VertexId v) const { return stamp_[v] == epoch_; }
  void set_arrival(VertexId v, TimeUnit t, const JourneyHop& hop) {
    stamp_[v] = epoch_;
    arrival_[v] = t;
    via_[v] = hop;
    ++reached_;
  }

  std::size_t n_ = 0;
  std::uint64_t epoch_ = 0, tick_ = 0;
  std::size_t reached_ = 0;
  std::vector<std::uint64_t> stamp_;       // arrival_/via_ valid markers
  std::vector<TimeUnit> arrival_;          // n (also: min-hop ready)
  std::vector<JourneyHop> via_;            // n
  std::vector<std::uint64_t> value_tick_;  // n, min-hop layer marks
  std::vector<TimeUnit> value_;            // n, min-hop next_ready
  std::vector<EdgeId> value_edge_;         // n, via tie-break edge ids
  std::vector<JourneyHop> hop_cand_;       // n, candidate via hops
  // seeds_: EA unreached list / min-hop frontier; newly_: vertices
  // improved this layer.
  std::vector<VertexId> seeds_, newly_;
  std::vector<EdgeId> local_edges_;        // EA per-unit live re-scan list
  // Sparse per-layer via records for min-hop reconstruction: layer k is
  // via_flat_[layer_off_[k] .. layer_off_[k + 1]), sorted by vertex.
  std::vector<std::pair<VertexId, JourneyHop>> via_flat_;
  std::vector<std::size_t> layer_off_;
  // Has-contacts vertex list cached per index state: all-pairs sweeps
  // rebuild seeds_ from this O(reachable) copy instead of re-testing
  // has_contacts O(n) per source (WorkspaceOps::refresh_contact_list).
  std::uint64_t contact_state_ = 0;
  std::vector<VertexId> contact_list_;
};

/// Boundary-driven earliest arrival from `source` departing at or after
/// `t_start`; results land in `ws` (ws.arrival / ws.via). Bit-identical
/// to legacy earliest_arrival(), but skips no-op time units via one
/// lower_bound per still-unreached vertex, compacts the same-unit
/// fixed-point re-scan list, and stops as soon as every reachable
/// vertex is reached or `stop_at` is reached (pass kInvalidVertex for a
/// full sweep; partial results past the stop vertex's time unit are
/// then unspecified). `Index` is TemporalCsr or DeltaTemporalCsr, whose
/// merged base + delta sweeps bit-identically to a fresh rebuild.
template <class Index>
void csr_earliest_arrival(const Index& csr, VertexId source, TimeUnit t_start,
                          TemporalWorkspace& ws,
                          VertexId stop_at = kInvalidVertex);

/// The (departure, arrival) pair of a span-minimal source -> target
/// journey departing at or after t_start (std::nullopt when
/// unreachable): a one-lane csr_fastest_departure_batch
/// (multi_source.hpp) over a call-local workspace. The TemporalWorkspace
/// is unused. Requires source != target.
std::optional<std::pair<TimeUnit, TimeUnit>> csr_fastest_departure(
    const TemporalCsr& csr, VertexId source, VertexId target, TimeUnit t_start,
    TemporalWorkspace& ws);

/// Minimum-hop journey source -> target departing at or after t_start.
/// Layered search that relaxes only the edges incident to vertices
/// improved in the previous layer — one lower_bound into the edge's
/// label array per incident edge (instead of the legacy Bellman-Ford
/// over every edge per layer). Before relaxing a layer it checks the
/// target's edges to reached vertices and returns as soon as one
/// offers a label, so the final (largest) layer is never relaxed;
/// returns the exact legacy journey (same hops) by reproducing its
/// (label, edge id) tie-breaking — on a DeltaTemporalCsr too, whose
/// delta-created last hop (a larger id) loses a label tie to a base one.
template <class Index>
std::optional<Journey> csr_minimum_hop_journey(const Index& csr,
                                               VertexId source, VertexId target,
                                               TimeUnit t_start,
                                               TemporalWorkspace& ws);

}  // namespace structnet
