// Time-evolving graph (EG) of Sec. II-B.
//
// G_0, G_1, ..., G_k is an ordered sequence of spanning subgraphs over
// time units t_0..t_k; the EG stores, per edge (u, v), the label set
// { i | (u, v) in E_i }. Message transmission over a contact is
// instantaneous, so a journey is a path whose edge labels are
// non-decreasing.
//
// The streaming view (stream/observers.hpp) maintains one in place.
// Edge ids follow first touch and survive remove_label and
// grow_vertices, so one mutation sequence always yields equal graphs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace structnet {

/// A single contact: edge (u, v) active during time unit `t`.
struct Contact {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  TimeUnit t = 0;

  friend bool operator==(const Contact&, const Contact&) = default;
};

/// The time-evolving graph EG: vertices 0..n-1, horizon time units
/// 0..horizon-1, and per-edge sorted label sets.
class TemporalGraph {
 public:
  /// An edge with its label set (sorted ascending, no duplicates).
  struct LabeledEdge {
    VertexId u = kInvalidVertex;
    VertexId v = kInvalidVertex;
    std::vector<TimeUnit> labels;

    friend bool operator==(const LabeledEdge&, const LabeledEdge&) = default;
  };

  TemporalGraph() = default;
  TemporalGraph(std::size_t n, TimeUnit horizon)
      : incident_(n), horizon_(horizon) {}

  std::size_t vertex_count() const { return incident_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  TimeUnit horizon() const { return horizon_; }

  /// Registers that (u, v) is active during time unit t (t < horizon).
  /// Idempotent; keeps label sets sorted. Returns whether the contact
  /// was new.
  bool add_contact(VertexId u, VertexId v, TimeUnit t);

  /// Adds an edge with a whole label set at once.
  void add_edge_labels(VertexId u, VertexId v, std::span<const TimeUnit> labels);

  /// All labeled edges.
  std::span<const LabeledEdge> edges() const { return edges_; }

  /// Edge ids incident to v.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    return incident_[v];
  }
  const LabeledEdge& edge(EdgeId e) const { return edges_[e]; }

  /// The other endpoint of edge e relative to v.
  VertexId other_endpoint(EdgeId e, VertexId v) const {
    return edges_[e].u == v ? edges_[e].v : edges_[e].u;
  }

  /// True iff (u, v) is active during time unit t.
  bool has_contact(VertexId u, VertexId v, TimeUnit t) const;

  /// Edge id of (u, v), or kInvalidEdge.
  EdgeId find_edge(VertexId u, VertexId v) const;

  /// Snapshot G_t: the static graph of edges active during time unit t.
  Graph snapshot(TimeUnit t) const;

  /// The union graph ("footprint"): edge iff active at any time.
  Graph footprint() const;

  /// All contacts expanded (one Contact per (edge, label)), sorted by
  /// time then edge insertion order.
  std::vector<Contact> contacts() const;

  /// Builds an EG from an ordered sequence of same-size snapshots.
  static TemporalGraph from_snapshots(std::span<const Graph> snapshots);

  /// Copy with one vertex's incident edges removed (for trimming).
  TemporalGraph without_vertex(VertexId v) const;

  /// Copy with one edge removed entirely.
  TemporalGraph without_edge(VertexId u, VertexId v) const;

  /// Copy with one label removed from one edge (no-op if absent).
  TemporalGraph without_label(VertexId u, VertexId v, TimeUnit t) const;

  /// Removes one label in place; returns false when the contact did not
  /// exist. The edge record remains (possibly with an empty label set) so
  /// edge ids stay stable.
  bool remove_label(VertexId u, VertexId v, TimeUnit t);

  /// Extends the vertex space to n (new vertices start contact-free);
  /// no-op when n is not larger than the current count. Edge ids stay.
  void grow_vertices(std::size_t n);

  /// Structural equality (same vertices, horizon, edge records in the
  /// same order with identical label sets). Used by streaming observers
  /// to assert incremental maintenance matches a from-scratch rebuild.
  friend bool operator==(const TemporalGraph&, const TemporalGraph&) = default;

 private:
  std::vector<std::vector<EdgeId>> incident_;
  std::vector<LabeledEdge> edges_;
  TimeUnit horizon_ = 0;
};

}  // namespace structnet
