// Directed simple graph with both out- and in-adjacency maintained.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace structnet {

/// A directed simple graph (no parallel arcs, no self-loops).
class Digraph {
 public:
  struct Arc {
    VertexId from = kInvalidVertex;
    VertexId to = kInvalidVertex;

    friend bool operator==(const Arc&, const Arc&) = default;
  };

  Digraph() = default;
  explicit Digraph(std::size_t n) : out_(n), in_(n) {}

  std::size_t vertex_count() const { return out_.size(); }
  std::size_t arc_count() const { return arcs_.size(); }

  VertexId add_vertex();

  /// Adds arc from -> to. Requires distinct in-range endpoints and the
  /// arc not already present (checked in debug builds).
  EdgeId add_arc(VertexId from, VertexId to);

  /// Adds the arc only when absent; returns kInvalidEdge when skipped.
  EdgeId add_arc_unique(VertexId from, VertexId to);

  bool has_arc(VertexId from, VertexId to) const;

  std::span<const VertexId> out_neighbors(VertexId v) const { return out_[v]; }
  std::size_t out_degree(VertexId v) const { return out_[v].size(); }
  std::size_t in_degree(VertexId v) const { return in_[v].size(); }

  std::span<const Arc> arcs() const { return arcs_; }

  /// Returns the digraph with every arc reversed.
  Digraph reversed() const;

  /// Forgets orientation: returns the underlying undirected simple graph
  /// (antiparallel arc pairs collapse to one edge).
  class Graph to_undirected() const;

  friend bool operator==(const Digraph&, const Digraph&) = default;

 private:
  std::vector<std::vector<VertexId>> out_;
  std::vector<std::vector<VertexId>> in_;
  std::vector<Arc> arcs_;
};

}  // namespace structnet
