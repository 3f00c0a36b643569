// Compressed sparse row (CSR) view of a Graph: contiguous neighbor
// storage, sorted ascending per vertex. The adjacency of the lane-packed
// closeness and betweenness sweeps (centrality/centrality.cpp), whose
// summation order is this ascending neighbor order. Built once from a
// Graph; immutable afterwards.
#pragma once

#include <span>
#include <vector>

#include "core/graph.hpp"

namespace structnet {

class CsrGraph {
 public:
  CsrGraph() = default;
  explicit CsrGraph(const Graph& g);

  std::size_t vertex_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t edge_count() const { return neighbors_.size() / 2; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            offsets_[v + 1] - offsets_[v]};
  }
  std::size_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

 private:
  std::vector<std::size_t> offsets_;   // n + 1 entries
  std::vector<VertexId> neighbors_;    // 2m entries, sorted per vertex
};

}  // namespace structnet
