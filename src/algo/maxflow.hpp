// Maximum flow: Dinic's algorithm and the Malhotra–Pramodh-Kumar–
// Maheshwari (MPM) O(|V|^3) algorithm the paper cites ([17]) as the
// height-based destination-oriented-DAG application (Sec. III-B).
//
// Both algorithms run phases over the same layered ("level") network,
// which is itself a destination-oriented DAG: levels play the role of the
// node heights discussed in the paper, and all flow moves along arcs
// oriented from higher to lower BFS level.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace structnet {

/// A flow network over dense vertices with integer capacities.
///
/// Arcs are stored with their residual twins at paired indices (2k, 2k+1),
/// the standard residual-graph representation.
class FlowNetwork {
 public:
  explicit FlowNetwork(std::size_t n) : head_(n) {}

  std::size_t vertex_count() const { return head_.size(); }

  /// Adds a directed arc u -> v with the given capacity. Returns the arc
  /// index (its residual twin is index+1).
  std::size_t add_arc(VertexId u, VertexId v, std::int64_t capacity);

  /// Flow currently assigned to the arc returned by add_arc.
  std::int64_t flow_on(std::size_t arc) const;

  /// Resets all flow to zero (keeps topology and capacities).
  void reset_flow();

  /// Max flow via Dinic. Also usable as a correctness oracle for MPM.
  std::int64_t max_flow_dinic(VertexId source, VertexId sink);

  /// Max flow via MPM node-potential phases; O(|V|^3).
  std::int64_t max_flow_mpm(VertexId source, VertexId sink);

  /// Number of level-network phases the last max_flow_* call ran: each
  /// phase rebuilds the BFS "heights" and pushes a blocking flow — the
  /// rounds of height adjustment the paper's Sec. III-B describes.
  std::size_t last_phase_count() const { return phases_; }

  /// Minimum s-t cut (source side) for the current flow; call after one of
  /// the max_flow_* methods.
  std::vector<bool> min_cut_source_side(VertexId source) const;

  /// BFS levels of the current residual graph (kNeverTime = unreachable).
  /// Exposed because the levels form the "heights" of the layered DAG.
  std::vector<std::uint32_t> residual_levels(VertexId source) const;

 private:
  struct Arc {
    VertexId to;
    std::int64_t residual;  // remaining capacity
    std::int64_t cap0;      // original capacity (0 for residual twins)
  };

  bool bfs_levels(VertexId source, VertexId sink);
  std::int64_t dinic_dfs(VertexId v, VertexId sink, std::int64_t pushed);
  std::int64_t run_mpm_phase(VertexId source, VertexId sink);

  std::vector<std::vector<std::size_t>> head_;  // arc indices per vertex
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> level_;
  std::vector<std::size_t> iter_;
  std::size_t phases_ = 0;
};

}  // namespace structnet
