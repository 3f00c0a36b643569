// Versioned dynamic graph: the mutable "current" view of the stream.
//
// Every accepted event bumps an epoch counter and is appended to the
// event log. The graph holds only the epoch it serves: the live
// adjacency, which materialize() copies into a static Graph, plus the
// epoch-0 graph. History lives in the log, so any past epoch is a
// replay of log() over initial() (what a checkpoint stores).
//
// Vertex ids are stable for the lifetime of the graph: a leaving node
// keeps its id (marked dead) and may later revive via NodeJoin(id).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"
#include "stream/event.hpp"

namespace structnet {

/// Why a submitted event was rejected. kNone marks accepted events; the
/// rest form the per-reason taxonomy StreamEngine counts.
enum class RejectReason : std::uint8_t {
  kNone = 0,        // accepted
  kUnknownVertex,   // an endpoint id beyond vertex_count()
  kDeadVertex,      // an endpoint departed and was not revived
  kSelfLoop,        // u == v
  kDuplicateEdge,   // EdgeInsert of an edge already present
  kMissingEdge,     // EdgeDelete of an edge not present
  kAlreadyAlive,    // NodeJoin revival target is alive (or a gap id)
};
inline constexpr std::size_t kRejectReasonCount = 7;

/// Short stable name for logs / bench JSON ("none", "unknown_vertex", ...).
std::string_view to_string(RejectReason reason);

/// What an accepted event actually did, in normalized form. Observers
/// receive this alongside the event so they never re-derive effects
/// (e.g. which edges a NodeLeave dropped) from mutated state.
struct EventEffect {
  bool accepted = false;
  /// Why the event was rejected (kNone when accepted).
  RejectReason reject = RejectReason::kNone;
  /// NodeJoin: the id the node received (fresh or revived).
  VertexId vertex = kInvalidVertex;
  /// NodeLeave: the incident edges that were removed, in adjacency order.
  std::vector<Graph::Edge> removed_edges;
};

class DynamicGraph {
 public:
  DynamicGraph() = default;
  /// Starts from a static graph (epoch 0); all vertices alive.
  explicit DynamicGraph(const Graph& g);
  /// Starts from `n` isolated alive vertices (epoch 0).
  explicit DynamicGraph(std::size_t n);

  std::size_t vertex_count() const { return adjacency_.size(); }
  std::size_t alive_count() const { return alive_count_; }
  std::size_t edge_count() const { return edge_count_; }
  bool alive(VertexId v) const { return alive_[v]; }
  const std::vector<VertexId>& neighbors(VertexId v) const {
    return adjacency_[v];
  }
  std::size_t degree(VertexId v) const { return adjacency_[v].size(); }
  bool has_edge(VertexId u, VertexId v) const;

  /// Number of accepted events so far (== current epoch), served from a
  /// dedicated counter so hot paths (serving-layer cache keys, observer
  /// invalidation hooks) never touch the log container.
  ///
  /// Monotonicity guarantee: the epoch starts at 0, every ACCEPTED event
  /// advances it by exactly one, and rejected events leave it (and the
  /// graph) untouched — so epoch() is strictly monotone over accepted
  /// events and two reads returning the same value bracket an interval
  /// with no graph change. The serve-layer result cache relies on this:
  /// a result cached at one epoch can never be served for a different
  /// graph state. apply() asserts the counter stays in lock-step with
  /// the event log.
  std::uint64_t epoch() const { return epoch_; }
  /// The normalized log of accepted events (index = epoch at application).
  const std::vector<Event>& log() const { return log_; }

  /// Validates and applies one event. Rejected events (dangling ids,
  /// duplicate edges, dead endpoints, ...) leave the graph and the epoch
  /// untouched and return effect.accepted == false.
  EventEffect apply(const Event& event);

  /// The current static graph (dead vertices present but isolated). A
  /// pure read of the live adjacency: concurrent calls are safe while no
  /// thread applies events.
  Graph materialize() const;
  /// The static graph at epoch 0. Replaying log() over it reproduces
  /// materialize() edge for edge.
  const Graph& initial() const { return initial_; }

 private:
  std::vector<std::vector<VertexId>> adjacency_;
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
  std::size_t edge_count_ = 0;
  std::vector<Event> log_;
  /// == log_.size(); kept separately as the epoch() fast path.
  std::uint64_t epoch_ = 0;
  Graph initial_;
};

}  // namespace structnet
