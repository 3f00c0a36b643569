#include "stream/dynamic_graph.hpp"

#include <algorithm>
#include <cassert>

namespace structnet {

namespace {

/// Ordered erase of `x` from `list`, which holds it. Order preservation
/// matters: materialize() and a replay of the log must produce the same
/// adjacency, and hence the same Graph, edge for edge.
void erase_neighbor(std::vector<VertexId>& list, VertexId x) {
  const auto it = std::find(list.begin(), list.end(), x);
  assert(it != list.end());
  list.erase(it);
}

}  // namespace

std::string_view to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kUnknownVertex:
      return "unknown_vertex";
    case RejectReason::kDeadVertex:
      return "dead_vertex";
    case RejectReason::kSelfLoop:
      return "self_loop";
    case RejectReason::kDuplicateEdge:
      return "duplicate_edge";
    case RejectReason::kMissingEdge:
      return "missing_edge";
    case RejectReason::kAlreadyAlive:
      return "already_alive";
  }
  return "unknown";
}

DynamicGraph::DynamicGraph(const Graph& g) {
  adjacency_.resize(g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const auto nbrs = g.neighbors(static_cast<VertexId>(v));
    adjacency_[v].assign(nbrs.begin(), nbrs.end());
  }
  alive_.assign(g.vertex_count(), true);
  alive_count_ = g.vertex_count();
  edge_count_ = g.edge_count();
  initial_ = materialize();
}

DynamicGraph::DynamicGraph(std::size_t n) : DynamicGraph(Graph(n)) {}

bool DynamicGraph::has_edge(VertexId u, VertexId v) const {
  if (adjacency_[u].size() > adjacency_[v].size()) std::swap(u, v);
  const auto& list = adjacency_[u];
  return std::find(list.begin(), list.end(), v) != list.end();
}

EventEffect DynamicGraph::apply(const Event& event) {
  EventEffect effect;
  const std::size_t n = vertex_count();
  Event logged = event;
  const auto reject = [&](RejectReason why) {
    effect.reject = why;
    return effect;
  };
  // Endpoint validity collapsed to a reason: unknown id beats dead beats
  // self loop, checked u-then-v, so every reject has one stable cause.
  const auto endpoint_reject = [&](VertexId u, VertexId v) {
    if (u >= n || v >= n) return RejectReason::kUnknownVertex;
    if (!alive_[u] || !alive_[v]) return RejectReason::kDeadVertex;
    if (u == v) return RejectReason::kSelfLoop;
    return RejectReason::kNone;
  };

  switch (event.kind) {
    case EventKind::kEdgeInsert: {
      const RejectReason why = endpoint_reject(event.u, event.v);
      if (why != RejectReason::kNone) return reject(why);
      if (has_edge(event.u, event.v)) {
        return reject(RejectReason::kDuplicateEdge);
      }
      adjacency_[event.u].push_back(event.v);
      adjacency_[event.v].push_back(event.u);
      ++edge_count_;
      break;
    }
    case EventKind::kEdgeDelete:
      if (event.u >= n || event.v >= n) {
        return reject(RejectReason::kUnknownVertex);
      }
      if (!has_edge(event.u, event.v)) {
        return reject(RejectReason::kMissingEdge);
      }
      erase_neighbor(adjacency_[event.u], event.v);
      erase_neighbor(adjacency_[event.v], event.u);
      --edge_count_;
      break;
    case EventKind::kContactAdd:
    case EventKind::kContactRelabel: {
      const RejectReason why = endpoint_reject(event.u, event.v);
      if (why != RejectReason::kNone) return reject(why);
      break;
    }
    case EventKind::kNodeJoin:
      // The log stores the resolved id: == n for a fresh node, < n for a
      // revival.
      if (event.u == kInvalidVertex || event.u == n) {
        logged.u = static_cast<VertexId>(n);  // fresh id, normalized
        adjacency_.emplace_back();
        alive_.push_back(true);
      } else if (event.u < n && !alive_[event.u]) {
        alive_[event.u] = true;  // revival
      } else if (event.u < n) {
        return reject(RejectReason::kAlreadyAlive);
      } else {
        return reject(RejectReason::kUnknownVertex);  // gap beyond fresh id
      }
      effect.vertex = logged.u;
      ++alive_count_;
      break;
    case EventKind::kNodeLeave:
      if (event.u >= n) return reject(RejectReason::kUnknownVertex);
      if (!alive_[event.u]) return reject(RejectReason::kDeadVertex);
      for (VertexId w : adjacency_[event.u]) {
        effect.removed_edges.push_back(Graph::Edge{event.u, w});
        erase_neighbor(adjacency_[w], event.u);
      }
      adjacency_[event.u].clear();
      alive_[event.u] = false;
      edge_count_ -= effect.removed_edges.size();
      --alive_count_;
      break;
  }

  log_.push_back(logged);
  ++epoch_;  // exactly one bump per accepted event (monotonicity guarantee)
  assert(epoch_ == log_.size());
  effect.accepted = true;
  return effect;
}

Graph DynamicGraph::materialize() const {
  Graph g(adjacency_.size());
  for (VertexId v = 0; v < adjacency_.size(); ++v) {
    for (VertexId w : adjacency_[v]) {
      if (v < w) g.add_edge(v, w);
    }
  }
  return g;
}

}  // namespace structnet
