// Synchronous message-passing round engine (the LOCAL model of Sec. IV):
// every node runs the same handler once per round, reading the messages
// sent to it in the previous round and sending messages to neighbors for
// the next one. Distributed and localized labeling schemes execute on
// this engine; benches read its round and message counters.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/graph.hpp"

namespace structnet {

/// Synchronous network over a static graph.
///
/// State: per-node algorithm state. Msg: message payload type.
template <typename State, typename Msg>
class SyncNetwork {
 public:
  /// A received message with its sender.
  struct Envelope {
    VertexId from;
    Msg payload;
  };

  /// The per-round node handler: may inspect/mutate its state, read its
  /// inbox, and send messages via the provided send function
  /// (send(neighbor, msg); sending to non-neighbors is forbidden).
  using Handler = std::function<void(
      VertexId self, State& state, std::span<const Envelope> inbox,
      const std::function<void(VertexId, Msg)>& send)>;

  SyncNetwork(const Graph& g, std::vector<State> initial)
      : graph_(g), state_(std::move(initial)), inbox_(g.vertex_count()) {
    assert(state_.size() == g.vertex_count());
  }

  /// Executes one synchronous round with the given handler.
  void step(const Handler& handler) {
    std::vector<std::vector<Envelope>> next_inbox(graph_.vertex_count());
    for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
      auto send = [&](VertexId to, Msg msg) {
        assert(graph_.has_edge(v, to) && "can only message neighbors");
        next_inbox[to].push_back(Envelope{v, std::move(msg)});
        ++messages_;
      };
      handler(v, state_[v], inbox_[v], send);
    }
    inbox_ = std::move(next_inbox);
    ++rounds_;
  }

  /// Runs until `quiescent` returns true (checked after each round) or
  /// max_rounds is hit. Returns true when quiescence was reached.
  bool run_until(const Handler& handler,
                 const std::function<bool(const SyncNetwork&)>& quiescent,
                 std::size_t max_rounds) {
    for (std::size_t r = 0; r < max_rounds; ++r) {
      step(handler);
      if (quiescent(*this)) return true;
    }
    return false;
  }

  const Graph& graph() const { return graph_; }
  const State& state(VertexId v) const { return state_[v]; }
  State& state(VertexId v) { return state_[v]; }
  std::size_t rounds() const { return rounds_; }
  std::size_t messages() const { return messages_; }
  /// True iff no message is currently in flight.
  bool idle() const {
    for (const auto& box : inbox_) {
      if (!box.empty()) return false;
    }
    return true;
  }

 private:
  const Graph& graph_;
  std::vector<State> state_;
  std::vector<std::vector<Envelope>> inbox_;
  std::size_t rounds_ = 0;
  std::size_t messages_ = 0;
};

/// Distributed BFS labeling on the round engine: every node learns its
/// hop distance from the root; returns (distances, rounds, messages).
/// Serves as both a reference algorithm and an engine self-test.
struct DistributedBfsResult {
  std::vector<std::uint32_t> distance;  // UINT32_MAX when unreached
  std::size_t rounds = 0;
  std::size_t messages = 0;
};
DistributedBfsResult distributed_bfs(const Graph& g, VertexId root);

}  // namespace structnet
