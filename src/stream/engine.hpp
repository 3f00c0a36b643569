// The streaming engine: a DynamicGraph plus an observer registry.
//
// apply() validates/applies one event and fans it out to every attached
// observer, in attach order; apply_batch() applies a span of events and
// then signals on_batch_end once, which is what batching-aware observers
// (lazy cache invalidation, deferred fixups) key off. Rejected events
// are counted per RejectReason and NOT delivered to observers, so
// observers only ever see events the graph actually absorbed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "stream/dynamic_graph.hpp"
#include "stream/observer.hpp"

namespace structnet {

class StreamEngine {
 public:
  StreamEngine() = default;
  explicit StreamEngine(DynamicGraph graph) : graph_(std::move(graph)) {}

  DynamicGraph& graph() { return graph_; }
  const DynamicGraph& graph() const { return graph_; }

  /// The graph's current epoch (see DynamicGraph::epoch for the
  /// monotonicity guarantee) — the version key the serving layer caches
  /// results under.
  std::uint64_t epoch() const { return graph_.epoch(); }

  /// Registers an observer (not owned; must outlive the engine or be
  /// detached first). The observer is synchronized to the current graph
  /// via its recompute() path on attach.
  void attach(StreamObserver* observer);
  void detach(StreamObserver* observer);

  /// Applies one event; returns whether the graph accepted it.
  bool apply(const Event& event);

  /// Rebuilds every attached observer from scratch against the current
  /// graph — the equivalence sweep the churn tests run after incremental
  /// maintenance. Runs each observer's recompute() in attach order on
  /// the calling thread: an observer may read observers attached before
  /// it (the QueryBroker builds its contact index from the temporal
  /// view). Returns the number of observers refreshed.
  std::size_t recompute_all();

  /// Applies a batch in order; returns the number of accepted events and
  /// fires on_batch_end on every observer afterwards.
  std::size_t apply_batch(std::span<const Event> events);

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }

  /// Per-reason reject counts, indexed by RejectReason (slot kNone is
  /// always 0; the other slots sum to rejected()).
  const std::array<std::uint64_t, kRejectReasonCount>& reject_counts() const {
    return reject_counts_;
  }
  std::uint64_t rejected(RejectReason why) const {
    return reject_counts_[static_cast<std::size_t>(why)];
  }

  /// Overwrites the acceptance statistics. Rejected events never enter
  /// the graph log, so a restored engine cannot re-derive them — the
  /// checkpoint reader (fault/checkpoint.hpp) carries them explicitly.
  void restore_counters(
      std::uint64_t accepted, std::uint64_t rejected,
      const std::array<std::uint64_t, kRejectReasonCount>& reject_counts);

 private:
  DynamicGraph graph_;
  std::vector<StreamObserver*> observers_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::array<std::uint64_t, kRejectReasonCount> reject_counts_{};
};

}  // namespace structnet
