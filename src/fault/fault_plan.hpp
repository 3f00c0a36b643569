// Deterministic, composable fault schedules layered over the temporal
// structures — the "unreliable world" the paper's Sec. III structures
// are supposed to survive.
//
// A FaultPlan describes WHAT goes wrong and WHEN, decoupled from the
// structure it degrades:
//
//   * per-contact transmission loss with probability p: whether contact
//     (u, v, t) is lost is a pure splitmix hash of (seed, {u, v}, t) —
//     never of draw order — so any evaluation order, any thread count,
//     and any subset of queries observe the same faults;
//   * link blackout windows [from, until): the link (or every link,
//     when u == kInvalidVertex) transmits nothing during the window;
//   * node outages [from, until): a crashed node neither sends nor
//     receives until it recovers.
//
// Composition rule: a contact works iff both endpoints are up AND no
// blackout covers it AND the loss hash spares it — outages and
// blackouts are schedule (always bite), loss is stochastic (seeded).
//
// One plan serves two consumers:
//   * offline contact filter: degraded() maps a TemporalGraph to the
//     trace an analysis in the faulty world would have seen (faulty
//     contacts removed);
//   * online transmission hook: simulate_routing consults the plan per
//     handover; schedule faults suppress the contact outright, a loss
//     draw burns a transmission but delivers nothing (sim/dtn_routing).
//
// split(i) derives the plan for Monte-Carlo replica i: identical
// schedule, decorrelated loss draws (same derive_seed machinery as
// Rng::split), so parallel trial sweeps are bit-identical at any
// thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "temporal/temporal_graph.hpp"

namespace structnet {

/// Link (u, v) transmits nothing during [from, until). u == kInvalidVertex
/// blacks out every link.
struct LinkBlackout {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  TimeUnit from = 0;
  TimeUnit until = 0;

  friend bool operator==(const LinkBlackout&, const LinkBlackout&) = default;
};

/// Node crashes at `from` and recovers at `until` (down during
/// [from, until)).
struct NodeOutage {
  VertexId node = kInvalidVertex;
  TimeUnit from = 0;
  TimeUnit until = 0;

  friend bool operator==(const NodeOutage&, const NodeOutage&) = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed() const { return seed_; }
  double contact_loss() const { return contact_loss_; }

  /// Sets the per-contact transmission loss probability (clamped to
  /// [0, 1]). Returns *this for fluent composition.
  FaultPlan& set_contact_loss(double probability);
  FaultPlan& add_blackout(const LinkBlackout& window);
  FaultPlan& add_outage(const NodeOutage& outage);

  /// The plan for replica `stream`: same schedule, loss draws reseeded
  /// with derive_seed(seed(), stream) — decorrelated and independent of
  /// how many replicas run or in what order.
  FaultPlan split(std::uint64_t stream) const;

  /// True iff v is not inside any outage window at time t.
  bool node_up(VertexId v, TimeUnit t) const;
  /// True iff both endpoints are up and no blackout covers (u, v) at t.
  /// This is the schedule part of the plan — deterministic, seed-free.
  bool link_up(VertexId u, VertexId v, TimeUnit t) const;
  /// Seeded loss draw for contact (u, v, t): a pure function of
  /// (seed, {u, v}, t). Symmetric in u, v.
  bool transmission_lost(VertexId u, VertexId v, TimeUnit t) const;
  /// Full composition: link_up && !transmission_lost.
  bool contact_works(VertexId u, VertexId v, TimeUnit t) const {
    return link_up(u, v, t) && !transmission_lost(u, v, t);
  }

  /// The degraded trace: every contact the plan faults is removed.
  /// Edges whose label sets empty out are dropped entirely, so edge ids
  /// of the degraded copy need not match the source's.
  TemporalGraph degraded(const TemporalGraph& trace) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::uint64_t seed_ = 0;
  double contact_loss_ = 0.0;
  // Kept sorted on insert — (node, from) / (min endpoint, max endpoint,
  // from) — so queries are a binary search plus a short scan and const
  // queries stay safely concurrent (no lazy mutation).
  std::vector<NodeOutage> outages_;
  std::vector<LinkBlackout> link_blackouts_;
  std::vector<LinkBlackout> global_blackouts_;
};

}  // namespace structnet
