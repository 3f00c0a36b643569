// DTN / opportunistic routing simulator over contact traces (Sec. III-A's
// dynamic trimming and forwarding sets, Sec. III-C's F-space routing).
//
// A message is created at a source at time t0 and must reach a
// destination via store-carry-forward over the contacts of a
// TemporalGraph. A strategy decides, for each contact involving a
// message holder, whether to hand over a copy, hand over the only copy,
// or do nothing. Provided strategies:
//
//   * direct delivery   — the source waits until it meets the
//                         destination (1 copy, 0 relays);
//   * epidemic          — copy at every contact (delay-optimal,
//                         maximally expensive);
//   * spray and wait    — binary spray of L copies, then direct;
//   * greedy metric     — single copy, forwarded when the contacted node
//                         has a strictly smaller metric value (e.g.
//                         social-feature distance to the destination:
//                         F-space routing in M-space);
//   * forwarding set    — single copy, forwarded exactly when the
//                         contacted node is in the holder's (possibly
//                         time-varying) forwarding set.
#pragma once

#include <functional>
#include <iosfwd>
#include <vector>

#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_graph.hpp"

namespace structnet {

class FaultPlan;  // fault/fault_plan.hpp

/// Outcome of a single-message simulation.
struct RoutingOutcome {
  bool delivered = false;
  TimeUnit delivery_time = kNeverTime;  // contact time of delivery
  std::size_t hops = 0;          // relay hops on the delivering copy's path
  std::size_t copies = 1;        // total copies ever created
  std::size_t transmissions = 0; // handovers + copies (radio cost)

  friend bool operator==(const RoutingOutcome&, const RoutingOutcome&) = default;
};

/// Prints every field by name, e.g. "{delivered=true, delivery_time=4,
/// hops=2, copies=3, transmissions=5}" (delivery_time kNeverTime prints
/// as "never"); test assertions show outcomes through it.
std::ostream& operator<<(std::ostream& os, const RoutingOutcome& outcome);

/// Decision for a contact between a holder and a non-holder.
enum class ForwardDecision {
  kSkip,  // do nothing
  kCopy,  // replicate the message to the contacted node
  kMove,  // hand over the single copy (holder stops holding)
};

/// Strategy callback: holder u met node c at time t; `copies_held` is the
/// holder's remaining copy budget (spray strategies).
using Strategy = std::function<ForwardDecision(
    VertexId holder, VertexId contact, TimeUnit t, std::size_t copies_held)>;

/// Bounded-retransmit policy for plan-induced handover failures: after a
/// failed attempt the directed pair (holder, receiver) backs off
///   delay(k) = min(backoff_base * backoff_factor^(k-1), backoff_cap)
/// time units after its k-th failure, and gives up for good once
/// max_attempts attempts burned. Defaults are "retry at the next contact
/// time, forever". Only consulted when SimulationFaults::plan is set —
/// the legacy loss_probability process stays silent and retry-free.
struct RetryPolicy {
  /// Attempts allowed per directed pair (0 = unbounded).
  std::size_t max_attempts = 0;
  /// First-failure backoff delay (0 = next contact time).
  TimeUnit backoff_base = 0;
  /// Exponential growth of the delay per further failure (>= 1).
  TimeUnit backoff_factor = 2;
  /// Upper bound on any single backoff delay.
  TimeUnit backoff_cap = kNeverTime;
};

/// Failure-injection knobs for the simulator.
struct SimulationFaults {
  /// Message time-to-live: delivery must happen strictly before
  /// t0 + ttl (kNeverTime = no expiry).
  TimeUnit ttl = kNeverTime;
  /// Per-contact transmission failure probability (handover silently
  /// fails; a failed kMove leaves the copy with the holder).
  double loss_probability = 0.0;
  /// Seed for the loss process (deterministic runs).
  std::uint64_t loss_seed = 0;
  /// Optional composed fault schedule (not owned; must outlive the
  /// simulation). Schedule faults (outages, blackouts) suppress the
  /// contact outright; a transmission-loss draw burns a transmission
  /// (radio cost) but delivers nothing and engages `retry`. In
  /// simulate_routing_trials, trial i runs under plan->split(i).
  const FaultPlan* plan = nullptr;
  /// Retry/backoff for plan-induced transmission failures.
  RetryPolicy retry;
};

/// Runs the contact trace from t0 with the given strategy. Contacts at
/// the same time unit are processed in trace order; a node that received
/// the message in the current unit may forward it within the same unit
/// (instantaneous transmission, consistent with journey semantics).
/// Builds a TemporalCsr internally; callers running many simulations
/// over the same trace should build the index once and use the overload
/// below.
RoutingOutcome simulate_routing(const TemporalGraph& trace, VertexId source,
                                VertexId destination, TimeUnit t0,
                                const Strategy& strategy,
                                std::size_t initial_copies = 1,
                                const SimulationFaults& faults = {});

/// Same simulation over a prebuilt contact index: a TemporalCsr, or the
/// base+delta DeltaTemporalCsr (temporal_delta.hpp) the serving layer
/// folds churn into — the two instantiations dtn_routing.cpp provides.
/// Both yield a unit's contacts in ascending edge id, the trace order of
/// TemporalGraph::contacts(), so the contact processing sequence — and
/// with it every loss-RNG draw and FaultPlan lookup — is identical to
/// the TemporalGraph overload run on the graph the index mirrors.
template <class Index>
RoutingOutcome simulate_routing(const Index& trace, VertexId source,
                                VertexId destination, TimeUnit t0,
                                const Strategy& strategy,
                                std::size_t initial_copies = 1,
                                const SimulationFaults& faults = {});

/// Aggregate over Monte-Carlo replicas of simulate_routing.
struct RoutingTrialStats {
  std::vector<RoutingOutcome> outcomes;  // one per trial, in trial order
  std::size_t delivered = 0;
  double delivery_ratio = 0.0;
  double mean_delivery_time = 0.0;  // over delivered trials
  double mean_hops = 0.0;           // over delivered trials
  double mean_transmissions = 0.0;  // over all trials

  friend bool operator==(const RoutingTrialStats&,
                         const RoutingTrialStats&) = default;
};

/// Prints every field by name, the means at full precision (17
/// significant digits, so unequal doubles never print alike) and then
/// each outcome in trial order.
std::ostream& operator<<(std::ostream& os, const RoutingTrialStats& stats);

/// Runs `trials` independent replicas of the lossy simulation. Trial i
/// uses loss seed derive_seed(faults.loss_seed, i), so each replica's
/// loss process is a fixed function of (loss_seed, i): results are
/// reproducible run-to-run and bit-identical at any thread count.
/// `threads`: 0 = default (STRUCTNET_THREADS / hardware), 1 = serial.
/// The strategy is invoked concurrently across trials and must be
/// safe to call from multiple threads (all stock strategies are).
RoutingTrialStats simulate_routing_trials(
    const TemporalGraph& trace, VertexId source, VertexId destination,
    TimeUnit t0, const Strategy& strategy, std::size_t initial_copies,
    const SimulationFaults& faults, std::size_t trials,
    std::size_t threads = 0);

/// Same trial sweep over a prebuilt contact index (TemporalCsr or
/// DeltaTemporalCsr, as simulate_routing above) — what the serving layer
/// runs on its live contact index, churn delta included (the
/// TemporalGraph overload above builds a TemporalCsr once per call and
/// delegates here). Identical results: every replica's contact sequence
/// and loss-RNG draws are unchanged.
template <class Index>
RoutingTrialStats simulate_routing_trials(
    const Index& trace, VertexId source, VertexId destination, TimeUnit t0,
    const Strategy& strategy, std::size_t initial_copies,
    const SimulationFaults& faults, std::size_t trials,
    std::size_t threads = 0);

// ----------------------------------------------------- stock strategies

/// Direct delivery (strategy constant).
Strategy direct_strategy();

/// Epidemic flooding.
Strategy epidemic_strategy();

/// Binary spray and wait with L initial copies: on contact, a holder with
/// k > 1 copies gives floor(k/2) to the contacted node; with k == 1 it
/// waits for the destination. Pass L via simulate_routing's
/// initial_copies.
Strategy spray_and_wait_strategy();

/// Single-copy greedy on a node metric (smaller = closer to destination):
/// hand the copy to a contact with strictly smaller metric.
Strategy greedy_metric_strategy(std::vector<double> metric);

/// Single-copy forwarding-set strategy: forward iff in_set(holder,
/// contact, t).
Strategy forwarding_set_strategy(
    std::function<bool(VertexId, VertexId, TimeUnit)> in_set);

/// Copy-varying forwarding set (Sec. III-A: "in a multi-copy message
/// delivery application, the forwarding set becomes copy-varying if the
/// objective is to minimize the delivery time of the first copy"): a
/// holder with many copies spends them liberally on mediocre relays; its
/// last copies go only to strictly better ones. Concretely, a holder
/// with k copies splits to contact c iff
///   metric(c) < metric(holder) + slack_per_copy * (k - 1),
/// so the acceptance set shrinks as the copy budget is spent. Run with
/// initial_copies = L.
Strategy copy_varying_strategy(std::vector<double> metric,
                               double slack_per_copy);

// --------------------------------------- time-varying utility forwarding

/// TOUR-like utility model [13]: the message utility decays linearly,
/// U(t) = max(u0 - decay_rate * t, 0); pairwise meeting probabilities per
/// time unit are given by `meet_probability` (n x n, row-major). The
/// value V(x, t) of the message sitting at x at time t is computed by
/// backward induction with one-step lookahead; the optimal forwarding set
/// of holder u at time t is { c : V(c, t) > V(u, t) }.
class UtilityForwarding {
 public:
  UtilityForwarding(std::vector<double> meet_probability, std::size_t n,
                    VertexId destination, double u0, double decay_rate,
                    TimeUnit horizon);

  double value(VertexId x, TimeUnit t) const;
  double utility_at(TimeUnit t) const;

  /// The forwarding set of holder u at time t.
  std::vector<VertexId> forwarding_set(VertexId u, TimeUnit t) const;

  /// Strategy adapter for simulate_routing.
  Strategy strategy() const;

 private:
  std::size_t n_;
  VertexId destination_;
  double u0_;
  double decay_;
  TimeUnit horizon_;
  std::vector<double> meet_;   // n*n row-major
  std::vector<double> value_;  // (horizon+1) * n
};

/// Helper: empirical per-unit meeting probabilities of a trace (row-major
/// n x n), the model input a deployed system would estimate online.
std::vector<double> estimate_meet_probabilities(const TemporalGraph& trace);

}  // namespace structnet
