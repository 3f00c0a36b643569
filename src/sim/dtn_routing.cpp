#include "sim/dtn_routing.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <span>
#include <unordered_map>

#include "fault/fault_plan.hpp"
#include "parallel/parallel.hpp"
#include "temporal/temporal_delta.hpp"
#include "util/rng.hpp"

namespace structnet {

namespace {

/// Per-directed-pair retransmit state under a FaultPlan.
struct PairRetry {
  std::size_t attempts = 0;
  TimeUnit next_allowed = 0;  // kNeverTime once the pair gave up
};

/// Backoff delay after the pair's k-th consecutive failure (k >= 1):
/// min(base * factor^(k-1), cap), saturating instead of overflowing.
TimeUnit backoff_delay(const RetryPolicy& retry, std::size_t failures) {
  const TimeUnit factor = std::max<TimeUnit>(retry.backoff_factor, 1);
  TimeUnit delay = retry.backoff_base;
  for (std::size_t i = 1; i < failures; ++i) {
    if (factor > 1 && delay > retry.backoff_cap / factor) {
      return retry.backoff_cap;
    }
    delay *= factor;
  }
  return std::min(delay, retry.backoff_cap);
}

std::uint64_t pair_slot(VertexId holder, VertexId other) {
  return (static_cast<std::uint64_t>(holder) << 32) | other;
}

/// Unit t's edges in ascending edge id: a merged index's unit gathered
/// once through for_each_edge_at into `scratch` (reused across units),
/// so the re-scan passes below walk a flat span on either index.
template <class Index>
std::span<const EdgeId> unit_edges(const Index& index, TimeUnit t,
                                   std::vector<EdgeId>& scratch) {
  scratch.clear();
  index.for_each_edge_at(t, [&](EdgeId e) {
    scratch.push_back(e);
    return true;
  });
  return scratch;
}

/// A TemporalCsr's unit is already a contiguous span.
std::span<const EdgeId> unit_edges(const TemporalCsr& index, TimeUnit t,
                                   std::vector<EdgeId>&) {
  return index.edges_at(t);
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const RoutingOutcome& outcome) {
  os << "{delivered=" << (outcome.delivered ? "true" : "false")
     << ", delivery_time=";
  if (outcome.delivery_time == kNeverTime) {
    os << "never";
  } else {
    os << outcome.delivery_time;
  }
  return os << ", hops=" << outcome.hops << ", copies=" << outcome.copies
            << ", transmissions=" << outcome.transmissions << "}";
}

std::ostream& operator<<(std::ostream& os, const RoutingTrialStats& stats) {
  const auto precision = os.precision(17);
  os << "{delivered=" << stats.delivered
     << ", delivery_ratio=" << stats.delivery_ratio
     << ", mean_delivery_time=" << stats.mean_delivery_time
     << ", mean_hops=" << stats.mean_hops
     << ", mean_transmissions=" << stats.mean_transmissions
     << ", outcomes=[";
  os.precision(precision);
  for (std::size_t i = 0; i < stats.outcomes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << stats.outcomes[i];
  }
  return os << "]}";
}

RoutingOutcome simulate_routing(const TemporalGraph& trace, VertexId source,
                                VertexId destination, TimeUnit t0,
                                const Strategy& strategy,
                                std::size_t initial_copies,
                                const SimulationFaults& faults) {
  return simulate_routing(TemporalCsr(trace), source, destination, t0,
                          strategy, initial_copies, faults);
}

template <class Index>
RoutingOutcome simulate_routing(const Index& trace, VertexId source,
                                VertexId destination, TimeUnit t0,
                                const Strategy& strategy,
                                std::size_t initial_copies,
                                const SimulationFaults& faults) {
  assert(source < trace.vertex_count() && destination < trace.vertex_count());
  RoutingOutcome outcome;
  if (source == destination) {
    outcome.delivered = true;
    outcome.delivery_time = t0;
    return outcome;
  }
  Rng loss_rng(faults.loss_seed);
  const FaultPlan* plan = faults.plan;
  // Retransmit state per directed (holder, receiver) pair; populated only
  // when a plan-induced handover failure occurs.
  std::unordered_map<std::uint64_t, PairRetry> retry_state;
  const TimeUnit deadline =
      faults.ttl == kNeverTime || t0 > kNeverTime - faults.ttl
          ? kNeverTime
          : t0 + faults.ttl;
  const std::size_t n = trace.vertex_count();
  std::vector<bool> has(n, false);
  // budget semantics: 0 = unbounded (epidemic), otherwise spray budget.
  std::vector<std::size_t> budget(n, 0);
  std::vector<std::size_t> hops(n, 0);
  has[source] = true;
  budget[source] = initial_copies;

  std::vector<EdgeId> unit_scratch;
  for (TimeUnit t = t0; t < trace.horizon(); ++t) {
    if (deadline != kNeverTime && t >= deadline) break;  // message expired
    // The per-unit edge span is in trace (edge id) order, matching the
    // bucketed-contact order the TemporalGraph walk used.
    const auto unit = unit_edges(trace, t, unit_scratch);
    // Instantaneous transmission: re-scan the unit's contacts until no
    // transfer fires (bounded: each pass moves/copies at least once).
    bool progressed = true;
    std::size_t passes = 0;
    while (progressed && passes <= unit.size() + 1) {
      progressed = false;
      ++passes;
      for (const EdgeId e : unit) {
        if (plan != nullptr &&
            !plan->link_up(trace.edge_u(e), trace.edge_v(e), t)) {
          continue;  // outage / blackout: the contact never happens
        }
        const std::pair<VertexId, VertexId> directions[] = {
            {trace.edge_u(e), trace.edge_v(e)},
            {trace.edge_v(e), trace.edge_u(e)}};
        for (const auto& [holder, other] : directions) {
          if (!has[holder] || has[other]) continue;
          if (faults.loss_probability > 0.0 &&
              loss_rng.bernoulli(faults.loss_probability)) {
            continue;  // the radio handover failed; copy stays put
          }
          PairRetry* pair = nullptr;
          if (plan != nullptr) {
            const auto it = retry_state.find(pair_slot(holder, other));
            if (it != retry_state.end()) {
              if (t < it->second.next_allowed) continue;  // backing off
              pair = &it->second;
            }
          }
          // The loss draw is a pure function of (seed, {u, v}, t), so a
          // failed attempt cannot succeed at the same t: retries wait at
          // least one unit even with no backoff configured.
          const bool lost =
              plan != nullptr && plan->transmission_lost(holder, other, t);
          const auto attempt_failed = [&] {
            ++outcome.transmissions;  // the radio attempt is still burned
            PairRetry& state =
                pair != nullptr ? *pair : retry_state[pair_slot(holder, other)];
            ++state.attempts;
            if (faults.retry.max_attempts != 0 &&
                state.attempts >= faults.retry.max_attempts) {
              state.next_allowed = kNeverTime;  // pair gave up for good
              return;
            }
            const TimeUnit delay = std::max<TimeUnit>(
                backoff_delay(faults.retry, state.attempts), 1);
            state.next_allowed =
                t > kNeverTime - delay ? kNeverTime : t + delay;
          };
          const auto attempt_succeeded = [&] {
            if (pair != nullptr) retry_state.erase(pair_slot(holder, other));
          };
          if (other == destination) {
            if (lost) {
              attempt_failed();
              continue;
            }
            outcome.delivered = true;
            outcome.delivery_time = t;
            outcome.hops = hops[holder] + 1;
            ++outcome.transmissions;
            return outcome;
          }
          const ForwardDecision d =
              strategy(holder, other, t, budget[holder]);
          switch (d) {
            case ForwardDecision::kSkip:
              break;
            case ForwardDecision::kCopy: {
              if (budget[holder] == 0) {  // unbounded replication
                if (lost) {
                  attempt_failed();
                  break;
                }
                attempt_succeeded();
                has[other] = true;
                budget[other] = 0;
                hops[other] = hops[holder] + 1;
                ++outcome.copies;
                ++outcome.transmissions;
                progressed = true;
              } else if (budget[holder] > 1) {  // binary spray
                if (lost) {
                  attempt_failed();
                  break;
                }
                attempt_succeeded();
                const std::size_t give = budget[holder] / 2;
                budget[holder] -= give;
                has[other] = true;
                budget[other] = give;
                hops[other] = hops[holder] + 1;
                ++outcome.copies;
                ++outcome.transmissions;
                progressed = true;
              }
              break;
            }
            case ForwardDecision::kMove: {
              if (lost) {
                attempt_failed();
                break;
              }
              attempt_succeeded();
              has[holder] = false;
              has[other] = true;
              budget[other] = budget[holder];
              hops[other] = hops[holder] + 1;
              ++outcome.transmissions;
              progressed = true;
              break;
            }
          }
        }
      }
    }
  }
  return outcome;
}

RoutingTrialStats simulate_routing_trials(
    const TemporalGraph& trace, VertexId source, VertexId destination,
    TimeUnit t0, const Strategy& strategy, std::size_t initial_copies,
    const SimulationFaults& faults, std::size_t trials,
    std::size_t threads) {
  // Build the contact index once; every replica walks the same CSR
  // instead of re-bucketing the trace per trial.
  const TemporalCsr csr(trace);
  return simulate_routing_trials(csr, source, destination, t0, strategy,
                                 initial_copies, faults, trials, threads);
}

template <class Index>
RoutingTrialStats simulate_routing_trials(
    const Index& trace, VertexId source, VertexId destination, TimeUnit t0,
    const Strategy& strategy, std::size_t initial_copies,
    const SimulationFaults& faults, std::size_t trials,
    std::size_t threads) {
  RoutingTrialStats stats;
  stats.outcomes.resize(trials);
  // Each trial writes only its own slot; the per-trial loss seed is a
  // pure function of (faults.loss_seed, trial), so the schedule cannot
  // change any replica's draw sequence.
  parallel_for(
      0, trials, /*grain=*/1,
      [&](std::size_t trial) {
        SimulationFaults f = faults;
        f.loss_seed = derive_seed(faults.loss_seed, trial);
        FaultPlan trial_plan;
        if (faults.plan != nullptr) {
          // Same schedule, decorrelated loss draws per replica.
          trial_plan = faults.plan->split(trial);
          f.plan = &trial_plan;
        }
        stats.outcomes[trial] = simulate_routing(
            trace, source, destination, t0, strategy, initial_copies, f);
      },
      threads);
  double delay = 0.0, hops = 0.0, transmissions = 0.0;
  for (const RoutingOutcome& o : stats.outcomes) {
    transmissions += static_cast<double>(o.transmissions);
    if (!o.delivered) continue;
    ++stats.delivered;
    delay += static_cast<double>(o.delivery_time);
    hops += static_cast<double>(o.hops);
  }
  if (trials > 0) {
    stats.delivery_ratio =
        static_cast<double>(stats.delivered) / static_cast<double>(trials);
    stats.mean_transmissions = transmissions / static_cast<double>(trials);
  }
  if (stats.delivered > 0) {
    stats.mean_delivery_time = delay / static_cast<double>(stats.delivered);
    stats.mean_hops = hops / static_cast<double>(stats.delivered);
  }
  return stats;
}

template RoutingOutcome simulate_routing(const TemporalCsr&, VertexId,
                                         VertexId, TimeUnit, const Strategy&,
                                         std::size_t,
                                         const SimulationFaults&);
template RoutingOutcome simulate_routing(const DeltaTemporalCsr&, VertexId,
                                         VertexId, TimeUnit, const Strategy&,
                                         std::size_t,
                                         const SimulationFaults&);
template RoutingTrialStats simulate_routing_trials(
    const TemporalCsr&, VertexId, VertexId, TimeUnit, const Strategy&,
    std::size_t, const SimulationFaults&, std::size_t, std::size_t);
template RoutingTrialStats simulate_routing_trials(
    const DeltaTemporalCsr&, VertexId, VertexId, TimeUnit, const Strategy&,
    std::size_t, const SimulationFaults&, std::size_t, std::size_t);

Strategy direct_strategy() {
  return [](VertexId, VertexId, TimeUnit, std::size_t) {
    return ForwardDecision::kSkip;
  };
}

Strategy epidemic_strategy() {
  return [](VertexId, VertexId, TimeUnit, std::size_t) {
    return ForwardDecision::kCopy;
  };
}

Strategy spray_and_wait_strategy() {
  return [](VertexId, VertexId, TimeUnit, std::size_t copies_held) {
    return copies_held > 1 ? ForwardDecision::kCopy : ForwardDecision::kSkip;
  };
}

Strategy greedy_metric_strategy(std::vector<double> metric) {
  return [metric = std::move(metric)](VertexId holder, VertexId contact,
                                      TimeUnit, std::size_t) {
    return metric[contact] < metric[holder] ? ForwardDecision::kMove
                                            : ForwardDecision::kSkip;
  };
}

Strategy forwarding_set_strategy(
    std::function<bool(VertexId, VertexId, TimeUnit)> in_set) {
  return [in_set = std::move(in_set)](VertexId holder, VertexId contact,
                                      TimeUnit t, std::size_t) {
    return in_set(holder, contact, t) ? ForwardDecision::kMove
                                      : ForwardDecision::kSkip;
  };
}

Strategy copy_varying_strategy(std::vector<double> metric,
                               double slack_per_copy) {
  return [metric = std::move(metric), slack_per_copy](
             VertexId holder, VertexId contact, TimeUnit,
             std::size_t copies_held) {
    if (copies_held <= 1) {
      // Last copy: hold for the destination (wait phase).
      return ForwardDecision::kSkip;
    }
    const double slack =
        slack_per_copy * static_cast<double>(copies_held - 1);
    return metric[contact] < metric[holder] + slack ? ForwardDecision::kCopy
                                                    : ForwardDecision::kSkip;
  };
}

UtilityForwarding::UtilityForwarding(std::vector<double> meet_probability,
                                     std::size_t n, VertexId destination,
                                     double u0, double decay_rate,
                                     TimeUnit horizon)
    : n_(n),
      destination_(destination),
      u0_(u0),
      decay_(decay_rate),
      horizon_(horizon),
      meet_(std::move(meet_probability)) {
  assert(meet_.size() == n_ * n_);
  // Backward induction with one-step lookahead; meetings within one unit
  // are treated as independent and relay gains add (a standard
  // approximation for sparse contact processes).
  value_.assign((static_cast<std::size_t>(horizon_) + 1) * n_, 0.0);
  auto v = [&](VertexId x, TimeUnit t) -> double& {
    return value_[static_cast<std::size_t>(t) * n_ + x];
  };
  for (TimeUnit tt = horizon_; tt-- > 0;) {
    const double u_now = utility_at(tt);
    v(destination_, tt) = u_now;
    for (VertexId x = 0; x < n_; ++x) {
      if (x == destination_) continue;
      const double p_xd = meet_[x * n_ + destination_];
      const double cont = v(x, tt + 1);
      double gain = 0.0;
      for (VertexId c = 0; c < n_; ++c) {
        if (c == x || c == destination_) continue;
        const double improvement = v(c, tt + 1) - cont;
        if (improvement > 0.0) gain += meet_[x * n_ + c] * improvement;
      }
      v(x, tt) = p_xd * u_now + (1.0 - p_xd) * std::min(cont + gain, u_now);
    }
  }
}

double UtilityForwarding::utility_at(TimeUnit t) const {
  return std::max(u0_ - decay_ * static_cast<double>(t), 0.0);
}

double UtilityForwarding::value(VertexId x, TimeUnit t) const {
  if (t > horizon_) t = horizon_;
  return value_[static_cast<std::size_t>(t) * n_ + x];
}

std::vector<VertexId> UtilityForwarding::forwarding_set(VertexId u,
                                                        TimeUnit t) const {
  std::vector<VertexId> set;
  const double mine = value(u, t);
  for (VertexId c = 0; c < n_; ++c) {
    if (c != u && value(c, t) > mine) set.push_back(c);
  }
  return set;
}

Strategy UtilityForwarding::strategy() const {
  return [this](VertexId holder, VertexId contact, TimeUnit t, std::size_t) {
    return value(contact, t) > value(holder, t) ? ForwardDecision::kMove
                                                : ForwardDecision::kSkip;
  };
}

std::vector<double> estimate_meet_probabilities(const TemporalGraph& trace) {
  const std::size_t n = trace.vertex_count();
  std::vector<double> p(n * n, 0.0);
  const double horizon = static_cast<double>(trace.horizon());
  if (horizon == 0.0) return p;
  for (const auto& edge : trace.edges()) {
    const double freq = static_cast<double>(edge.labels.size()) / horizon;
    p[edge.u * n + edge.v] = freq;
    p[edge.v * n + edge.u] = freq;
  }
  return p;
}

}  // namespace structnet
