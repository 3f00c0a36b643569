// Broker self-healing: an explicit health state machine driven by
// update-path outcomes, so the serving layer degrades gracefully
// instead of going dark when graph updates start failing.
//
//               on_failure                consecutive >= threshold
//   Healthy ───────────────▶ Degraded ───────────────────────▶ ReadOnly
//      ▲  ▲                     │                                 │
//      │  └────── on_success ───┘              probe_due ▶ begin_probe
//      │                                                          │
//      │                on_success          on_failure            ▼
//      └─────────────────────────────── Recovering ◀──────── (watchdog)
//                                           │
//                                           └── on_failure ──▶ ReadOnly
//
//   * Healthy    — updates flow; queries serve fresh results.
//   * Degraded   — recent update failures, below the circuit threshold;
//                  updates still retry, results are annotated stale.
//   * ReadOnly   — the circuit breaker tripped: updates are refused
//                  outright (fast-fail, no retry burn) while queries
//                  keep serving the last good epoch, annotated stale.
//   * Recovering — a watchdog probe is in flight; its outcome either
//                  restores Healthy or re-opens the circuit.
//
// The monitor's transitions are externally synchronized (the broker
// drives it under its executor lock); state() is a lock-free atomic
// read so the serving path and stats snapshots never contend. Every
// transition lands in the owning metrics registry under
// "serve.health.state" (gauge), "serve.health.transitions", and a
// per-target counter "serve.health.to_<state>".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace structnet {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded,
  kReadOnly,
  kRecovering,
};
inline constexpr std::size_t kHealthStateCount = 4;
std::string_view to_string(HealthState state);

class HealthMonitor {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Consecutive update failures that trip the circuit to ReadOnly.
  static constexpr std::size_t kCircuitThreshold = 3;
  /// Dwell time in ReadOnly before a watchdog probe is due; every
  /// further failure re-arms it.
  static constexpr std::chrono::nanoseconds kProbeBackoff =
      std::chrono::milliseconds(10);

  explicit HealthMonitor(obs::MetricsRegistry& registry);

  /// Lock-free: safe from any thread, any time.
  HealthState state() const {
    return state_.load(std::memory_order_acquire);
  }

  // Transition drivers — externally synchronized.

  /// An update (or probe) succeeded: any state returns to Healthy and
  /// the failure streak resets.
  void on_success();
  /// An update (or probe) failed: Healthy degrades, a streak at the
  /// circuit threshold trips ReadOnly, a failed probe re-opens the
  /// circuit. Each failure re-arms the probe backoff from `now`.
  void on_failure(TimePoint now);
  /// True when the circuit is open and has dwelt past kProbeBackoff.
  bool probe_due(TimePoint now) const;
  /// ReadOnly -> Recovering: the caller is about to attempt the probe
  /// (and will report it via on_success / on_failure).
  void begin_probe();

  std::size_t consecutive_failures() const { return consecutive_failures_; }
  std::uint64_t transitions() const { return transitions_.value(); }

 private:
  void transition(HealthState to);

  std::atomic<HealthState> state_{HealthState::kHealthy};
  std::size_t consecutive_failures_ = 0;
  TimePoint last_failure_{};
  obs::Gauge& state_gauge_;
  obs::Counter& transitions_;
  obs::Counter* to_state_[kHealthStateCount];
};

}  // namespace structnet
