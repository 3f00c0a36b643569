#include "serve/health.hpp"

#include <string>

namespace structnet {

std::string_view to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kReadOnly:
      return "read_only";
    case HealthState::kRecovering:
      return "recovering";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(obs::MetricsRegistry& registry)
    : state_gauge_(registry.gauge("serve.health.state")),
      transitions_(registry.counter("serve.health.transitions")) {
  for (std::size_t s = 0; s < kHealthStateCount; ++s) {
    std::string name = "serve.health.to_";
    name += to_string(static_cast<HealthState>(s));
    to_state_[s] = &registry.counter(name);
  }
  state_gauge_.set(static_cast<std::int64_t>(HealthState::kHealthy));
}

void HealthMonitor::transition(HealthState to) {
  if (state() == to) return;
  state_.store(to, std::memory_order_release);
  state_gauge_.set(static_cast<std::int64_t>(to));
  transitions_.add();
  to_state_[static_cast<std::size_t>(to)]->add();
}

void HealthMonitor::on_success() {
  consecutive_failures_ = 0;
  transition(HealthState::kHealthy);
}

void HealthMonitor::on_failure(TimePoint now) {
  ++consecutive_failures_;
  last_failure_ = now;  // re-arms the probe backoff
  if (consecutive_failures_ >= kCircuitThreshold ||
      state() == HealthState::kRecovering) {
    // At the threshold — or a failed probe — the circuit (re-)opens.
    transition(HealthState::kReadOnly);
  } else {
    transition(HealthState::kDegraded);
  }
}

bool HealthMonitor::probe_due(TimePoint now) const {
  return state() == HealthState::kReadOnly &&
         now - last_failure_ >= kProbeBackoff;
}

void HealthMonitor::begin_probe() {
  if (state() != HealthState::kReadOnly) return;
  transition(HealthState::kRecovering);
}

}  // namespace structnet
