#include "fault/fault_plan.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace structnet {

namespace {

std::uint64_t pair_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

bool covers(TimeUnit from, TimeUnit until, TimeUnit t) {
  return from <= t && t < until;
}

}  // namespace

FaultPlan& FaultPlan::set_contact_loss(double probability) {
  contact_loss_ = std::clamp(probability, 0.0, 1.0);
  return *this;
}

FaultPlan& FaultPlan::add_blackout(const LinkBlackout& window) {
  if (window.u == kInvalidVertex || window.v == kInvalidVertex) {
    global_blackouts_.push_back(window);
    return *this;
  }
  LinkBlackout normalized = window;
  if (normalized.u > normalized.v) std::swap(normalized.u, normalized.v);
  const auto at = std::lower_bound(
      link_blackouts_.begin(), link_blackouts_.end(), normalized,
      [](const LinkBlackout& a, const LinkBlackout& b) {
        return std::tie(a.u, a.v, a.from) < std::tie(b.u, b.v, b.from);
      });
  link_blackouts_.insert(at, normalized);
  return *this;
}

FaultPlan& FaultPlan::add_outage(const NodeOutage& outage) {
  const auto at = std::lower_bound(
      outages_.begin(), outages_.end(), outage,
      [](const NodeOutage& a, const NodeOutage& b) {
        return std::tie(a.node, a.from) < std::tie(b.node, b.from);
      });
  outages_.insert(at, outage);
  return *this;
}

FaultPlan FaultPlan::split(std::uint64_t stream) const {
  FaultPlan child = *this;
  child.seed_ = derive_seed(seed_, stream);
  return child;
}

bool FaultPlan::node_up(VertexId v, TimeUnit t) const {
  auto it = std::lower_bound(
      outages_.begin(), outages_.end(), v,
      [](const NodeOutage& o, VertexId x) { return o.node < x; });
  for (; it != outages_.end() && it->node == v; ++it) {
    if (covers(it->from, it->until, t)) return false;
  }
  return true;
}

bool FaultPlan::link_up(VertexId u, VertexId v, TimeUnit t) const {
  if (!node_up(u, t) || !node_up(v, t)) return false;
  for (const LinkBlackout& b : global_blackouts_) {
    if (covers(b.from, b.until, t)) return false;
  }
  if (link_blackouts_.empty()) return true;
  VertexId lo = u, hi = v;
  if (lo > hi) std::swap(lo, hi);
  auto it = std::lower_bound(
      link_blackouts_.begin(), link_blackouts_.end(), std::pair{lo, hi},
      [](const LinkBlackout& b, const std::pair<VertexId, VertexId>& key) {
        return std::tie(b.u, b.v) < std::tie(key.first, key.second);
      });
  for (; it != link_blackouts_.end() && it->u == lo && it->v == hi; ++it) {
    if (covers(it->from, it->until, t)) return false;
  }
  return true;
}

bool FaultPlan::transmission_lost(VertexId u, VertexId v, TimeUnit t) const {
  if (contact_loss_ <= 0.0) return false;
  // Draw-order-free Bernoulli: hash (seed, {u, v}, t) to a uniform in
  // [0, 1) via the splitmix finalizer chain the Rng::split machinery
  // uses, so every consumer of the plan sees the same fault set.
  const std::uint64_t h = derive_seed(derive_seed(seed_, pair_key(u, v)), t);
  const double draw = static_cast<double>(h >> 11) * 0x1.0p-53;
  return draw < contact_loss_;
}

TemporalGraph FaultPlan::degraded(const TemporalGraph& trace) const {
  STRUCTNET_OBS_SPAN("fault.degraded_build");
  static obs::Counter& builds =
      obs::MetricsRegistry::global().counter("fault.degraded_builds");
  builds.add();
  TemporalGraph out(trace.vertex_count(), trace.horizon());
  for (const auto& edge : trace.edges()) {
    for (const TimeUnit t : edge.labels) {
      if (contact_works(edge.u, edge.v, t)) out.add_contact(edge.u, edge.v, t);
    }
  }
  return out;
}

}  // namespace structnet
