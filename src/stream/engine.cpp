#include "stream/engine.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace structnet {

void StreamEngine::attach(StreamObserver* observer) {
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;
  }
  observer->recompute(graph_);
  observers_.push_back(observer);
}

void StreamEngine::detach(StreamObserver* observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  if (it != observers_.end()) observers_.erase(it);
}

bool StreamEngine::apply(const Event& event) {
  STRUCTNET_OBS_SPAN("stream.apply");
  static obs::Counter& accepted_ctr =
      obs::MetricsRegistry::global().counter("stream.events_accepted");
  static obs::Counter& rejected_ctr =
      obs::MetricsRegistry::global().counter("stream.events_rejected");
  const EventEffect effect = graph_.apply(event);
  if (!effect.accepted) {
    ++rejected_;
    ++reject_counts_[static_cast<std::size_t>(effect.reject)];
    rejected_ctr.add();
    return false;
  }
  ++accepted_;
  accepted_ctr.add();
  for (StreamObserver* obs : observers_) obs->on_event(graph_, event, effect);
  return true;
}

std::size_t StreamEngine::recompute_all() {
  STRUCTNET_OBS_SPAN("stream.recompute_all");
  static obs::Counter& recomputes =
      obs::MetricsRegistry::global().counter("stream.observer_recomputes");
  recomputes.add(observers_.size());
  for (StreamObserver* obs : observers_) obs->recompute(graph_);
  return observers_.size();
}

void StreamEngine::restore_counters(
    std::uint64_t accepted, std::uint64_t rejected,
    const std::array<std::uint64_t, kRejectReasonCount>& reject_counts) {
  accepted_ = accepted;
  rejected_ = rejected;
  reject_counts_ = reject_counts;
}

std::size_t StreamEngine::apply_batch(std::span<const Event> events) {
  STRUCTNET_OBS_SPAN("stream.apply_batch");
  std::size_t ok = 0;
  for (const Event& e : events) ok += apply(e);
  for (StreamObserver* obs : observers_) obs->on_batch_end(graph_);
  return ok;
}

}  // namespace structnet
