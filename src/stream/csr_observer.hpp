// DeltaCsrObserver: keeps a DeltaTemporalCsr current against the event
// stream, so query planners track the engine incrementally instead of
// rebuilding a TemporalCsr from the temporal view on every epoch
// change.
//
// It shadows the TemporalViewObserver it is constructed over: accepted
// contact events fold into the delta with the exact same semantics the
// view applies to its TemporalGraph (horizon filter, duplicate dedupe,
// relabel = remove old + add new with degrade-to-add when the old label
// is missing, NodeJoin grows the vertex space), so the merged index is
// always bit-identical to TemporalCsr(view.view()). Attach it AFTER the
// view observer — attach() synchronizes it via recompute(), which
// rebases off the view's current graph. The view rebuilds itself from
// the engine's event log, so re-attaching both to a checkpoint-restored
// engine brings the index back whole as well.
//
// advance() is the planner hook: it absorbs the delta into a fresh base
// when the size-ratio compaction policy fires (or when the caller needs
// a current full base, e.g. for routing simulation) and reports whether
// a compaction happened. Counters (<prefix>.csr_delta_appends /
// <prefix>.csr_compactions / <prefix>.csr_builds) land in the registry
// the owner provides, their only surface (without a registry nothing
// is counted) — the QueryBroker passes its own registry with prefix
// "serve" so they surface next to the serving metrics.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"
#include "stream/observer.hpp"
#include "stream/observers.hpp"
#include "temporal/temporal_delta.hpp"

namespace structnet {

class DeltaCsrObserver : public StreamObserver {
 public:
  /// Delta/base size ratio beyond which advance() folds the overlay
  /// into a fresh base (see DeltaTemporalCsr::needs_compaction).
  static constexpr double kDefaultCompactRatio = 0.25;

  /// `view` must outlive the observer and be attached to the same
  /// engine ahead of it. The index starts empty; attach() (via
  /// recompute()) adopts the view's current state.
  explicit DeltaCsrObserver(const TemporalViewObserver& view,
                            double compact_ratio = kDefaultCompactRatio,
                            obs::MetricsRegistry* registry = nullptr,
                            std::string_view prefix = "temporal");

  std::string_view name() const override { return "csr_delta"; }
  void on_event(const DynamicGraph& g, const Event& event,
                const EventEffect& effect) override;
  /// Rebases the index off the tracked view (counted as a base build,
  /// not a compaction — this is the attach/recompute_all path).
  void recompute(const DynamicGraph& g) override;

  /// The live merged index (valid after attach).
  const DeltaTemporalCsr& index() const { return index_; }

  /// Planner hook: compacts when the ratio policy fires, or when the
  /// caller requires a current full base (`force_full_base`) and the
  /// delta is non-empty. Returns true iff a compaction ran.
  bool advance(bool force_full_base = false);

 private:
  void count_appends(std::uint64_t n);
  void rebase_from_view(bool is_compaction);

  const TemporalViewObserver& view_;
  DeltaTemporalCsr index_;
  double compact_ratio_;
  obs::Counter* appends_counter_ = nullptr;
  obs::Counter* compactions_counter_ = nullptr;
  obs::Counter* builds_counter_ = nullptr;
};

}  // namespace structnet
