// Epoch-keyed LRU result cache of the serving layer.
//
// Key = (query fingerprint, DynamicGraph epoch). Because the epoch is
// strictly monotone over accepted events (see DynamicGraph::epoch), a
// key can never alias two graph states: entries stored at an older
// epoch are simply unreachable once the engine advances. The broker's
// stream-observer hook calls invalidate_before() on every accepted
// event so stale entries also stop occupying the byte budget, and the
// eviction policy (least-recently-used first) bounds resident bytes by
// the configured budget.
//
// Accounting contract: stats().bytes/entries always equal a full
// recount of the live entries (recount() — the regression tests churn
// overwrites/evictions/invalidations against it). Counters live in an
// obs::MetricsRegistry (the broker passes its own, so the cache's
// counters appear in the broker's metrics() snapshot); a cache
// constructed without a registry owns a private one.
//
// The cache is not internally synchronized; the broker guards it with
// its own mutex (lookups/inserts happen under the serve lock).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "serve/query.hpp"

namespace structnet {

class ResultCache {
 public:
  /// `byte_budget` bounds the estimated resident payload bytes; inserts
  /// evict least-recently-used entries until the budget holds. Metrics
  /// register into `registry` under `prefix` (e.g. "serve.cache" gives
  /// "serve.cache.hits"); with no registry the cache owns a private one.
  explicit ResultCache(std::size_t byte_budget = std::size_t{64} << 20,
                       obs::MetricsRegistry* registry = nullptr,
                       std::string_view prefix = "cache");

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;       // budget-driven LRU drops
    std::uint64_t invalidations = 0;   // epoch-advance drops
    std::size_t bytes = 0;             // current resident estimate
    std::size_t entries = 0;
  };

  /// The payload cached for (fingerprint, epoch), refreshing its LRU
  /// position; std::nullopt on miss. Hit/miss counters update.
  std::optional<QueryPayload> lookup(const std::string& fingerprint,
                                     std::uint64_t epoch);

  /// Caches a payload under (fingerprint, epoch), then evicts LRU
  /// entries until the byte budget holds (the new entry itself may be
  /// evicted when it alone exceeds the budget). Re-inserting an
  /// existing key refreshes its payload and LRU position.
  void insert(const std::string& fingerprint, std::uint64_t epoch,
              const QueryPayload& payload);

  /// Drops every entry with epoch < `epoch` — the engine advanced, so
  /// those keys can never be looked up again. O(1) when nothing is
  /// stale.
  void invalidate_before(std::uint64_t epoch);

  void clear();

  std::size_t byte_budget() const { return budget_; }

  /// Point-in-time counter/gauge values (reads the registry metrics).
  Stats stats() const;

  /// Recomputed resident footprint: payload_bytes() summed over every
  /// live entry plus the live entry count. The accounting invariant —
  /// recount() == {stats().bytes, stats().entries} after any operation
  /// sequence — is what the churn regression test asserts.
  struct Recount {
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };
  Recount recount() const;

 private:
  struct Entry {
    std::string key;  // fingerprint + '@' + epoch
    std::uint64_t epoch = 0;
    QueryPayload payload;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Entry>;  // front = most recently used

  static std::string make_key(const std::string& fingerprint,
                              std::uint64_t epoch);
  void erase_entry(Lru::iterator it);
  void publish_gauges();

  std::size_t budget_;
  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> index_;
  std::size_t bytes_ = 0;  // authoritative resident estimate
  /// Lower-bound hint on the smallest epoch present (0 when empty) —
  /// the invalidate fast path. Evictions may leave it stale-low (the
  /// scan then just finds nothing), never stale-high.
  std::uint64_t min_epoch_ = 0;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;  // when none passed
  obs::MetricsRegistry* registry_;  // owned_registry_.get() or the caller's
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& inserts_;
  obs::Counter& evictions_;
  obs::Counter& invalidations_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace structnet
