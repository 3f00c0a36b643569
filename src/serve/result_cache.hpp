// One-epoch LRU result cache of the serving layer.
//
// Every entry belongs to the one epoch the cache holds, so the key is
// the query fingerprint alone. A lookup at any other epoch misses; an
// insert or invalidate_before() at a newer epoch drops every entry
// first (counted as invalidations); an insert at an older epoch is not
// stored. Because the DynamicGraph epoch is strictly monotone over
// accepted events, an entry can never be served for a graph state other
// than the one it was computed on. The broker looks up and inserts only
// at the flush epoch, under the executor lock that apply_events() also
// holds, and its stream-observer hook calls invalidate_before() on every
// accepted event, so one epoch is all it ever reads. Least-recently-used
// eviction bounds resident bytes by the configured budget.
//
// Metrics live in the caller's obs::MetricsRegistry under "serve.cache."
// (the broker passes its own, so they appear in its metrics() snapshot).
// Accounting contract: the "serve.cache.bytes" / "serve.cache.entries"
// gauges always equal a full recount of the live entries (recount() —
// the regression tests churn overwrites/evictions/invalidations against
// it).
//
// The cache is not internally synchronized; the broker guards it with
// its own mutex (lookups/inserts happen under the serve lock).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "serve/query.hpp"

namespace structnet {

class ResultCache {
 public:
  /// `byte_budget` bounds the estimated resident payload bytes; inserts
  /// evict least-recently-used entries until the budget holds. Metrics
  /// register into `registry` (e.g. "serve.cache.hits").
  ResultCache(std::size_t byte_budget, obs::MetricsRegistry& registry);

  /// The payload cached for `fingerprint` when `epoch` is the cache's
  /// epoch, refreshing its LRU position; std::nullopt on miss. Hit/miss
  /// counters update.
  std::optional<QueryPayload> lookup(const std::string& fingerprint,
                                     std::uint64_t epoch);

  /// Caches a payload computed at `epoch`, then evicts LRU entries until
  /// the byte budget holds (the new entry itself may be evicted when it
  /// alone exceeds the budget). A newer epoch first drops every entry;
  /// an older one is not stored. Re-inserting an existing fingerprint
  /// refreshes its payload and LRU position.
  void insert(const std::string& fingerprint, std::uint64_t epoch,
              const QueryPayload& payload);

  /// The engine advanced to `epoch`: when it is newer than the cache's,
  /// every entry drops (none can be looked up again).
  void invalidate_before(std::uint64_t epoch);

  std::size_t byte_budget() const { return budget_; }

  /// Recomputed resident footprint: payload_bytes() summed over every
  /// live entry plus the live entry count. The accounting invariant —
  /// recount() equals the bytes/entries gauges after any operation
  /// sequence — is what the churn regression test asserts.
  struct Recount {
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };
  Recount recount() const;

 private:
  struct Entry {
    std::string fingerprint;
    QueryPayload payload;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Entry>;  // front = most recently used

  /// Moves the cache to `epoch` (newer than epoch_), dropping every entry.
  void advance(std::uint64_t epoch);
  void erase_entry(Lru::iterator it);
  void publish_gauges();

  std::size_t budget_;
  std::uint64_t epoch_ = 0;  // the epoch every entry belongs to
  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> index_;
  std::size_t bytes_ = 0;  // authoritative resident estimate

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& inserts_;
  obs::Counter& evictions_;
  obs::Counter& invalidations_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace structnet
