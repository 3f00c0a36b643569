#include "serve/result_cache.hpp"

#include <iterator>

namespace structnet {

ResultCache::ResultCache(std::size_t byte_budget,
                         obs::MetricsRegistry& registry)
    : budget_(byte_budget),
      hits_(registry.counter("serve.cache.hits")),
      misses_(registry.counter("serve.cache.misses")),
      inserts_(registry.counter("serve.cache.inserts")),
      evictions_(registry.counter("serve.cache.evictions")),
      invalidations_(registry.counter("serve.cache.invalidations")),
      bytes_gauge_(registry.gauge("serve.cache.bytes")),
      entries_gauge_(registry.gauge("serve.cache.entries")) {}

void ResultCache::publish_gauges() {
  bytes_gauge_.set(static_cast<std::int64_t>(bytes_));
  entries_gauge_.set(static_cast<std::int64_t>(lru_.size()));
}

std::optional<QueryPayload> ResultCache::lookup(const std::string& fingerprint,
                                                std::uint64_t epoch) {
  const auto it = epoch == epoch_ ? index_.find(fingerprint) : index_.end();
  if (it == index_.end()) {
    misses_.add();
    return std::nullopt;
  }
  // Refresh recency: move the entry to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.add();
  return it->second->payload;
}

void ResultCache::insert(const std::string& fingerprint, std::uint64_t epoch,
                         const QueryPayload& payload) {
  if (epoch < epoch_) return;  // computed on a graph the cache moved past
  if (epoch > epoch_) advance(epoch);
  if (const auto it = index_.find(fingerprint); it != index_.end()) {
    // Same-key overwrite: swap the byte charge atomically with the
    // payload so an eviction triggered below never double-counts.
    bytes_ -= it->second->bytes;
    it->second->payload = payload;
    it->second->bytes = payload_bytes(payload);
    bytes_ += it->second->bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    const std::size_t bytes = payload_bytes(payload);
    lru_.push_front(Entry{fingerprint, payload, bytes});
    index_.emplace(fingerprint, lru_.begin());
    bytes_ += bytes;
  }
  inserts_.add();
  while (bytes_ > budget_ && !lru_.empty()) {
    erase_entry(std::prev(lru_.end()));
    evictions_.add();
  }
  publish_gauges();
}

void ResultCache::invalidate_before(std::uint64_t epoch) {
  if (epoch <= epoch_) return;
  advance(epoch);
  publish_gauges();
}

void ResultCache::advance(std::uint64_t epoch) {
  invalidations_.add(lru_.size());
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  epoch_ = epoch;
}

void ResultCache::erase_entry(Lru::iterator it) {
  bytes_ -= it->bytes;
  index_.erase(it->fingerprint);
  lru_.erase(it);
}

ResultCache::Recount ResultCache::recount() const {
  Recount r;
  for (const Entry& e : lru_) {
    r.bytes += payload_bytes(e.payload);
    ++r.entries;
  }
  return r;
}

}  // namespace structnet
