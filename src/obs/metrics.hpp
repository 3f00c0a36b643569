// Process-wide metrics registry: named counters, gauges, and
// power-of-two histograms with lock-free hot-path updates and a
// consistent snapshot surface.
//
// Design rules:
//
//   * Updates never take a lock. Counters shard their cells across a
//     small power-of-two array indexed by a per-thread slot, so N
//     threads hammering one counter touch N distinct cache lines;
//     gauges and histogram buckets are single relaxed/release atomics.
//   * Registration (registry.counter("name")) takes a mutex and does a
//     map lookup — call sites on hot paths cache the returned reference
//     (a function-local `static Counter&` works: metric objects are
//     heap-pinned and live as long as the registry).
//   * snapshot() walks the registry under the registration mutex and
//     reads each metric with acquire loads. Individual metric values
//     are exact points in the update order; across metrics the snapshot
//     is only quiescently consistent (two counters incremented together
//     may be caught one-apart mid-update). Histogram snapshots preserve
//     the invariant sum(buckets) >= count (bucket cells are released
//     before the count), and are exact at quiescence.
//   * Histogram buckets are powers of two: bucket i counts values with
//     bit_width == i + 1, i.e. values in [2^i, 2^(i+1)), bucket 0 also
//     absorbing 0, and the last bucket absorbing everything at or above
//     2^(kHistogramBuckets-1).
//
// With STRUCTNET_OBS=OFF (see src/obs/CMakeLists.txt) the sharding and
// the tracing layer compile away; counters degrade to single plain
// atomics so the values read through snapshot() (the serving layer's
// only metrics surface) stay exact.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef STRUCTNET_OBS_ENABLED
#define STRUCTNET_OBS_ENABLED 1
#endif

namespace structnet::obs {

/// Compile-time switch mirror of the STRUCTNET_OBS CMake option.
inline constexpr bool kEnabled = STRUCTNET_OBS_ENABLED != 0;

// ------------------------------------------------------ bucket geometry

inline constexpr std::size_t kHistogramBuckets = 40;

/// Bucket holding `value`: bit_width(value) - 1, clamped into the top
/// bucket; 0 for value == 0.
inline std::size_t histogram_bucket(std::uint64_t value) {
  const std::size_t width = std::bit_width(value);  // 0 for value == 0
  return width == 0 ? 0
                    : (width - 1 < kHistogramBuckets - 1 ? width - 1
                                                         : kHistogramBuckets - 1);
}

/// Exclusive upper edge of bucket i (2^(i+1)) — a hard bound for every
/// bucket except the last, which is open-ended.
inline std::uint64_t histogram_bucket_edge(std::size_t bucket) {
  return std::uint64_t{1} << (bucket + 1);
}

/// Nearest-rank quantile upper bound over bucketed counts: the value at
/// rank ceil(q * count) (clamped to [1, count]) is bounded above by its
/// bucket's upper edge — tightened by `max_value` (an upper bound on
/// every sample), which is also the only valid bound when the rank
/// falls in the open-ended last bucket (samples there may exceed the
/// edge). Returns 0 when count == 0.
std::uint64_t histogram_quantile_upper(
    const std::array<std::uint64_t, kHistogramBuckets>& buckets,
    std::uint64_t count, std::uint64_t max_value, double q);

// -------------------------------------------------------------- metrics

namespace detail {
/// Per-thread shard slot, assigned round-robin on first use so threads
/// spread across counter cells without hashing.
std::uint32_t this_thread_shard();
}  // namespace detail

/// Monotone event counter. add() is lock-free; value() sums the shards
/// (exact at quiescence, a valid point value under concurrency).
class Counter {
 public:
#if STRUCTNET_OBS_ENABLED
  static constexpr std::size_t kShards = 16;  // power of two

  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::this_thread_shard() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_acquire);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
#else
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
#endif
};

/// Point-in-time signed level (queue depths, resident bytes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_release); }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// One histogram read: plain values, carries the derived statistics.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  double mean() const {
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
  }
  std::uint64_t quantile_upper(double q) const {
    return histogram_quantile_upper(buckets, count, max, q);
  }
};

/// Power-of-two histogram of nonnegative samples (latencies in ns,
/// sizes in bytes). record() is lock-free: bucket cells are released
/// before the count so a concurrent snapshot never sees count exceed
/// the bucket sum.
class Histogram {
 public:
  void record(std::uint64_t value) noexcept {
    bucket_[histogram_bucket(value)].fetch_add(1, std::memory_order_release);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (seen < value && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
    count_.fetch_add(1, std::memory_order_release);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_acquire);
    s.sum = sum_.load(std::memory_order_acquire);
    s.max = max_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = bucket_[i].load(std::memory_order_acquire);
    }
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> bucket_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// ------------------------------------------------------------- registry

/// A named-metric namespace. Metric objects are heap-pinned: references
/// returned by counter()/gauge()/histogram() stay valid for the
/// registry's lifetime (the process, for global()).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

    /// Value of a named counter / gauge, 0 when absent (entries are
    /// name-sorted; this is a binary search).
    std::uint64_t counter_value(std::string_view name) const;
    std::int64_t gauge_value(std::string_view name) const;
    const HistogramSnapshot* histogram_snapshot(std::string_view name) const;
  };

  /// Reads every registered metric (name-sorted). See header note for
  /// the consistency contract.
  Snapshot snapshot() const;

  /// Emits one JSON line per metric: {"metrics": <label>, "name": ...,
  /// "value": ...} for counters/gauges, count/mean/p50/p99/max fields
  /// for histograms. Lines start with '{' like BENCH lines, keyed
  /// "metrics" instead of "bench".
  void emit_json(std::ostream& os, std::string_view label = "registry") const;

  /// The process-wide registry the instrumented layers (stream,
  /// temporal, parallel, fault) publish into. Never destroyed, so
  /// worker threads can update counters during static teardown.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;  // registration + iteration; never on update paths
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Dumps the global registry as JSON lines — the end-of-run hook the
/// bench binaries call so kernel/pool/IO counters land in the BENCH
/// stream.
void emit_json(std::ostream& os);

}  // namespace structnet::obs
