// Shared-memory parallel execution layer: a small work-stealing-free
// thread pool plus parallel_for / parallel_reduce over index ranges.
//
// Design rules that make every converted kernel deterministic:
//
//   * Sharding is a function of (range, grain) ONLY — never of the
//     thread count. A range [begin, end) with grain g always splits into
//     ceil((end-begin)/g) shards with identical boundaries, so the work
//     units (and any per-shard floating-point summation order) are the
//     same whether 1 or 64 threads execute them.
//   * parallel_reduce folds the per-shard partials serially in shard
//     order, so the combine order is fixed at any thread count and
//     results are bit-identical to the threads=1 path.
//   * Stochastic kernels derive one child Rng per shard/trial from the
//     parent seed + shard index (Rng::split), never from a shared
//     stream, so the draw sequence per shard is thread-count-invariant.
//
// Threads only decide WHO runs a shard, never WHAT a shard computes.
// The serial path (threads == 1) runs the same shards inline in shard
// order — it is the identity schedule, not separate code.
//
// Nested parallel_for from inside a pool worker degrades to the serial
// inline path (no deadlock, same results). Exceptions thrown by shard
// bodies are captured and the first one is rethrown on the caller.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace structnet {

/// Resolves a requested thread count: 0 means "the default", which is
/// STRUCTNET_THREADS from the environment when set (parsed once), else
/// std::thread::hardware_concurrency(). Always returns >= 1.
std::size_t resolve_threads(std::size_t requested = 0);

/// Overrides the default thread count for resolve_threads(0). Passing 0
/// restores the env/hardware default.
void set_default_thread_count(std::size_t threads);

/// Hardware concurrency, never 0.
std::size_t hardware_threads();

/// A fixed-size pool of persistent workers executing sharded jobs. The
/// submitting thread participates as worker 0; a pool of `threads`
/// slots owns threads - 1 background threads. Jobs are serialized: one
/// run_shards at a time (concurrent submissions queue on a mutex).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(shard, worker) for every shard in [0, shards), blocking
  /// until all shards finished. `worker` is the executing slot in
  /// [0, threads) — stable for worker-indexed accumulators. The
  /// first exception thrown by a shard is rethrown here after the job
  /// drains. Calling from inside a pool worker runs inline (serial).
  void run_shards(std::size_t shards,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when the calling thread is currently executing a shard of any
  /// ThreadPool (used to flatten nested parallelism).
  static bool in_worker();

  /// Process-lifetime pool with exactly `threads` slots (>= 2). Pools
  /// are cached per size so speedup curves can bench 2/4/8 threads
  /// against the same machinery.
  static ThreadPool& shared(std::size_t threads);

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t shards = 0;
    std::atomic<std::size_t> next{0};       // next shard to claim
    std::atomic<std::size_t> completed{0};  // shards fully executed
    std::size_t inside = 0;  // background workers in the job (under mu_)
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker);
  void work_on(Job& job, std::size_t worker);

  std::mutex submit_mu_;  // serializes run_shards calls
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  Job* current_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Number of shards a range splits into: ceil(range / grain), 0 for an
/// empty range. Grain 0 is treated as 1.
inline std::size_t shard_count(std::size_t range, std::size_t grain) {
  if (range == 0) return 0;
  if (grain == 0) grain = 1;
  return (range + grain - 1) / grain;
}

/// Lowest-level loop: fn(shard, lo, hi, worker) per shard, where
/// [lo, hi) is the shard's subrange of [begin, end). Shard boundaries
/// depend only on (begin, end, grain); `threads` picks the schedule
/// (resolved via resolve_threads). threads == 1, a single shard, or a
/// nested call all run inline in shard order. `worker` is always in
/// [0, resolve_threads(threads)) — the inline path has one executor
/// and reports slot 0 (never the enclosing pool's slot, which could
/// exceed a nested call's own thread count), so accumulators sized by
/// the resolved count are safe at any nesting depth.
template <typename Fn>
void parallel_for_shards(std::size_t begin, std::size_t end, std::size_t grain,
                         std::size_t threads, Fn&& fn) {
  const std::size_t range = end > begin ? end - begin : 0;
  if (grain == 0) grain = 1;
  const std::size_t shards = shard_count(range, grain);
  if (shards == 0) return;
  auto body = [&](std::size_t shard, std::size_t worker) {
    const std::size_t lo = begin + shard * grain;
    const std::size_t hi = std::min(end, lo + grain);
    fn(shard, lo, hi, worker);
  };
  const std::size_t t = resolve_threads(threads);
  if (t <= 1 || shards == 1 || ThreadPool::in_worker()) {
    for (std::size_t s = 0; s < shards; ++s) body(s, 0);
    return;
  }
  const std::function<void(std::size_t, std::size_t)> erased = body;
  ThreadPool::shared(t).run_shards(shards, erased);
}

/// Runs fn(i) for every i in [begin, end), sharded by `grain`.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn, std::size_t threads = 0) {
  parallel_for_shards(begin, end, grain, threads,
                      [&](std::size_t, std::size_t lo, std::size_t hi,
                          std::size_t) {
                        for (std::size_t i = lo; i < hi; ++i) fn(i);
                      });
}

/// Maps each shard subrange to a partial via map(lo, hi) -> T, then
/// folds the partials serially in shard order: combine(acc, partial).
/// Because shard boundaries and fold order are thread-count-invariant,
/// the result is bit-identical at any thread count (including floating-
/// point accumulations).
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T init, Map&& map, Combine&& combine,
                  std::size_t threads = 0) {
  const std::size_t range = end > begin ? end - begin : 0;
  const std::size_t shards = shard_count(range, grain);
  std::vector<T> partial(shards);
  parallel_for_shards(begin, end, grain, threads,
                      [&](std::size_t shard, std::size_t lo, std::size_t hi,
                          std::size_t) { partial[shard] = map(lo, hi); });
  T acc = std::move(init);
  for (T& p : partial) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace structnet
