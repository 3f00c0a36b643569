#include "parallel/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace structnet {

namespace {

thread_local bool tl_in_worker = false;
thread_local std::size_t tl_worker_index = 0;

/// Pool metrics, published into the global registry. Busy/idle are
/// histograms of per-stint durations (one work_on call / one cv wait),
/// so the snapshot exposes both totals (sum) and shape.
struct PoolMetrics {
  obs::Counter& jobs;
  obs::Counter& shards;
  obs::Histogram& busy_ns;
  obs::Histogram& idle_ns;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::MetricsRegistry::global().counter("parallel.jobs"),
        obs::MetricsRegistry::global().counter("parallel.shards"),
        obs::MetricsRegistry::global().histogram("parallel.worker_busy_ns"),
        obs::MetricsRegistry::global().histogram("parallel.worker_idle_ns"),
    };
    return m;
  }
};

std::size_t env_default_threads() {
  if (const char* env = std::getenv("STRUCTNET_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  return hardware_threads();
}

std::atomic<std::size_t> g_default_threads{0};  // 0 = env/hardware

}  // namespace

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void set_default_thread_count(std::size_t threads) {
  g_default_threads.store(threads, std::memory_order_relaxed);
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const std::size_t overridden =
      g_default_threads.load(std::memory_order_relaxed);
  if (overridden > 0) return overridden;
  static const std::size_t from_env = env_default_threads();
  return from_env;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t background = threads > 1 ? threads - 1 : 0;
  workers_.reserve(background);
  for (std::size_t w = 0; w < background; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::in_worker() { return tl_in_worker; }

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if constexpr (obs::kEnabled) {
        const std::uint64_t wait_start = obs::now_ns();
        wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        PoolMetrics::get().idle_ns.record(obs::now_ns() - wait_start);
      } else {
        wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      }
      if (stop_) return;
      seen = generation_;
      job = current_;
      if (job != nullptr) ++job->inside;
    }
    if (job == nullptr) continue;
    work_on(*job, worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --job->inside;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::work_on(Job& job, std::size_t worker) {
  STRUCTNET_OBS_SPAN("parallel.work");
  const std::uint64_t busy_start = obs::kEnabled ? obs::now_ns() : 0;
  std::size_t shards_done = 0;
  const bool was_in_worker = tl_in_worker;
  const std::size_t was_index = tl_worker_index;
  tl_in_worker = true;
  tl_worker_index = worker;
  while (true) {
    const std::size_t shard = job.next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= job.shards) break;
    ++shards_done;
    try {
      (*job.fn)(shard, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.shards) {
      done_cv_.notify_all();
    }
  }
  tl_in_worker = was_in_worker;
  tl_worker_index = was_index;
  if constexpr (obs::kEnabled) {
    PoolMetrics& m = PoolMetrics::get();
    m.busy_ns.record(obs::now_ns() - busy_start);
    if (shards_done > 0) m.shards.add(shards_done);
  }
}

void ThreadPool::run_shards(
    std::size_t shards,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (shards == 0) return;
  if constexpr (obs::kEnabled) PoolMetrics::get().jobs.add();
  if (tl_in_worker || workers_.empty()) {
    // Nested (or degenerate single-thread pool): run inline, keeping the
    // enclosing worker slot so worker-indexed accumulators stay valid.
    for (std::size_t s = 0; s < shards; ++s) fn(s, tl_worker_index);
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mu_);
  Job job;
  job.fn = &fn;
  job.shards = shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = &job;
    ++generation_;
  }
  wake_cv_.notify_all();
  work_on(job, /*worker=*/0);  // the submitting thread is worker 0
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job.completed.load(std::memory_order_acquire) == job.shards &&
             job.inside == 0;
    });
    current_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared(std::size_t threads) {
  if (threads < 2) threads = 2;
  static std::mutex registry_mu;
  // Leaked on purpose: pools live for the process so worker threads
  // never race static destruction order at exit.
  static auto* registry = new std::map<std::size_t, ThreadPool*>();
  std::lock_guard<std::mutex> lock(registry_mu);
  auto it = registry->find(threads);
  if (it == registry->end()) {
    it = registry->emplace(threads, new ThreadPool(threads)).first;
  }
  return *it->second;
}

}  // namespace structnet
