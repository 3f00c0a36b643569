// The query-serving front-end: a QueryBroker accepts typed queries
// against a StreamEngine-owned graph, batches them, executes batches on
// the parallel ThreadPool, and resolves futures — with a one-epoch
// result cache, admission control, and a metrics registry.
//
// Dataflow per flush():
//
//   submit() ----> bounded queue ----> [flush] deadline / validity gate
//                                         |        (Rejected / TimedOut)
//                                         v
//                                   one-epoch result cache
//                                     hit |   | miss
//                                         |   v
//                                         |  batch plan: delta-advance the
//                                         |  broker's contact index (its
//                                         |  on_event folds events in as
//                                         |  they stream) + ONE materialized
//                                         |  Graph per epoch, shared by the
//                                         |  batch
//                                         |   v
//                                         |  lane-pack plan: FastestJourney
//                                         |  misses -> shared union-find
//                                         |  sweeps, TemporalDistances
//                                         |  misses -> multi-source sweeps
//                                         |  (<= 64 lanes per block)
//                                         |   v
//                                         |  parallel_for over lane blocks,
//                                         |  then over the other queries
//                                         v   v
//                                     futures resolve, cache fills
//
// Guarantees:
//
//   * Admission is non-blocking: a full queue sheds the query with a
//     typed Rejected(kQueueFull) result instead of blocking the caller,
//     so producers can never deadlock against the executor.
//   * Per-query deadlines are wall-clock: an expired query resolves
//     TimedOut — checked before execution (never starts) and after
//     (result discarded) — instead of blocking the batch.
//   * Determinism: queries submitted without deadlines give
//     bit-identical results at ANY thread count. Batch sharding comes
//     from the parallel layer's fixed (range, grain) split, the batch
//     plan is a pure function of the batch, every kernel behind a query
//     kind is thread-count-invariant, and cached payloads are the exact
//     bytes an execution would have produced. A deadline is the only
//     wall-clock input a result can depend on.
//   * Epoch consistency: every query in a batch executes against the
//     same epoch E (the engine's epoch at flush), and the result says
//     so. The broker registers itself as a StreamObserver: each
//     accepted event folds into its contact index (fold_contact_event,
//     the temporal view's own rules, stream/observers.hpp) and
//     empties the cache, which holds only the epoch it serves.
//
// Threading contract: submit() is safe from any thread. flush() /
// apply_events() serialize on an internal executor lock; in dispatcher
// mode (start()/stop()) graph mutations MUST go through apply_events()
// so they cannot race a batch reading the engine.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/health.hpp"
#include "serve/query.hpp"
#include "serve/result_cache.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_delta.hpp"

namespace structnet {

struct BrokerConfig {
  /// Bounded admission queue; submissions beyond this are shed with
  /// Rejected(kQueueFull).
  std::size_t max_queue = 1024;
  /// Thread count for batch execution: 0 = default resolution
  /// (STRUCTNET_THREADS / hardware), 1 = serial.
  std::size_t threads = 0;
  /// Result-cache byte budget; 0 disables caching entirely.
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Clock seam: when set, every wall-clock read (submission stamps,
  /// deadline expiry, latency accounting) goes through this function
  /// instead of steady_clock::now(), so deadline classification is
  /// testable without sleeps. Null = the real monotonic clock.
  std::chrono::steady_clock::time_point (*now_fn)() = nullptr;
  /// Fault seam of the self-healing update path (serve/health.hpp):
  /// checked before each update attempt; returning true means "the
  /// update path is failing right now" (a stand-in for WAL IO errors,
  /// full disks, ...). The seam sits BEFORE the engine mutates, so
  /// retries never double-apply events. Null = never fails.
  bool (*update_fault_fn)() = nullptr;
  /// Sleep seam for retry backoff; null = std::this_thread::sleep_for.
  void (*sleep_fn)(std::chrono::nanoseconds) = nullptr;
};

struct SubmitOptions {
  /// Wall-clock budget measured from submission; zero = no deadline.
  std::chrono::nanoseconds deadline{0};
};

class QueryBroker final : public StreamObserver {
 public:
  /// `temporal` is the engine observer whose TemporalGraph view serves
  /// temporal queries (may be null: temporal queries then reject). It
  /// must be attached to `engine` before the broker is constructed.
  /// Neither reference is owned; both must outlive the broker. The
  /// broker attaches itself to the engine, which builds its contact
  /// index from the view, and detaches in the destructor.
  QueryBroker(StreamEngine& engine, TemporalViewObserver* temporal,
              BrokerConfig config = {});
  ~QueryBroker() override;
  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  /// Largest batch one flush executes (the rest stays queued).
  static constexpr std::size_t kMaxBatch = 256;
  /// Bounded retry for transient update faults (RetryPolicy shape):
  /// attempts per apply_events call, first-retry backoff, exponential
  /// growth, and a cap on any single delay.
  static constexpr std::size_t kUpdateMaxAttempts = 3;
  static constexpr std::chrono::nanoseconds kUpdateBackoffBase =
      std::chrono::microseconds(50);
  static constexpr std::uint32_t kUpdateBackoffFactor = 2;
  static constexpr std::chrono::nanoseconds kUpdateBackoffCap =
      std::chrono::milliseconds(5);

  /// Enqueues a query; never blocks. The future resolves on a later
  /// flush (or immediately when shed / shutting down).
  std::future<QueryResult> submit(Query query, SubmitOptions options = {});

  /// Executes one batch (up to kMaxBatch queued queries, in
  /// submission order) on the calling thread + pool. Returns the number
  /// of queries resolved. Safe to call concurrently with submit();
  /// serialized against apply_events() and the dispatcher.
  std::size_t flush();

  /// Applies graph events through the engine under the executor lock,
  /// so updates serialize with batch execution (the required mutation
  /// path while the dispatcher runs). Returns accepted events.
  ///
  /// Self-healing: transient faults (config.update_fault_fn) are
  /// retried up to kUpdateMaxAttempts with exponential backoff; an
  /// exhausted update fails the health monitor (Healthy -> Degraded,
  /// and ReadOnly once HealthMonitor::kCircuitThreshold consecutive
  /// updates fail).
  /// While ReadOnly, updates fast-fail (return 0) without touching the
  /// engine — except when the probe backoff has elapsed, in which case
  /// the call doubles as the recovery probe. An exception escaping the
  /// engine itself (e.g. a WAL IO error) also counts as a failure and
  /// is swallowed: queries must keep serving the last good epoch.
  std::size_t apply_events(std::span<const Event> events);

  /// Watchdog probe: when the circuit is open and the backoff has
  /// elapsed, re-tests the update path (ReadOnly -> Recovering ->
  /// Healthy or back). Returns true when the probe ran and succeeded.
  /// The background dispatcher calls this on its own; exposed for
  /// dispatcherless (manual flush) serving loops.
  bool probe();

  /// Lock-free health read; stale/health annotations on results carry
  /// the same value observed at flush time.
  HealthState health() const { return health_.state(); }

  /// Starts / stops the background dispatcher thread, which flushes
  /// whenever the queue is non-empty. stop() drains the queue before
  /// returning. Idempotent.
  void start();
  void stop();
  bool dispatching() const;

  std::size_t queue_depth() const;
  const BrokerConfig& config() const { return config_; }

  /// The broker-owned metrics registry: every serving counter, gauge,
  /// and latency histogram, including the result cache's
  /// ("serve.cache.*") and the contact index's ("serve.csr_*").
  /// snapshot() and emit_json() are safe while serving.
  const obs::MetricsRegistry& metrics() const { return registry_; }

  // StreamObserver: folds each accepted event into the contact index
  // and empties the cache at the new epoch; recompute() builds the
  // index from the view (attach time and StreamEngine::recompute_all,
  // both after the view, which is attached first).
  std::string_view name() const override { return "serve"; }
  void on_event(const DynamicGraph& g, const Event& event,
                const EventEffect& effect) override;
  void recompute(const DynamicGraph& g) override;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Query query;
    std::promise<QueryResult> promise;
    Clock::time_point submitted;
    Clock::time_point deadline;  // meaningful iff has_deadline
    bool has_deadline = false;
  };

  /// Pinned references into registry_, resolved once at construction so
  /// the serving hot path never takes the registry lock.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& r);
    obs::Counter& submitted;
    obs::Counter& admitted;
    obs::Counter& shed_queue_full;
    obs::Counter& rejected_invalid;
    obs::Counter& rejected_shutdown;
    obs::Counter& timed_out;
    obs::Counter& executed;
    obs::Counter& batches;
    obs::Counter& lanes_packed;
    obs::Counter& sweeps_saved;
    obs::Counter& fastest_lanes_packed;
    obs::Counter& csr_builds;
    obs::Counter& csr_delta_appends;
    obs::Counter& csr_compactions;
    obs::Counter& csr_reuses;
    obs::Counter& graph_builds;
    obs::Counter& graph_reuses;
    obs::Counter& update_faults;
    obs::Counter& update_retries;
    obs::Counter& update_failures;
    obs::Counter& update_probes;
    obs::Counter& rejected_read_only;
    obs::Counter& stale_served;
    obs::Gauge& queue_depth;
    obs::Gauge& max_queue_depth;
    obs::Histogram& queue_wait_ns;
    std::array<obs::Histogram*, kQueryKindCount> latency{};
  };

  Clock::time_point clock_now() const {
    return config_.now_fn != nullptr ? config_.now_fn() : Clock::now();
  }

  void dispatch_loop();
  /// Validity gate: nullopt when servable, else the reject cause.
  std::optional<RejectCause> validate(const Query& query) const;
  /// Kernel scratch of one worker slot: the scalar kernels' workspace
  /// and the lane-packed sweeps' (a lone FastestJourney runs as a
  /// one-lane block).
  struct Scratch {
    TemporalWorkspace scalar;
    MultiSourceWorkspace lanes;
  };

  /// Executes one query against the epoch-shared snapshots.
  QueryPayload execute_payload(const Query& query, Scratch& scratch);
  void resolve(Pending& pending, QueryResult result, Clock::time_point now);

  StreamEngine& engine_;
  TemporalViewObserver* temporal_;
  const BrokerConfig config_;

  // -- admission queue (queue_mu_)
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  std::size_t max_queue_depth_ = 0;  // high-water mark
  bool stopping_ = false;
  bool dispatching_ = false;
  std::thread dispatcher_;

  // -- executor state: only touched under exec_mu_
  std::mutex exec_mu_;
  /// The contact index every temporal kernel reads (empty without a
  /// temporal view): on_event folds accepted contact events into its
  /// delta as they stream in, recompute() builds it from the view, and
  /// the plan phase compacts it, so planning never rebuilds per epoch.
  DeltaTemporalCsr index_;
  std::optional<Graph> graph_;            // shared same-epoch static graph
  std::uint64_t graph_epoch_ = 0;
  std::vector<Scratch> scratch_;  // one per worker slot

  // -- metrics + cache. Counters/gauges/histograms are lock-free
  //    registry metrics; serve_mu_ only guards the cache *structure*
  //    (acquired after exec_mu_ / queue_mu_, never the other way
  //    around). Declaration order matters: cache_ registers its
  //    counters into registry_.
  obs::MetricsRegistry registry_;
  Metrics metrics_;
  /// Update-path health. Transitions happen under exec_mu_; reads are
  /// lock-free (flush annotations, health(), the dispatcher watchdog).
  HealthMonitor health_;
  mutable std::mutex serve_mu_;
  ResultCache cache_;
};

}  // namespace structnet
