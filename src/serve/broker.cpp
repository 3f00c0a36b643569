#include "serve/broker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "centrality/centrality.hpp"
#include "layering/nsf.hpp"
#include "parallel/parallel.hpp"
#include "temporal/temporal_centrality.hpp"

namespace structnet {

namespace {

/// A FastestJourney payload from its departure profile result: one
/// earliest-arrival sweep from the span-minimal departure materializes
/// a journey realizing that span — fastest_journey() exactly, minus the
/// per-call CSR build. Shared by lane blocks and lone queries.
QueryPayload fastest_journey_payload(
    const DeltaTemporalCsr& index, VertexId source, VertexId target,
    const std::optional<std::pair<TimeUnit, TimeUnit>>& departure,
    TemporalWorkspace& ws) {
  if (!departure) return QueryPayload(std::optional<Journey>());
  csr_earliest_arrival(index, source, departure->first, ws, target);
  assert(ws.arrival(target) != kNeverTime);
  return QueryPayload(std::optional<Journey>(ws.journey(source, target)));
}

Strategy make_strategy(RoutingStrategy strategy) {
  switch (strategy) {
    case RoutingStrategy::kDirect:
      return direct_strategy();
    case RoutingStrategy::kEpidemic:
      return epidemic_strategy();
    case RoutingStrategy::kSprayAndWait:
      return spray_and_wait_strategy();
  }
  return direct_strategy();
}

/// Duration helper that can never go negative: a fake clock (or a
/// platform with a non-monotonic steady_clock bug) that hands back
/// to <= from yields 0, not a wrapped-around huge unsigned value.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return to <= from
             ? 0
             : static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                                        from)
                       .count());
}

/// Span names for the per-query kernel traces, indexed by QueryKind.
/// Literal pointers: the trace layer borrows, never copies, names.
constexpr const char* kKernelSpanName[kQueryKindCount] = {
    "serve.kernel.temporal_distances", "serve.kernel.fastest_journey",
    "serve.kernel.min_hop_journey",    "serve.kernel.nsf_report",
    "serve.kernel.centrality",         "serve.kernel.routing_trials",
};

}  // namespace

QueryBroker::Metrics::Metrics(obs::MetricsRegistry& r)
    : submitted(r.counter("serve.submitted")),
      admitted(r.counter("serve.admitted")),
      shed_queue_full(r.counter("serve.shed_queue_full")),
      rejected_invalid(r.counter("serve.rejected_invalid")),
      rejected_shutdown(r.counter("serve.rejected_shutdown")),
      timed_out(r.counter("serve.timed_out")),
      executed(r.counter("serve.executed")),
      batches(r.counter("serve.batches")),
      lanes_packed(r.counter("serve.lanes_packed")),
      sweeps_saved(r.counter("serve.sweeps_saved")),
      fastest_lanes_packed(r.counter("serve.fastest_lanes_packed")),
      csr_builds(r.counter("serve.csr_builds")),
      csr_delta_appends(r.counter("serve.csr_delta_appends")),
      csr_compactions(r.counter("serve.csr_compactions")),
      csr_reuses(r.counter("serve.csr_reuses")),
      graph_builds(r.counter("serve.graph_builds")),
      graph_reuses(r.counter("serve.graph_reuses")),
      update_faults(r.counter("serve.update.faults")),
      update_retries(r.counter("serve.update.retries")),
      update_failures(r.counter("serve.update.failures")),
      update_probes(r.counter("serve.update.probes")),
      rejected_read_only(r.counter("serve.update.rejected_read_only")),
      stale_served(r.counter("serve.stale_served")),
      queue_depth(r.gauge("serve.queue_depth")),
      max_queue_depth(r.gauge("serve.max_queue_depth")),
      queue_wait_ns(r.histogram("serve.queue_wait_ns")) {
  for (std::size_t k = 0; k < kQueryKindCount; ++k) {
    std::string name = "serve.latency.";
    name += to_string(static_cast<QueryKind>(k));
    latency[k] = &r.histogram(name);
  }
}

QueryBroker::QueryBroker(StreamEngine& engine, TemporalViewObserver* temporal,
                         BrokerConfig config)
    : engine_(engine),
      temporal_(temporal),
      config_(config),
      metrics_(registry_),
      health_(registry_),
      cache_(config.cache_bytes, registry_) {
  // Attached after the temporal view, so the attach-time recompute()
  // adopts the view's current state and later events fold behind it.
  engine_.attach(this);
}

QueryBroker::~QueryBroker() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping_ = true;  // new submissions shed with kShutdown from here on
  }
  stop();  // drains the queue when the dispatcher was running
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    leftovers.swap(queue_);
  }
  for (Pending& p : leftovers) {
    QueryResult result;
    result.status = QueryStatus::kRejected;
    result.cause = RejectCause::kShutdown;
    p.promise.set_value(std::move(result));
  }
  metrics_.rejected_shutdown.add(leftovers.size());
  metrics_.queue_depth.set(0);
  engine_.detach(this);
}

std::future<QueryResult> QueryBroker::submit(Query query,
                                             SubmitOptions options) {
  STRUCTNET_OBS_SPAN("serve.submit");
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();
  const Clock::time_point now = clock_now();

  RejectCause shed = RejectCause::kNone;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopping_) {
      shed = RejectCause::kShutdown;
    } else if (queue_.size() >= config_.max_queue) {
      shed = RejectCause::kQueueFull;  // backpressure: shed, never block
    } else {
      Pending p;
      p.query = std::move(query);
      p.promise = std::move(promise);
      p.submitted = now;
      p.has_deadline = options.deadline.count() > 0;
      p.deadline = now + options.deadline;
      queue_.push_back(std::move(p));
      max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
      metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      metrics_.max_queue_depth.set(
          static_cast<std::int64_t>(max_queue_depth_));
      queue_cv_.notify_one();
    }
  }

  metrics_.submitted.add();
  if (shed == RejectCause::kQueueFull) metrics_.shed_queue_full.add();
  if (shed == RejectCause::kShutdown) metrics_.rejected_shutdown.add();
  if (shed == RejectCause::kNone) metrics_.admitted.add();
  if (shed != RejectCause::kNone) {
    QueryResult result;
    result.status = QueryStatus::kRejected;
    result.cause = shed;
    promise.set_value(std::move(result));
  }
  return future;
}

std::optional<RejectCause> QueryBroker::validate(const Query& query) const {
  const bool temporal = query_is_temporal(query);
  if (temporal && temporal_ == nullptr) return RejectCause::kInvalidArgument;
  const std::size_t n =
      temporal ? index_.vertex_count() : engine_.graph().vertex_count();
  const auto in_range = [n](VertexId v) { return v < n; };
  bool ok = true;
  std::visit(
      [&](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, TemporalDistancesQuery>) {
          ok = in_range(q.source);
        } else if constexpr (std::is_same_v<T, FastestJourneyQuery> ||
                             std::is_same_v<T, MinHopJourneyQuery>) {
          ok = in_range(q.source) && in_range(q.target);
        } else if constexpr (std::is_same_v<T, NsfReportQuery>) {
          ok = std::isfinite(q.stop_fraction) && q.stop_fraction > 0.0 &&
               q.stop_fraction <= 1.0 && std::isfinite(q.ks_threshold) &&
               q.ks_threshold >= 0.0;
        } else if constexpr (std::is_same_v<T, CentralityQuery>) {
          ok = true;
        } else if constexpr (std::is_same_v<T, RoutingTrialsQuery>) {
          ok = in_range(q.source) && in_range(q.destination) &&
               std::isfinite(q.loss_probability);
        }
      },
      query);
  return ok ? std::nullopt : std::make_optional(RejectCause::kInvalidArgument);
}

QueryPayload QueryBroker::execute_payload(const Query& query,
                                          Scratch& scratch) {
  STRUCTNET_OBS_SPAN(
      kKernelSpanName[static_cast<std::size_t>(kind_of(query))]);
  // Per-query kernels run serial (threads = 1): the batch is already
  // sharded across the pool one query per shard, and serial kernels
  // keep results trivially thread-count-invariant. Only temporal kinds
  // read the contact index, and validate() rejects them without a view.
  return std::visit(
      [&](const auto& q) -> QueryPayload {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, TemporalDistancesQuery>) {
          csr_earliest_arrival(index_, q.source, q.t_start, scratch.scalar);
          EarliestArrival ea = scratch.scalar.to_earliest_arrival();
          return QueryPayload(std::move(ea.completion));
        } else if constexpr (std::is_same_v<T, FastestJourneyQuery>) {
          // A one-lane block: the same profile sweep a lane-packed
          // block shares across a batch's misses.
          if (q.source == q.target) {
            return QueryPayload(std::optional<Journey>(Journey{}));
          }
          const FastestLane lane{q.source, q.target, q.t_start};
          return fastest_journey_payload(
              index_, q.source, q.target,
              csr_fastest_departure_batch(index_, {&lane, 1}, scratch.lanes)
                  .front(),
              scratch.scalar);
        } else if constexpr (std::is_same_v<T, MinHopJourneyQuery>) {
          return QueryPayload(csr_minimum_hop_journey(
              index_, q.source, q.target, q.t_start, scratch.scalar));
        } else if constexpr (std::is_same_v<T, NsfReportQuery>) {
          return QueryPayload(
              nsf_report(*graph_, q.stop_fraction, q.ks_threshold, 1));
        } else if constexpr (std::is_same_v<T, CentralityQuery>) {
          if (q.measure == CentralityMeasure::kTemporalCloseness) {
            // Reads the batch's contact index, not *graph_ (which the
            // planner may not have materialized for a temporal-only
            // batch). Internally an all-sources lane-packed sweep;
            // serial like every per-query kernel.
            return QueryPayload(temporal_closeness(index_, 1));
          }
          switch (q.measure) {
            case CentralityMeasure::kDegree:
              return QueryPayload(degree_centrality(*graph_));
            case CentralityMeasure::kCloseness:
              return QueryPayload(closeness_centrality(*graph_));
            case CentralityMeasure::kBetweenness:
              return QueryPayload(betweenness_centrality(*graph_));
            case CentralityMeasure::kClustering:
              return QueryPayload(clustering_coefficients(*graph_));
            case CentralityMeasure::kTemporalCloseness:
              break;  // handled above
          }
          return QueryPayload(degree_centrality(*graph_));
        } else {  // RoutingTrialsQuery
          SimulationFaults faults;
          faults.ttl = q.ttl;
          faults.loss_probability = q.loss_probability;
          faults.loss_seed = q.loss_seed;
          faults.plan = q.plan;
          faults.retry = q.retry;
          return QueryPayload(simulate_routing_trials(
              index_, q.source, q.destination, q.t0,
              make_strategy(q.strategy), q.initial_copies, faults, q.trials,
              1));
        }
      },
      query);
}

void QueryBroker::resolve(Pending& pending, QueryResult result,
                          Clock::time_point now) {
  if (result.status == QueryStatus::kOk) {
    metrics_.latency[static_cast<std::size_t>(kind_of(pending.query))]->record(
        elapsed_ns(pending.submitted, now));
  }
  pending.promise.set_value(std::move(result));
}

std::size_t QueryBroker::flush() {
  STRUCTNET_OBS_SPAN("serve.flush");
  std::lock_guard<std::mutex> exec_lk(exec_mu_);

  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    const std::size_t take = std::min(queue_.size(), kMaxBatch);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  if (batch.empty()) return 0;

  const std::uint64_t epoch = engine_.graph().epoch();
  const Clock::time_point gate_now = clock_now();
  // Health observed once per batch: with the circuit open this epoch is
  // the last GOOD epoch (updates are failing), so every result in the
  // batch carries the same staleness annotation.
  const HealthState health = health_.state();
  const bool stale = health != HealthState::kHealthy;
  const auto annotate = [&](QueryResult& result) {
    result.health = health;
    result.stale = stale;
    if (stale && result.status == QueryStatus::kOk) {
      metrics_.stale_served.add();
    }
  };

  // Phase 1 — admission gate + cache, in submission order. Queries that
  // survive land on the execution list; in-batch duplicates of a
  // cacheable fingerprint execute once and alias the first instance.
  std::vector<std::size_t> exec;
  std::vector<std::string> exec_fp;
  std::vector<char> exec_cacheable;
  std::unordered_map<std::string, std::size_t> first_of;  // fp -> exec index
  std::vector<std::pair<std::size_t, std::size_t>> aliases;  // batch, exec
  bool need_csr = false, need_graph = false;
  {
    STRUCTNET_OBS_SPAN("serve.admission");
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Pending& p = batch[i];
      metrics_.queue_wait_ns.record(elapsed_ns(p.submitted, gate_now));
      // A deadline that expires exactly at dequeue has no budget left:
      // classify at >= (the old > let a zero-remaining query through).
      if (p.has_deadline && gate_now >= p.deadline) {
        QueryResult result;
        result.status = QueryStatus::kTimedOut;
        metrics_.timed_out.add();
        resolve(p, std::move(result), gate_now);
        continue;
      }
      if (const auto cause = validate(p.query)) {
        QueryResult result;
        result.status = QueryStatus::kRejected;
        result.cause = *cause;
        metrics_.rejected_invalid.add();
        resolve(p, std::move(result), gate_now);
        continue;
      }
      const bool cacheable =
          config_.cache_bytes > 0 && query_cacheable(p.query);
      std::string fp = cacheable ? query_fingerprint(p.query) : std::string();
      if (cacheable) {
        // Batch dedup first: a duplicate of an earlier miss in this
        // batch waits for that execution instead of running (or probing
        // the cache — the first instance already missed) again, so
        // hit/miss counts don't depend on how submissions split into
        // batches.
        if (const auto it = first_of.find(fp); it != first_of.end()) {
          aliases.emplace_back(i, it->second);
          continue;
        }
        std::optional<QueryPayload> hit;
        {
          std::lock_guard<std::mutex> lk(serve_mu_);
          hit = cache_.lookup(fp, epoch);
        }
        if (hit) {
          QueryResult result;
          result.status = QueryStatus::kOk;
          result.epoch = epoch;
          result.from_cache = true;
          result.payload = std::move(*hit);
          annotate(result);
          resolve(p, std::move(result), clock_now());
          continue;
        }
        first_of.emplace(fp, exec.size());
      }
      need_csr = need_csr || query_is_temporal(p.query);
      need_graph = need_graph || !query_is_temporal(p.query);
      exec.push_back(i);
      exec_fp.push_back(std::move(fp));
      exec_cacheable.push_back(cacheable ? 1 : 0);
    }
  }

  // Phase 2 — batch plan: ONE contact index and ONE materialized graph
  // per epoch, shared by every query in the batch (and reused across
  // batches while the epoch holds still).
  {
    STRUCTNET_OBS_SPAN("serve.plan");
    if (need_csr) {
      // Delta-advance planning: on_event has been folding accepted
      // contact events all along, so the merged index already sits at
      // this epoch. Only the index's own compaction policy pays a
      // rebuild, and it merges the index's own base and delta.
      STRUCTNET_OBS_SPAN("serve.plan.delta_advance");
      if (index_.needs_compaction()) {
        index_.compact();
        metrics_.csr_builds.add();
        metrics_.csr_compactions.add();
      } else {
        metrics_.csr_reuses.add();
      }
    }
    if (need_graph) {
      if (!graph_ || graph_epoch_ != epoch) {
        STRUCTNET_OBS_SPAN("serve.plan.graph_build");
        graph_.emplace(engine_.graph().materialize());
        graph_epoch_ = epoch;
        metrics_.graph_builds.add();
      } else {
        metrics_.graph_reuses.add();
      }
    }
  }

  // Phase 2b — lane-pack plan: batch misses become lanes of shared
  // sweeps (temporal/multi_source.hpp) instead of one scalar sweep each.
  //   * FastestJourney misses with source != target, in exec order, up
  //     to 64 lanes per block: one shared per-unit union-find sweep
  //     (csr_fastest_departure_batch) per block. Each lane keeps its own
  //     (source, target, t_start), so one block mixes t_starts.
  //   * TemporalDistances misses sharing a t_start, up to 64 distinct
  //     sources per block: one earliest-arrival sweep
  //     (csr_earliest_arrival_batch); duplicate (source, t_start) pairs
  //     share a lane.
  // Grouping follows exec order, so the plan is a pure function of the
  // batch — and each lane's payload is bit-identical to its one-query
  // run, so lane-packing never changes a result. A lone FastestJourney
  // runs as a one-lane block through execute_payload; singleton
  // distances groups and min-hop journeys stay scalar.
  struct FastestBlock {
    std::vector<FastestLane> lanes;
    std::vector<std::size_t> exec;  // exec index per lane
  };
  struct LaneBlock {
    TimeUnit t_start = 0;
    std::vector<VertexId> sources;                // lane l's source
    std::vector<std::vector<std::size_t>> fills;  // exec indices per lane
  };
  std::vector<FastestBlock> fastest_blocks;
  std::vector<LaneBlock> lane_blocks;
  std::vector<char> lane_filled(exec.size(), 0);
  if (!exec.empty()) {
    STRUCTNET_OBS_SPAN("serve.plan.lane_pack");
    // Fastest candidates, plus t_start groups in first-appearance order
    // (linear scans: both the group count and the lane count are small
    // by construction).
    std::vector<std::size_t> fastest_exec;
    std::vector<TimeUnit> group_key;
    std::vector<std::vector<std::size_t>> group_exec;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      const Query& query = batch[exec[i]].query;
      if (const auto* f = std::get_if<FastestJourneyQuery>(&query)) {
        if (f->source != f->target) fastest_exec.push_back(i);
        continue;
      }
      const auto* q = std::get_if<TemporalDistancesQuery>(&query);
      if (q == nullptr) continue;
      std::size_t g = 0;
      while (g < group_key.size() && group_key[g] != q->t_start) ++g;
      if (g == group_key.size()) {
        group_key.push_back(q->t_start);
        group_exec.emplace_back();
      }
      group_exec[g].push_back(i);
    }
    if (fastest_exec.size() >= 2) {
      for (const std::size_t i : fastest_exec) {
        if (fastest_blocks.empty() || fastest_blocks.back().lanes.size() ==
                                          MultiSourceWorkspace::kMaxLanes) {
          fastest_blocks.emplace_back();
        }
        const auto& q = std::get<FastestJourneyQuery>(batch[exec[i]].query);
        fastest_blocks.back().lanes.push_back({q.source, q.target, q.t_start});
        fastest_blocks.back().exec.push_back(i);
        lane_filled[i] = 1;
      }
      metrics_.fastest_lanes_packed.add(fastest_exec.size());
    }
    std::size_t packed = 0;
    for (std::size_t g = 0; g < group_key.size(); ++g) {
      if (group_exec[g].size() < 2) continue;
      LaneBlock* block = nullptr;
      for (const std::size_t i : group_exec[g]) {
        const auto& q =
            std::get<TemporalDistancesQuery>(batch[exec[i]].query);
        std::size_t lane = 0;
        if (block != nullptr) {
          while (lane < block->sources.size() &&
                 block->sources[lane] != q.source) {
            ++lane;
          }
        }
        if (block == nullptr ||
            (lane == block->sources.size() &&
             lane == MultiSourceWorkspace::kMaxLanes)) {
          lane_blocks.emplace_back();
          block = &lane_blocks.back();
          block->t_start = group_key[g];
          lane = 0;
        }
        if (lane == block->sources.size()) {
          block->sources.push_back(q.source);
          block->fills.emplace_back();
          metrics_.lanes_packed.add();
        }
        block->fills[lane].push_back(i);
        lane_filled[i] = 1;
        ++packed;
      }
    }
    if (!lane_blocks.empty()) {
      metrics_.sweeps_saved.add(packed - lane_blocks.size());
    }
  }

  // Phase 3 — execute: lane blocks first (one sweep per shard; fastest
  // blocks lead, so the longest sweep starts first), then the remaining
  // misses one query per shard. Shard boundaries are a pure function of
  // the batch, so any thread count computes the same per-query results
  // (see parallel/parallel.hpp).
  std::vector<QueryPayload> payloads(exec.size());
  if (!exec.empty()) {
    STRUCTNET_OBS_SPAN("serve.execute");
    const std::size_t slots = resolve_threads(config_.threads);
    if (scratch_.size() < slots) scratch_.resize(slots);
    const std::size_t blocks = fastest_blocks.size() + lane_blocks.size();
    if (blocks > 0) {
      parallel_for_shards(
          0, blocks, /*grain=*/1, config_.threads,
          [&](std::size_t, std::size_t lo, std::size_t hi,
              std::size_t worker) {
            Scratch& scratch = scratch_[worker];
            for (std::size_t b = lo; b < hi; ++b) {
              if (b < fastest_blocks.size()) {
                // The span covers the shared sweep plus every lane's
                // journey materialization: the same work the
                // serve.kernel.fastest_journey span times per lone query.
                STRUCTNET_OBS_SPAN("serve.kernel.fastest_journey_batch");
                const FastestBlock& block = fastest_blocks[b];
                const auto departures = csr_fastest_departure_batch(
                    index_, block.lanes, scratch.lanes);
                for (std::size_t l = 0; l < block.lanes.size(); ++l) {
                  payloads[block.exec[l]] = fastest_journey_payload(
                      index_, block.lanes[l].source, block.lanes[l].target,
                      departures[l], scratch.scalar);
                }
                continue;
              }
              const LaneBlock& block = lane_blocks[b - fastest_blocks.size()];
              const std::span<const VertexId> sources(block.sources.data(),
                                                      block.sources.size());
              {
                STRUCTNET_OBS_SPAN("serve.kernel.temporal_distances_batch");
                csr_earliest_arrival_batch(index_, sources, block.t_start,
                                           scratch.lanes);
              }
              for (std::size_t l = 0; l < block.sources.size(); ++l) {
                // completion(l) is the exact bytes the scalar kernel's
                // payload would carry; duplicates copy, the last moves.
                std::vector<TimeUnit> row = scratch.lanes.completion(l);
                const std::vector<std::size_t>& fills = block.fills[l];
                for (std::size_t k = 0; k + 1 < fills.size(); ++k) {
                  payloads[fills[k]] = QueryPayload(row);
                }
                payloads[fills.back()] = QueryPayload(std::move(row));
              }
            }
          });
    }
    parallel_for_shards(
        0, exec.size(), /*grain=*/1, config_.threads,
        [&](std::size_t shard, std::size_t lo, std::size_t hi,
            std::size_t worker) {
          (void)shard;
          for (std::size_t i = lo; i < hi; ++i) {
            if (lane_filled[i]) continue;  // resolved by a lane block
            payloads[i] =
                execute_payload(batch[exec[i]].query, scratch_[worker]);
          }
        });
  }

  {
    STRUCTNET_OBS_SPAN("serve.cache");
    // Phase 4 — cache fill + resolution, in submission order.
    for (std::size_t i = 0; i < exec.size(); ++i) {
      Pending& p = batch[exec[i]];
      const Clock::time_point now = clock_now();
      metrics_.executed.add();
      if (exec_cacheable[i]) {
        std::lock_guard<std::mutex> lk(serve_mu_);
        cache_.insert(exec_fp[i], epoch, payloads[i]);
      }
      if (p.has_deadline && now >= p.deadline) {
        // Finished past the deadline: the caller asked not to wait this
        // long, so the (valid, now cached) payload is dropped.
        QueryResult result;
        result.status = QueryStatus::kTimedOut;
        metrics_.timed_out.add();
        resolve(p, std::move(result), now);
        continue;
      }
      QueryResult result;
      result.status = QueryStatus::kOk;
      result.epoch = epoch;
      result.payload = std::move(payloads[i]);
      annotate(result);
      resolve(p, std::move(result), now);
    }

    // Phase 5 — resolve in-batch duplicates from the freshly filled
    // cache (a lookup, so the hit is visible in the cache counters).
    for (const auto& [batch_idx, exec_idx] : aliases) {
      Pending& p = batch[batch_idx];
      const Clock::time_point now = clock_now();
      std::optional<QueryPayload> hit;
      {
        std::lock_guard<std::mutex> lk(serve_mu_);
        hit = cache_.lookup(exec_fp[exec_idx], epoch);
      }
      if (p.has_deadline && now >= p.deadline) {
        QueryResult result;
        result.status = QueryStatus::kTimedOut;
        metrics_.timed_out.add();
        resolve(p, std::move(result), now);
        continue;
      }
      QueryResult result;
      result.status = QueryStatus::kOk;
      result.epoch = epoch;
      result.from_cache = hit.has_value();
      // A pathologically small budget can evict the entry before the
      // duplicate reads it back; recompute serially in that case.
      result.payload = hit ? std::move(*hit)
                           : execute_payload(p.query, scratch_.front());
      annotate(result);
      resolve(p, std::move(result), now);
    }
  }

  metrics_.batches.add();
  return batch.size();
}

std::size_t QueryBroker::apply_events(std::span<const Event> events) {
  STRUCTNET_OBS_SPAN("serve.apply_events");
  std::lock_guard<std::mutex> exec_lk(exec_mu_);
  const Clock::time_point now = clock_now();

  if (health_.state() == HealthState::kReadOnly) {
    // Circuit open: fast-fail so callers never burn retries against a
    // known-bad path — unless the dwell elapsed, in which case this
    // very call doubles as the recovery probe.
    if (!health_.probe_due(now)) {
      metrics_.rejected_read_only.add();
      return 0;
    }
    health_.begin_probe();
    metrics_.update_probes.add();
  }

  // Bounded retry with exponential backoff over the pre-commit fault
  // seam. The seam sits BEFORE the engine mutates, so a retry can never
  // double-apply an event (node joins etc. are not idempotent).
  std::chrono::nanoseconds delay = kUpdateBackoffBase;
  for (std::size_t attempt = 1;
       config_.update_fault_fn != nullptr && config_.update_fault_fn();
       ++attempt) {
    metrics_.update_faults.add();
    if (attempt >= kUpdateMaxAttempts) {
      metrics_.update_failures.add();
      health_.on_failure(clock_now());
      // Wake the dispatcher: its watchdog owns the re-probe cadence.
      // The empty critical section orders the health store against the
      // dispatcher's predicate-check-then-block (both under queue_mu_):
      // without it the store + notify could land between the check and
      // the block and the wakeup would be lost.
      { std::lock_guard<std::mutex> lk(queue_mu_); }
      queue_cv_.notify_all();
      return 0;
    }
    metrics_.update_retries.add();
    if (config_.sleep_fn != nullptr) {
      config_.sleep_fn(delay);
    } else {
      std::this_thread::sleep_for(delay);
    }
    delay = std::min(delay * kUpdateBackoffFactor, kUpdateBackoffCap);
  }

  try {
    const std::size_t accepted = engine_.apply_batch(events);
    health_.on_success();
    return accepted;
  } catch (...) {
    // An exception out of the engine itself (WAL IO error, observer
    // failure) is not retryable in place: the batch may be partially
    // applied, so re-running it would double-apply the prefix. Record
    // the failure, degrade, and keep serving the last good epoch.
    metrics_.update_failures.add();
    health_.on_failure(clock_now());
    // Same store-then-notify fence as the retry-exhaustion path above.
    { std::lock_guard<std::mutex> lk(queue_mu_); }
    queue_cv_.notify_all();
    return 0;
  }
}

bool QueryBroker::probe() {
  STRUCTNET_OBS_SPAN("serve.probe");
  std::lock_guard<std::mutex> exec_lk(exec_mu_);
  const Clock::time_point now = clock_now();
  if (!health_.probe_due(now)) return false;
  health_.begin_probe();
  metrics_.update_probes.add();
  if (config_.update_fault_fn != nullptr && config_.update_fault_fn()) {
    metrics_.update_faults.add();
    health_.on_failure(clock_now());
    return false;
  }
  health_.on_success();
  return true;
}

void QueryBroker::start() {
  std::lock_guard<std::mutex> lk(queue_mu_);
  if (dispatching_ || stopping_) return;
  dispatching_ = true;
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void QueryBroker::stop() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    dispatching_ = false;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

bool QueryBroker::dispatching() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return dispatching_;
}

void QueryBroker::dispatch_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      const auto drain = [&] { return !dispatching_ || !queue_.empty(); };
      if (health_.state() == HealthState::kReadOnly) {
        // Watchdog mode: wake at the probe cadence even when no queries
        // arrive, so the circuit re-closes without external traffic.
        queue_cv_.wait_for(lk, HealthMonitor::kProbeBackoff, drain);
      } else {
        // A circuit trip must also break the untimed wait (apply_events
        // notifies on failure): wait(pred) re-checks only its predicate,
        // so without the health clause a parked dispatcher would never
        // re-evaluate the branch above and the watchdog would starve.
        queue_cv_.wait(lk, [&] {
          return drain() || health_.state() == HealthState::kReadOnly;
        });
      }
      // Drain before exiting so stop() implies "all admitted queries
      // resolved".
      if (!dispatching_ && queue_.empty()) return;
    }
    if (health_.state() == HealthState::kReadOnly) probe();
    flush();
  }
}

std::size_t QueryBroker::queue_depth() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return queue_.size();
}

void QueryBroker::on_event(const DynamicGraph& g, const Event&,
                           const EventEffect&) {
  if (temporal_ != nullptr) {
    // The view's own rules, so the merged index stays equal to a fresh
    // TemporalCsr of the view. Joins grow the index and are not counted.
    const std::optional<std::size_t> changed =
        fold_contact_event(index_, g.log().back());
    if (changed && *changed != 0) metrics_.csr_delta_appends.add(*changed);
  }
  // The engine advanced: entries of the old epoch can never be hit
  // again (epoch monotonicity), so release their bytes eagerly.
  std::lock_guard<std::mutex> lk(serve_mu_);
  cache_.invalidate_before(g.epoch());
}

void QueryBroker::recompute(const DynamicGraph& g) {
  // Attach-time (or recompute_all) synchronization, the broker's only
  // read of the view: the view, attached earlier, has already rebuilt,
  // so the index is built from it, and stale cache entries are released.
  if (temporal_ != nullptr) {
    index_ = DeltaTemporalCsr(temporal_->view());
    metrics_.csr_builds.add();
  }
  std::lock_guard<std::mutex> lk(serve_mu_);
  cache_.invalidate_before(g.epoch());
}

}  // namespace structnet
