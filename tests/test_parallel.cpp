// Parallel execution layer: ThreadPool / parallel_for / parallel_reduce
// mechanics, and — the load-bearing guarantee — bit-identical results at
// any thread count for every kernel converted to the layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/generators.hpp"
#include "layering/nsf.hpp"
#include "mobility/edge_markovian.hpp"
#include "parallel/parallel.hpp"
#include "sim/dtn_routing.hpp"
#include "sim/multi_message.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/smallworld_metrics.hpp"
#include "temporal/temporal_centrality.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

// ------------------------------------------------- pool mechanics

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoops) {
  std::atomic<int> calls{0};
  parallel_for(0, 0, 4, [&](std::size_t) { ++calls; }, 8);
  parallel_for(10, 10, 4, [&](std::size_t) { ++calls; }, 8);
  parallel_for(10, 5, 4, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  parallel_for(0, n, 7, [&](std::size_t i) { ++hits[i]; }, 8);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPoolTest, GrainZeroAndOversizedGrainWork) {
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 100, 0, [&](std::size_t i) { sum += i; }, 4);
  EXPECT_EQ(sum.load(), 4950u);
  sum = 0;
  parallel_for(0, 100, 1000, [&](std::size_t i) { sum += i; }, 4);
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, ShardBoundariesIndependentOfThreadCount) {
  auto boundaries = [](std::size_t threads) {
    std::vector<std::pair<std::size_t, std::size_t>> out(shard_count(103, 9));
    parallel_for_shards(0, 103, 9, threads,
                        [&](std::size_t shard, std::size_t lo, std::size_t hi,
                            std::size_t) { out[shard] = {lo, hi}; });
    return out;
  };
  const auto serial = boundaries(1);
  EXPECT_EQ(serial, boundaries(2));
  EXPECT_EQ(serial, boundaries(8));
  for (std::size_t s = 1; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s - 1].second, serial[s].first);
  }
  EXPECT_EQ(serial.front().first, 0u);
  EXPECT_EQ(serial.back().second, 103u);
}

TEST(ThreadPoolTest, WorkerIndicesStayWithinThreadCount) {
  const std::size_t threads = 4;
  std::vector<std::size_t> seen(shard_count(64, 1));
  parallel_for_shards(0, 64, 1, threads,
                      [&](std::size_t shard, std::size_t, std::size_t,
                          std::size_t worker) { seen[shard] = worker; });
  for (const std::size_t w : seen) EXPECT_LT(w, threads);
}

TEST(ThreadPoolTest, NestedWorkerIndicesStayWithinNestedThreadCount) {
  // A nested loop runs inline on the enclosing pool's worker, whose
  // slot can exceed the nested call's own thread count. The nested
  // body must still see worker < resolve_threads(its threads), or
  // worker-indexed workspace vectors sized by that count overflow.
  std::atomic<bool> ok{true};
  parallel_for(
      0, 16, 1,
      [&](std::size_t) {
        parallel_for_shards(0, 8, 1, 1,
                            [&](std::size_t, std::size_t, std::size_t,
                                std::size_t worker) {
                              if (worker != 0) ok = false;
                            });
      },
      8);
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCorrectly) {
  const std::size_t n = 16;
  std::vector<std::size_t> inner_sums(n, 0);
  parallel_for(
      0, n, 1,
      [&](std::size_t i) {
        std::size_t sum = 0;
        // Nested: must not deadlock; degrades to the serial inline path.
        parallel_for(0, 100, 8, [&](std::size_t j) { sum += j; }, 8);
        inner_sums[i] = sum;
      },
      8);
  for (const std::size_t s : inner_sums) EXPECT_EQ(s, 4950u);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  auto throwing = [](std::size_t i) {
    if (i == 37) throw std::runtime_error("shard failure");
  };
  EXPECT_THROW(parallel_for(0, 64, 1, throwing, 4), std::runtime_error);
  EXPECT_THROW(parallel_for(0, 64, 1, throwing, 1), std::runtime_error);
  // The pool survives a failed job and keeps executing new ones.
  std::atomic<std::size_t> ok{0};
  parallel_for(0, 64, 1, [&](std::size_t) { ++ok; }, 4);
  EXPECT_EQ(ok.load(), 64u);
}

TEST(ThreadPoolTest, ReduceFoldsInShardOrder) {
  // Concatenating shard ids is order-sensitive: any out-of-order fold
  // (or thread-count dependence) changes the result.
  auto concat = [](std::size_t threads) {
    return parallel_reduce<std::vector<std::size_t>>(
        0, 40, 3, {},
        [](std::size_t lo, std::size_t hi) {
          return std::vector<std::size_t>{lo, hi};
        },
        [](std::vector<std::size_t> acc, std::vector<std::size_t> p) {
          acc.insert(acc.end(), p.begin(), p.end());
          return acc;
        },
        threads);
  };
  const auto serial = concat(1);
  EXPECT_EQ(serial, concat(2));
  EXPECT_EQ(serial, concat(8));
}

TEST(ThreadPoolTest, ResolveThreadsHonorsOverride) {
  set_default_thread_count(3);
  EXPECT_EQ(resolve_threads(0), 3u);
  EXPECT_EQ(resolve_threads(7), 7u);
  set_default_thread_count(0);
  EXPECT_GE(resolve_threads(0), 1u);
}

// ------------------------------------------------- rng splitting

TEST(RngSplitTest, ChildStreamsIgnoreParentDrawHistory) {
  Rng fresh(99);
  Rng used(99);
  for (int i = 0; i < 17; ++i) used.uniform01();
  Rng a = fresh.split(5);
  Rng b = used.split(5);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.uniform01(), b.uniform01());
}

TEST(RngSplitTest, DistinctStreamsDecorrelate) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 64; ++s) seeds.insert(derive_seed(123, s));
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_NE(derive_seed(123, 0), derive_seed(124, 0));
}

// ------------------------------------------------- kernel determinism

TemporalGraph test_trace(std::size_t nodes, TimeUnit horizon,
                         std::uint64_t seed) {
  Rng rng(seed);
  EdgeMarkovianParams p;
  p.nodes = nodes;
  p.horizon = horizon;
  p.birth_probability = 0.08;
  p.death_probability = 0.4;
  return edge_markovian_graph(p, rng);
}

TEST(ParallelDeterminism, TemporalPathLengthBitIdentical) {
  const auto eg = test_trace(48, 24, 11);
  const auto serial = characteristic_temporal_path_length(eg, 1);
  for (const std::size_t threads : {2, 8}) {
    const auto par = characteristic_temporal_path_length(eg, threads);
    EXPECT_EQ(serial.characteristic_length, par.characteristic_length);
    EXPECT_EQ(serial.reachable_fraction, par.reachable_fraction);
  }
  EXPECT_GT(serial.reachable_fraction, 0.0);
}

TEST(ParallelDeterminism, TemporalCentralitiesBitIdentical) {
  const auto eg = test_trace(40, 20, 13);
  const auto close1 = temporal_closeness(eg, 1);
  const auto betw1 = temporal_betweenness(eg, 1);
  for (const std::size_t threads : {2, 8}) {
    EXPECT_EQ(close1, temporal_closeness(eg, threads));
    EXPECT_EQ(betw1, temporal_betweenness(eg, threads));
  }
  EXPECT_GT(*std::max_element(betw1.begin(), betw1.end()), 0.0);
}

TEST(ParallelDeterminism, RoutingTrialsBitIdentical) {
  const auto eg = test_trace(32, 30, 17);
  SimulationFaults faults;
  faults.loss_probability = 0.3;
  faults.loss_seed = 77;
  const auto run = [&](std::size_t threads) {
    return simulate_routing_trials(eg, 0, 31, 0, epidemic_strategy(), 1,
                                   faults, 48, threads);
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.outcomes.size(), 48u);
  for (const std::size_t threads : {2, 8}) {
    const auto par = run(threads);
    EXPECT_EQ(serial.delivered, par.delivered);
    EXPECT_EQ(serial.delivery_ratio, par.delivery_ratio);
    EXPECT_EQ(serial.mean_delivery_time, par.mean_delivery_time);
    EXPECT_EQ(serial.mean_transmissions, par.mean_transmissions);
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(serial.outcomes[i].delivered, par.outcomes[i].delivered);
      EXPECT_EQ(serial.outcomes[i].delivery_time,
                par.outcomes[i].delivery_time);
      EXPECT_EQ(serial.outcomes[i].transmissions,
                par.outcomes[i].transmissions);
      EXPECT_EQ(serial.outcomes[i].copies, par.outcomes[i].copies);
      EXPECT_EQ(serial.outcomes[i].hops, par.outcomes[i].hops);
    }
  }
  // Losses actually bite: not every replica should match the lossless
  // run. Epidemic spreading can saturate (same final transmission count
  // either way), but losses at least delay delivery in some trials.
  const auto lossless =
      simulate_routing(eg, 0, 31, 0, epidemic_strategy(), 1, {});
  bool any_differs = false;
  for (const auto& o : serial.outcomes) {
    if (o.transmissions != lossless.transmissions ||
        o.delivery_time != lossless.delivery_time ||
        o.delivered != lossless.delivered || o.hops != lossless.hops) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(ParallelDeterminism, WorkloadEnsembleBitIdentical) {
  const auto eg = test_trace(28, 26, 19);
  const auto run = [&](std::size_t threads) {
    return simulate_workload_ensemble(eg, 6, 12, 55, epidemic_strategy(), 0,
                                      3, threads);
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.outcomes.size(), 12u);
  for (const std::size_t threads : {2, 8}) {
    const auto par = run(threads);
    EXPECT_EQ(serial.mean_delivery_ratio, par.mean_delivery_ratio);
    EXPECT_EQ(serial.mean_delay, par.mean_delay);
    EXPECT_EQ(serial.mean_transmissions, par.mean_transmissions);
    EXPECT_EQ(serial.mean_drops, par.mean_drops);
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(serial.outcomes[i].delivered, par.outcomes[i].delivered);
      EXPECT_EQ(serial.outcomes[i].transmissions,
                par.outcomes[i].transmissions);
      EXPECT_EQ(serial.outcomes[i].drops, par.outcomes[i].drops);
      EXPECT_EQ(serial.outcomes[i].message_delivered,
                par.outcomes[i].message_delivered);
    }
  }
}

TEST(ParallelDeterminism, NsfReportBitIdentical) {
  Rng rng(23);
  const Graph g = barabasi_albert(600, 3, rng);
  const auto serial = nsf_report(g, 0.5, 0.15, 1);
  for (const std::size_t threads : {2, 8}) {
    const auto par = nsf_report(g, 0.5, 0.15, threads);
    EXPECT_EQ(serial.sizes, par.sizes);
    EXPECT_EQ(serial.all_scale_free, par.all_scale_free);
    EXPECT_EQ(serial.exponent_stddev, par.exponent_stddev);
    ASSERT_EQ(serial.fits.size(), par.fits.size());
    for (std::size_t r = 0; r < serial.fits.size(); ++r) {
      EXPECT_EQ(serial.fits[r].alpha, par.fits[r].alpha);
      EXPECT_EQ(serial.fits[r].ks, par.fits[r].ks);
    }
  }
  EXPECT_GT(serial.fits.size(), 1u);
}

TEST(ParallelDeterminism, StreamRecomputeAllMatchesSerial) {
  Rng rng(29);
  const Graph g = barabasi_albert(200, 2, rng);
  auto churn = [&](StreamEngine& engine) {
    Rng churn_rng(31);
    for (int i = 0; i < 400; ++i) {
      const auto u = static_cast<VertexId>(churn_rng.index(200));
      const auto v = static_cast<VertexId>(churn_rng.index(200));
      if (u == v) continue;
      engine.apply(churn_rng.bernoulli(0.5) ? Event::edge_insert(u, v)
                                            : Event::edge_delete(u, v));
    }
  };
  // recompute_all runs serially in attach order; the recomputed state
  // must equal what incremental maintenance reached.
  StreamEngine engine{DynamicGraph(g)};
  CoreObserver cores;
  MisObserver mis(7);
  engine.attach(&cores);
  engine.attach(&mis);
  churn(engine);
  const std::vector<std::uint32_t> incremental_cores = cores.cores();
  std::vector<bool> incremental_mis(200);
  for (VertexId v = 0; v < 200; ++v) incremental_mis[v] = mis.in_mis(v);
  EXPECT_EQ(engine.recompute_all(), 2u);

  EXPECT_EQ(cores.cores(), incremental_cores);
  EXPECT_EQ(cores.cores(), core_numbers(engine.graph().materialize()));
  for (VertexId v = 0; v < 200; ++v) {
    EXPECT_EQ(mis.in_mis(v), incremental_mis[v]);
  }
}

}  // namespace
}  // namespace structnet
