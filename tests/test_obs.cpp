// Observability layer tests: metrics registry (counters under
// contention, histogram bucket geometry, nearest-rank quantiles,
// snapshot lookups, JSON emission) and the tracing layer (span nesting,
// bounded sink, Chrome export shape, aggregates).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace structnet::obs {
namespace {

// ------------------------------------------------------------- counters

TEST(ObsCounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounterTest, ConcurrentIncrementsSumExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  MetricsRegistry reg;
  Counter& c = reg.counter("contended");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGaugeTest, SetAddValue) {
  Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

// ------------------------------------------------- histogram bucket map

TEST(ObsHistogramTest, BucketBoundaries) {
  // bucket i holds [2^i, 2^(i+1)); bucket 0 also holds 0.
  struct Case {
    std::uint64_t value;
    std::size_t bucket;
  };
  const Case cases[] = {
      {0, 0},
      {1, 0},
      {2, 1},
      {3, 1},
      {4, 2},
      {7, 2},
      {8, 3},
      {(std::uint64_t{1} << 38) - 1, 37},
      {std::uint64_t{1} << 38, 38},
      // At and above 2^39 everything saturates into the last bucket.
      {std::uint64_t{1} << 39, kHistogramBuckets - 1},
      {std::uint64_t{1} << 63, kHistogramBuckets - 1},
      {std::numeric_limits<std::uint64_t>::max(), kHistogramBuckets - 1},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(histogram_bucket(c.value), c.bucket) << "value=" << c.value;
  }
  // Edges: exclusive upper bound of each non-saturated bucket.
  EXPECT_EQ(histogram_bucket_edge(0), 2u);
  EXPECT_EQ(histogram_bucket_edge(3), 16u);
}

TEST(ObsHistogramTest, SaturatedSamplesAreClampedNotDropped) {
  Histogram h;
  h.record(std::numeric_limits<std::uint64_t>::max());
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.buckets[kHistogramBuckets - 1], 1u);
  EXPECT_EQ(s.max, std::numeric_limits<std::uint64_t>::max());
}

// ------------------------------------------------ nearest-rank quantile

TEST(ObsQuantileTest, EmptyHistogramIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile_upper(0.0), 0u);
  EXPECT_EQ(s.quantile_upper(0.5), 0u);
  EXPECT_EQ(s.quantile_upper(0.99), 0u);
  EXPECT_EQ(s.quantile_upper(1.0), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(ObsQuantileTest, SingleSampleEveryQuantileBoundsIt) {
  Histogram h;
  h.record(100);  // bucket 6: [64, 128)
  const HistogramSnapshot s = h.snapshot();
  // max tightens the bucket edge (128) down to the recorded sample.
  EXPECT_EQ(s.quantile_upper(0.0), 100u);
  EXPECT_EQ(s.quantile_upper(0.5), 100u);
  EXPECT_EQ(s.quantile_upper(0.99), 100u);
  EXPECT_EQ(s.quantile_upper(1.0), 100u);
  EXPECT_GE(s.quantile_upper(0.5), 100u);  // must bound the sample
}

TEST(ObsQuantileTest, NearestRankIsCeilNotFloor) {
  // 100 samples: one in bucket 0 (value 1), 98 in bucket 4 (16..31),
  // one in bucket 10 (1024..2047). The 99th order statistic lives in
  // bucket 4, so p99 must be bounded by bucket 4's edge (32) — the
  // legacy floor-rank bug put rank 100 (bucket 10) here instead.
  Histogram h;
  h.record(1);
  for (int i = 0; i < 98; ++i) h.record(20);
  h.record(1500);
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, 100u);
  EXPECT_LE(s.quantile_upper(0.99), 32u);
  // p100 (and anything landing on the last sample) is the true max.
  EXPECT_EQ(s.quantile_upper(1.0), 1500u);
  // p01 is rank ceil(0.01 * 100) = 1 -> the bucket-0 sample, edge 2,
  // not tightened below by max (1500 > 2).
  EXPECT_LE(s.quantile_upper(0.01), 2u);
}

TEST(ObsQuantileTest, RankInSaturatedBucketReturnsRecordedMax) {
  // Samples clamped into the open-ended last bucket may exceed its
  // nominal edge; the only honest bound is the recorded max.
  Histogram h;
  const std::uint64_t huge = std::uint64_t{1} << 50;
  for (int i = 0; i < 4; ++i) h.record(huge);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile_upper(0.99), huge);
  EXPECT_EQ(s.quantile_upper(0.5), huge);
}

TEST(ObsQuantileTest, QuantilesAreMonotoneInQ) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 7);
  const HistogramSnapshot s = h.snapshot();
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const std::uint64_t cur = s.quantile_upper(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

// ------------------------------------------------------------- registry

TEST(ObsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Distinct kinds share a namespace-free map each; same name is fine.
  Gauge& g = reg.gauge("x");
  g.set(-1);
  EXPECT_EQ(reg.gauge("x").value(), -1);
}

TEST(ObsRegistryTest, SnapshotLookupsAndSorting) {
  MetricsRegistry reg;
  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  reg.gauge("depth").set(-5);
  reg.histogram("lat").record(100);
  const MetricsRegistry::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a.one");  // name-sorted
  EXPECT_EQ(s.counter_value("b.two"), 2u);
  EXPECT_EQ(s.counter_value("missing"), 0u);
  EXPECT_EQ(s.gauge_value("depth"), -5);
  ASSERT_NE(s.histogram_snapshot("lat"), nullptr);
  EXPECT_EQ(s.histogram_snapshot("lat")->count, 1u);
  EXPECT_EQ(s.histogram_snapshot("missing"), nullptr);
}

TEST(ObsRegistryTest, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry reg;
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads hammer a shared counter, half register fresh
      // names while snapshots run — registration vs update vs snapshot
      // must be race-free (TSan covers this in the sanitizer pass).
      Counter& shared = reg.counter("shared");
      for (int i = 0; i < 2'000; ++i) {
        shared.add();
        if (i % 512 == 0) {
          std::string name = "t";
          name += std::to_string(t);
          name += '.';
          name += std::to_string(i);
          reg.counter(name).add();
          (void)reg.snapshot();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.snapshot().counter_value("shared"), kThreads * 2'000u);
}

TEST(ObsRegistryTest, EmitJsonLinesAreWellFormed) {
  MetricsRegistry reg;
  reg.counter("events").add(7);
  reg.gauge("depth").set(3);
  reg.histogram("lat").record(1000);
  std::ostringstream os;
  reg.emit_json(os, "test");
  const std::string out = os.str();
  std::size_t lines = 0;
  std::istringstream is(out);
  for (std::string line; std::getline(is, line);) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"metrics\": \"test\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"name\": "), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(out.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(out.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(out.find("\"type\": \"histogram\""), std::string::npos);
}

// -------------------------------------------------------------- tracing

#if STRUCTNET_OBS_ENABLED

TEST(ObsTraceTest, NoSinkMeansNoRecording) {
  TraceSink::uninstall();
  EXPECT_FALSE(trace_enabled());
  { STRUCTNET_OBS_SPAN("orphan"); }
  TraceSink sink;
  sink.install();
  EXPECT_TRUE(trace_enabled());
  TraceSink::uninstall();
  EXPECT_FALSE(trace_enabled());
  EXPECT_EQ(sink.size(), 0u);
}

TEST(ObsTraceTest, SpansNestWithDepths) {
  TraceSink sink;
  sink.install();
  {
    STRUCTNET_OBS_SPAN("outer");
    {
      STRUCTNET_OBS_SPAN("middle");
      { STRUCTNET_OBS_SPAN("inner"); }
    }
  }
  TraceSink::uninstall();
  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  // Spans complete innermost-first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_STREQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  // Time containment: outer starts no later and ends no earlier.
  EXPECT_LE(events[2].start_ns, events[0].start_ns);
  EXPECT_GE(events[2].start_ns + events[2].dur_ns,
            events[0].start_ns + events[0].dur_ns);
  // All on one thread.
  EXPECT_EQ(events[0].tid, events[2].tid);
}

TEST(ObsTraceTest, SinkIsBoundedAndCountsDrops) {
  TraceSink sink(/*max_events=*/10);
  sink.install();
  for (int i = 0; i < 600; ++i) {  // > buffer flush threshold + cap
    STRUCTNET_OBS_SPAN("tick");
  }
  TraceSink::uninstall();
  EXPECT_LE(sink.size(), 10u);
  EXPECT_GT(sink.dropped(), 0u);
}

TEST(ObsTraceTest, ChromeTraceJsonShape) {
  TraceSink sink;
  sink.install();
  {
    STRUCTNET_OBS_SPAN("alpha");
    STRUCTNET_OBS_SPAN("beta");
  }
  TraceSink::uninstall();
  const std::string json = sink.chrome_trace_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(ObsTraceTest, AggregateStatsPerName) {
  TraceSink sink;
  sink.install();
  for (int i = 0; i < 5; ++i) {
    STRUCTNET_OBS_SPAN("repeat");
  }
  { STRUCTNET_OBS_SPAN("once"); }
  TraceSink::uninstall();
  const std::vector<SpanStats> agg = sink.aggregate();
  ASSERT_EQ(agg.size(), 2u);  // name-sorted: "once" < "repeat"
  EXPECT_EQ(agg[0].name, "once");
  EXPECT_EQ(agg[0].count, 1u);
  EXPECT_EQ(agg[1].name, "repeat");
  EXPECT_EQ(agg[1].count, 5u);
  EXPECT_GE(agg[1].total_ns, agg[1].max_ns);
}

TEST(ObsTraceTest, MultiThreadedSpansLandInOneSink) {
  TraceSink sink;
  sink.install();
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        STRUCTNET_OBS_SPAN("worker");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TraceSink::uninstall();
  EXPECT_EQ(sink.size(), kThreads * 50u);
  // Distinct threads get distinct tids.
  std::vector<TraceEvent> events = sink.events();
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), kThreads);
}

#endif  // STRUCTNET_OBS_ENABLED

}  // namespace
}  // namespace structnet::obs
