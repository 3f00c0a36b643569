// Fault subsystem: deterministic fault plans, degraded traces, lossy
// routing with retry/backoff, stream checkpoint/restore, crash
// recovery, and node-removal percolation.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "fault/robustness.hpp"
#include "fault/wal.hpp"
#include "obs/metrics.hpp"
#include "sim/dtn_routing.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_graph.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlanTest, LossDrawIsPureFunctionOfContact) {
  FaultPlan plan(99);
  plan.set_contact_loss(0.5);
  // Re-querying any contact, in any order, gives the same answer; the
  // draw is symmetric in the endpoints.
  std::vector<bool> forward, backward;
  for (TimeUnit t = 0; t < 64; ++t) {
    forward.push_back(plan.transmission_lost(3, 7, t));
  }
  for (TimeUnit t = 64; t-- > 0;) {
    backward.push_back(plan.transmission_lost(7, 3, t));
  }
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i], backward[forward.size() - 1 - i]) << "t=" << i;
  }
  // Different contacts decorrelate: at p=0.5 over 64 units, identical
  // draw sequences for two distinct pairs would be astronomically rare.
  std::vector<bool> other_pair;
  for (TimeUnit t = 0; t < 64; ++t) {
    other_pair.push_back(plan.transmission_lost(3, 8, t));
  }
  EXPECT_NE(forward, other_pair);
}

TEST(FaultPlanTest, LossRateTracksProbability) {
  for (const double p : {0.0, 0.25, 0.75, 1.0}) {
    FaultPlan plan(5);
    plan.set_contact_loss(p);
    std::size_t lost = 0;
    const std::size_t total = 20'000;
    for (std::size_t i = 0; i < total; ++i) {
      const auto u = static_cast<VertexId>(i % 140);
      const auto v = static_cast<VertexId>((i / 140) % 140 + 140);
      if (plan.transmission_lost(u, v, static_cast<TimeUnit>(i))) ++lost;
    }
    const double rate = static_cast<double>(lost) / total;
    EXPECT_NEAR(rate, p, 0.02) << "p=" << p;
  }
}

TEST(FaultPlanTest, ScheduleWindows) {
  FaultPlan plan;
  plan.add_outage({2, 5, 9});                              // node 2 down [5,9)
  plan.add_blackout({0, 1, 3, 6});                         // link (0,1) dark
  plan.add_blackout({kInvalidVertex, kInvalidVertex, 20, 22});  // everything

  EXPECT_TRUE(plan.node_up(2, 4));
  EXPECT_FALSE(plan.node_up(2, 5));
  EXPECT_FALSE(plan.node_up(2, 8));
  EXPECT_TRUE(plan.node_up(2, 9));
  EXPECT_TRUE(plan.node_up(3, 7));  // other nodes unaffected

  EXPECT_TRUE(plan.link_up(0, 1, 2));
  EXPECT_FALSE(plan.link_up(0, 1, 3));
  EXPECT_FALSE(plan.link_up(1, 0, 5));  // symmetric
  EXPECT_TRUE(plan.link_up(0, 1, 6));
  EXPECT_TRUE(plan.link_up(0, 3, 4));  // other links unaffected

  // A down endpoint takes the link down with it.
  EXPECT_FALSE(plan.link_up(2, 3, 6));
  // The global blackout covers every link.
  EXPECT_FALSE(plan.link_up(0, 3, 20));
  EXPECT_FALSE(plan.link_up(5, 9, 21));
  EXPECT_TRUE(plan.link_up(5, 9, 22));
}

TEST(FaultPlanTest, SplitKeepsScheduleDecorrelatesLoss) {
  FaultPlan plan(17);
  plan.set_contact_loss(0.5).add_outage({1, 2, 4});
  const FaultPlan replica = plan.split(3);
  EXPECT_EQ(replica.contact_loss(), plan.contact_loss());
  EXPECT_FALSE(replica.node_up(1, 3));  // schedule carried over
  EXPECT_NE(replica.seed(), plan.seed());
  bool differs = false;
  for (TimeUnit t = 0; t < 64 && !differs; ++t) {
    differs = plan.transmission_lost(0, 1, t) !=
              replica.transmission_lost(0, 1, t);
  }
  EXPECT_TRUE(differs);  // p=0.5 over 64 draws: disagreement is certain
}

TemporalGraph random_trace(std::size_t n, TimeUnit horizon,
                           std::size_t contacts, std::uint64_t seed) {
  Rng rng(seed);
  TemporalGraph eg(n, horizon);
  std::size_t added = 0;
  while (added < contacts) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
    ++added;
  }
  return eg;
}

TEST(FaultPlanTest, DegradedTraceMatchesContactFilter) {
  const TemporalGraph trace = random_trace(16, 24, 150, 3);
  FaultPlan plan(21);
  plan.set_contact_loss(0.3).add_outage({4, 0, 24}).add_blackout({1, 2, 5, 15});

  const TemporalGraph degraded = plan.degraded(trace);
  EXPECT_EQ(degraded.vertex_count(), trace.vertex_count());
  EXPECT_EQ(degraded.horizon(), trace.horizon());

  // Exactly the working contacts survive (incl. endpoint-up checks).
  std::size_t works = 0;
  for (const Contact& c : trace.contacts()) {
    const bool kept = plan.link_up(c.u, c.v, c.t) &&
                      !plan.transmission_lost(c.u, c.v, c.t);
    if (kept) ++works;
    EXPECT_EQ(degraded.has_contact(c.u, c.v, c.t), kept)
        << c.u << "-" << c.v << "@" << c.t;
  }
  EXPECT_EQ(degraded.contacts().size(), works);
  EXPECT_LT(works, trace.contacts().size());  // the plan actually bites
  EXPECT_GT(works, 0u);

  // A second evaluation agrees bit-for-bit.
  EXPECT_EQ(degraded, plan.degraded(trace));

  // A no-fault plan degrades nothing.
  EXPECT_EQ(FaultPlan(21).degraded(trace), trace);
}

// ------------------------------------------------------- routing faults

/// Contacts between 0 and 1 at every unit of [0, horizon).
TemporalGraph pair_trace(TimeUnit horizon) {
  TemporalGraph eg(2, horizon);
  for (TimeUnit t = 0; t < horizon; ++t) eg.add_contact(0, 1, t);
  return eg;
}

TEST(FaultRoutingTest, CertainLossBurnsOneTransmissionPerContact) {
  const TemporalGraph trace = pair_trace(10);
  FaultPlan plan(1);
  plan.set_contact_loss(1.0);
  SimulationFaults faults;
  faults.plan = &plan;
  const RoutingOutcome out =
      simulate_routing(trace, 0, 1, 0, direct_strategy(), 1, faults);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.transmissions, 10u);  // one failed attempt per unit
}

TEST(FaultRoutingTest, MaxAttemptsBoundsTheBurn) {
  const TemporalGraph trace = pair_trace(10);
  FaultPlan plan(1);
  plan.set_contact_loss(1.0);
  SimulationFaults faults;
  faults.plan = &plan;
  faults.retry.max_attempts = 2;
  const RoutingOutcome out =
      simulate_routing(trace, 0, 1, 0, direct_strategy(), 1, faults);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.transmissions, 2u);  // then the pair gives up for good
}

TEST(FaultRoutingTest, ExponentialBackoffSpacesAttempts) {
  const TemporalGraph trace = pair_trace(10);
  FaultPlan plan(1);
  plan.set_contact_loss(1.0);
  SimulationFaults faults;
  faults.plan = &plan;
  faults.retry.backoff_base = 2;
  faults.retry.backoff_factor = 2;
  const RoutingOutcome out =
      simulate_routing(trace, 0, 1, 0, direct_strategy(), 1, faults);
  EXPECT_FALSE(out.delivered);
  // Attempts at t = 0, 2, 6; the next would be t = 14, past the horizon.
  EXPECT_EQ(out.transmissions, 3u);
}

TEST(FaultRoutingTest, RetryDeliversOnceTheDrawSpares) {
  // Find a seed whose loss draw fails (0,1) at t=0 but spares t=1.
  std::uint64_t seed = 0;
  for (;; ++seed) {
    FaultPlan probe(seed);
    probe.set_contact_loss(0.5);
    if (probe.transmission_lost(0, 1, 0) &&
        !probe.transmission_lost(0, 1, 1)) {
      break;
    }
  }
  FaultPlan plan(seed);
  plan.set_contact_loss(0.5);
  SimulationFaults faults;
  faults.plan = &plan;
  const RoutingOutcome out =
      simulate_routing(pair_trace(10), 0, 1, 0, direct_strategy(), 1, faults);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.delivery_time, 1u);   // first attempt burned, retry lands
  EXPECT_EQ(out.transmissions, 2u);
}

TEST(FaultRoutingTest, ScheduleFaultsSuppressWithoutRadioCost) {
  const TemporalGraph trace = pair_trace(10);
  SimulationFaults faults;

  FaultPlan blackout;
  blackout.add_blackout({kInvalidVertex, kInvalidVertex, 0, 10});
  faults.plan = &blackout;
  RoutingOutcome out =
      simulate_routing(trace, 0, 1, 0, direct_strategy(), 1, faults);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.transmissions, 0u);  // the contacts never happened

  FaultPlan outage;
  outage.add_outage({1, 0, 10});
  faults.plan = &outage;
  out = simulate_routing(trace, 0, 1, 0, direct_strategy(), 1, faults);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.transmissions, 0u);

  // A window leaves the remaining contacts usable.
  FaultPlan window;
  window.add_blackout({0, 1, 0, 4});
  faults.plan = &window;
  out = simulate_routing(trace, 0, 1, 0, direct_strategy(), 1, faults);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.delivery_time, 4u);
  EXPECT_EQ(out.transmissions, 1u);
}

TEST(FaultRoutingTest, PrintersNameEveryField) {
  // What a failed EXPECT_EQ on routing results shows: every field by
  // name (no raw object bytes), the means at full precision.
  const RoutingOutcome lost;
  EXPECT_EQ(::testing::PrintToString(lost),
            "{delivered=false, delivery_time=never, hops=0, copies=1, "
            "transmissions=0}");
  RoutingTrialStats stats;
  stats.outcomes = {lost, RoutingOutcome{true, 4, 2, 3, 5}};
  stats.delivered = 1;
  stats.delivery_ratio = 0.5;
  stats.mean_delivery_time = 4.0;
  stats.mean_hops = 2.0;
  stats.mean_transmissions = 0.1 + 0.2;
  EXPECT_EQ(::testing::PrintToString(stats),
            "{delivered=1, delivery_ratio=0.5, mean_delivery_time=4, "
            "mean_hops=2, mean_transmissions=0.30000000000000004, "
            "outcomes=[{delivered=false, delivery_time=never, hops=0, "
            "copies=1, transmissions=0}, {delivered=true, delivery_time=4, "
            "hops=2, copies=3, transmissions=5}]}");
}

TEST(FaultRoutingTest, EmptyPlanMatchesNoPlan) {
  const TemporalGraph trace = random_trace(12, 30, 120, 9);
  const FaultPlan empty;
  SimulationFaults with_plan;
  with_plan.plan = &empty;
  const RoutingOutcome a =
      simulate_routing(trace, 0, 11, 0, epidemic_strategy(), 0, {});
  const RoutingOutcome b =
      simulate_routing(trace, 0, 11, 0, epidemic_strategy(), 0, with_plan);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.delivered);
}

TEST(FaultRoutingTest, TrialsBitIdenticalAcrossThreadCounts) {
  const TemporalGraph trace = random_trace(24, 40, 400, 13);
  FaultPlan plan(77);
  plan.set_contact_loss(0.6)
      .add_outage({5, 10, 20})
      .add_blackout({2, 3, 0, 15});
  SimulationFaults faults;
  faults.plan = &plan;
  faults.ttl = 12;
  faults.retry.max_attempts = 3;
  faults.retry.backoff_base = 1;
  const std::size_t trials = 48;

  const RoutingTrialStats base = simulate_routing_trials(
      trace, 0, 23, 0, epidemic_strategy(), 0, faults, trials, 1);
  EXPECT_GT(base.delivered, 0u);
  EXPECT_LT(base.delivered, trials);  // the plan actually bites
  for (const std::size_t threads : {2u, 8u}) {
    // Every outcome and every aggregate field, bit for bit.
    EXPECT_EQ(simulate_routing_trials(trace, 0, 23, 0, epidemic_strategy(), 0,
                                      faults, trials, threads),
              base)
        << "threads " << threads;
  }
}

TEST(FaultRoutingTest, DeliveryRatioDegradesWithLoss) {
  const TemporalGraph trace = random_trace(20, 30, 250, 29);
  double previous = 1.1;
  for (const double loss : {0.0, 0.5, 0.95}) {
    FaultPlan plan(4);
    plan.set_contact_loss(loss);
    SimulationFaults faults;
    faults.plan = &plan;
    faults.ttl = 12;
    const RoutingTrialStats stats = simulate_routing_trials(
        trace, 0, 19, 0, spray_and_wait_strategy(), 4, faults, 64);
    EXPECT_LE(stats.delivery_ratio, previous + 1e-12) << "loss=" << loss;
    previous = stats.delivery_ratio;
  }
}

// ----------------------------------------------------------- checkpoint

std::vector<Event> churn_stream(std::size_t n, std::size_t count, Rng& rng) {
  std::vector<Event> events;
  events.reserve(count);
  while (events.size() < count) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    const double dice = rng.uniform01();
    if (dice < 0.35) {
      events.push_back(Event::edge_insert(u, v));
    } else if (dice < 0.6) {
      events.push_back(Event::edge_delete(u, v));
    } else if (dice < 0.75) {
      events.push_back(Event::contact_add(
          u, v, static_cast<TimeUnit>(rng.index(16))));
    } else if (dice < 0.88) {
      events.push_back(Event::node_leave(u));
    } else {
      events.push_back(Event::node_join(u));  // revival attempt
    }
  }
  return events;
}

TEST(CheckpointTest, RoundTripPreservesEngineState) {
  Rng rng(31);
  const Graph seed = erdos_renyi(32, 0.15, rng);
  StreamEngine engine{DynamicGraph(seed)};
  for (const Event& e : churn_stream(32, 300, rng)) engine.apply(e);
  ASSERT_GT(engine.accepted(), 0u);
  ASSERT_GT(engine.rejected(), 0u);  // the mix provokes rejections

  std::stringstream buffer;
  write_checkpoint(buffer, engine);
  const CheckpointResult restored = read_checkpoint(buffer);
  ASSERT_TRUE(restored.ok()) << restored.error << " at line " << restored.line;

  const DynamicGraph& a = engine.graph();
  const DynamicGraph& b = restored.engine->graph();
  EXPECT_EQ(a.log(), b.log());
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.vertex_count(), b.vertex_count());
  EXPECT_EQ(a.alive_count(), b.alive_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.materialize(), b.materialize());
  // Epoch-0 state survives too (initial() plus log() replays any epoch).
  EXPECT_EQ(a.initial(), b.initial());
  EXPECT_EQ(restored.engine->accepted(), engine.accepted());
  EXPECT_EQ(restored.engine->rejected(), engine.rejected());
  EXPECT_EQ(restored.engine->reject_counts(), engine.reject_counts());
}

TEST(CheckpointTest, RoundTripEmptyEngine) {
  StreamEngine engine{DynamicGraph(std::size_t{0})};
  std::stringstream buffer;
  write_checkpoint(buffer, engine);
  const CheckpointResult restored = read_checkpoint(buffer);
  ASSERT_TRUE(restored.ok()) << restored.error;
  EXPECT_EQ(restored.engine->graph().vertex_count(), 0u);
  EXPECT_EQ(restored.engine->graph().epoch(), 0u);
}

TEST(CheckpointTest, RejectsMalformedInput) {
  const struct {
    const char* name;
    const char* text;
    std::size_t line;
    const char* error_contains;
  } cases[] = {
      {"empty", "", 1, "missing magic"},
      {"bad magic", "structnet-checkpoint 9\n", 1, "bad magic"},
      {"short header", "structnet-checkpoint 1\n3 1\n", 2, "header"},
      {"junk header", "structnet-checkpoint 1\n3 x 0 0 0\n", 2,
       "invalid number"},
      {"missing counts", "structnet-checkpoint 1\n3 0 0 0 0\n", 3,
       "reject-count"},
      {"short counts", "structnet-checkpoint 1\n3 0 0 0 0\n0 0 0\n", 3,
       "reject counts"},
      {"truncated edges",
       "structnet-checkpoint 1\n3 2 0 0 0\n0 0 0 0 0 0 0\n0 1\n", 5,
       "truncated"},
      {"edge out of range",
       "structnet-checkpoint 1\n3 1 0 0 0\n0 0 0 0 0 0 0\n0 9\n", 4,
       "out of range"},
      {"self-loop edge",
       "structnet-checkpoint 1\n3 1 0 0 0\n0 0 0 0 0 0 0\n1 1\n", 4,
       "self loop"},
      {"duplicate edge",
       "structnet-checkpoint 1\n3 2 0 0 0\n0 0 0 0 0 0 0\n0 1\n1 0\n", 5,
       "duplicate"},
      {"truncated events",
       "structnet-checkpoint 1\n3 0 2 2 0\n0 0 0 0 0 0 0\n0 0 1 0 0\n", 5,
       "truncated"},
      {"unknown event kind",
       "structnet-checkpoint 1\n3 0 1 1 0\n0 0 0 0 0 0 0\n9 0 1 0 0\n", 4,
       "unknown kind"},
      // An EdgeDelete of a missing edge can never sit in an accepted log.
      {"inconsistent log",
       "structnet-checkpoint 1\n3 0 1 1 0\n0 0 0 0 0 0 0\n1 0 1 0 0\n", 4,
       "replay rejected"},
  };
  for (const auto& c : cases) {
    std::stringstream in(c.text);
    const CheckpointResult result = read_checkpoint(in);
    EXPECT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.line, c.line) << c.name << ": " << result.error;
    EXPECT_NE(result.error.find(c.error_contains), std::string::npos)
        << c.name << ": got '" << result.error << "'";
  }
}

// ------------------------------------------------------- crash recovery

TEST(CrashRecoveryTest, HundredRandomizedChurnStreams) {
  const std::size_t n = 24;
  const std::size_t stream_length = 160;
  for (std::uint64_t run = 0; run < 100; ++run) {
    Rng rng(derive_seed(1234, run));
    const auto events = churn_stream(n, stream_length, rng);
    const std::size_t kill_at = rng.index(stream_length + 1);
    const RecoveryOutcome out =
        run_crash_recovery(n, events, kill_at, derive_seed(99, run));
    EXPECT_TRUE(out.graph_match) << "run " << run << " kill " << kill_at;
    EXPECT_TRUE(out.counters_match) << "run " << run << " kill " << kill_at;
    EXPECT_TRUE(out.cores_match) << "run " << run << " kill " << kill_at;
    EXPECT_TRUE(out.mis_match) << "run " << run << " kill " << kill_at;
  }
}

TEST(CrashRecoveryTest, SurvivesEdgeKillPoints) {
  Rng rng(7);
  const auto events = churn_stream(16, 80, rng);
  for (const std::size_t kill_at : {std::size_t{0}, events.size()}) {
    const RecoveryOutcome out = run_crash_recovery(16, events, kill_at);
    EXPECT_TRUE(out.ok()) << "kill_at " << kill_at;
    EXPECT_EQ(out.kill_at, kill_at);
  }
}

// ------------------------------------------------------------------ WAL

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "structnet-test-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string wal_segment_path(const std::string& dir,
                             std::uint64_t first_index = 0) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.seg",
                static_cast<unsigned long long>(first_index));
  return (fs::path(dir) / buf).string();
}

TEST(WalTest, EventEncodingRoundTripsEveryKind) {
  const Event samples[] = {
      Event::edge_insert(3, 900'000),
      Event::edge_delete(0, 1),
      Event::contact_add(7, 8, 4'000'000'000u),
      Event::contact_relabel(2, 5, 13, 4'000'000'001u),
      Event::node_join(kInvalidVertex),
      Event::node_leave(9),
  };
  for (const Event& e : samples) {
    unsigned char bytes[kWalEventBytes];
    wal_encode_event(e, bytes);
    Event back;
    ASSERT_TRUE(wal_decode_event(bytes, &back));
    EXPECT_EQ(back, e);
  }
  unsigned char junk[kWalEventBytes] = {0xFF};
  Event ignored;
  EXPECT_FALSE(wal_decode_event(junk, &ignored));  // invalid kind byte
}

TEST(WalTest, Crc32cMatchesCheckValue) {
  // The CRC32C check value: crc of the ASCII digits "123456789".
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  // Seed chaining == one-shot over the concatenation.
  const std::uint32_t part = crc32c("12345", 5);
  EXPECT_EQ(crc32c("6789", 4, part), 0xE3069283u);
}

TEST(WalTest, AppendScanRoundTripMatchesAcceptedLog) {
  TempDir tmp;
  Rng rng(41);
  const auto events = churn_stream(24, 200, rng);

  WalConfig config;
  config.dir = tmp.path;
  config.fsync_on_flush = false;
  WalAppender wal(config);
  StreamEngine engine{DynamicGraph(std::size_t{24})};
  engine.attach(&wal);
  for (const Event& e : events) engine.apply(e);
  wal.sync();
  ASSERT_GT(engine.accepted(), 0u);
  ASSERT_LT(engine.accepted(), events.size());  // the mix provokes rejects
  EXPECT_EQ(wal.appended(), engine.accepted());

  const WalRecovery rec = scan_wal(tmp.path);
  EXPECT_TRUE(rec.clean) << rec.detail;
  EXPECT_EQ(rec.first_index, 0u);
  const auto& log = engine.graph().log();
  ASSERT_EQ(rec.events.size(), log.size());
  EXPECT_TRUE(std::equal(log.begin(), log.end(), rec.events.begin()));
}

TEST(WalTest, GroupCommitZeroBuffersUntilSync) {
  TempDir tmp;
  WalConfig config;
  config.dir = tmp.path;
  config.group_commit = 0;  // buffer until batch end / sync
  config.fsync_on_flush = false;
  WalAppender wal(config);
  for (int i = 0; i < 10; ++i) {
    wal.append(Event::edge_insert(static_cast<VertexId>(i),
                                  static_cast<VertexId>(i + 1)));
  }
  // Nothing flushed yet: the segment file does not even exist.
  EXPECT_FALSE(fs::exists(wal_segment_path(tmp.path)));
  wal.sync();
  EXPECT_EQ(fs::file_size(wal_segment_path(tmp.path)),
            kWalHeaderBytes + 10 * kWalRecordBytes);
  EXPECT_EQ(wal.flushes(), 1u);
}

TEST(WalTest, SegmentsRollAndChainAcrossFiles) {
  TempDir tmp;
  WalConfig config;
  config.dir = tmp.path;
  config.segment_bytes = kWalHeaderBytes + 4 * kWalRecordBytes;
  config.fsync_on_flush = false;
  const std::size_t total = 23;
  {
    WalAppender wal(config);
    for (std::size_t i = 0; i < total; ++i) {
      wal.append(Event::edge_insert(static_cast<VertexId>(i),
                                    static_cast<VertexId>(i + 1)));
    }
    wal.sync();
    EXPECT_GT(wal.segments_opened(), 1u);
  }
  const WalRecovery rec = scan_wal(tmp.path);
  EXPECT_TRUE(rec.clean) << rec.detail;
  EXPECT_GT(rec.segments, 1u);
  EXPECT_EQ(rec.segments_used, rec.segments);
  ASSERT_EQ(rec.events.size(), total);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(rec.events[i].u, static_cast<VertexId>(i));
  }
}

TEST(WalTest, ScanClassifiesEveryDamageKind) {
  // One pristine 8-record segment, damaged per-case; the scan must
  // classify the damage and keep exactly the records before it.
  const std::size_t total = 8;
  const auto build = [&](const std::string& dir) {
    WalConfig config;
    config.dir = dir;
    config.fsync_on_flush = false;
    WalAppender wal(config);
    for (std::size_t i = 0; i < total; ++i) {
      wal.append(Event::edge_insert(static_cast<VertexId>(i),
                                    static_cast<VertexId>(i + 1)));
    }
    wal.sync();
  };
  const auto record_off = [](std::size_t i) {
    return kWalHeaderBytes + i * kWalRecordBytes;
  };
  const auto overwrite = [](const std::string& path, std::uint64_t off,
                            unsigned char byte) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(reinterpret_cast<const char*>(&byte), 1);
  };

  struct Case {
    const char* name;
    WalStop stop;
    std::size_t survivors;
    void (*damage)(const std::string& seg);
  };
  const Case cases[] = {
      {"truncate mid length prefix", WalStop::kTornLength, 5,
       [](const std::string& seg) {
         fs::resize_file(seg, kWalHeaderBytes + 5 * kWalRecordBytes + 3);
       }},
      {"truncate mid payload", WalStop::kTornPayload, 3,
       [](const std::string& seg) {
         fs::resize_file(seg, kWalHeaderBytes + 3 * kWalRecordBytes + 12);
       }},
      {"flipped payload byte", WalStop::kBadCrc, 2,
       [](const std::string& seg) {
         std::fstream f(seg,
                        std::ios::in | std::ios::out | std::ios::binary);
         const auto off = static_cast<std::streamoff>(
             kWalHeaderBytes + 2 * kWalRecordBytes + 10);
         f.seekg(off);
         char c;
         f.read(&c, 1);
         c = static_cast<char>(c ^ 0x40);
         f.seekp(off);
         f.write(&c, 1);
       }},
      {"zeroed length prefix", WalStop::kBadLength, 4,
       [](const std::string& seg) {
         std::fstream f(seg,
                        std::ios::in | std::ios::out | std::ios::binary);
         f.seekp(static_cast<std::streamoff>(kWalHeaderBytes +
                                             4 * kWalRecordBytes));
         const char zeros[4] = {0, 0, 0, 0};
         f.write(zeros, 4);
       }},
      {"truncate mid header", WalStop::kBadHeader, 0,
       [](const std::string& seg) { fs::resize_file(seg, 7); }},
  };
  for (const Case& c : cases) {
    TempDir tmp;
    build(tmp.path);
    const std::string seg = wal_segment_path(tmp.path);
    ASSERT_EQ(fs::file_size(seg), record_off(total)) << c.name;
    c.damage(seg);
    const WalSegmentScan scan = scan_wal_segment(seg);
    EXPECT_EQ(scan.stop, c.stop) << c.name;
    EXPECT_EQ(scan.events.size(), c.survivors) << c.name;
    if (c.stop != WalStop::kBadHeader) {
      EXPECT_EQ(scan.valid_bytes, record_off(c.survivors)) << c.name;
    }
    // Directory-level scan reports the same damage, non-clean.
    const WalRecovery rec = scan_wal(tmp.path);
    EXPECT_FALSE(rec.clean) << c.name;
    EXPECT_EQ(rec.events.size(), c.survivors) << c.name;
    EXPECT_EQ(rec.stops[static_cast<std::size_t>(c.stop)], 1u) << c.name;
  }
  (void)overwrite;  // helper for ad-hoc damage variants
}

TEST(WalTest, CorruptedLengthCannotRedirectCrcWindow) {
  // The CRC covers the length prefix: enlarging a record's declared
  // length (while bytes remain) must surface as kBadCrc, not as a
  // silently mis-framed record.
  TempDir tmp;
  WalConfig config;
  config.dir = tmp.path;
  config.fsync_on_flush = false;
  {
    WalAppender wal(config);
    for (int i = 0; i < 4; ++i) {
      wal.append(Event::edge_insert(static_cast<VertexId>(i),
                                    static_cast<VertexId>(i + 1)));
    }
    wal.sync();
  }
  const std::string seg = wal_segment_path(tmp.path);
  std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(kWalHeaderBytes));
  const unsigned char bigger = kWalEventBytes + kWalRecordBytes;
  f.write(reinterpret_cast<const char*>(&bigger), 1);
  f.close();
  const WalSegmentScan scan = scan_wal_segment(seg);
  EXPECT_EQ(scan.stop, WalStop::kBadCrc);
  EXPECT_EQ(scan.events.size(), 0u);
}

TEST(WalTest, PruneDropsOnlyFullyCoveredSegments) {
  TempDir tmp;
  WalConfig config;
  config.dir = tmp.path;
  config.segment_bytes = kWalHeaderBytes + 4 * kWalRecordBytes;
  config.fsync_on_flush = false;
  {
    WalAppender wal(config);
    for (std::size_t i = 0; i < 20; ++i) {
      wal.append(Event::edge_insert(static_cast<VertexId>(i),
                                    static_cast<VertexId>(i + 1)));
    }
    wal.sync();
  }
  const std::size_t before = scan_wal(tmp.path).segments;
  ASSERT_GT(before, 2u);
  // An anchor at record 10: segments whose whole range precedes it go.
  const std::size_t removed = prune_wal_segments(tmp.path, 10);
  EXPECT_GT(removed, 0u);
  const WalRecovery rec = scan_wal(tmp.path);
  EXPECT_EQ(rec.segments, before - removed);
  EXPECT_TRUE(rec.clean) << rec.detail;
  // Everything from the anchor on is still replayable.
  EXPECT_LE(rec.first_index, 10u);
  EXPECT_EQ(rec.first_index + rec.events.size(), 20u);
  // Pruning everything still keeps the newest segment.
  prune_wal_segments(tmp.path, 1000);
  EXPECT_GE(scan_wal(tmp.path).segments, 1u);
}

TEST(WalTest, ConcurrentScansAreRaceFree) {
  // Many threads scanning the same directory at once: the per-reason
  // stop counters resolve through a shared pinned table that must be
  // safe to read concurrently (this suite runs under TSan).
  TempDir tmp;
  WalConfig config;
  config.dir = tmp.path;
  config.fsync_on_flush = false;
  {
    WalAppender wal(config);
    for (int i = 0; i < 8; ++i) {
      wal.append(Event::edge_insert(static_cast<VertexId>(i),
                                    static_cast<VertexId>(i + 1)));
    }
    wal.sync();
  }
  std::atomic<std::size_t> clean{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const WalRecovery rec = scan_wal(tmp.path);
      if (rec.clean && rec.events.size() == 8) clean.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(clean.load(), 8u);
}

TEST(WalTest, RepairHealsTornTailAndDropsUnreachableSegments) {
  // Multi-segment log, torn in a MIDDLE segment: repair must truncate
  // that segment to its valid record prefix and delete the segments
  // after it (a scan can never reach past the tear), leaving a clean,
  // extendable chain on disk.
  TempDir tmp;
  WalConfig config;
  config.dir = tmp.path;
  config.segment_bytes = kWalHeaderBytes + 4 * kWalRecordBytes;
  config.fsync_on_flush = false;
  {
    WalAppender wal(config);
    for (std::size_t i = 0; i < 20; ++i) {
      wal.append(Event::edge_insert(static_cast<VertexId>(i),
                                    static_cast<VertexId>(i + 1)));
    }
    wal.sync();
  }
  // Five 4-record segments (0, 4, 8, 12, 16); tear wal-8 mid-record.
  ASSERT_EQ(scan_wal(tmp.path).segments, 5u);
  const std::string torn = wal_segment_path(tmp.path, 8);
  fs::resize_file(torn, kWalHeaderBytes + 2 * kWalRecordBytes + 5);

  const WalRepair rep = repair_wal(tmp.path);
  EXPECT_EQ(rep.segments_truncated, 1u);
  EXPECT_EQ(rep.segments_removed, 2u);  // wal-12 and wal-16
  EXPECT_GT(rep.bytes_discarded, 0u);
  EXPECT_EQ(fs::file_size(torn), kWalHeaderBytes + 2 * kWalRecordBytes);

  const WalRecovery rec = scan_wal(tmp.path);
  EXPECT_TRUE(rec.clean) << rec.detail;
  EXPECT_EQ(rec.first_index, 0u);
  EXPECT_EQ(rec.events.size(), 10u);  // 4 + 4 + 2 survivors

  // Idempotent: a healed directory is untouched.
  const WalRepair again = repair_wal(tmp.path);
  EXPECT_EQ(again.segments_truncated, 0u);
  EXPECT_EQ(again.segments_removed, 0u);
  EXPECT_EQ(again.bytes_discarded, 0u);
}

// ------------------------------------------------------ checkpoint files

TEST(CheckpointFileTest, WriteReadRoundTrip) {
  TempDir tmp;
  Rng rng(17);
  StreamEngine engine{DynamicGraph(std::size_t{16})};
  for (const Event& e : churn_stream(16, 120, rng)) engine.apply(e);
  const std::string path = (fs::path(tmp.path) / "state.ckpt").string();
  std::string error;
  ASSERT_TRUE(write_checkpoint_file(path, engine, &error)) << error;
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // temp renamed away
  const CheckpointResult restored = read_checkpoint_file(path);
  ASSERT_TRUE(restored.ok()) << restored.error;
  EXPECT_EQ(restored.engine->graph().log(), engine.graph().log());
  EXPECT_EQ(restored.engine->accepted(), engine.accepted());
}

TEST(CheckpointFileTest, MidWriteKillNeverClobbersTarget) {
  // A kill at ANY byte offset of the rewrite leaves the previous
  // complete checkpoint at the target path — the point of writing to
  // the side and renaming.
  TempDir tmp;
  const std::string path = (fs::path(tmp.path) / "state.ckpt").string();
  const std::string old_payload = "the previous complete checkpoint\n";
  std::string error;
  ASSERT_TRUE(detail::atomic_write_file(path, old_payload, &error)) << error;

  const std::string new_payload(256, 'x');
  for (std::size_t kill : {std::size_t{0}, std::size_t{1}, std::size_t{128},
                           new_payload.size() - 1}) {
    EXPECT_FALSE(
        detail::atomic_write_file(path, new_payload, &error, kill));
    std::ifstream in(path, std::ios::binary);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), old_payload) << "kill at byte " << kill;
  }
  // The completed write replaces it atomically.
  ASSERT_TRUE(detail::atomic_write_file(path, new_payload, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), new_payload);
}

TEST(CheckpointFileTest, ReaderRejectsAbsurdDeclaredCounts) {
  // Adversarial headers must fail BEFORE the reader allocates or
  // replays anything: counts are checked against an absolute vertex cap
  // and the bytes actually remaining in the stream.
  const struct {
    const char* name;
    const char* text;
    std::size_t line;
    const char* error_contains;
  } cases[] = {
      {"vertex count above cap",
       "structnet-checkpoint 1\n20000000 0 0 0 0\n0 0 0 0 0 0 0\n", 2,
       "exceeds cap"},
      {"edge count beyond file size",
       "structnet-checkpoint 1\n3 4000000000 0 0 0\n0 0 0 0 0 0 0\n", 2,
       "exceeds remaining file size"},
      {"event count beyond file size",
       "structnet-checkpoint 1\n3 0 4000000000 0 0\n0 0 0 0 0 0 0\n", 2,
       "exceeds remaining file size"},
      {"combined counts beyond file size",
       "structnet-checkpoint 1\n3 4 12 16 0\n0 0 0 0 0 0 0\n"
       "0 1\n0 2\n1 2\n", 2,
       "exceeds remaining file size"},
      {"truncated mid record",
       "structnet-checkpoint 1\n3 0 1 1 0\n0 0 0 0 0 0 0\n0 0 1 0\n", 4,
       "expected 5 fields"},
  };
  for (const auto& c : cases) {
    std::stringstream in(c.text);
    const CheckpointResult result = read_checkpoint(in);
    EXPECT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.line, c.line) << c.name << ": " << result.error;
    EXPECT_NE(result.error.find(c.error_contains), std::string::npos)
        << c.name << ": got '" << result.error << "'";
  }
}

TEST(CheckpointFileTest, ReaderRejectsEmbeddedNul) {
  // NUL bytes smuggled into numeric fields must read as malformed, not
  // silently terminate the field.
  const char raw[] =
      "structnet-checkpoint 1\n3 1 0 0 0\n0 0 0 0 0 0 0\n0\0 1\n";
  std::stringstream in(std::string(raw, sizeof(raw) - 1));
  const CheckpointResult result = read_checkpoint(in);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.line, 4u) << result.error;
  EXPECT_NE(result.error.find("invalid number"), std::string::npos)
      << result.error;
}

TEST(CheckpointFileTest, CheckpointNowPrunesOldAnchorsAndWal) {
  TempDir tmp;
  WalConfig config;
  config.dir = tmp.path;
  config.segment_bytes = kWalHeaderBytes + 4 * kWalRecordBytes;
  config.fsync_on_flush = false;
  WalAppender wal(config);
  StreamEngine engine{DynamicGraph(std::size_t{32})};
  engine.attach(&wal);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i + 1 < 32; ++i) {
    engine.apply(Event::edge_insert(static_cast<VertexId>(i),
                                    static_cast<VertexId>(i + 1)));
    if ((i + 1) % 8 == 0) {
      wal.sync();
      paths.push_back(checkpoint_now(tmp.path, engine, /*keep=*/2));
      ASSERT_FALSE(paths.back().empty());
    }
  }
  // Only the newest two anchors survive; older WAL segments are gone,
  // and what remains still recovers the full state.
  std::size_t checkpoint_files = 0;
  for (const auto& entry : fs::directory_iterator(tmp.path)) {
    checkpoint_files +=
        entry.path().extension() == ".ckpt" && entry.path().string().find(
            ".tmp") == std::string::npos;
  }
  EXPECT_EQ(checkpoint_files, 2u);
  EXPECT_FALSE(fs::exists(paths.front()));
  const RecoverOutcome rec = recover(tmp.path, 32);
  ASSERT_TRUE(rec.ok()) << rec.error;
  EXPECT_EQ(rec.engine->graph().log(), engine.graph().log());
}

// ------------------------------------------------------ WAL crash matrix

TEST(WalCrashMatrixTest, EveryRecordBoundarySurvives) {
  Rng rng(53);
  const auto events = churn_stream(16, 60, rng);
  // Probe one run for the accepted count, then kill at every boundary.
  const WalCrashOutcome probe = run_wal_crash_recovery(
      16, events, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(probe.ok()) << "durable " << probe.durable << " recovered "
                          << probe.recovered;
  ASSERT_GT(probe.accepted, 0u);
  for (std::size_t k = 0; k <= probe.accepted; ++k) {
    const std::uint64_t cut = kWalHeaderBytes + k * kWalRecordBytes;
    const WalCrashOutcome out = run_wal_crash_recovery(16, events, cut);
    EXPECT_TRUE(out.ok()) << "boundary " << k << ": durable " << out.durable
                          << " recovered " << out.recovered;
    EXPECT_EQ(out.durable, k) << "boundary " << k;
  }
}

TEST(WalCrashMatrixTest, RandomByteOffsetsSurvive) {
  Rng rng(54);
  const auto events = churn_stream(16, 60, rng);
  const WalCrashOutcome probe = run_wal_crash_recovery(
      16, events, std::numeric_limits<std::uint64_t>::max());
  const std::uint64_t file_bytes =
      kWalHeaderBytes + probe.accepted * kWalRecordBytes;
  for (int i = 0; i < 10; ++i) {
    const auto cut = static_cast<std::uint64_t>(
        rng.index(static_cast<std::size_t>(file_bytes) + 1));
    const WalCrashOutcome out = run_wal_crash_recovery(16, events, cut);
    EXPECT_TRUE(out.ok()) << "cut " << cut << ": durable " << out.durable
                          << " recovered " << out.recovered;
  }
}

TEST(WalCrashMatrixTest, CheckpointAnchorsBeatTornWal) {
  // A WAL torn BEFORE the newest checkpoint's epoch: recovery must use
  // the anchor and come back newer than the torn log alone allows.
  Rng rng(55);
  const auto events = churn_stream(16, 80, rng);
  WalCrashOptions options;
  options.checkpoint_every = 20;
  const WalCrashOutcome out = run_wal_crash_recovery(
      16, events, kWalHeaderBytes + 5 * kWalRecordBytes, options);
  EXPECT_TRUE(out.ok()) << "durable " << out.durable << " recovered "
                        << out.recovered;
  EXPECT_GE(out.durable, 20u);
}

TEST(WalCrashMatrixTest, CorruptNewestCheckpointFallsBack) {
  Rng rng(56);
  const auto events = churn_stream(16, 100, rng);
  WalCrashOptions options;
  options.checkpoint_every = 10;  // several anchors, so fallback has one
  options.corrupt_newest_checkpoint = true;
  const WalCrashOutcome out = run_wal_crash_recovery(
      16, events, std::numeric_limits<std::uint64_t>::max(), options);
  EXPECT_TRUE(out.ok()) << "durable " << out.durable << " recovered "
                        << out.recovered;
  // The corrupt anchor was tried and skipped.
  EXPECT_GE(out.checkpoints_tried, 2u);
}

TEST(WalCrashMatrixTest, RecoverAppendRecoverKeepsResumedRecords) {
  // The full production cycle: crash with a torn tail, recover (which
  // repairs the log on disk), resume appending through a fresh
  // WalAppender, crash again, recover again. The second recovery must
  // see the durable prefix PLUS every flushed post-recovery record —
  // without the repair step the old tear would strand the resumed
  // segment behind a non-clean stop and silently drop it.
  const std::size_t n = 16;
  Rng rng(58);
  const auto events = churn_stream(n, 60, rng);
  const auto resume_events = churn_stream(n, 40, rng);

  for (const std::size_t torn_records :
       {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    TempDir tmp;
    WalConfig config;
    config.dir = tmp.path;
    config.fsync_on_flush = false;
    std::vector<Event> accepted;
    {
      WalAppender wal(config);
      StreamEngine doomed{DynamicGraph(n)};
      doomed.attach(&wal);
      for (const Event& e : events) doomed.apply(e);
      wal.sync();
      const auto& log = doomed.graph().log();
      accepted.assign(log.begin(), log.end());
    }
    ASSERT_GT(accepted.size(), torn_records);
    // Tear mid-record so exactly `torn_records` full records survive.
    const std::string seg = wal_segment_path(tmp.path);
    fs::resize_file(seg,
                    kWalHeaderBytes + torn_records * kWalRecordBytes + 9);

    RecoverOutcome first = recover(tmp.path, n);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.engine->graph().epoch(), torn_records);
    EXPECT_EQ(first.wal_repair.segments_truncated, 1u);
    // The disk is healed: the segment now ends at the valid prefix.
    EXPECT_EQ(fs::file_size(seg),
              kWalHeaderBytes + torn_records * kWalRecordBytes);

    // Resume: a fresh appender adopts the recovered epoch on attach,
    // so its new segment's first_index extends the healed chain.
    StreamEngine& engine = *first.engine;
    {
      WalAppender wal(config);
      engine.attach(&wal);
      EXPECT_EQ(wal.next_index(), torn_records);
      for (const Event& e : resume_events) engine.apply(e);
      wal.sync();
      engine.detach(&wal);
    }
    ASSERT_GT(engine.graph().epoch(), torn_records);

    RecoverOutcome second = recover(tmp.path, n);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_TRUE(second.wal.clean) << second.wal.detail;
    EXPECT_EQ(second.engine->graph().epoch(), engine.graph().epoch())
        << "torn at " << torn_records;
    EXPECT_EQ(second.engine->graph().log(), engine.graph().log());
    EXPECT_EQ(second.engine->graph().materialize(),
              engine.graph().materialize());

    // Tear the RESUMED segment too: repair heals generation after
    // generation, keeping both the original and the resumed prefix.
    const std::string resumed_seg =
        wal_segment_path(tmp.path, torn_records);
    const std::uint64_t resumed_size = fs::file_size(resumed_seg);
    ASSERT_GE(resumed_size, kWalHeaderBytes + kWalRecordBytes);
    fs::resize_file(resumed_seg, resumed_size - 4);
    RecoverOutcome third = recover(tmp.path, n);
    ASSERT_TRUE(third.ok()) << third.error;
    EXPECT_EQ(third.engine->graph().epoch(), engine.graph().epoch() - 1);
  }
}

TEST(WalCrashMatrixTest, RecoveryEmitsMetrics) {
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t runs_before =
      registry.snapshot().counter_value("fault.recover.runs");
  Rng rng(57);
  const auto events = churn_stream(16, 40, rng);
  const WalCrashOutcome out = run_wal_crash_recovery(
      16, events, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(out.ok());
  const auto snap = registry.snapshot();
  EXPECT_GT(snap.counter_value("fault.recover.runs"), runs_before);
  EXPECT_GT(snap.counter_value("fault.wal.appends"), 0u);
  EXPECT_GT(snap.counter_value("fault.wal.scan.runs"), 0u);
}

// ---------------------------------------------------------- percolation

TEST(PercolationTest, CurveShapeAndEndpoints) {
  Rng rng(3);
  const Graph g = erdos_renyi(120, 0.06, rng);
  const PercolationCurve curve =
      percolation_curve(g, RemovalOrder::kRandom, /*seed=*/8, /*samples=*/12);
  ASSERT_GE(curve.removed.size(), 2u);
  ASSERT_EQ(curve.removed.size(), curve.largest_component.size());
  ASSERT_EQ(curve.removed.size(), curve.nsf_survivors.size());
  ASSERT_EQ(curve.removed.size(), curve.fraction_removed.size());
  EXPECT_EQ(curve.removed.front(), 0u);
  EXPECT_EQ(curve.removed.back(), g.vertex_count());
  EXPECT_EQ(curve.fraction_removed.back(), 1.0);
  EXPECT_GT(curve.largest_component.front(), 0u);
  EXPECT_EQ(curve.largest_component.back(), 0u);  // nobody left
  EXPECT_EQ(curve.nsf_survivors.back(), 0u);
  // Removing vertices can only shrink the largest component.
  for (std::size_t i = 1; i < curve.largest_component.size(); ++i) {
    EXPECT_LE(curve.largest_component[i], curve.largest_component[i - 1]);
  }
}

TEST(PercolationTest, TargetedRemovalBeatsRandom) {
  Rng rng(19);
  const auto seq = power_law_degree_sequence(300, 2.5, 2, 40, rng);
  const Graph g = configuration_model(seq, rng);

  const PercolationCurve random =
      percolation_curve(g, RemovalOrder::kRandom, 5, 15);
  const PercolationCurve degree =
      percolation_curve(g, RemovalOrder::kDegree, 5, 15);
  const PercolationCurve core = percolation_curve(g, RemovalOrder::kCore, 5, 15);
  ASSERT_EQ(degree.removed, random.removed);  // same sampling grid
  ASSERT_EQ(core.removed, random.removed);

  // Hub-targeted attacks dissolve the giant component at least as fast
  // as random failures at every sampled removal count (area test on a
  // scale-free substrate, the paper's robustness contrast).
  std::size_t random_area = 0, degree_area = 0, core_area = 0;
  for (std::size_t i = 0; i < random.removed.size(); ++i) {
    random_area += random.largest_component[i];
    degree_area += degree.largest_component[i];
    core_area += core.largest_component[i];
  }
  EXPECT_LT(degree_area, random_area);
  EXPECT_LT(core_area, random_area);

  EXPECT_EQ(to_string(RemovalOrder::kRandom), "random");
  EXPECT_EQ(to_string(RemovalOrder::kDegree), "degree");
  EXPECT_EQ(to_string(RemovalOrder::kCore), "core");
}

TEST(PercolationTest, RandomOrderIsSeedDeterministic) {
  Rng rng(23);
  const Graph g = erdos_renyi(80, 0.08, rng);
  const PercolationCurve a = percolation_curve(g, RemovalOrder::kRandom, 42, 10);
  const PercolationCurve b = percolation_curve(g, RemovalOrder::kRandom, 42, 10);
  EXPECT_EQ(a.largest_component, b.largest_component);
  EXPECT_EQ(a.nsf_survivors, b.nsf_survivors);
  const PercolationCurve c = percolation_curve(g, RemovalOrder::kRandom, 43, 10);
  EXPECT_NE(a.largest_component, c.largest_component);  // seed matters
}

}  // namespace
}  // namespace structnet
