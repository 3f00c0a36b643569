// Lane-packed multi-source sweep equivalence: every lane of
// csr_earliest_arrival_batch must be bit-identical to a scalar
// csr_earliest_arrival from that lane's source — across ragged lane
// counts, duplicate sources, late/beyond-horizon starts, isolated
// vertices, the delta overlay (including across a compaction
// boundary), and workspace reuse across indexes. Every lane of
// csr_fastest_departure_batch must equal its one-lane run on a fresh
// TemporalCsr and match legacy::fastest_journey in presence and span,
// with a materialized journey that realizes its (departure, arrival)
// pair — across ragged lane counts with mixed t_starts, unreachable
// targets, duplicate lanes, lanes finishing early, and the delta
// overlay. The converted all-pairs callers must be bit-identical at
// 1/2/8 threads and to scalar reference loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "temporal/journeys.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/smallworld_metrics.hpp"
#include "temporal/temporal_centrality.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_delta.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

/// Random contact trace over vertices [0, n - isolated): the tail stays
/// contact-free so sweeps must cope with vertices the seeds list skips.
TemporalGraph random_trace(Rng& rng, std::size_t n, TimeUnit horizon,
                           std::size_t contacts, std::size_t isolated = 0) {
  TemporalGraph eg(n, horizon);
  const std::size_t active = n - isolated;
  for (std::size_t i = 0; i < contacts; ++i) {
    const auto u = static_cast<VertexId>(rng.index(active));
    const auto v = static_cast<VertexId>(rng.index(active));
    if (u == v) continue;
    eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
  }
  return eg;
}

/// The scalar payload bytes (what the broker's TemporalDistances path
/// serves): arrival for every vertex after the last scalar sweep.
std::vector<TimeUnit> scalar_row(std::size_t n, const TemporalWorkspace& ws) {
  std::vector<TimeUnit> row(n);
  for (std::size_t v = 0; v < row.size(); ++v) {
    row[v] = ws.arrival(static_cast<VertexId>(v));
  }
  return row;
}

/// Lane `lane`'s via parents rebuilt from the sweep's firing log
/// (kInvalidVertex for the source and unreached vertices). Also asserts
/// the two facts the betweenness fold relies on: every reached vertex
/// is in exactly one of the lane's entries, and its parent's entry comes
/// first.
std::vector<VertexId> lane_parents(const MultiSourceWorkspace& ws,
                                   std::size_t lane) {
  const std::span<const MultiSourceWorkspace::Fire> log = ws.fires();
  std::vector<VertexId> parent(ws.vertex_count(), kInvalidVertex);
  std::vector<std::size_t> entry(ws.vertex_count(), log.size());
  std::size_t entries = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const MultiSourceWorkspace::Fire& f = log[i];
    if (((f.lanes >> lane) & 1u) == 0) continue;
    EXPECT_EQ(entry[f.vertex], log.size())
        << "lane=" << lane << " v=" << f.vertex << " logged twice";
    EXPECT_TRUE(f.from == kInvalidVertex || entry[f.from] < i)
        << "lane=" << lane << " v=" << f.vertex << " fired before its parent";
    entry[f.vertex] = i;
    parent[f.vertex] = f.from;
    ++entries;
  }
  EXPECT_EQ(entries, ws.reached_count(lane)) << "lane=" << lane;
  return parent;
}

/// Asserts each lane of one batch sweep reproduces the scalar kernel
/// bit-for-bit (arrivals always; via parents, read off the firing log,
/// when record_via — and an empty log otherwise).
template <class Index>
void expect_lanes_match_scalar(const Index& csr,
                               const std::vector<VertexId>& sources,
                               TimeUnit t_start, MultiSourceWorkspace& ws,
                               bool record_via) {
  csr_earliest_arrival_batch(
      csr, {sources.data(), sources.size()}, t_start, ws, record_via);
  if (!record_via) {
    ASSERT_TRUE(ws.fires().empty());
  }
  TemporalWorkspace scalar;
  for (std::size_t l = 0; l < sources.size(); ++l) {
    csr_earliest_arrival(csr, sources[l], t_start, scalar);
    const std::vector<VertexId> parent =
        record_via ? lane_parents(ws, l) : std::vector<VertexId>{};
    std::size_t reached = 0;
    for (std::size_t v = 0; v < csr.vertex_count(); ++v) {
      const auto id = static_cast<VertexId>(v);
      ASSERT_EQ(ws.arrival(l, id), scalar.arrival(id))
          << "lane=" << l << " source=" << sources[l] << " v=" << v;
      if (record_via) {
        ASSERT_EQ(parent[v], scalar.via(id).from)
            << "lane=" << l << " source=" << sources[l] << " v=" << v;
      }
      if (scalar.arrival(id) != kNeverTime) ++reached;
    }
    ASSERT_EQ(ws.reached_count(l), reached) << "lane=" << l;
    ASSERT_EQ(ws.completion(l), scalar_row(csr.vertex_count(), scalar));
  }
}

TEST(MultiSourceEquivalence, RaggedLaneCountsMatchScalarWithReusedWorkspace) {
  Rng rng(42);
  const TemporalGraph eg = random_trace(rng, 90, 16, 260, /*isolated=*/4);
  const TemporalCsr csr(eg);
  MultiSourceWorkspace ws;  // deliberately reused across every shape
  Rng pick(7);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, std::size_t{64}}) {
    std::vector<VertexId> sources;
    for (std::size_t l = 0; l < lanes; ++l) {
      sources.push_back(static_cast<VertexId>(pick.index(eg.vertex_count())));
    }
    expect_lanes_match_scalar(csr, sources, 0, ws, /*record_via=*/true);
  }
}

TEST(MultiSourceEquivalence, DuplicateSourcesEvolveIdentically) {
  Rng rng(5);
  const TemporalGraph eg = random_trace(rng, 40, 10, 120);
  const TemporalCsr csr(eg);
  std::vector<VertexId> sources = {3, 9, 3, 3, 21, 9};
  MultiSourceWorkspace ws;
  expect_lanes_match_scalar(csr, sources, 0, ws, /*record_via=*/true);
}

TEST(MultiSourceEquivalence, LateAndBeyondHorizonStarts) {
  Rng rng(11);
  const TemporalGraph eg = random_trace(rng, 50, 14, 150, /*isolated=*/2);
  const TemporalCsr csr(eg);
  MultiSourceWorkspace ws;
  std::vector<VertexId> sources;
  for (std::size_t l = 0; l < 24; ++l) {
    sources.push_back(static_cast<VertexId>((l * 7) % eg.vertex_count()));
  }
  for (const TimeUnit t_start : {TimeUnit{5}, TimeUnit{13},
                                 eg.horizon(),  // no unit ever scanned
                                 static_cast<TimeUnit>(eg.horizon() + 3)}) {
    expect_lanes_match_scalar(csr, sources, t_start, ws, /*record_via=*/true);
  }
}

TEST(MultiSourceEquivalence, RandomizedManySeeds) {
  for (const std::uint64_t seed : {29ULL, 31ULL, 37ULL}) {
    Rng rng(seed);
    const std::size_t n = 30 + rng.index(60);
    const TemporalGraph eg =
        random_trace(rng, n, static_cast<TimeUnit>(6 + rng.index(12)),
                     60 + rng.index(240), rng.index(5));
    const TemporalCsr csr(eg);
    MultiSourceWorkspace ws;
    const std::size_t lanes = 1 + rng.index(MultiSourceWorkspace::kMaxLanes);
    std::vector<VertexId> sources;
    for (std::size_t l = 0; l < lanes; ++l) {
      sources.push_back(static_cast<VertexId>(rng.index(n)));
    }
    expect_lanes_match_scalar(csr, sources,
                              static_cast<TimeUnit>(rng.index(4)), ws,
                              /*record_via=*/true);
  }
}

TEST(MultiSourceDelta, OverlayLanesMatchScalarAcrossCompaction) {
  constexpr std::size_t kN = 36;
  constexpr TimeUnit kHorizon = 12;
  Rng rng(61);
  // Canonical truth: the live contact set, mirrored into the delta.
  std::set<std::array<std::uint32_t, 3>> live;
  const auto key = [](VertexId u, VertexId v, TimeUnit t) {
    return std::array<std::uint32_t, 3>{std::min(u, v), std::max(u, v), t};
  };
  const auto rebuild = [&] {
    TemporalGraph eg(kN, kHorizon);
    for (const auto& c : live) eg.add_contact(c[0], c[1], c[2]);
    return eg;
  };
  for (int i = 0; i < 90; ++i) {
    const auto u = static_cast<VertexId>(rng.index(kN));
    const auto v = static_cast<VertexId>(rng.index(kN));
    if (u == v) continue;
    live.insert(key(u, v, static_cast<TimeUnit>(rng.index(kHorizon))));
  }
  DeltaTemporalCsr delta(rebuild());
  MultiSourceWorkspace ws;
  std::vector<VertexId> sources;
  for (std::size_t l = 0; l < kN; ++l) {
    sources.push_back(static_cast<VertexId>(l));
  }
  // Mutate the overlay, sweeping after each round against both the
  // delta itself and a fresh index of the truth; then force the
  // compaction boundary with a compact() and sweep again — the same
  // workspace must refresh its cached contact list each time.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 25; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kN));
      const auto v = static_cast<VertexId>(rng.index(kN));
      if (u == v) continue;
      const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
      if (rng.bernoulli(0.3)) {
        live.erase(key(u, v, t));
        delta.remove_label(u, v, t);
      } else {
        live.insert(key(u, v, t));
        delta.add_contact(u, v, t);
      }
    }
    expect_lanes_match_scalar(delta, sources, 0, ws, /*record_via=*/true);
    const TemporalCsr fresh(rebuild());
    expect_lanes_match_scalar(fresh, sources, 0, ws, /*record_via=*/true);
  }
  delta.compact();  // compaction boundary: state id must move
  expect_lanes_match_scalar(delta, sources, 0, ws, /*record_via=*/true);
}

TEST(MultiSourceWorkspaceTest, ContactCacheRefreshesAcrossIndexes) {
  Rng rng(77);
  const TemporalGraph a = random_trace(rng, 30, 8, 70, /*isolated=*/6);
  const TemporalGraph b = random_trace(rng, 30, 8, 70);
  const TemporalCsr csr_a(a);
  const TemporalCsr csr_b(b);
  MultiSourceWorkspace ws;
  std::vector<VertexId> sources = {0, 5, 11, 29};
  // Alternate indexes with one workspace: a stale cached has-contacts
  // list from the other index would corrupt the pending set.
  expect_lanes_match_scalar(csr_a, sources, 0, ws, /*record_via=*/false);
  expect_lanes_match_scalar(csr_b, sources, 0, ws, /*record_via=*/false);
  expect_lanes_match_scalar(csr_a, sources, 0, ws, /*record_via=*/true);
}

// ------------------------------------------------ fastest departures

/// Random fastest lanes over vertices [0, n): source != target, t_start
/// anywhere in [0, horizon + 2] (so some lanes start at or past the
/// horizon and never run).
std::vector<FastestLane> random_fastest_lanes(Rng& rng, std::size_t n,
                                              TimeUnit horizon,
                                              std::size_t count) {
  std::vector<FastestLane> lanes;
  while (lanes.size() < count) {
    const auto s = static_cast<VertexId>(rng.index(n));
    const auto t = static_cast<VertexId>(rng.index(n));
    if (s == t) continue;
    lanes.push_back({s, t, static_cast<TimeUnit>(rng.index(horizon + 3))});
  }
  return lanes;
}

/// Asserts each lane of one fastest batch over `csr` (an index holding
/// exactly eg's contacts) (a) equals, pair for pair, the one-lane run
/// of the same query on a fresh TemporalCsr of eg, so neither block
/// composition nor the delta overlay can change a result, and (b)
/// matches legacy::fastest_journey in presence and span, with the
/// journey materialized from the lane's departure valid for eg and
/// realizing its (departure, arrival) pair exactly.
template <class Index>
void expect_fastest_lanes_match_scalar(const Index& csr,
                                       const TemporalGraph& eg,
                                       const std::vector<FastestLane>& lanes,
                                       MultiSourceWorkspace& ws) {
  const auto got =
      csr_fastest_departure_batch(csr, {lanes.data(), lanes.size()}, ws);
  ASSERT_EQ(got.size(), lanes.size());
  const TemporalCsr fresh(eg);
  MultiSourceWorkspace one_lane;
  TemporalWorkspace sweep;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const FastestLane& lane = lanes[l];
    const auto want = csr_fastest_departure_batch(fresh, {&lane, 1}, one_lane);
    ASSERT_EQ(got[l], want.front())
        << "lane=" << l << " source=" << lane.source
        << " target=" << lane.target << " t_start=" << lane.t_start;

    const auto oracle =
        legacy::fastest_journey(eg, lane.source, lane.target, lane.t_start);
    ASSERT_EQ(got[l].has_value(), oracle.has_value()) << "lane=" << l;
    if (!oracle) continue;
    const auto [d, a] = *got[l];
    ASSERT_EQ(a - d, oracle->span()) << "lane=" << l;
    csr_earliest_arrival(fresh, lane.source, d, sweep, lane.target);
    ASSERT_NE(sweep.arrival(lane.target), kNeverTime) << "lane=" << l;
    const Journey j = sweep.journey(lane.source, lane.target);
    ASSERT_FALSE(j.empty()) << "lane=" << l;
    EXPECT_TRUE(j.valid_for(eg)) << "lane=" << l;
    EXPECT_GE(d, lane.t_start) << "lane=" << l;
    EXPECT_EQ(j.hops.front().t, d) << "lane=" << l;
    EXPECT_EQ(j.hops.back().t, a) << "lane=" << l;
  }
}

TEST(MultiSourceFastest, RaggedLaneCountsWithMixedStartsMatchScalar) {
  Rng rng(43);
  // Isolated tail: lanes targeting it are unreachable.
  const TemporalGraph eg = random_trace(rng, 60, 14, 170, /*isolated=*/5);
  const TemporalCsr csr(eg);
  MultiSourceWorkspace ws;  // deliberately reused across every shape
  Rng pick(8);
  std::size_t unreachable = 0, beyond_horizon = 0;
  for (std::size_t count = 1; count <= MultiSourceWorkspace::kMaxLanes;
       ++count) {
    const auto lanes =
        random_fastest_lanes(pick, eg.vertex_count(), eg.horizon(), count);
    for (const FastestLane& lane : lanes) {
      if (lane.target >= eg.vertex_count() - 5) ++unreachable;
      if (lane.t_start >= eg.horizon()) ++beyond_horizon;
    }
    expect_fastest_lanes_match_scalar(csr, eg, lanes, ws);
  }
  // The shapes the sweep must cope with really occurred.
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(beyond_horizon, 0u);
}

TEST(MultiSourceFastest, DuplicateLanesAndEarlyFinisherMatchScalar) {
  // Lane {0 -> 1} meets a direct contact at t = 2 (span 0, done), while
  // lane {2 -> 5} first completes with span 6 and only improves to
  // span 2 long after the first lane stopped.
  TemporalGraph eg(8, 12);
  eg.add_contact(0, 1, 2);
  eg.add_contact(2, 3, 1);
  eg.add_contact(3, 4, 4);
  eg.add_contact(4, 5, 7);
  eg.add_contact(2, 3, 8);
  eg.add_contact(3, 4, 9);
  eg.add_contact(4, 5, 10);
  eg.add_contact(5, 6, 3);
  const TemporalCsr csr(eg);
  const std::vector<FastestLane> lanes = {
      {0, 1, 0}, {2, 5, 0}, {0, 1, 0}, {2, 5, 0}, {2, 5, 5},
      {6, 7, 0},  // 7 has no contacts: unreachable
      {0, 1, 3},  // starts after its only contact
  };
  MultiSourceWorkspace ws;
  expect_fastest_lanes_match_scalar(csr, eg, lanes, ws);
  const auto got =
      csr_fastest_departure_batch(csr, {lanes.data(), lanes.size()}, ws);
  using Departure = std::optional<std::pair<TimeUnit, TimeUnit>>;
  EXPECT_EQ(got[0], (Departure{{2, 2}}));
  EXPECT_EQ(got[1], (Departure{{8, 10}}));
  EXPECT_EQ(got[2], got[0]);
  EXPECT_EQ(got[3], got[1]);
  EXPECT_EQ(got[4], (Departure{{8, 10}}));
  EXPECT_EQ(got[5], Departure{});
  EXPECT_EQ(got[6], Departure{});
}

TEST(MultiSourceFastest, RandomizedSeedsMatchScalar) {
  for (const std::uint64_t seed : {3ULL, 17ULL, 71ULL, 101ULL}) {
    Rng rng(seed);
    const std::size_t n = 20 + rng.index(70);
    const TemporalGraph eg =
        random_trace(rng, n, static_cast<TimeUnit>(5 + rng.index(16)),
                     40 + rng.index(300), rng.index(4));
    const TemporalCsr csr(eg);
    MultiSourceWorkspace ws;
    const std::size_t count = 1 + rng.index(MultiSourceWorkspace::kMaxLanes);
    expect_fastest_lanes_match_scalar(
        csr, eg, random_fastest_lanes(rng, n, eg.horizon(), count), ws);
  }
}

TEST(MultiSourceFastest, DeltaOverlayMatchesFreshAcrossCompaction) {
  constexpr std::size_t kN = 34;
  constexpr TimeUnit kHorizon = 14;
  Rng rng(67);
  std::set<std::array<std::uint32_t, 3>> live;
  const auto key = [](VertexId u, VertexId v, TimeUnit t) {
    return std::array<std::uint32_t, 3>{std::min(u, v), std::max(u, v), t};
  };
  const auto rebuild = [&] {
    TemporalGraph eg(kN, kHorizon);
    for (const auto& c : live) eg.add_contact(c[0], c[1], c[2]);
    return eg;
  };
  for (int i = 0; i < 80; ++i) {
    const auto u = static_cast<VertexId>(rng.index(kN));
    const auto v = static_cast<VertexId>(rng.index(kN));
    if (u == v) continue;
    live.insert(key(u, v, static_cast<TimeUnit>(rng.index(kHorizon))));
  }
  DeltaTemporalCsr delta(rebuild());
  MultiSourceWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 30; ++i) {
      if (rng.bernoulli(0.35)) {
        // Tombstone a live contact (base or delta-added).
        const auto c = *std::next(live.begin(),
                                  static_cast<std::ptrdiff_t>(
                                      rng.index(live.size())));
        live.erase(c);
        ASSERT_TRUE(delta.remove_label(c[0], c[1], c[2]));
        continue;
      }
      const auto u = static_cast<VertexId>(rng.index(kN));
      const auto v = static_cast<VertexId>(rng.index(kN));
      if (u == v) continue;
      const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
      live.insert(key(u, v, t));
      delta.add_contact(u, v, t);
    }
    const auto lanes = random_fastest_lanes(rng, kN, kHorizon, 24 + 8 * round);
    expect_fastest_lanes_match_scalar(delta, rebuild(), lanes, ws);
  }
  delta.compact();  // compaction boundary
  expect_fastest_lanes_match_scalar(
      delta, rebuild(),
      random_fastest_lanes(rng, kN, kHorizon, MultiSourceWorkspace::kMaxLanes),
      ws);
}

TEST(MultiSourceWorkspaceTest, FastestAndEarliestArrivalShareAWorkspace) {
  Rng rng(79);
  const TemporalGraph eg = random_trace(rng, 40, 10, 120, /*isolated=*/3);
  const TemporalCsr csr(eg);
  MultiSourceWorkspace ws;
  const std::vector<VertexId> sources = {0, 4, 9, 4, 30};
  // Interleave the two kernels on one workspace: neither may read the
  // other's leftover rows as its own.
  expect_lanes_match_scalar(csr, sources, 0, ws, /*record_via=*/true);
  expect_fastest_lanes_match_scalar(
      csr, eg, random_fastest_lanes(rng, 40, eg.horizon(), 33), ws);
  expect_lanes_match_scalar(csr, sources, 2, ws, /*record_via=*/true);
  expect_fastest_lanes_match_scalar(
      csr, eg, random_fastest_lanes(rng, 40, eg.horizon(), 7), ws);
}

/// The via-chain walk the betweenness fold replaced, over the scalar
/// kernel: for each source in `sources`, one sweep from t_start, then
/// per reached destination one walk up its via chain crediting every
/// interior vertex once.
std::vector<double> chain_walk_credits(const TemporalCsr& csr,
                                       std::span<const VertexId> sources,
                                       TimeUnit t_start) {
  const std::size_t n = csr.vertex_count();
  std::vector<double> credit(n, 0.0);
  TemporalWorkspace ws;
  for (const VertexId s : sources) {
    csr_earliest_arrival(csr, s, t_start, ws);
    for (std::size_t d = 0; d < n; ++d) {
      const auto dst = static_cast<VertexId>(d);
      if (dst == s || ws.arrival(dst) == kNeverTime) continue;
      for (VertexId cur = ws.via(dst).from; cur != kInvalidVertex && cur != s;
           cur = ws.via(cur).from) {
        credit[cur] += 1.0;
      }
    }
  }
  return credit;
}

TEST(MultiSourceFold, RelayCreditsMatchChainWalksPerLane) {
  Rng rng(71);
  MultiSourceWorkspace ws;  // reused: a fold must leave nothing behind
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 20 + rng.index(70);
    const TemporalGraph eg =
        random_trace(rng, n, static_cast<TimeUnit>(4 + rng.index(10)),
                     40 + rng.index(4 * n), rng.index(4));
    const TemporalCsr csr(eg);
    // Ragged lane counts with duplicate sources and late starts: each
    // lane credits its own tree, duplicates included.
    std::vector<VertexId> sources(
        1 + rng.index(MultiSourceWorkspace::kMaxLanes));
    for (VertexId& s : sources) s = static_cast<VertexId>(rng.index(n));
    const auto t_start = static_cast<TimeUnit>(rng.index(3));
    csr_earliest_arrival_batch(csr, sources, t_start, ws,
                               /*record_via=*/true);
    std::vector<double> credit(n, 0.0);
    ws.fold_relay_credits(credit);
    EXPECT_EQ(credit, chain_walk_credits(csr, sources, t_start))
        << "round=" << round;
    // The fold consumed the sweep: it reads as an empty one.
    EXPECT_TRUE(ws.fires().empty());
    for (std::size_t l = 0; l < sources.size(); ++l) {
      EXPECT_EQ(ws.reached_count(l), 0u);
      EXPECT_EQ(ws.arrival(l, sources[l]), kNeverTime);
    }
  }
}

TEST(MultiSourceCallers, BetweennessMatchesChainWalkAtAnyThreadCount) {
  Rng rng(83);
  // Lane-block edges (63/64/65, two blocks and a ragged third at 130)
  // and degenerate sizes, each with a contact-free tail from n = 63 on.
  for (const std::size_t n : {1, 2, 63, 64, 65, 130}) {
    const std::size_t isolated = n > 2 ? 1 + n / 20 : 0;
    const TemporalGraph eg = random_trace(rng, n, 12, 3 * n, isolated);
    const TemporalCsr csr(eg);
    std::vector<VertexId> all(n);
    for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<VertexId>(v);
    const std::vector<double> expected = chain_walk_credits(csr, all, 0);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      EXPECT_EQ(temporal_betweenness(eg, threads), expected)
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(MultiSourceCallers, AllPairsKernelsThreadCountInvariant) {
  Rng rng(19);
  const TemporalGraph eg = random_trace(rng, 70, 12, 220, /*isolated=*/3);
  const auto close1 = temporal_closeness(eg, 1);
  const auto betw1 = temporal_betweenness(eg, 1);
  const auto cpl1 = characteristic_temporal_path_length(eg, 1);
  const auto flood1 = flooding_times(eg, 1);
  const auto dia1 = dynamic_diameter(eg, 1);
  const auto conn1 = is_time_connected(eg, 0, 1);
  const auto mat1 = temporal_distance_matrix(eg, 0, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(temporal_closeness(eg, threads), close1);
    EXPECT_EQ(temporal_betweenness(eg, threads), betw1);
    const auto cpl = characteristic_temporal_path_length(eg, threads);
    EXPECT_EQ(cpl.characteristic_length, cpl1.characteristic_length);
    EXPECT_EQ(cpl.reachable_fraction, cpl1.reachable_fraction);
    EXPECT_EQ(flooding_times(eg, threads), flood1);
    EXPECT_EQ(dynamic_diameter(eg, threads), dia1);
    EXPECT_EQ(is_time_connected(eg, 0, threads), conn1);
    EXPECT_EQ(temporal_distance_matrix(eg, 0, threads), mat1);
  }
}

TEST(MultiSourceCallers, MatchScalarReferenceLoops) {
  Rng rng(23);
  const TemporalGraph eg = random_trace(rng, 44, 10, 130, /*isolated=*/2);
  const std::size_t n = eg.vertex_count();
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;

  // flooding_times / dynamic_diameter vs the scalar single-source API.
  const auto floods = flooding_times(eg, 1);
  ASSERT_EQ(floods.size(), n);
  TimeUnit worst = 0;
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_EQ(floods[s], flooding_time(eg, static_cast<VertexId>(s)))
        << "s=" << s;
    worst = std::max(worst, floods[s]);
  }
  EXPECT_EQ(dynamic_diameter(eg, 1), worst);

  // temporal_distance_matrix rows vs temporal_distances.
  const auto mat = temporal_distance_matrix(eg, 2, 1);
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_EQ(mat[s], temporal_distances(eg, static_cast<VertexId>(s), 2))
        << "s=" << s;
  }

  // closeness vs a serial scalar-kernel recomputation (identical float
  // summation order, so == is the right comparison).
  const auto close = temporal_closeness(eg, 1);
  for (std::size_t s = 0; s < n; ++s) {
    csr_earliest_arrival(csr, static_cast<VertexId>(s), 0, ws);
    double sum = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      const TimeUnit c = ws.arrival(static_cast<VertexId>(v));
      if (v == s || c == kNeverTime) continue;
      sum += 1.0 / (1.0 + static_cast<double>(c));
    }
    EXPECT_EQ(close[s], sum / static_cast<double>(n - 1)) << "s=" << s;
  }

  // is_time_connected vs exhaustive reached counts.
  for (const TimeUnit t : {TimeUnit{0}, TimeUnit{4}}) {
    bool all = true;
    for (std::size_t s = 0; s < n && all; ++s) {
      csr_earliest_arrival(csr, static_cast<VertexId>(s), t, ws);
      all = ws.reached_count() == n;
    }
    EXPECT_EQ(is_time_connected(eg, t, 1), all) << "t=" << t;
  }
}

TEST(MultiSourceCallers, EmptyAndTinyGraphs) {
  const TemporalGraph empty(0, 4);
  EXPECT_TRUE(flooding_times(empty, 1).empty());
  EXPECT_EQ(dynamic_diameter(empty, 1), 0u);
  EXPECT_TRUE(temporal_distance_matrix(empty, 0, 1).empty());
  EXPECT_TRUE(is_time_connected(empty, 0, 1));

  TemporalGraph one(1, 4);
  EXPECT_EQ(flooding_times(one, 1), std::vector<TimeUnit>{0});
  EXPECT_EQ(dynamic_diameter(one, 1), 0u);
  EXPECT_TRUE(is_time_connected(one, 0, 1));
  EXPECT_EQ(temporal_closeness(one, 1), std::vector<double>{0.0});
}

}  // namespace
}  // namespace structnet
