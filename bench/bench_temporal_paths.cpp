// Experiment E2 (Fig. 2, Sec. II-B): the three journey-optimization
// problems — earliest completion time, minimum hop, fastest — on the
// reconstructed Fig. 2 VANET and on random-waypoint contact traces.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "mobility/contact_trace.hpp"
#include "mobility/mobility_models.hpp"
#include "temporal/fig2_example.hpp"
#include "temporal/journeys.hpp"
#include "temporal/multi_source.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_delta.hpp"
#include "temporal/weighted.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace structnet {
namespace {

void fig2_table() {
  const auto eg = fig2::build_core();
  Table t({"metric", "A->C journey", "value"});
  const auto ec = earliest_completion_journey(eg, fig2::A, fig2::C, 0);
  const auto mh = minimum_hop_journey(eg, fig2::A, fig2::C, 0);
  const auto fp = fastest_journey(eg, fig2::A, fig2::C, 0);
  auto fmt = [](const Journey& j) {
    std::string s;
    for (const auto& hop : j.hops) {
      s += std::to_string(hop.from) + "-" + std::to_string(hop.t) + "->";
    }
    if (!j.hops.empty()) s += std::to_string(j.hops.back().to);
    return s;
  };
  t.add_row({"earliest completion", fmt(*ec), Table::num(std::uint64_t(ec->completion()))});
  t.add_row({"minimum hop", fmt(*mh), Table::num(std::uint64_t(mh->hop_count()))});
  t.add_row({"fastest (span)", fmt(*fp), Table::num(std::uint64_t(fp->span()))});
  t.print(std::cout, "E2: Fig. 2 reconstructed VANET (A,B,C,D = 0,1,2,3)");

  Table conn({"start_time", "A connected to C"});
  for (TimeUnit s = 0; s < eg.horizon(); ++s) {
    conn.add_row({Table::num(std::uint64_t(s)),
                  is_connected_at(eg, fig2::A, fig2::C, s) ? "yes" : "no"});
  }
  conn.print(std::cout,
             "E2: 'A is connected to C at starting time units 0..4'");
}

void rwp_journey_table() {
  // On RWP traces, the three criteria trade off: earliest completion
  // minimizes arrival, min-hop uses fewer hops but arrives later,
  // fastest minimizes span by departing late.
  Table t({"radius", "pairs", "avg_arrival(EC)", "avg_hops(EC)",
           "avg_hops(MH)", "avg_arrival(MH)", "avg_span(EC)",
           "avg_span(Fastest)"});
  Rng rng(7);
  for (double radius : {0.15, 0.25, 0.35}) {
    RandomWaypointParams p;
    p.nodes = 30;
    p.steps = 60;
    const auto traj = random_waypoint(p, rng);
    const auto eg = contacts_from_trajectory(traj, radius);
    RunningStats arr_ec, hop_ec, hop_mh, arr_mh, span_ec, span_fp;
    Rng pick(1);
    for (int trial = 0; trial < 60; ++trial) {
      const auto s = static_cast<VertexId>(pick.index(p.nodes));
      const auto d = static_cast<VertexId>(pick.index(p.nodes));
      if (s == d) continue;
      const auto ec = earliest_completion_journey(eg, s, d, 0);
      if (!ec) continue;
      const auto mh = minimum_hop_journey(eg, s, d, 0);
      const auto fp = fastest_journey(eg, s, d, 0);
      arr_ec.add(ec->completion());
      hop_ec.add(static_cast<double>(ec->hop_count()));
      hop_mh.add(static_cast<double>(mh->hop_count()));
      arr_mh.add(mh->completion());
      span_ec.add(ec->span());
      span_fp.add(fp->span());
    }
    t.add_row({Table::num(radius, 2), Table::num(std::uint64_t(arr_ec.count())),
               Table::num(arr_ec.mean(), 2), Table::num(hop_ec.mean(), 2),
               Table::num(hop_mh.mean(), 2), Table::num(arr_mh.mean(), 2),
               Table::num(span_ec.mean(), 2), Table::num(span_fp.mean(), 2)});
  }
  t.print(std::cout,
          "E2: journey criteria on random-waypoint traces "
          "(min-hop <= EC hops; fastest span <= EC span; EC arrival <= MH "
          "arrival)");
}

void weighted_journey_table() {
  // E2w (Sec. II-B): "a weight can be the bandwidth, transmission
  // delay, or reliability" — the three objectives optimize different
  // journeys over the same weighted trace.
  Rng rng(23);
  RandomWaypointParams p;
  p.nodes = 24;
  p.steps = 50;
  const auto base = contacts_from_trajectory(random_waypoint(p, rng), 0.25);
  WeightedTemporalGraph eg(base.vertex_count(), base.horizon());
  for (const Contact& c : base.contacts()) {
    eg.add_contact(c.u, c.v, c.t, rng.uniform(0.1, 1.0));
  }
  RunningStats delay_cost, rel_ec, rel_opt, bw_ec, bw_opt;
  Rng pick(3);
  for (int trial = 0; trial < 80; ++trial) {
    const auto s = static_cast<VertexId>(pick.index(p.nodes));
    const auto d = static_cast<VertexId>(pick.index(p.nodes));
    if (s == d) continue;
    const auto md = min_delay_journey(eg, s, d, 0);
    if (!md) continue;
    const auto mr = max_reliability_journey(eg, s, d, 0);
    const auto mb = max_bandwidth_journey(eg, s, d, 0);
    // Compare against the unweighted earliest-completion journey's
    // aggregate values (what a weight-oblivious router would get).
    const auto ec = earliest_completion_journey(base, s, d, 0);
    double ec_rel = 1.0, ec_bw = 1e9;
    for (const auto& hop : ec->hops) {
      const double w = *eg.weight_of(hop.from, hop.to, hop.t);
      ec_rel *= w;
      ec_bw = std::min(ec_bw, w);
    }
    delay_cost.add(md->value);
    rel_ec.add(ec_rel);
    rel_opt.add(mr->value);
    bw_ec.add(ec_bw);
    bw_opt.add(mb->value);
  }
  Table t({"objective", "weight-aware", "weight-oblivious (EC journey)"});
  t.add_row({"min total delay", Table::num(delay_cost.mean(), 3), "-"});
  t.add_row({"max reliability", Table::num(rel_opt.mean(), 3),
             Table::num(rel_ec.mean(), 3)});
  t.add_row({"max bottleneck bandwidth", Table::num(bw_opt.mean(), 3),
             Table::num(bw_ec.mean(), 3)});
  t.print(std::cout,
          "E2w: weighted journeys — optimizing the right objective "
          "dominates the weight-oblivious earliest-completion route");
}

void pareto_frontier_table() {
  // E2w: the cost/completion trade-off — pay more to arrive earlier.
  Rng rng(31);
  RandomWaypointParams p;
  p.nodes = 20;
  p.steps = 60;
  const auto base = contacts_from_trajectory(random_waypoint(p, rng), 0.2);
  WeightedTemporalGraph eg(base.vertex_count(), base.horizon());
  for (const Contact& c : base.contacts()) {
    eg.add_contact(c.u, c.v, c.t, rng.uniform(0.1, 1.0));
  }
  RunningStats points, cost_spread, time_spread;
  Rng pick(32);
  for (int trial = 0; trial < 60; ++trial) {
    const auto s = static_cast<VertexId>(pick.index(p.nodes));
    const auto d = static_cast<VertexId>(pick.index(p.nodes));
    if (s == d) continue;
    const auto frontier = cost_completion_frontier(eg, s, d, 0);
    if (frontier.size() < 1) continue;
    points.add(static_cast<double>(frontier.size()));
    cost_spread.add(frontier.front().cost - frontier.back().cost);
    time_spread.add(static_cast<double>(frontier.back().completion -
                                        frontier.front().completion));
  }
  Table t({"metric", "value"});
  t.add_row({"avg Pareto points per pair", Table::num(points.mean(), 2)});
  t.add_row({"avg cost saved by waiting", Table::num(cost_spread.mean(), 2)});
  t.add_row({"avg extra wait (units)", Table::num(time_spread.mean(), 2)});
  t.print(std::cout,
          "E2w: cost/completion Pareto frontier on weighted RWP traces");
}

void csr_sweep_speedup_table() {
  // The PR-3 acceptance experiment: all-sources earliest-arrival sweeps
  // on a 20k-vertex synthetic contact trace, legacy bucketed kernel vs.
  // the flat CSR frontier kernel (single thread). The CSR kernel stops
  // as soon as every vertex is reached, so it never pays for the long
  // tail of the horizon the legacy kernel re-buckets and scans.
  const std::size_t n = 20000;
  const TimeUnit horizon = 512;
  const std::size_t edges = 150000;
  const std::size_t labels_per_edge = 8;
  Rng rng(101);
  TemporalGraph eg(n, horizon);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    for (std::size_t k = 0; k < labels_per_edge; ++k) {
      eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
    }
  }
  const auto build_start = std::chrono::steady_clock::now();
  const TemporalCsr csr(eg);
  const auto build_stop = std::chrono::steady_clock::now();
  const double build_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              build_stop - build_start)
                              .count());

  std::vector<VertexId> sources;
  for (std::size_t i = 0; i < 16; ++i) {
    sources.push_back(static_cast<VertexId>((i * n) / 16));
  }

  // Equivalence check on the sampled sources before timing.
  bool match = true;
  TemporalWorkspace ws;
  for (const VertexId s : sources) {
    const auto oracle = earliest_arrival(eg, s, 0);
    csr_earliest_arrival(csr, s, 0, ws);
    for (std::size_t v = 0; v < n && match; ++v) {
      match = ws.arrival(static_cast<VertexId>(v)) == oracle.completion[v] &&
              ws.via(static_cast<VertexId>(v)) == oracle.via[v];
    }
  }

  const double legacy_ns = time_ns_per_op(sources.size(), [&](std::size_t i) {
    benchmark::DoNotOptimize(earliest_arrival(eg, sources[i], 0));
  });
  const double csr_ns = time_ns_per_op(sources.size(), [&](std::size_t i) {
    csr_earliest_arrival(csr, sources[i], 0, ws);
    benchmark::DoNotOptimize(ws.reached_count());
  });
  const double speedup = csr_ns > 0.0 ? legacy_ns / csr_ns : 0.0;

  Table t({"impl", "ms_per_sweep", "speedup_vs_legacy", "results_match"});
  t.add_row({"legacy", Table::num(legacy_ns / 1e6, 3), "1.000",
             match ? "yes" : "NO"});
  t.add_row({"csr", Table::num(csr_ns / 1e6, 3), Table::num(speedup, 3),
             match ? "yes" : "NO"});
  t.print(std::cout,
          "E2csr: earliest-arrival sweep, 20k vertices / " +
              std::to_string(csr.contact_count()) +
              " contacts / horizon 512 (single thread)");

  BenchJson("temporal_ea_sweep")
      .field("impl", "legacy")
      .field("n", std::uint64_t(n))
      .field("contacts", std::uint64_t(csr.contact_count()))
      .threads(1)
      .field("ns_per_sweep", legacy_ns)
      .emit();
  BenchJson("temporal_ea_sweep")
      .field("impl", "csr")
      .field("n", std::uint64_t(n))
      .field("contacts", std::uint64_t(csr.contact_count()))
      .threads(1)
      .field("ns_per_sweep", csr_ns)
      .field("speedup_vs_legacy", speedup)
      .field("results_match", match ? "yes" : "no")
      .emit();
  BenchJson("temporal_csr_build")
      .field("n", std::uint64_t(n))
      .field("contacts", std::uint64_t(csr.contact_count()))
      .threads(1)
      .field("build_ns", build_ns)
      .emit();
}

void churn_index_maintenance_table() {
  // Batch planning under churn: at 1% churn per round, folding events
  // into the DeltaTemporalCsr overlay must beat a full TemporalCsr
  // rebuild by >= 10x, with the three CSR kernels remaining
  // bit-identical over the merged view.
  const std::size_t n = 20000;
  const TimeUnit horizon = 512;
  const std::size_t edges = 150000;
  const std::size_t labels_per_edge = 8;
  Rng rng(103);
  TemporalGraph eg(n, horizon);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    for (std::size_t k = 0; k < labels_per_edge; ++k) {
      eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(horizon)));
    }
  }

  DeltaTemporalCsr delta(eg);
  const std::size_t churn = delta.contact_count() / 100;  // 1% per round

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto ns_between = [](std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };

  std::vector<double> delta_round_ns, rebuild_round_ns;
  bool match = true;
  TemporalWorkspace wsa, wsb;
  MultiSourceWorkspace lanes;
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    // This round's churn, shaped like contact churn in a mobile trace:
    // mostly fresh time labels on recurring pairs (encounters repeat),
    // a few first-ever pairs, and removals of live labels.
    struct Op {
      bool add;
      VertexId u, v;
      TimeUnit t;
    };
    const std::vector<Contact> live = eg.contacts();
    std::vector<Op> ops;
    ops.reserve(churn);
    for (std::size_t i = 0; i < churn; ++i) {
      const double dice = rng.uniform01();
      if (dice < 0.3) {
        const Contact& c = live[rng.index(live.size())];
        ops.push_back({false, c.u, c.v, c.t});
      } else if (dice < 0.9) {
        const Contact& c = live[rng.index(live.size())];
        ops.push_back({true, c.u, c.v,
                       static_cast<TimeUnit>(rng.index(horizon))});
      } else {
        const auto u = static_cast<VertexId>(rng.index(n));
        auto v = static_cast<VertexId>(rng.index(n));
        if (u == v) v = static_cast<VertexId>((v + 1) % n);
        ops.push_back({true, u, v, static_cast<TimeUnit>(rng.index(horizon))});
      }
    }

    // Delta planning: fold the churn and run the compaction check —
    // everything the broker's plan phase pays per batch.
    const auto d0 = now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      // Overlap the next op's cache misses with this op's work — the
      // fold is latency-bound, and the whole batch is known up front.
      if (i + 1 < ops.size()) {
        const Op& nx = ops[i + 1];
        delta.prefetch_contact(nx.u, nx.v, nx.t);
      }
      const Op& op = ops[i];
      if (op.add) {
        delta.add_contact(op.u, op.v, op.t);
      } else {
        delta.remove_label(op.u, op.v, op.t);
      }
    }
    const bool compact = delta.needs_compaction();
    const auto d1 = now();
    delta_round_ns.push_back(ns_between(d0, d1));

    // Mirror into the graph (both planners serve the same state), then
    // legacy planning: a full rebuild.
    for (const Op& op : ops) {
      if (op.add) {
        eg.add_contact(op.u, op.v, op.t);
      } else {
        eg.remove_label(op.u, op.v, op.t);
      }
    }
    const auto r0 = now();
    const TemporalCsr fresh(eg);
    const auto r1 = now();
    rebuild_round_ns.push_back(ns_between(r0, r1));
    if (compact) delta.compact();  // does not fire at 1% churn

    // Kernel bit-identity over the merged view (fastest: a one-lane
    // batch).
    for (std::size_t i = 0; i < 4 && match; ++i) {
      const auto s = static_cast<VertexId>((i * n) / 4 + round);
      csr_earliest_arrival(fresh, s, 0, wsa);
      csr_earliest_arrival(delta, s, 0, wsb);
      for (std::size_t v = 0; v < n && match; ++v) {
        match = wsa.arrival(static_cast<VertexId>(v)) ==
                    wsb.arrival(static_cast<VertexId>(v)) &&
                wsa.via(static_cast<VertexId>(v)) ==
                    wsb.via(static_cast<VertexId>(v));
      }
      const auto d = static_cast<VertexId>(((i + 1) * n) / 4 - 1);
      const FastestLane lane{s, d, 0};
      match = match &&
              csr_fastest_departure(fresh, s, d, 0, wsa) ==
                  csr_fastest_departure_batch(delta, {&lane, 1}, lanes)
                      .front() &&
              csr_minimum_hop_journey(fresh, s, d, 0, wsa) ==
                  csr_minimum_hop_journey(delta, s, d, 0, wsb);
    }
  }

  // Per-round medians: the timed sections are ~10ms each, long enough
  // to be preempted on a busy host, so a single slow round would skew a
  // plain mean. Ratios are paired per round, which also cancels
  // host-wide slowdowns that hit both planners alike.
  const auto median = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 != 0 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
  };
  std::vector<double> ratios;
  for (int r = 0; r < kRounds; ++r) {
    if (delta_round_ns[r] > 0.0) {
      ratios.push_back(rebuild_round_ns[r] / delta_round_ns[r]);
    }
  }
  const double per_round_delta = median(delta_round_ns);
  const double per_round_rebuild = median(rebuild_round_ns);
  const double speedup = ratios.empty() ? 0.0 : median(ratios);
  Table t({"planner", "ms_per_round", "speedup", "results_match"});
  t.add_row({"rebuild", Table::num(per_round_rebuild / 1e6, 3), "1.000",
             match ? "yes" : "NO"});
  t.add_row({"delta", Table::num(per_round_delta / 1e6, 3),
             Table::num(speedup, 3), match ? "yes" : "NO"});
  t.print(std::cout, "E2churn: index maintenance at 1% churn per round (" +
                         std::to_string(churn) +
                         " events/round, single thread)");
  BenchJson("churn_index_maintenance")
      .field("n", std::uint64_t(n))
      .field("contacts", std::uint64_t(delta.contact_count()))
      .field("churn_events_per_round", std::uint64_t(churn))
      .threads(1)
      .field("rebuild_ns_per_round", per_round_rebuild)
      .field("delta_ns_per_round", per_round_delta)
      .field("speedup_vs_rebuild", speedup)
      .field("results_match", match ? "yes" : "no")
      .emit();
}

void journey_kernel_speedup_table() {
  // fastest_journey used to run one full earliest-arrival sweep per
  // candidate departure time; the CSR profile kernel is one pass plus a
  // single sweep. minimum_hop_journey used to Bellman-Ford over every
  // edge per layer; the CSR kernel relaxes only frontier contacts and
  // settles the target before relaxing each layer, so the final layer
  // is never relaxed.
  Rng rng(41);
  RandomWaypointParams p;
  p.nodes = 200;
  p.steps = 200;
  const auto eg = contacts_from_trajectory(random_waypoint(p, rng), 0.15);
  const TemporalCsr csr(eg);
  TemporalWorkspace ws;

  std::vector<std::pair<VertexId, VertexId>> pairs;
  Rng pick(5);
  while (pairs.size() < 48) {
    const auto s = static_cast<VertexId>(pick.index(p.nodes));
    const auto d = static_cast<VertexId>(pick.index(p.nodes));
    if (s != d) pairs.emplace_back(s, d);
  }

  bool fastest_match = true, min_hop_match = true;
  for (const auto& [s, d] : pairs) {
    const auto fl = legacy::fastest_journey(eg, s, d, 0);
    const auto fc = csr_fastest_departure(csr, s, d, 0, ws);
    fastest_match = fastest_match && fl.has_value() == fc.has_value() &&
                    (!fl || fl->span() == fc->second - fc->first);
    const auto ml = legacy::minimum_hop_journey(eg, s, d, 0);
    const auto mc = csr_minimum_hop_journey(csr, s, d, 0, ws);
    min_hop_match = min_hop_match && ml == mc;
  }

  // Best of five passes per side: a CSR min-hop pass over the 48 pairs
  // takes well under a millisecond, so one preemption would otherwise
  // decide the ratio check.sh gates on.
  const auto best_ns = [&](auto&& query) {
    double best = time_ns_per_op(pairs.size(), query);
    for (int rep = 1; rep < 5; ++rep) {
      best = std::min(best, time_ns_per_op(pairs.size(), query));
    }
    return best;
  };

  Table t({"kernel", "legacy us_per_query", "csr us_per_query", "speedup",
           "results_match"});
  const auto report = [&](std::string_view kernel, bool match,
                          double legacy_ns, double csr_ns) {
    const double speedup = csr_ns > 0.0 ? legacy_ns / csr_ns : 0.0;
    t.add_row({std::string(kernel), Table::num(legacy_ns / 1e3, 2),
               Table::num(csr_ns / 1e3, 2), Table::num(speedup, 2),
               match ? "yes" : "NO"});
    BenchJson(kernel)
        .field("n", std::uint64_t(eg.vertex_count()))
        .field("contacts", std::uint64_t(csr.contact_count()))
        .threads(1)
        .field("legacy_ns_per_query", legacy_ns)
        .field("csr_ns_per_query", csr_ns)
        .field("speedup_vs_legacy", speedup)
        .field("results_match", match ? "yes" : "no")
        .emit();
  };
  report("temporal_fastest_journey", fastest_match,
         best_ns([&](std::size_t i) {
           benchmark::DoNotOptimize(legacy::fastest_journey(
               eg, pairs[i].first, pairs[i].second, 0));
         }),
         best_ns([&](std::size_t i) {
           benchmark::DoNotOptimize(csr_fastest_departure(
               csr, pairs[i].first, pairs[i].second, 0, ws));
         }));
  report("temporal_minimum_hop", min_hop_match,
         best_ns([&](std::size_t i) {
           benchmark::DoNotOptimize(legacy::minimum_hop_journey(
               eg, pairs[i].first, pairs[i].second, 0));
         }),
         best_ns([&](std::size_t i) {
           benchmark::DoNotOptimize(csr_minimum_hop_journey(
               csr, pairs[i].first, pairs[i].second, 0, ws));
         }));
  t.print(std::cout,
          "E2csr: per-query journey kernels on an RWP trace (200 nodes)");
}

void BM_EarliestArrival(benchmark::State& state) {
  Rng rng(11);
  RandomWaypointParams p;
  p.nodes = static_cast<std::size_t>(state.range(0));
  p.steps = 100;
  const auto eg = contacts_from_trajectory(random_waypoint(p, rng), 0.2);
  VertexId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(earliest_arrival(eg, s, 0));
    s = static_cast<VertexId>((s + 1) % p.nodes);
  }
}
BENCHMARK(BM_EarliestArrival)->Arg(32)->Arg(64)->Arg(128);

void BM_MinimumHopJourney(benchmark::State& state) {
  Rng rng(13);
  RandomWaypointParams p;
  p.nodes = static_cast<std::size_t>(state.range(0));
  p.steps = 100;
  const auto eg = contacts_from_trajectory(random_waypoint(p, rng), 0.2);
  VertexId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        minimum_hop_journey(eg, s, static_cast<VertexId>(p.nodes - 1 - s), 0));
    s = static_cast<VertexId>((s + 1) % (p.nodes / 2));
  }
}
BENCHMARK(BM_MinimumHopJourney)->Arg(32)->Arg(64);

void BM_FastestJourney(benchmark::State& state) {
  Rng rng(17);
  RandomWaypointParams p;
  p.nodes = 48;
  p.steps = static_cast<std::size_t>(state.range(0));
  const auto eg = contacts_from_trajectory(random_waypoint(p, rng), 0.2);
  VertexId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fastest_journey(eg, s, static_cast<VertexId>(47 - s), 0));
    s = static_cast<VertexId>((s + 1) % 24);
  }
}
BENCHMARK(BM_FastestJourney)->Arg(50)->Arg(100)->Arg(200);

}  // namespace
}  // namespace structnet

int main(int argc, char** argv) {
  structnet::fig2_table();
  structnet::rwp_journey_table();
  structnet::weighted_journey_table();
  structnet::pareto_frontier_table();
  structnet::csr_sweep_speedup_table();
  structnet::journey_kernel_speedup_table();
  structnet::churn_index_maintenance_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  structnet::obs::emit_json(std::cout);
  return 0;
}
