// perfbench: the end-to-end benchmark of the structnet serving pipeline
// (stream -> contact index -> broker -> kernels) and of the offline
// analytics layers.
//
//   perfbench --workload serve_read|analytics_batch
//             --seed N --seconds S --trace 0|1
//
// Each workload's parameters are the constants kServe / kAnalytics below.
// The traffic (query schedule, source skew, churn events, probes) is
// generated from --seed; the contact instances from a fixed seed. The
// library is reached only through public entry points and timed from
// outside; per-layer numbers come from the existing obs counters and
// spans. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 it carries the end-to-end metrics; with --trace 1 the
// program runs the workload untraced and then again traced (same seed;
// serving sets up afresh) and reports the per-layer metrics. The line before it is a
// {"perfbench_detail": ...} object with sample counts and shares.
// Exit status is nonzero when any served or computed output fails its
// correctness gate. See perfbench/README.md for the metric definitions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/prctl.h>

#include "centrality/centrality.hpp"
#include "centrality/powerlaw.hpp"
#include "layering/nsf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/broker.hpp"
#include "serve/query.hpp"
#include "sim/dtn_routing.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/journeys.hpp"
#include "temporal/smallworld_metrics.hpp"
#include "temporal/temporal_centrality.hpp"
#include "temporal/temporal_csr.hpp"
#include "trimming/eg_trimming.hpp"
#include "util/rng.hpp"

namespace structnet::perf {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t ns_of(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

// ------------------------------------------------------------ workloads
//
// Each workload's parameters are fixed here; perfbench/workloads.json
// records the same values (selftest.py checks that they agree). Only the
// seed, the run length and tracing come from the command line.

/// serve_read: the 20k-vertex reference contact instance behind a broker.
struct ServeWorkload {
  std::size_t n, edges, labels;  // vertices, candidate edges, contacts/edge
  TimeUnit horizon;
  std::uint64_t instance_seed;  // 101 = bench_multi_source's instance
  double attach_share;          // share of contacts ingested pre-broker
  std::size_t threads, max_queue;  // the BrokerConfig fields set
  std::size_t setups;  // set-up repetitions; setup_s is their median
  // Shares of the run: fixed rate, churn; the overload phase gets the rest.
  double fixed_share, churn_share;
  double rate, overload_rate, churn_rate;  // offered q/s per phase
  double limit_ms;  // latency limit == per-query deadline
  double zipf_s;    // source skew of the read phases
  std::size_t t_starts;  // |fixed t_start set|
  double share_distances, share_min_hop;  // the rest are FastestJourney
  std::size_t probes;  // correctness-gate probe queries (+2 fixed ones)
  double tick_ms;      // writer period in the churn phase
  std::size_t adds_per_tick;
  double relabels_per_tick;  // fractional: carried across ticks
};

constexpr ServeWorkload kServe{
    .n = 20000, .edges = 150000, .labels = 8, .horizon = 512,
    .instance_seed = 101, .attach_share = 0.8333,
    .threads = 2, .max_queue = 256, .setups = 5,
    .fixed_share = 0.55, .churn_share = 0.25,
    .rate = 30, .overload_rate = 2500, .churn_rate = 25,
    .limit_ms = 2000, .zipf_s = 1.0, .t_starts = 4,
    .share_distances = 0.90, .share_min_hop = 0.07, .probes = 16,
    .tick_ms = 10, .adds_per_tick = 600, .relabels_per_tick = 0.2};

/// analytics_batch: the offline job on a mid-size trace (trimming on a
/// smaller one: it is superlinear).
struct AnalyticsWorkload {
  std::size_t n, edges, labels;
  TimeUnit horizon;
  std::size_t trim_n, trim_edges, trim_labels;
  TimeUnit trim_horizon;
  std::uint64_t instance_seed;
  std::size_t routing_trials;
  double routing_loss;
  std::size_t threads;
  std::size_t min_jobs;  // jobs per run at least, however short the run
};

constexpr AnalyticsWorkload kAnalytics{
    .n = 2000, .edges = 15000, .labels = 4, .horizon = 128,
    .trim_n = 600, .trim_edges = 2400, .trim_labels = 4, .trim_horizon = 64,
    .instance_seed = 101, .routing_trials = 64, .routing_loss = 0.3,
    .threads = 2, .min_jobs = 3};

/// The four command-line settings, all required.
struct Cli {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Cli parse_cli(int argc, char** argv) {
  Cli c;
  std::set<std::string> seen;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") c.workload = val;
    else if (key == "--seed") c.seed = std::stoull(val);
    else if (key == "--seconds") c.seconds = std::stod(val);
    else if (key == "--trace") c.trace = std::stoi(val) != 0;
    else throw std::runtime_error("unknown option " + key);
    seen.insert(key);
  }
  if (argc % 2 != 1 || seen.size() != 4) {
    throw std::runtime_error(
        "usage: perfbench --workload serve_read|analytics_batch --seed N "
        "--seconds S --trace 0|1");
  }
  if (c.workload != "serve_read" && c.workload != "analytics_batch") {
    throw std::runtime_error("unknown --workload '" + c.workload + "'");
  }
  if (!(c.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return c;
}

// --------------------------------------------------------------- helpers

/// Resident-set figures from /proc/self/status, in MB (0 when absent).
double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::stod(line.substr(klen + 1)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Restarts the kernel's resident-set high-water mark (VmHWM) at the
/// current resident set, after returning freed heap to the kernel. The
/// harness calls it after its own transient work (input generation, the
/// correctness gate's reference index), so the next VmHWM read covers
/// the measured work only. Memory the harness keeps resident (the
/// instance's event list, query plans) is part of every read.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; `extra_inf` samples
/// count as +infinity (failed requests miss every percentile).
double percentile(std::vector<double> v, double q, std::size_t extra_inf = 0) {
  const std::size_t total = v.size() + extra_inf;
  if (total == 0) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * double(total)));
  rank = std::clamp<std::size_t>(rank, 1, total);
  return rank <= v.size() ? v[rank - 1] : INFINITY;
}

/// FNV-1a over raw bytes: the analytics output digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    bytes(v.data(), v.size() * sizeof(T));
  }
  template <class T>
  void val(const T& x) {
    bytes(&x, sizeof(T));
  }
};

/// Named metric rows of the final JSON line, in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& r : rows_) {
      if (r.name == name) {
        r.value = value;
        r.unit = unit;
        return;
      }
    }
    rows_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      // A percentile over mostly failed requests is +inf: print it as a
      // huge finite number so "lower is better" still reads it as worst.
      const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 1e300;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

// -------------------------------------------------------------- instance

/// A random contact trace as stream events: per candidate pair one
/// edge_insert (the static projection) and `labels` contact_adds.
std::vector<Event> make_trace_events(std::size_t n, TimeUnit horizon,
                                     std::size_t edges, std::size_t labels,
                                     Rng rng) {
  std::vector<Event> events;
  events.reserve(edges * (labels + 1));
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<VertexId>(rng.index(n));
    const auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) continue;
    events.push_back(Event::edge_insert(u, v));
    for (std::size_t k = 0; k < labels; ++k) {
      events.push_back(
          Event::contact_add(u, v, static_cast<TimeUnit>(rng.index(horizon))));
    }
  }
  return events;
}

/// Engine + temporal view (+ broker for the serving workloads).
struct Stack {
  Stack(std::size_t n, TimeUnit horizon)
      : engine(DynamicGraph(n)), view(n, horizon) {}
  StreamEngine engine;
  TemporalViewObserver view;
  std::optional<QueryBroker> broker;  // declared last: detaches first
  double rss_after_ingest_mb = 0.0;
  double rss_after_broker_mb = 0.0;
};

/// The benchmark's only construction site for engine, view and broker:
/// ingest events[0, attach_at) through the engine, then (serving) attach
/// a broker that uses only the stable BrokerConfig surface (threads,
/// max_queue, defaults) and stream the rest through apply_events.
std::unique_ptr<Stack> build_stack(std::size_t n, TimeUnit horizon,
                                   std::span<const Event> events,
                                   std::size_t attach_at, bool with_broker,
                                   std::size_t threads, std::size_t max_queue) {
  auto s = std::make_unique<Stack>(n, horizon);
  s->engine.attach(&s->view);
  attach_at = std::min(attach_at, events.size());
  s->engine.apply_batch(events.first(attach_at));
  s->rss_after_ingest_mb = proc_status_mb("VmRSS:");
  if (with_broker) {
    BrokerConfig cfg;
    cfg.threads = threads;
    cfg.max_queue = max_queue;
    s->broker.emplace(s->engine, &s->view, cfg);
    constexpr std::size_t kChunk = 4096;
    for (std::size_t i = attach_at; i < events.size(); i += kChunk) {
      s->broker->apply_events(
          events.subspan(i, std::min(kChunk, events.size() - i)));
    }
  } else {
    s->engine.apply_batch(events.subspan(attach_at));
  }
  s->rss_after_broker_mb = proc_status_mb("VmRSS:");
  return s;
}

/// Event index at which set-up attaches the broker: the first event past
/// kServe.attach_share of the instance's contacts.
std::size_t attach_index(std::span<const Event> events) {
  std::size_t contacts = 0;
  for (const Event& e : events) contacts += e.kind == EventKind::kContactAdd;
  const auto target =
      static_cast<std::size_t>(kServe.attach_share * double(contacts));
  std::size_t seen = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kContactAdd && seen++ == target) return i;
  }
  return events.size();
}

/// The serving stack over the instance, with the broker attached.
std::unique_ptr<Stack> build_serving_stack(std::span<const Event> instance) {
  return build_stack(kServe.n, kServe.horizon, instance, attach_index(instance),
                     true, kServe.threads, kServe.max_queue);
}

/// Builds the serving stack kServe.setups times and keeps the last;
/// returns the median build time in seconds.
double timed_setup(std::span<const Event> instance, std::unique_ptr<Stack>& out) {
  std::vector<double> secs;
  for (std::size_t i = 0; i < kServe.setups; ++i) {
    out.reset();
    const auto t0 = Clock::now();
    out = build_serving_stack(instance);
    secs.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return median(secs);
}

// ------------------------------------------------------------ tracing

/// Span the harness opens around its own reference computations.
constexpr const char* kGateSpan = "perfbench.gate";

struct SpanAgg {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-name count / total / max / self time. A span's self time is its
/// duration minus the time its direct child spans (same thread, one
/// level deeper, inside its interval) cover.
std::map<std::string, SpanAgg> aggregate_spans(
    std::vector<obs::TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  std::vector<double> self(events.size());
  std::vector<char> in_gate(events.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    self[i] = double(e.dur_ns);
    if (i > 0 && events[i - 1].tid != e.tid) stack.clear();
    while (!stack.empty() && events[stack.back()].depth >= e.depth) {
      stack.pop_back();
    }
    if (!stack.empty() && events[stack.back()].depth + 1 == e.depth) {
      self[stack.back()] -= double(e.dur_ns);
    }
    in_gate[i] = std::strcmp(e.name, kGateSpan) == 0 ||
                 (!stack.empty() && in_gate[stack.back()]);
    stack.push_back(i);
  }
  std::map<std::string, SpanAgg> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (in_gate[i]) continue;
    SpanAgg& a = out[events[i].name];
    const double ms = double(events[i].dur_ns) / 1e6;
    ++a.count;
    a.total_ms += ms;
    a.max_ms = std::max(a.max_ms, ms);
    a.self_ms += std::max(0.0, self[i]) / 1e6;
  }
  return out;
}

/// Global-registry counters and histogram sums, for before/after deltas.
struct GlobalCounters {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> hist_sum;

  static GlobalCounters read() {
    GlobalCounters g;
    const auto snap = obs::MetricsRegistry::global().snapshot();
    for (const auto& [k, v] : snap.counters) g.counters[k] = v;
    for (const auto& [k, h] : snap.histograms) g.hist_sum[k] = h.sum;
    return g;
  }
  std::uint64_t counter_delta(const GlobalCounters& before,
                              const std::string& k) const {
    const auto a = counters.find(k);
    const auto b = before.counters.find(k);
    return (a == counters.end() ? 0 : a->second) -
           (b == before.counters.end() ? 0 : b->second);
  }
  std::uint64_t hist_delta(const GlobalCounters& before,
                           const std::string& k) const {
    const auto a = hist_sum.find(k);
    const auto b = before.hist_sum.find(k);
    return (a == hist_sum.end() ? 0 : a->second) -
           (b == before.hist_sum.end() ? 0 : b->second);
  }
};

// ------------------------------------------------------------- serving

struct Planned {
  double due_s = 0.0;  // offset from the phase start
  Query query;
};

/// Zipf(s) over n ranks, ranks mapped to vertices by a seeded
/// permutation so hot sources are spread over the id space.
class SourceSampler {
 public:
  SourceSampler(std::size_t n, double s, Rng rng) : n_(n) {
    if (s > 0.0) {
      cdf_.resize(n);
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        acc += 1.0 / std::pow(double(r + 1), s);
        cdf_[r] = acc;
      }
      for (double& c : cdf_) c /= acc;
      perm_.resize(n);
      for (std::size_t v = 0; v < n; ++v) perm_[v] = static_cast<VertexId>(v);
      rng.shuffle(perm_);
    }
  }
  VertexId draw(Rng& rng) const {
    if (cdf_.empty()) return static_cast<VertexId>(rng.index(n_));
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t r =
        std::min<std::size_t>(std::size_t(it - cdf_.begin()), n_ - 1);
    return perm_[r];
  }

 private:
  std::size_t n_;
  std::vector<double> cdf_;
  std::vector<VertexId> perm_;
};

TimeUnit draw_t_start(Rng& rng) {
  // A small fixed set in the first quarter of the horizon, so most
  // journeys exist.
  constexpr TimeUnit kStep = kServe.horizon / (4 * TimeUnit(kServe.t_starts));
  return static_cast<TimeUnit>(rng.index(kServe.t_starts)) * kStep;
}

/// Query kinds dealt from shuffled decks of 100 cards holding the mix's
/// exact shares, so every run of 100 queries has the same kind counts
/// (the rare, costly kinds would otherwise swing run-to-run tails).
class KindDeck {
 public:
  KindDeck() {
    const auto d = static_cast<std::size_t>(std::lround(kServe.share_distances * 100));
    const auto m = static_cast<std::size_t>(std::lround(kServe.share_min_hop * 100));
    cards_.assign(100, QueryKind::kFastestJourney);
    std::fill_n(cards_.begin(), d, QueryKind::kTemporalDistances);
    std::fill_n(cards_.begin() + std::ptrdiff_t(d), m, QueryKind::kMinHopJourney);
  }
  QueryKind deal(Rng& rng) {
    if (pos_ == 0) rng.shuffle(cards_);
    const QueryKind k = cards_[pos_];
    pos_ = (pos_ + 1) % cards_.size();
    return k;
  }

 private:
  std::vector<QueryKind> cards_;
  std::size_t pos_ = 0;
};

Query draw_query(const SourceSampler& sources, QueryKind kind, Rng& rng) {
  const TimeUnit ts = draw_t_start(rng);
  if (kind == QueryKind::kTemporalDistances) {
    return TemporalDistancesQuery{sources.draw(rng), ts};
  }
  const auto s = static_cast<VertexId>(rng.index(kServe.n));
  auto t = static_cast<VertexId>(rng.index(kServe.n));
  if (t == s) t = static_cast<VertexId>((t + 1) % kServe.n);
  if (kind == QueryKind::kMinHopJourney) return MinHopJourneyQuery{s, t, ts};
  return FastestJourneyQuery{s, t, ts};
}

/// Poisson arrivals at `rate` over `duration_s`.
std::vector<Planned> plan_phase(const SourceSampler& sources, double rate,
                                double duration_s, Rng rng) {
  std::vector<Planned> out;
  KindDeck deck;
  double t = rng.exponential(rate);
  while (t < duration_s) {
    out.push_back({t, draw_query(sources, deck.deal(rng), rng)});
    t += rng.exponential(rate);
  }
  return out;
}

bool is_journey(QueryKind k) {
  return k == QueryKind::kMinHopJourney || k == QueryKind::kFastestJourney;
}

/// One completed query as the generator saw it.
struct Completed {
  QueryKind kind = QueryKind::kTemporalDistances;
  QueryStatus status = QueryStatus::kRejected;
  bool from_cache = false;
  bool shape_ok = false;
  double latency_ms = 0.0;      // due -> future ready
  std::uint64_t submit_ns = 0;  // steady clock, obs::now_ns units
  Clock::time_point ready;
};

struct PhaseOutcome {
  std::vector<Completed> done;
  std::vector<double> late_ms;  // submit time - due time, per query
  Clock::time_point start;
};

/// Payload sanity: the right alternative for the kind, and a full
/// distance row for TemporalDistances.
bool payload_shape_ok(const QueryResult& r, QueryKind kind, std::size_t n) {
  if (r.status != QueryStatus::kOk) return true;  // counted as failed
  switch (kind) {
    case QueryKind::kTemporalDistances: {
      const auto* row = std::get_if<std::vector<TimeUnit>>(&r.payload);
      return row != nullptr && row->size() == n;
    }
    case QueryKind::kMinHopJourney:
    case QueryKind::kFastestJourney:
      return std::holds_alternative<std::optional<Journey>>(r.payload);
    default:
      return false;
  }
}

/// Completion-polling period of the generator. Sleeping (not spinning)
/// keeps the generator off the cores the broker's threads run on.
constexpr std::chrono::microseconds kPollInterval{100};

/// Open-loop generator: submits each planned query at its due time and
/// polls every outstanding future, stamping each query the moment its
/// own future is ready (never behind an earlier query's get()).
PhaseOutcome run_open_loop(QueryBroker& broker, const std::vector<Planned>& plan) {
  struct InFlight {
    std::future<QueryResult> f;
    Clock::time_point due;
    std::uint64_t submit_ns;
    QueryKind kind;
  };
  PhaseOutcome out;
  out.done.reserve(plan.size());
  out.late_ms.reserve(plan.size());
  std::vector<InFlight> inflight;
  const SubmitOptions opts{std::chrono::nanoseconds(
      static_cast<std::int64_t>(kServe.limit_ms * 1e6))};
  out.start = Clock::now();
  std::size_t next = 0;
  const auto poll = [&] {
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].f.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point now = Clock::now();
      const QueryResult r = inflight[i].f.get();
      Completed c;
      c.kind = inflight[i].kind;
      c.status = r.status;
      c.from_cache = r.from_cache;
      c.shape_ok = payload_shape_ok(r, c.kind, kServe.n);
      c.latency_ms = ms_between(inflight[i].due, now);
      c.submit_ns = inflight[i].submit_ns;
      c.ready = now;
      out.done.push_back(c);
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
    }
  };
  while (next < plan.size() || !inflight.empty()) {
    Clock::time_point now = Clock::now();
    while (next < plan.size()) {
      const Clock::time_point due =
          out.start + std::chrono::nanoseconds(
                          static_cast<std::int64_t>(plan[next].due_s * 1e9));
      if (due > now) break;
      out.late_ms.push_back(ms_between(due, now));
      const QueryKind kind = kind_of(plan[next].query);
      inflight.push_back(
          {broker.submit(plan[next].query, opts), due, ns_of(now), kind});
      ++next;
      now = Clock::now();
    }
    poll();
    // Sleep until the next due time, but at most kPollInterval while
    // queries are outstanding (their completion stamps are that exact).
    Clock::time_point wake = Clock::now() + kPollInterval;
    if (next < plan.size()) {
      const Clock::time_point due =
          out.start + std::chrono::nanoseconds(
                          static_cast<std::int64_t>(plan[next].due_s * 1e9));
      if (inflight.empty() || due < wake) wake = due;
    }
    std::this_thread::sleep_until(wake);
  }
  return out;
}

/// Churn writer: every tick_ms it applies one batch of contact relabels
/// (of instance contacts, at their current time) and contact adds
/// through apply_events, on its own thread. The event sequence is a pure
/// function of the seed.
class ChurnWriter {
 public:
  ChurnWriter(std::span<const Event> instance, Rng rng)
      : instance_(instance), rng_(rng) {}

  struct Tick {
    double latency_ms = 0.0;  // due -> apply_events returned
    std::size_t accepted = 0;
  };

  /// Runs `ticks` ticks from `start` on a new thread; join() collects.
  void start(QueryBroker& broker, Clock::time_point start, std::size_t ticks) {
    thread_ = std::thread([this, &broker, start, ticks] {
      try {
        for (std::size_t k = 0; k < ticks; ++k) {
          const Clock::time_point due =
              start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                          double(k + 1) * kServe.tick_ms * 1e6));
          std::this_thread::sleep_until(due);
          const std::vector<Event> batch = next_batch();
          const std::size_t accepted = broker.apply_events(batch);
          ticks_.push_back({ms_between(due, Clock::now()), accepted});
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "writer failed: %s\n", e.what());
        failed_ = true;
      }
    });
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  ~ChurnWriter() { join(); }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  const std::vector<Tick>& ticks() const { return ticks_; }
  bool failed() const { return failed_; }

 private:
  std::vector<Event> next_batch() {
    std::vector<Event> batch;
    relabel_carry_ += kServe.relabels_per_tick;
    for (; relabel_carry_ >= 1.0; relabel_carry_ -= 1.0) {
      std::size_t i = rng_.index(instance_.size());
      while (instance_[i].kind != EventKind::kContactAdd) {
        i = rng_.index(instance_.size());
      }
      const Event& c = instance_[i];
      TimeUnit& now_at = moved_.try_emplace(i, c.time).first->second;
      auto t = static_cast<TimeUnit>(rng_.index(kServe.horizon));
      if (t == now_at) t = static_cast<TimeUnit>((t + 1) % kServe.horizon);
      batch.push_back(Event::contact_relabel(c.u, c.v, now_at, t));
      now_at = t;
    }
    for (std::size_t i = 0; i < kServe.adds_per_tick; ++i) {
      const auto u = static_cast<VertexId>(rng_.index(kServe.n));
      auto v = static_cast<VertexId>(rng_.index(kServe.n));
      if (u == v) v = static_cast<VertexId>((v + 1) % kServe.n);
      const auto t = static_cast<TimeUnit>(rng_.index(kServe.horizon));
      batch.push_back(Event::contact_add(u, v, t));
    }
    return batch;
  }

  std::span<const Event> instance_;
  Rng rng_;
  std::map<std::size_t, TimeUnit> moved_;  // relabelled contact -> its time
  double relabel_carry_ = 0.0;
  std::vector<Tick> ticks_;
  bool failed_ = false;
  std::thread thread_;  // declared last: uses the members above
};

/// Backtracks the via chain of the workspace's last sweep.
Journey journey_from(const TemporalWorkspace& ws, VertexId source,
                     VertexId target) {
  Journey j;
  for (VertexId cur = target; cur != source;) {
    const JourneyHop hop = ws.via(cur);
    if (hop.from == kInvalidVertex) return Journey{};
    j.hops.push_back(hop);
    cur = hop.from;
  }
  std::reverse(j.hops.begin(), j.hops.end());
  return j;
}

/// Reference payload from the csr_* kernels over a freshly built index.
QueryPayload direct_payload(const TemporalCsr& csr, const Query& q,
                            TemporalWorkspace& ws) {
  if (const auto* d = std::get_if<TemporalDistancesQuery>(&q)) {
    csr_earliest_arrival(csr, d->source, d->t_start, ws);
    return QueryPayload(ws.to_earliest_arrival().completion);
  }
  if (const auto* m = std::get_if<MinHopJourneyQuery>(&q)) {
    return QueryPayload(
        csr_minimum_hop_journey(csr, m->source, m->target, m->t_start, ws));
  }
  const auto& f = std::get<FastestJourneyQuery>(q);
  if (f.source == f.target) return QueryPayload(std::optional<Journey>(Journey{}));
  const auto fd = csr_fastest_departure(csr, f.source, f.target, f.t_start, ws);
  if (!fd) return QueryPayload(std::optional<Journey>());
  csr_earliest_arrival(csr, f.source, fd->first, ws, f.target);
  return QueryPayload(std::optional<Journey>(journey_from(ws, f.source, f.target)));
}

/// Correctness gate: the probe set served by the broker must equal,
/// byte for byte, the csr_* kernels on a fresh index of the view.
/// Callers quiesce the writer first. Returns the number of mismatches.
std::size_t check_probes(Stack& s, const std::vector<Query>& probes) {
  std::vector<std::future<QueryResult>> fs;
  for (const Query& q : probes) fs.push_back(s.broker->submit(q));
  std::vector<QueryResult> served;
  for (auto& f : fs) served.push_back(f.get());
  // The reference work is the harness's, not the system's: per-layer
  // aggregation drops every span nested in this one.
  const obs::Span gate(kGateSpan);
  const TemporalCsr csr(s.view.view());
  TemporalWorkspace ws;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (served[i].status != QueryStatus::kOk ||
        !payload_equal(served[i].payload, direct_payload(csr, probes[i], ws))) {
      ++bad;
    }
  }
  return bad;
}

// ------------------------------------------------------------- results

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricSet e2e;     // end-to-end metrics (untraced pass)
  MetricSet layers;  // per-layer metrics (traced pass)
  std::map<std::string, double> detail;  // sample counts, shares, counts
  double overhead_basis = 0.0;  // query p50 (serve) / job_s (analytics)
};

void emit(const RunResult& r, bool trace) {
  std::string detail = "{\"perfbench_detail\": {";
  char buf[64];
  bool first = true;
  for (const auto& [k, v] : r.detail) {
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 1e300);
    detail += (first ? "\"" : ", \"") + k + "\": " + buf;
    first = false;
  }
  std::cout << detail << "}}\n";
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": " << (trace ? r.layers.json() : r.e2e.json())
            << "}" << std::endl;
}

// The per-layer rows every workload prints (0 where a layer is idle).
void zero_layer_rows(MetricSet& m) {
  static const std::pair<const char*, const char*> kRows[] = {
      {"serve.queue_wait.p50_ms", "ms"},
      {"serve.queue_wait.p99_ms", "ms"},
      {"serve.queue_wait.mean_ms", "ms"},
      {"serve.flush.mean_ms", "ms"},
      {"serve.flush.max_ms", "ms"},
      {"serve.batch.mean_queries", "count"},
      {"serve.admission.self_us_per_query", "us"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.cache.lookups", "count"},
      {"serve.cache.self_us_per_query", "us"},
      {"serve.plan.lane_pack.us_per_batch", "us"},
      {"serve.lane_pack.sweeps_saved_ratio", "ratio"},
      {"serve.lanes_packed", "count"},
      {"serve.plan.delta_advance.total_ms", "ms"},
      {"serve.plan.delta_advance.max_ms", "ms"},
      {"serve.csr_compactions", "count"},
      {"serve.csr_delta_appends", "count"},
      {"serve.kernel.temporal_distances.mean_us", "us"},
      {"serve.kernel.temporal_distances_batch.mean_us", "us"},
      {"serve.kernel.min_hop_journey.mean_us", "us"},
      {"serve.kernel.fastest_journey.mean_us", "us"},
      {"serve.apply_events.lock_wait_ms", "ms"},
      {"serve.executed", "count"},
      {"serve.shed_queue_full", "count"},
      {"serve.timed_out", "count"},
      {"serve.rejected_invalid", "count"},
      {"stream.apply_batch.us_per_event", "us"},
      {"stream.events_accepted", "count"},
      {"setup.rss_after_ingest_mb", "MB"},
      {"setup.rss_after_broker_mb", "MB"},
      {"temporal.delta_rebase.count", "count"},
      {"temporal.delta_rebase.total_ms", "ms"},
      {"temporal.delta_rebase.max_ms", "ms"},
      {"temporal.delta_compact.count", "count"},
      {"temporal.delta_compact.total_ms", "ms"},
      {"temporal.delta_compact.max_ms", "ms"},
      {"temporal.csr_build.count", "count"},
      {"temporal.csr_build.total_ms", "ms"},
      {"temporal.csr_earliest_arrival.mean_us", "us"},
      {"temporal.csr_earliest_arrival_batch.mean_us", "us"},
      {"temporal.csr_minimum_hop_journey.mean_us", "us"},
      {"temporal.csr_fastest_departure.mean_us", "us"},
      {"parallel.worker_busy_frac", "ratio"},
      {"analytics.temporal_closeness_s", "s"},
      {"analytics.temporal_betweenness_s", "s"},
      {"analytics.path_length_s", "s"},
      {"analytics.dynamic_diameter_s", "s"},
      {"analytics.correlation_s", "s"},
      {"analytics.routing_trials_s", "s"},
      {"analytics.nsf_report_s", "s"},
      {"analytics.centrality_s", "s"},
      {"analytics.trim_nodes_s", "s"},
      {"analytics.trim_labels_s", "s"},
      {"query.p95_ms", "ms"},
      {"query.p99_ms", "ms"},
      {"query.distances_p50_ms", "ms"},
      {"query.distances_p99_ms", "ms"},
      {"query.journey_p50_ms", "ms"},
      {"query.journey_p90_ms", "ms"},
      {"query.churn_p50_ms", "ms"},
      {"churn.peak_rss_mb", "MB"},
      {"update.p50_ms", "ms"},
      {"update.p99_ms", "ms"},
      {"failed_frac", "ratio"},
      {"share.repeat", "ratio"},
      {"share.lane_packed", "ratio"},
      {"share.journey", "ratio"},
      {"reconcile.queue_wait_ms", "ms"},
      {"reconcile.admission_ms", "ms"},
      {"reconcile.plan_ms", "ms"},
      {"reconcile.execute_ms", "ms"},
      {"reconcile.cache_ms", "ms"},
      {"reconcile.sum_ms", "ms"},
      {"reconcile.latency_mean_ms", "ms"},
      {"reconcile.unaccounted_pct", "%"},
      {"harness.gen_late_p99_ms", "ms"},
      {"harness.gen_late_max_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.trace_dropped", "count"},
  };
  for (const auto& [name, unit] : kRows) m.set(name, 0.0, unit);
}

/// Per-layer rows from the traced pass's spans and registry deltas.
void span_rows(MetricSet& m, const std::map<std::string, SpanAgg>& spans,
               const GlobalCounters& before, const GlobalCounters& after) {
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanAgg{} : it->second;
  };
  const auto mean_us = [&](const char* name) {
    const SpanAgg a = span(name);
    return a.count ? a.total_ms * 1e3 / double(a.count) : 0.0;
  };
  for (const char* k : {"temporal.delta_rebase", "temporal.delta_compact"}) {
    const SpanAgg a = span(k);
    m.set(std::string(k) + ".count", double(a.count), "count");
    m.set(std::string(k) + ".total_ms", a.total_ms, "ms");
    m.set(std::string(k) + ".max_ms", a.max_ms, "ms");
  }
  m.set("temporal.csr_build.count", double(span("temporal.csr_build").count),
        "count");
  m.set("temporal.csr_build.total_ms", span("temporal.csr_build").total_ms, "ms");
  for (const char* k :
       {"temporal.csr_earliest_arrival", "temporal.csr_earliest_arrival_batch",
        "temporal.csr_minimum_hop_journey", "temporal.csr_fastest_departure"}) {
    m.set(std::string(k) + ".mean_us", mean_us(k), "us");
  }
  const double busy = double(after.hist_delta(before, "parallel.worker_busy_ns"));
  const double idle = double(after.hist_delta(before, "parallel.worker_idle_ns"));
  m.set("parallel.worker_busy_frac", busy + idle > 0 ? busy / (busy + idle) : 0.0,
        "ratio");
  const double accepted =
      double(after.counter_delta(before, "stream.events_accepted"));
  m.set("stream.events_accepted", accepted, "count");
  m.set("stream.apply_batch.us_per_event",
        accepted > 0 ? span("stream.apply_batch").total_ms * 1e3 / accepted : 0.0,
        "us");
}

// ------------------------------------------------------ serving workload

struct ServePass {
  PhaseOutcome fixed, overload, churn;
  std::vector<ChurnWriter::Tick> ticks;  // all in the churn phase
  std::size_t probe_mismatches = 0;
  std::size_t probes_checked = 0;
  // Resident-set peak per phase: fixed (from set-up on), overload, churn.
  double peak_mb[3] = {};
  bool writer_failed = false;
  obs::MetricsRegistry::Snapshot broker_snap;
  obs::MetricsRegistry::Snapshot fixed_snap;  // at the end of the fixed phase
  std::vector<obs::TraceEvent> trace;
  std::uint64_t trace_dropped = 0;
  GlobalCounters before, after;
};

/// The run's phase lengths in seconds: fixed-rate, overload, churn.
struct Phases {
  double fixed_s, overload_s, churn_s;
  explicit Phases(double seconds)
      : fixed_s(seconds * kServe.fixed_share),
        overload_s(seconds * (1.0 - kServe.fixed_share - kServe.churn_share)),
        churn_s(seconds * kServe.churn_share) {}
};

/// One pass over the serving workload on a freshly set-up stack: the
/// read-only fixed-rate and overload phases, then the churn phase with
/// the writer thread; a correctness pause after each. The resident-set
/// peak of each phase is read before its pause, which then resets it.
ServePass serve_pass(const Cli& cli, Stack& s, std::span<const Event> instance,
                     const std::vector<Planned>& fixed_plan,
                     const std::vector<Planned>& overload_plan,
                     const std::vector<Planned>& churn_plan,
                     const std::vector<Query>& probes, bool traced) {
  ServePass p;
  const Phases ph(cli.seconds);
  QueryBroker& broker = *s.broker;
  broker.start();
  std::optional<obs::TraceSink> sink;
  if (traced) {
    sink.emplace(std::size_t{8} << 20);
    sink->install();
  }
  p.before = GlobalCounters::read();
  ChurnWriter writer(instance, Rng(derive_seed(cli.seed, 3)));
  const auto gate = [&](double& phase_peak_mb) {
    phase_peak_mb = proc_status_mb("VmHWM:");
    p.probe_mismatches += check_probes(s, probes);
    p.probes_checked += probes.size();
    reset_peak_rss();
  };

  p.fixed = run_open_loop(broker, fixed_plan);
  p.fixed_snap = broker.metrics().snapshot();
  gate(p.peak_mb[0]);
  p.overload = run_open_loop(broker, overload_plan);
  gate(p.peak_mb[1]);
  writer.start(broker, Clock::now(),
               static_cast<std::size_t>(ph.churn_s * 1e3 / kServe.tick_ms));
  p.churn = run_open_loop(broker, churn_plan);
  writer.join();
  gate(p.peak_mb[2]);
  broker.stop();

  p.after = GlobalCounters::read();
  if (sink) {
    obs::TraceSink::uninstall();
    p.trace = sink->events();
    p.trace_dropped = sink->dropped();
  }
  p.ticks = writer.ticks();
  p.writer_failed = writer.failed();
  p.broker_snap = broker.metrics().snapshot();
  return p;
}

/// Query-weighted split of fixed-phase latency over the broker phases:
/// each query is mapped to the flush that dequeued it (the first whose
/// admission span starts after the query's submit) and charged that
/// flush's phases up to its resolution point (admission for cache hits;
/// admission + plan + execute + cache for executed queries).
void reconcile_rows(MetricSet& m, const PhaseOutcome& fixed,
                    const std::vector<obs::TraceEvent>& trace) {
  struct Flush {
    std::uint64_t adm_start = 0, adm_end = 0;
    double plan = 0, execute = 0, cache = 0;
  };
  // Broker phases are direct children of serve.flush on the dispatcher.
  std::vector<Flush> flushes;
  std::vector<const obs::TraceEvent*> flush_ev;
  for (const auto& e : trace) {
    if (std::strcmp(e.name, "serve.flush") == 0) flush_ev.push_back(&e);
  }
  std::sort(flush_ev.begin(), flush_ev.end(),
            [](auto* a, auto* b) { return a->start_ns < b->start_ns; });
  flushes.resize(flush_ev.size());
  const auto owner = [&](const obs::TraceEvent& e) -> Flush* {
    // The flush on the same thread whose interval contains e.
    auto it = std::upper_bound(
        flush_ev.begin(), flush_ev.end(), e.start_ns,
        [](std::uint64_t t, const obs::TraceEvent* f) { return t < f->start_ns; });
    while (it != flush_ev.begin()) {
      --it;
      const obs::TraceEvent& f = **it;
      if (f.tid == e.tid && f.start_ns + f.dur_ns >= e.start_ns + e.dur_ns &&
          f.depth + 1 == e.depth) {
        return &flushes[std::size_t(it - flush_ev.begin())];
      }
      if (e.start_ns - f.start_ns > 10'000'000'000ULL) break;
    }
    return nullptr;
  };
  for (const auto& e : trace) {
    const bool adm = std::strcmp(e.name, "serve.admission") == 0;
    const bool plan = std::strcmp(e.name, "serve.plan") == 0 ||
                      std::strcmp(e.name, "serve.plan.lane_pack") == 0;
    const bool exec = std::strcmp(e.name, "serve.execute") == 0;
    const bool cache = std::strcmp(e.name, "serve.cache") == 0;
    if (!(adm || plan || exec || cache)) continue;
    Flush* f = owner(e);
    if (f == nullptr) continue;
    const double ms = double(e.dur_ns) / 1e6;
    if (adm) {
      f->adm_start = e.start_ns;
      f->adm_end = e.start_ns + e.dur_ns;
    }
    if (plan) f->plan += ms;
    if (exec) f->execute += ms;
    if (cache) f->cache += ms;
  }
  std::vector<const Flush*> order;
  for (const Flush& f : flushes) {
    if (f.adm_start != 0) order.push_back(&f);
  }
  std::sort(order.begin(), order.end(),
            [](auto* a, auto* b) { return a->adm_start < b->adm_start; });
  double qw = 0, adm = 0, plan = 0, exec = 0, cache = 0, lat = 0;
  std::size_t counted = 0;
  for (const Completed& c : fixed.done) {
    if (c.status != QueryStatus::kOk) continue;
    const auto it = std::lower_bound(
        order.begin(), order.end(), c.submit_ns,
        [](const Flush* f, std::uint64_t t) { return f->adm_start < t; });
    if (it == order.end()) continue;
    const Flush& f = **it;
    ++counted;
    lat += c.latency_ms;
    qw += double(f.adm_start - c.submit_ns) / 1e6;
    adm += double(f.adm_end - f.adm_start) / 1e6;
    if (!c.from_cache) {
      plan += f.plan;
      exec += f.execute;
      cache += f.cache;
    }
  }
  const double k = counted ? 1.0 / double(counted) : 0.0;
  const double sum = (qw + adm + plan + exec + cache) * k;
  m.set("reconcile.queue_wait_ms", qw * k, "ms");
  m.set("reconcile.admission_ms", adm * k, "ms");
  m.set("reconcile.plan_ms", plan * k, "ms");
  m.set("reconcile.execute_ms", exec * k, "ms");
  m.set("reconcile.cache_ms", cache * k, "ms");
  m.set("reconcile.sum_ms", sum, "ms");
  m.set("reconcile.latency_mean_ms", lat * k, "ms");
  m.set("reconcile.unaccounted_pct",
        lat > 0 ? 100.0 * (lat * k - sum) / (lat * k) : 0.0, "%");
}

bool ok(const Completed& c) {
  return c.status == QueryStatus::kOk && c.shape_ok;
}

/// Completions closer than this (seconds) belong to one batch's burst.
constexpr double kBurstGap = 0.002;

/// Queries completed kOk per second within the phase, counted from the
/// end of the first completion burst to the last completion. Executed
/// queries resolve in bursts at the end of each batch, so a fixed count
/// window would be quantized to whole batches; burst-to-burst is not.
double span_goodput(const PhaseOutcome& ph, double phase_s) {
  std::vector<double> at;
  for (const Completed& c : ph.done) {
    const double t = ms_between(ph.start, c.ready) / 1e3;
    if (ok(c) && t < phase_s) at.push_back(t);
  }
  std::sort(at.begin(), at.end());
  std::size_t first = 0;  // last completion of the first burst
  while (first + 1 < at.size() && at[first + 1] - at.front() < kBurstGap) ++first;
  if (first + 1 >= at.size()) return 0.0;
  return double(at.size() - 1 - first) / (at.back() - at[first]);
}

/// The generator "fell behind" (run invalid) when its fixed-phase p99
/// lateness exceeds this. Scheduler gaps of ~10 ms occur on virtualized
/// hosts even for an idle spinning thread, so the bar sits above them.
constexpr double kMaxLateP99Ms = 20.0;

/// The workload's parameters as "param.<name>" detail rows; selftest.py
/// checks them against workloads.json.
void record_params(std::map<std::string, double>& d,
                   std::initializer_list<std::pair<const char*, double>> rows) {
  for (const auto& [k, v] : rows) d[std::string("param.") + k] = v;
}

RunResult run_serving(const Cli& cli) {
  constexpr ServeWorkload w = kServe;
  RunResult r;
  const std::vector<Event> instance = make_trace_events(
      w.n, w.horizon, w.edges, w.labels, Rng(w.instance_seed));
  const SourceSampler sources(w.n, w.zipf_s, Rng(derive_seed(cli.seed, 2)));
  const Phases ph(cli.seconds);
  const std::vector<Planned> fixed_plan =
      plan_phase(sources, w.rate, ph.fixed_s, Rng(derive_seed(cli.seed, 4)));
  const std::vector<Planned> overload_plan = plan_phase(
      sources, w.overload_rate, ph.overload_s, Rng(derive_seed(cli.seed, 5)));
  // Every accepted event empties the cache, so churn-phase sources are
  // uniform: skew would only be paid for, never used.
  const SourceSampler uniform_sources(w.n, 0.0, Rng(derive_seed(cli.seed, 8)));
  const std::vector<Planned> churn_plan = plan_phase(
      uniform_sources, w.churn_rate, ph.churn_s, Rng(derive_seed(cli.seed, 9)));
  std::vector<Query> probes;
  {
    Rng rng(derive_seed(cli.seed, 6));
    const SourceSampler uniform(w.n, 0.0, rng);
    KindDeck deck;
    while (probes.size() < w.probes) {
      probes.push_back(draw_query(uniform, deck.deal(rng), rng));
    }
    probes.push_back(MinHopJourneyQuery{0, static_cast<VertexId>(w.n - 1), 0});
    probes.push_back(FastestJourneyQuery{1, static_cast<VertexId>(w.n - 2), 0});
  }

  reset_peak_rss();
  std::unique_ptr<Stack> stack;
  const double setup_s = timed_setup(instance, stack);
  const ServePass p = serve_pass(cli, *stack, instance, fixed_plan,
                                 overload_plan, churn_plan, probes, false);

  // ---- end-to-end metrics (untraced pass)
  std::vector<double> all, dist, jour;
  std::size_t failed_q = 0, shape_bad = 0;
  for (const Completed& c : p.fixed.done) {
    if (!c.shape_ok) ++shape_bad;
    if (c.status != QueryStatus::kOk || !c.shape_ok) {
      ++failed_q;
      continue;
    }
    all.push_back(c.latency_ms);
    (c.kind == QueryKind::kTemporalDistances ? dist : jour).push_back(c.latency_ms);
  }
  std::size_t failed_dist = 0, failed_jour = 0;
  for (const Completed& c : p.fixed.done) {
    if (c.status == QueryStatus::kOk && c.shape_ok) continue;
    (is_journey(c.kind) ? failed_jour : failed_dist)++;
  }
  std::vector<double> upd;
  std::size_t failed_upd = 0;
  for (const auto& t : p.ticks) {
    if (t.accepted == 0) ++failed_upd;
    else upd.push_back(t.latency_ms);
  }
  std::vector<double> churn_lat;
  std::size_t failed_churn = 0;
  for (const Completed& c : p.churn.done) {
    if (!c.shape_ok) ++shape_bad;
    if (ok(c)) churn_lat.push_back(c.latency_ms);
    else ++failed_churn;
  }
  const double overload_s = ph.overload_s;
  std::size_t ok_overload = 0;
  for (const Completed& c : p.overload.done) {
    if (c.status == QueryStatus::kOk && c.shape_ok &&
        ms_between(p.overload.start, c.ready) <= overload_s * 1e3) {
      ++ok_overload;
    }
    if (!c.shape_ok) ++shape_bad;
  }
  const double max_qps = span_goodput(p.overload, overload_s);

  r.attempted = p.fixed.done.size() + p.churn.done.size() + p.ticks.size() +
                p.probes_checked;
  r.failed = failed_q + failed_churn + failed_upd + p.probe_mismatches +
             (p.writer_failed ? 1 : 0);
  r.correct = p.probe_mismatches == 0 && shape_bad == 0 && !p.writer_failed;

  r.e2e.set("setup_s", setup_s, "s");
  // Like the other end-to-end rows, the peak covers set-up and the read
  // phases. The churn phase's peak takes one of two levels depending on
  // the timing of its compactions, so it is a per-layer row.
  r.e2e.set("peak_rss_mb", std::max(p.peak_mb[0], p.peak_mb[1]), "MB");
  r.e2e.set("latency_p50_ms", percentile(all, 0.50, failed_q), "ms");
  r.e2e.set("throughput_per_s", max_qps, "1/s");
  r.overhead_basis = percentile(all, 0.50, failed_q);

  // ---- workload record: shares the optimizations depend on
  std::size_t n_dist = 0, repeats = 0, n_jour = 0;
  {
    std::set<std::pair<VertexId, TimeUnit>> seen;
    for (const Planned& q : fixed_plan) {
      if (const auto* d = std::get_if<TemporalDistancesQuery>(&q.query)) {
        ++n_dist;
        if (!seen.insert({d->source, d->t_start}).second) ++repeats;
      } else {
        ++n_jour;
      }
    }
  }
  std::size_t lateness_bad = 0;
  const double late_p99 = percentile(p.fixed.late_ms, 0.99);
  if (late_p99 > kMaxLateP99Ms) lateness_bad = 1;
  std::size_t dist_exec = 0;
  for (const Completed& c : p.fixed.done) {
    if (c.kind == QueryKind::kTemporalDistances && c.status == QueryStatus::kOk &&
        !c.from_cache) {
      ++dist_exec;
    }
  }

  auto& d = r.detail;
  d["samples.latency"] = double(all.size() + failed_q);
  d["samples.distances"] = double(dist.size() + failed_dist);
  d["samples.journey"] = double(jour.size() + failed_jour);
  d["samples.update"] = double(upd.size());
  d["samples.setup"] = double(w.setups);
  d["samples.overload_ok"] = double(ok_overload);
  d["offered.fixed"] = double(fixed_plan.size());
  d["offered.overload"] = double(overload_plan.size());
  d["offered.overload_qps"] = double(overload_plan.size()) / ph.overload_s;
  d["offered.churn"] = double(churn_plan.size());
  d["samples.churn"] = double(churn_lat.size() + failed_churn);
  d["churn_p50_ms"] = percentile(churn_lat, 0.5, failed_churn);
  d["offered.distances"] = double(n_dist);
  d["offered.journey"] = double(n_jour);
  d["events.instance"] = double(instance.size());
  d["events.accepted"] =
      double(p.after.counter_delta(p.before, "stream.events_accepted"));
  d["failed_frac"] = r.attempted ? double(r.failed) / double(r.attempted) : 0.0;
  d["share.repeat"] = n_dist ? double(repeats) / double(n_dist) : 0.0;
  d["share.journey"] = double(n_jour) / double(std::max<std::size_t>(1, fixed_plan.size()));
  d["share.cache_hit"] =
      double(p.fixed_snap.counter_value("serve.cache.hits")) /
      double(std::max<std::uint64_t>(
          1, p.fixed_snap.counter_value("serve.cache.hits") +
                 p.fixed_snap.counter_value("serve.cache.misses")));
  d["share.lane_packed"] =
      double(p.fixed_snap.counter_value("serve.lanes_packed")) /
      double(std::max<std::size_t>(1, dist_exec));
  d["serve.csr_compactions"] =
      double(p.broker_snap.counter_value("serve.csr_compactions"));
  d["latency_p95_ms"] = percentile(all, 0.95, failed_q);
  d["latency_p99_ms"] = percentile(all, 0.99, failed_q);
  d["distances_p50_ms"] = percentile(dist, 0.5, failed_dist);
  d["distances_p99_ms"] = percentile(dist, 0.99, failed_dist);
  d["journey_p50_ms"] = percentile(jour, 0.5, failed_jour);
  d["journey_p90_ms"] = percentile(jour, 0.9, failed_jour);
  d["update_p50_ms"] = percentile(upd, 0.5, failed_upd);
  d["update_p99_ms"] = percentile(upd, 0.99, failed_upd);
  d["harness.gen_late_p99_ms"] = late_p99;
  d["harness.gen_late_max_ms"] = percentile(p.fixed.late_ms, 1.0);
  d["harness.valid"] = lateness_bad ? 0.0 : 1.0;
  d["probe_mismatches"] = double(p.probe_mismatches);
  d["churn_peak_rss_mb"] = p.peak_mb[2];
  record_params(
      d, {{"n", double(w.n)}, {"edges", double(w.edges)},
          {"labels", double(w.labels)}, {"horizon", double(w.horizon)},
          {"instance_seed", double(w.instance_seed)},
          {"attach_share", w.attach_share}, {"threads", double(w.threads)},
          {"max_queue", double(w.max_queue)}, {"setups", double(w.setups)},
          {"fixed_share", w.fixed_share}, {"churn_share", w.churn_share},
          {"rate", w.rate}, {"overload_rate", w.overload_rate},
          {"churn_rate", w.churn_rate}, {"limit_ms", w.limit_ms},
          {"zipf_s", w.zipf_s}, {"t_starts", double(w.t_starts)},
          {"share_distances", w.share_distances},
          {"share_min_hop", w.share_min_hop}, {"probes", double(w.probes)},
          {"tick_ms", w.tick_ms}, {"adds_per_tick", double(w.adds_per_tick)},
          {"relabels_per_tick", w.relabels_per_tick}});
  if (lateness_bad) {
    std::fprintf(stderr,
                 "warning: generator fell behind (late p99 %.3f ms): run invalid\n",
                 late_p99);
  }
  if (!cli.trace) return r;

  // ---- traced pass: fresh set-up, same seed, sink installed after set-up
  stack.reset();
  stack = build_serving_stack(instance);
  const ServePass t = serve_pass(cli, *stack, instance, fixed_plan, overload_plan,
                                 churn_plan, probes, true);
  if (t.probe_mismatches != 0) {
    r.correct = false;
    r.failed += t.probe_mismatches;
  }
  MetricSet& m = r.layers;
  zero_layer_rows(m);
  const auto spans = aggregate_spans(t.trace);
  span_rows(m, spans, t.before, t.after);
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanAgg{} : it->second;
  };
  const auto& bs = t.broker_snap;
  if (const auto* h = bs.histogram_snapshot("serve.queue_wait_ns")) {
    m.set("serve.queue_wait.p50_ms", double(h->quantile_upper(0.5)) / 1e6, "ms");
    m.set("serve.queue_wait.p99_ms", double(h->quantile_upper(0.99)) / 1e6, "ms");
    m.set("serve.queue_wait.mean_ms", h->mean() / 1e6, "ms");
  }
  const double batches = double(bs.counter_value("serve.batches"));
  const double admitted = double(bs.counter_value("serve.admitted"));
  const SpanAgg flush = span("serve.flush");
  m.set("serve.flush.mean_ms", flush.count ? flush.total_ms / double(flush.count) : 0.0,
        "ms");
  m.set("serve.flush.max_ms", flush.max_ms, "ms");
  m.set("serve.batch.mean_queries", batches > 0 ? admitted / batches : 0.0, "count");
  m.set("serve.admission.self_us_per_query",
        admitted > 0 ? span("serve.admission").self_ms * 1e3 / admitted : 0.0, "us");
  const double hits = double(bs.counter_value("serve.cache.hits"));
  const double lookups = hits + double(bs.counter_value("serve.cache.misses"));
  m.set("serve.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  m.set("serve.cache.lookups", lookups, "count");
  m.set("serve.cache.self_us_per_query",
        admitted > 0 ? span("serve.cache").self_ms * 1e3 / admitted : 0.0, "us");
  m.set("serve.plan.lane_pack.us_per_batch",
        batches > 0 ? span("serve.plan.lane_pack").total_ms * 1e3 / batches : 0.0,
        "us");
  std::size_t t_dist_exec = 0;
  for (const PhaseOutcome* ph : {&t.fixed, &t.overload}) {
    for (const Completed& c : ph->done) {
      if (c.kind == QueryKind::kTemporalDistances &&
          c.status == QueryStatus::kOk && !c.from_cache) {
        ++t_dist_exec;
      }
    }
  }
  m.set("serve.lane_pack.sweeps_saved_ratio",
        t_dist_exec ? double(bs.counter_value("serve.sweeps_saved")) /
                          double(t_dist_exec)
                    : 0.0,
        "ratio");
  m.set("serve.lanes_packed", double(bs.counter_value("serve.lanes_packed")), "count");
  m.set("serve.plan.delta_advance.total_ms", span("serve.plan.delta_advance").total_ms,
        "ms");
  m.set("serve.plan.delta_advance.max_ms", span("serve.plan.delta_advance").max_ms,
        "ms");
  for (const char* k : {"serve.csr_compactions", "serve.csr_delta_appends",
                        "serve.executed", "serve.shed_queue_full",
                        "serve.timed_out", "serve.rejected_invalid"}) {
    m.set(k, double(bs.counter_value(k)), "count");
  }
  for (const char* k :
       {"serve.kernel.temporal_distances", "serve.kernel.temporal_distances_batch",
        "serve.kernel.min_hop_journey", "serve.kernel.fastest_journey"}) {
    const SpanAgg a = span(k);
    m.set(std::string(k) + ".mean_us",
          a.count ? a.total_ms * 1e3 / double(a.count) : 0.0, "us");
  }
  // apply_events opens its span before it locks the executor, and its one
  // child span is stream.apply_batch: its self time is the lock wait.
  const SpanAgg apply = span("serve.apply_events");
  m.set("serve.apply_events.lock_wait_ms",
        apply.count ? apply.self_ms / double(apply.count) : 0.0, "ms");
  m.set("setup.rss_after_ingest_mb", stack->rss_after_ingest_mb, "MB");
  m.set("setup.rss_after_broker_mb", stack->rss_after_broker_mb, "MB");
  reconcile_rows(m, t.fixed, t.trace);

  // Rows measured by the untraced pass (the end-to-end split by kind).
  for (const char* k : {"distances_p50_ms", "distances_p99_ms", "journey_p50_ms",
                        "journey_p90_ms"}) {
    m.set(std::string("query.") + k, d[k], "ms");
  }
  m.set("query.p95_ms", d["latency_p95_ms"], "ms");
  m.set("query.p99_ms", d["latency_p99_ms"], "ms");
  m.set("query.churn_p50_ms", d["churn_p50_ms"], "ms");
  m.set("churn.peak_rss_mb", d["churn_peak_rss_mb"], "MB");
  m.set("update.p50_ms", d["update_p50_ms"], "ms");
  m.set("update.p99_ms", d["update_p99_ms"], "ms");
  m.set("failed_frac", d["failed_frac"], "ratio");
  m.set("share.repeat", d["share.repeat"], "ratio");
  m.set("share.lane_packed", d["share.lane_packed"], "ratio");
  m.set("share.journey", d["share.journey"], "ratio");
  m.set("harness.gen_late_p99_ms", d["harness.gen_late_p99_ms"], "ms");
  m.set("harness.gen_late_max_ms", d["harness.gen_late_max_ms"], "ms");
  std::vector<double> traced_all;
  for (const Completed& c : t.fixed.done) {
    if (c.status == QueryStatus::kOk) traced_all.push_back(c.latency_ms);
  }
  const double traced_p50 = percentile(traced_all, 0.5);
  m.set("obs.trace_overhead_pct",
        r.overhead_basis > 0 ? 100.0 * (traced_p50 - r.overhead_basis) /
                                   r.overhead_basis
                             : 0.0,
        "%");
  m.set("obs.trace_dropped", double(t.trace_dropped), "count");
  d["trace.events"] = double(t.trace.size());
  return r;
}

// -------------------------------------------------- analytics workload

struct Stage {
  const char* name;
  const char* span;  // harness span around the stage's library calls
  std::function<void(Digest&)> run;
};

/// Oracle gate on a 48-vertex instance from the run's seed: every
/// analytics stage against a direct evaluation. The temporal stages are
/// checked against the TemporalGraph-walking earliest_arrival (its
/// completion times and via trees) and a per-vertex neighbour-set count,
/// the journeys against the structnet::legacy oracles, routing against
/// earliest arrival, static centrality against per-source BFS path
/// counts, the NSF report against its peeling rounds refitted here, and
/// the trimmers with preserves_reachability. Returns the number of failed
/// checks and names each on stderr.
std::size_t analytics_oracle_gate(std::uint64_t seed) {
  constexpr std::size_t n = 48;
  constexpr TimeUnit h = 24;
  constexpr std::size_t th = kAnalytics.threads;
  const std::vector<Event> ev =
      make_trace_events(n, h, 160, 2, Rng(derive_seed(seed, 7)));
  auto s = build_stack(n, h, ev, ev.size(), false, 1, 0);
  const TemporalGraph& eg = s->view.view();
  const Graph g = s->engine.graph().materialize();
  std::size_t bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "analytics oracle mismatch: %s\n", what);
      ++bad;
    }
  };
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  const auto all_close = [&close](const std::vector<double>& a,
                                  const std::vector<double>& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), close);
  };

  // Closeness, path length, diameter and betweenness (interior vertices
  // of each reachable pair's via chain) from earliest arrival.
  std::vector<EarliestArrival> ea;
  for (std::size_t u = 0; u < n; ++u) {
    ea.push_back(earliest_arrival(eg, static_cast<VertexId>(u), 0));
  }
  std::vector<double> closeness(n, 0.0), between(n, 0.0);
  double delay = 0.0;
  std::size_t reach = 0;
  TimeUnit diam = 0;
  for (std::size_t u = 0; u < n; ++u) {
    double acc = 0.0;
    TimeUnit flood = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u) continue;
      const TimeUnit c = ea[u].completion[v];
      flood = std::max(flood, c);
      if (c == kNeverTime) continue;
      acc += 1.0 / (1.0 + double(c));
      delay += double(c);
      ++reach;
      for (VertexId cur = ea[u].via[v].from; cur != kInvalidVertex && cur != u;
           cur = ea[u].via[cur].from) {
        between[cur] += 1.0;
      }
    }
    diam = std::max(diam, flood);
    closeness[u] = acc / double(n - 1);
  }
  expect(all_close(temporal_closeness(eg, th), closeness), "temporal_closeness");
  expect(temporal_betweenness(eg, th) == between, "temporal_betweenness");
  const TemporalPathLength pl = characteristic_temporal_path_length(eg, th);
  expect(close(pl.characteristic_length, reach ? delay / double(reach) : 0.0) &&
             close(pl.reachable_fraction, double(reach) / double(n * (n - 1))),
         "characteristic_temporal_path_length");
  expect(dynamic_diameter(eg, th) == diam, "dynamic_diameter");

  // Correlation: neighbour-set overlap of consecutive units, per vertex.
  std::vector<std::set<VertexId>> nb(n * h);
  for (const auto& e : eg.edges()) {
    for (const TimeUnit t : e.labels) {
      nb[e.u * h + t].insert(e.v);
      nb[e.v * h + t].insert(e.u);
    }
  }
  double overlap = 0.0;
  for (std::size_t i = 0; i < n * h; ++i) {
    if (i % h == h - 1 || nb[i].empty() || nb[i + 1].empty()) continue;
    std::size_t common = 0;
    for (const VertexId w : nb[i]) common += nb[i + 1].count(w);
    overlap += double(common) / std::sqrt(double(nb[i].size() * nb[i + 1].size()));
  }
  expect(close(temporal_correlation_coefficient(eg), overlap / double(n * (h - 1))),
         "temporal_correlation_coefficient");

  // Journeys against the legacy oracles; epidemic routing with an
  // unbounded copy budget (0) floods every contact, so without loss it
  // delivers at the earliest arrival, and with loss never earlier.
  Rng rng(derive_seed(seed, 8));
  for (int i = 0; i < 12; ++i) {
    const auto a = static_cast<VertexId>(rng.index(n));
    const auto b = static_cast<VertexId>(rng.index(n));
    expect(minimum_hop_journey(eg, a, b, 0) == legacy::minimum_hop_journey(eg, a, b, 0),
           "minimum_hop_journey");
    expect(fastest_journey(eg, a, b, 0) == legacy::fastest_journey(eg, a, b, 0),
           "fastest_journey");
    if (a == b) continue;
    const TimeUnit arrive = ea[a].completion[b];
    const RoutingTrialStats exact = simulate_routing_trials(
        eg, a, b, 0, epidemic_strategy(), 0, SimulationFaults{}, 2, th);
    expect(arrive == kNeverTime ? exact.delivered == 0
                                : exact.delivered == 2 &&
                                      exact.mean_delivery_time == double(arrive),
           "simulate_routing_trials (lossless)");
    SimulationFaults lossy;
    lossy.loss_probability = kAnalytics.routing_loss;
    lossy.loss_seed = derive_seed(seed, 11);
    const RoutingTrialStats st = simulate_routing_trials(
        eg, a, b, 0, epidemic_strategy(), 0, lossy, 8, th);
    bool never_early = st.outcomes.size() == 8;
    for (const RoutingOutcome& out : st.outcomes) {
      never_early &= !out.delivered ||
                     (arrive != kNeverTime && out.delivery_time >= arrive);
    }
    expect(never_early, "simulate_routing_trials (lossy)");
  }

  // Static closeness and betweenness from BFS distances and shortest-
  // path counts of every source (the projection is undirected).
  constexpr std::size_t kFar = std::numeric_limits<std::size_t>::max();
  std::vector<std::vector<std::size_t>> dist(n, std::vector<std::size_t>(n, kFar));
  std::vector<std::vector<double>> paths(n, std::vector<double>(n, 0.0));
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<VertexId> order{static_cast<VertexId>(src)};
    dist[src][src] = 0;
    paths[src][src] = 1.0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const VertexId u = order[k];
      for (const VertexId v : g.neighbors(u)) {
        if (dist[src][v] == kFar) {
          dist[src][v] = dist[src][u] + 1;
          order.push_back(v);
        }
        if (dist[src][v] == dist[src][u] + 1) paths[src][v] += paths[src][u];
      }
    }
  }
  std::vector<double> s_close(n, 0.0), s_between(n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    std::size_t reached = 0, sum = 0;
    for (std::size_t b = 0; b < n; ++b) {
      if (dist[a][b] == kFar) continue;
      ++reached;
      sum += dist[a][b];
      if (b <= a) continue;
      for (std::size_t v = 0; v < n; ++v) {
        if (v != a && v != b && dist[a][v] != kFar && dist[b][v] != kFar &&
            dist[a][v] + dist[b][v] == dist[a][b]) {
          s_between[v] += paths[a][v] * paths[b][v] / paths[a][b];
        }
      }
    }
    s_close[a] = sum ? double(reached - 1) / double(sum) : 0.0;
  }
  expect(all_close(closeness_centrality(g), s_close), "closeness_centrality");
  expect(all_close(betweenness_centrality(g), s_between), "betweenness_centrality");

  // NSF report: its peeling rounds, degrees recounted and refitted here.
  const NsfReport rep = nsf_report(g, 0.5, 0.15, th);
  std::vector<std::vector<bool>> rounds{std::vector<bool>(n, true)};
  for (auto& alive : peel_sequence(g, 0.5)) rounds.push_back(std::move(alive));
  bool nsf_ok = rep.sizes.size() == rounds.size() && rep.fits.size() == rounds.size();
  for (std::size_t r = 0; nsf_ok && r < rounds.size(); ++r) {
    std::vector<std::size_t> deg;
    for (std::size_t v = 0; v < n; ++v) {
      if (!rounds[r][v]) continue;
      std::size_t k = 0;
      for (const VertexId w : g.neighbors(static_cast<VertexId>(v))) k += rounds[r][w];
      deg.push_back(k);
    }
    const PowerLawFit fit = fit_power_law_auto_kmin(deg);
    nsf_ok = rep.sizes[r] == deg.size() && rep.fits[r].alpha == fit.alpha &&
             rep.fits[r].ks == fit.ks && rep.fits[r].k_min == fit.k_min;
  }
  expect(nsf_ok, "nsf_report");

  std::vector<double> prio(n);
  for (std::size_t v = 0; v < n; ++v) prio[v] = double(v);
  const TrimResult tn = trim_nodes(eg, prio);
  std::vector<bool> alive(n, true);
  for (const VertexId v : tn.removed_nodes) alive[v] = false;
  expect(preserves_reachability(eg, tn.trimmed, alive, true), "trim_nodes");
  const TrimResult tl = trim_labels(eg);
  expect(preserves_reachability(eg, tl.trimmed, std::vector<bool>(n, true), false),
         "trim_labels");
  return bad;
}

RunResult run_analytics(const Cli& cli) {
  constexpr AnalyticsWorkload w = kAnalytics;
  RunResult r;
  const std::vector<Event> main_ev = make_trace_events(
      w.n, w.horizon, w.edges, w.labels, Rng(w.instance_seed));
  const std::vector<Event> trim_ev =
      make_trace_events(w.trim_n, w.trim_horizon, w.trim_edges, w.trim_labels,
                        Rng(derive_seed(w.instance_seed, 2)));

  // Set-up: both traces through the engine + view, plus the static
  // projection the NSF / centrality stages read. It runs again before
  // every job, so setup_s is the median of set-ups spread over the whole
  // run: back-to-back set-ups of ~20 ms drift together with the host.
  reset_peak_rss();
  std::unique_ptr<Stack> main_s, trim_s;
  std::optional<Graph> projection;
  const TemporalGraph* eg = nullptr;
  const TemporalGraph* small = nullptr;
  const auto set_up = [&] {
    main_s.reset();
    trim_s.reset();
    const auto t0 = Clock::now();
    main_s = build_stack(w.n, w.horizon, main_ev, main_ev.size(), false,
                         w.threads, 0);
    trim_s = build_stack(w.trim_n, w.trim_horizon, trim_ev, trim_ev.size(),
                         false, w.threads, 0);
    projection.emplace(main_s->engine.graph().materialize());
    const double secs = ms_between(t0, Clock::now()) / 1e3;
    eg = &main_s->view.view();
    small = &trim_s->view.view();
    return secs;
  };
  std::vector<double> prio(w.trim_n);
  for (std::size_t v = 0; v < w.trim_n; ++v) prio[v] = double(v);
  const auto src = static_cast<VertexId>(derive_seed(cli.seed, 9) % w.n);
  const auto dst = static_cast<VertexId>(derive_seed(cli.seed, 10) % w.n);
  const std::size_t th = w.threads;

  const std::vector<Stage> stages = {
      {"temporal_closeness", "perfbench.analytics.temporal_closeness", [&](Digest& d) { d.vec(temporal_closeness(*eg, th)); }},
      {"temporal_betweenness", "perfbench.analytics.temporal_betweenness",
       [&](Digest& d) { d.vec(temporal_betweenness(*eg, th)); }},
      {"path_length", "perfbench.analytics.path_length",
       [&](Digest& d) {
         const auto pl = characteristic_temporal_path_length(*eg, th);
         d.val(pl.characteristic_length);
         d.val(pl.reachable_fraction);
       }},
      {"dynamic_diameter", "perfbench.analytics.dynamic_diameter", [&](Digest& d) { d.val(dynamic_diameter(*eg, th)); }},
      {"correlation", "perfbench.analytics.correlation",
       [&](Digest& d) { d.val(temporal_correlation_coefficient(*eg)); }},
      {"routing_trials", "perfbench.analytics.routing_trials",
       [&](Digest& d) {
         SimulationFaults f;
         f.loss_probability = w.routing_loss;
         f.loss_seed = derive_seed(cli.seed, 11);
         // Copy budget 0: unbounded copies, i.e. flooding.
         const auto st = simulate_routing_trials(*eg, src, dst, 0,
                                                 epidemic_strategy(), 0, f,
                                                 w.routing_trials, th);
         d.val(st.delivered);
         d.val(st.mean_delivery_time);
         d.val(st.mean_transmissions);
       }},
      {"nsf_report", "perfbench.analytics.nsf_report",
       [&](Digest& d) {
         const NsfReport rep = nsf_report(*projection, 0.5, 0.15, th);
         d.vec(rep.sizes);
         d.val(rep.exponent_stddev);
       }},
      {"centrality", "perfbench.analytics.centrality",
       [&](Digest& d) {
         d.vec(betweenness_centrality(*projection));
         d.vec(closeness_centrality(*projection));
       }},
      {"trim_nodes", "perfbench.analytics.trim_nodes",
       [&](Digest& d) { d.vec(trim_nodes(*small, prio).removed_nodes); }},
      {"trim_labels", "perfbench.analytics.trim_labels",
       [&](Digest& d) { d.val(trim_labels(*small).removed_labels); }},
  };

  // One job = a fresh set-up (when `setup_s` is given), then every stage
  // once. Jobs repeat until --seconds elapse (at least min_jobs); every
  // job must reproduce the first job's digest.
  const auto run_jobs = [&](std::vector<double>* setup_s,
                            std::vector<double>& job_s,
                            std::vector<std::vector<double>>& stage_s,
                            std::uint64_t& digest, std::size_t& mismatches) {
    stage_s.assign(stages.size(), {});
    const auto start = Clock::now();
    while (job_s.size() < w.min_jobs ||
           ms_between(start, Clock::now()) < cli.seconds * 1e3) {
      if (setup_s != nullptr) setup_s->push_back(set_up());
      Digest dg;
      const auto j0 = Clock::now();
      for (std::size_t i = 0; i < stages.size(); ++i) {
        const auto s0 = Clock::now();
        const obs::Span span(stages[i].span);
        stages[i].run(dg);
        stage_s[i].push_back(ms_between(s0, Clock::now()) / 1e3);
      }
      job_s.push_back(ms_between(j0, Clock::now()) / 1e3);
      if (job_s.size() == 1) digest = dg.h;
      else if (dg.h != digest) ++mismatches;
    }
  };

  std::vector<double> setup_secs, job_s;
  std::vector<std::vector<double>> stage_s;
  std::uint64_t digest = 0;
  std::size_t mismatches = 0;
  const GlobalCounters serve_before = GlobalCounters::read();
  run_jobs(&setup_secs, job_s, stage_s, digest, mismatches);
  const double peak_mb = proc_status_mb("VmHWM:");
  const std::size_t oracle_bad = analytics_oracle_gate(cli.seed);

  r.attempted = job_s.size() * stages.size() + 1;
  r.failed = mismatches + oracle_bad;
  r.correct = r.failed == 0;
  const double job_med = median(job_s);
  r.e2e.set("setup_s", median(setup_secs), "s");
  r.e2e.set("peak_rss_mb", peak_mb, "MB");
  r.e2e.set("latency_p50_ms", job_med * 1e3, "ms");
  double total = 0.0;
  for (const double s : job_s) total += s;
  r.e2e.set("throughput_per_s", double(job_s.size()) / total, "1/s");
  r.overhead_basis = job_med;

  auto& d = r.detail;
  d["samples.jobs"] = double(job_s.size());
  d["samples.setup"] = double(setup_secs.size());
  d["digest_lo32"] = double(digest & 0xffffffffULL);
  d["oracle_mismatches"] = double(oracle_bad);
  d["digest_mismatches"] = double(mismatches);
  std::size_t contacts = 0;
  for (const auto& e : eg->edges()) contacts += e.labels.size();
  d["instance.contacts"] = double(contacts);
  d["events.instance"] = double(main_ev.size() + trim_ev.size());
  d["failed_frac"] = double(r.failed) / double(r.attempted);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    d[std::string("stage.") + stages[i].name + "_s"] = median(stage_s[i]);
  }
  record_params(
      d, {{"n", double(w.n)}, {"edges", double(w.edges)},
          {"labels", double(w.labels)}, {"horizon", double(w.horizon)},
          {"trim_n", double(w.trim_n)}, {"trim_edges", double(w.trim_edges)},
          {"trim_labels", double(w.trim_labels)},
          {"trim_horizon", double(w.trim_horizon)},
          {"instance_seed", double(w.instance_seed)},
          {"routing_trials", double(w.routing_trials)},
          {"routing_loss", w.routing_loss}, {"threads", double(w.threads)},
          {"min_jobs", double(w.min_jobs)}});
  if (!cli.trace) return r;

  // ---- traced pass: the same jobs on the last set-up, which is not
  // repeated (the sink would fill with its ingest spans)
  obs::TraceSink sink(std::size_t{8} << 20);
  const GlobalCounters before = GlobalCounters::read();
  sink.install();
  std::vector<double> tjob_s;
  std::vector<std::vector<double>> tstage_s;
  std::uint64_t tdigest = 0;
  std::size_t tmis = 0;
  run_jobs(nullptr, tjob_s, tstage_s, tdigest, tmis);
  obs::TraceSink::uninstall();
  const GlobalCounters after = GlobalCounters::read();
  if (tdigest != digest || tmis != 0) {
    r.correct = false;
    r.failed += 1;
  }
  MetricSet& m = r.layers;
  zero_layer_rows(m);
  span_rows(m, aggregate_spans(sink.events()), before, after);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    m.set(std::string("analytics.") + stages[i].name + "_s", median(tstage_s[i]),
          "s");
  }
  m.set("setup.rss_after_ingest_mb", main_s->rss_after_ingest_mb, "MB");
  m.set("setup.rss_after_broker_mb", main_s->rss_after_broker_mb, "MB");
  m.set("failed_frac", d["failed_frac"], "ratio");
  // No serve.* counter may move in an offline job.
  std::uint64_t serve_moves = 0;
  for (const auto& [k, v] : after.counters) {
    if (k.rfind("serve.", 0) == 0) serve_moves += after.counter_delta(serve_before, k);
  }
  d["serve_counter_moves"] = double(serve_moves);
  const double tmed = median(tjob_s);
  m.set("obs.trace_overhead_pct",
        job_med > 0 ? 100.0 * (tmed - job_med) / job_med : 0.0, "%");
  m.set("obs.trace_dropped", double(sink.dropped()), "count");
  d["trace.events"] = double(sink.size());
  return r;
}

}  // namespace
}  // namespace structnet::perf

int main(int argc, char** argv) {
  using namespace structnet::perf;
  try {
    // 1 us timer slack: the generator's sleeps end on time.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    const Cli cli = parse_cli(argc, argv);
    const RunResult r =
        cli.workload == "analytics_batch" ? run_analytics(cli) : run_serving(cli);
    emit(r, cli.trace);
    if (!r.correct) {
      std::fprintf(stderr, "perfbench: correctness gate failed (%zu failed)\n",
                   r.failed);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
