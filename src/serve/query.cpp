#include "serve/query.hpp"

#include <cstdio>
#include <type_traits>

namespace structnet {

namespace {

/// Exact double spelling (hexfloat round-trips every finite value and
/// spells NaN/inf distinctly), so fingerprints never collide on "close
/// enough" parameters.
void append_double(std::string& out, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

}  // namespace

std::string_view to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTemporalDistances:
      return "temporal_distances";
    case QueryKind::kFastestJourney:
      return "fastest_journey";
    case QueryKind::kMinHopJourney:
      return "min_hop_journey";
    case QueryKind::kNsfReport:
      return "nsf_report";
    case QueryKind::kCentrality:
      return "centrality";
    case QueryKind::kRoutingTrials:
      return "routing_trials";
  }
  return "unknown";
}

std::string_view to_string(CentralityMeasure measure) {
  switch (measure) {
    case CentralityMeasure::kDegree:
      return "degree";
    case CentralityMeasure::kCloseness:
      return "closeness";
    case CentralityMeasure::kBetweenness:
      return "betweenness";
    case CentralityMeasure::kClustering:
      return "clustering";
    case CentralityMeasure::kTemporalCloseness:
      return "temporal_closeness";
  }
  return "unknown";
}

std::string_view to_string(RoutingStrategy strategy) {
  switch (strategy) {
    case RoutingStrategy::kDirect:
      return "direct";
    case RoutingStrategy::kEpidemic:
      return "epidemic";
    case RoutingStrategy::kSprayAndWait:
      return "spray_and_wait";
  }
  return "unknown";
}

std::string_view to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kRejected:
      return "rejected";
    case QueryStatus::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

std::string_view to_string(RejectCause cause) {
  switch (cause) {
    case RejectCause::kNone:
      return "none";
    case RejectCause::kQueueFull:
      return "queue_full";
    case RejectCause::kInvalidArgument:
      return "invalid_argument";
    case RejectCause::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

QueryKind kind_of(const Query& query) {
  return static_cast<QueryKind>(query.index());
}

bool query_is_temporal(const Query& query) {
  switch (kind_of(query)) {
    case QueryKind::kTemporalDistances:
    case QueryKind::kFastestJourney:
    case QueryKind::kMinHopJourney:
    case QueryKind::kRoutingTrials:
      return true;
    case QueryKind::kNsfReport:
      return false;
    case QueryKind::kCentrality:
      // Classical measures read the static graph; temporal closeness
      // sweeps the contact index.
      return std::get<CentralityQuery>(query).measure ==
             CentralityMeasure::kTemporalCloseness;
  }
  return false;
}

std::string query_fingerprint(const Query& query) {
  std::string fp(to_string(kind_of(query)));
  const auto sep = [&fp] { fp += '|'; };
  std::visit(
      [&](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, TemporalDistancesQuery>) {
          sep(), append_u64(fp, q.source);
          sep(), append_u64(fp, q.t_start);
        } else if constexpr (std::is_same_v<T, FastestJourneyQuery> ||
                             std::is_same_v<T, MinHopJourneyQuery>) {
          sep(), append_u64(fp, q.source);
          sep(), append_u64(fp, q.target);
          sep(), append_u64(fp, q.t_start);
        } else if constexpr (std::is_same_v<T, NsfReportQuery>) {
          sep(), append_double(fp, q.stop_fraction);
          sep(), append_double(fp, q.ks_threshold);
        } else if constexpr (std::is_same_v<T, CentralityQuery>) {
          sep(), fp += to_string(q.measure);
        } else if constexpr (std::is_same_v<T, RoutingTrialsQuery>) {
          sep(), append_u64(fp, q.source);
          sep(), append_u64(fp, q.destination);
          sep(), append_u64(fp, q.t0);
          sep(), fp += to_string(q.strategy);
          sep(), append_u64(fp, q.initial_copies);
          sep(), append_u64(fp, q.trials);
          sep(), append_u64(fp, q.ttl);
          sep(), append_double(fp, q.loss_probability);
          sep(), append_u64(fp, q.loss_seed);
          sep(), append_u64(fp, q.retry.max_attempts);
          sep(), append_u64(fp, q.retry.backoff_base);
          sep(), append_u64(fp, q.retry.backoff_factor);
          sep(), append_u64(fp, q.retry.backoff_cap);
        }
      },
      query);
  return fp;
}

bool query_cacheable(const Query& query) {
  if (const auto* rt = std::get_if<RoutingTrialsQuery>(&query)) {
    return rt->plan == nullptr;
  }
  return true;
}

std::size_t payload_bytes(const QueryPayload& payload) {
  constexpr std::size_t kBase = 64;  // entry bookkeeping overhead
  return kBase + std::visit(
                     [](const auto& value) -> std::size_t {
                       using T = std::decay_t<decltype(value)>;
                       if constexpr (std::is_same_v<T, std::monostate>) {
                         return 0;
                       } else if constexpr (std::is_same_v<
                                                T, std::vector<TimeUnit>>) {
                         return value.size() * sizeof(TimeUnit);
                       } else if constexpr (std::is_same_v<
                                                T, std::optional<Journey>>) {
                         return sizeof(Journey) +
                                (value ? value->hops.size() * sizeof(JourneyHop)
                                       : 0);
                       } else if constexpr (std::is_same_v<T, NsfReport>) {
                         return sizeof(NsfReport) +
                                value.fits.size() * sizeof(PowerLawFit) +
                                value.sizes.size() * sizeof(std::size_t);
                       } else if constexpr (std::is_same_v<
                                                T, std::vector<double>>) {
                         return value.size() * sizeof(double);
                       } else {  // RoutingTrialStats
                         return sizeof(RoutingTrialStats) +
                                value.outcomes.size() * sizeof(RoutingOutcome);
                       }
                     },
                     payload);
}

}  // namespace structnet
