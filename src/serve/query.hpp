// Typed query vocabulary of the serving layer (serve/broker.hpp).
//
// A query is a plain value describing one analytic over the engine's
// current graph: temporal distances, fastest / minimum-hop journeys,
// the NSF report, a classical centrality, or a Monte-Carlo routing
// ensemble. Queries are values so they can be fingerprinted — the
// fingerprint is the result-cache key within one DynamicGraph epoch, and
// two equal (fingerprint, epoch) pairs are guaranteed to have equal
// results (every kernel behind a query kind is deterministic in the
// query and the graph state).
//
// The one non-value field is RoutingTrialsQuery::plan, a borrowed
// FaultPlan: plan identity cannot be folded into a value fingerprint,
// so plan-bearing queries are executed but never cached
// (query_cacheable() == false).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/types.hpp"
#include "layering/nsf.hpp"
#include "serve/health.hpp"
#include "sim/dtn_routing.hpp"
#include "temporal/journeys.hpp"

namespace structnet {

/// Query kinds, in Query variant alternative order.
enum class QueryKind : std::uint8_t {
  kTemporalDistances = 0,
  kFastestJourney,
  kMinHopJourney,
  kNsfReport,
  kCentrality,
  kRoutingTrials,
};
inline constexpr std::size_t kQueryKindCount = 6;

/// Short stable name for metrics / JSON ("temporal_distances", ...).
std::string_view to_string(QueryKind kind);

/// Earliest completion times from `source` for all targets, departing
/// at or after `t_start` (temporal_distances over the engine's
/// temporal view). Payload: std::vector<TimeUnit>.
struct TemporalDistancesQuery {
  VertexId source = 0;
  TimeUnit t_start = 0;
};

/// Fastest (span-minimal) journey source -> target departing at or
/// after t_start. Payload: std::optional<Journey>.
struct FastestJourneyQuery {
  VertexId source = 0;
  VertexId target = 0;
  TimeUnit t_start = 0;
};

/// Minimum-hop journey source -> target departing at or after t_start.
/// Payload: std::optional<Journey>.
struct MinHopJourneyQuery {
  VertexId source = 0;
  VertexId target = 0;
  TimeUnit t_start = 0;
};

/// NSF verdict of the engine's current static graph (layering/nsf.hpp).
/// Payload: NsfReport.
struct NsfReportQuery {
  double stop_fraction = 0.5;
  double ks_threshold = 0.15;
};

/// Which centrality to compute. Payload: std::vector<double>.
/// The classical measures read the materialized static graph;
/// kTemporalCloseness reads the temporal view (an all-sources
/// lane-packed sweep over the batch's contact index, see
/// temporal/multi_source.hpp).
enum class CentralityMeasure : std::uint8_t {
  kDegree = 0,
  kCloseness,
  kBetweenness,
  kClustering,
  kTemporalCloseness,
};
std::string_view to_string(CentralityMeasure measure);

struct CentralityQuery {
  CentralityMeasure measure = CentralityMeasure::kDegree;
};

/// Stock DTN strategy for a routing ensemble (value-encodable subset of
/// sim/dtn_routing.hpp's Strategy callbacks).
enum class RoutingStrategy : std::uint8_t {
  kDirect = 0,
  kEpidemic,
  kSprayAndWait,
};
std::string_view to_string(RoutingStrategy strategy);

/// Monte-Carlo routing-trial ensemble over the engine's temporal view,
/// including the fault-injection knobs (all value-typed except `plan`).
/// Payload: RoutingTrialStats.
struct RoutingTrialsQuery {
  VertexId source = 0;
  VertexId destination = 0;
  TimeUnit t0 = 0;
  RoutingStrategy strategy = RoutingStrategy::kEpidemic;
  /// The source's copy budget, simulate_routing's initial_copies: 0 =
  /// unbounded (epidemic flooding), 1 = a single copy that is never
  /// replicated, L >= 2 = the spray-and-wait budget (kSprayAndWait needs
  /// L >= 2 to spray at all).
  std::uint32_t initial_copies = 0;
  std::uint32_t trials = 1;
  // Fault knobs (mirror SimulationFaults, minus the plan pointer).
  TimeUnit ttl = kNeverTime;
  double loss_probability = 0.0;
  std::uint64_t loss_seed = 0;
  RetryPolicy retry;
  /// Optional composed fault schedule (borrowed; must outlive the
  /// query's execution). Makes the query uncacheable — see header note.
  const FaultPlan* plan = nullptr;
};

/// Alternative order must match QueryKind.
using Query =
    std::variant<TemporalDistancesQuery, FastestJourneyQuery, MinHopJourneyQuery,
                 NsfReportQuery, CentralityQuery, RoutingTrialsQuery>;

QueryKind kind_of(const Query& query);

/// True when the query reads the temporal view (needs a TemporalCsr);
/// false when it reads the materialized static graph.
bool query_is_temporal(const Query& query);

/// Canonical, collision-free byte encoding of the query value (doubles
/// rendered as hexfloats, so distinct values always encode distinctly).
/// The result-cache key is fingerprint + epoch.
std::string query_fingerprint(const Query& query);

/// False for queries whose identity is not a pure value (borrowed
/// FaultPlan); such queries always execute, bypassing the cache.
bool query_cacheable(const Query& query);

// ------------------------------------------------------------- results

enum class QueryStatus : std::uint8_t {
  kOk = 0,      // executed (or served from cache) at `epoch`
  kRejected,    // never executed — see RejectCause
  kTimedOut,    // deadline expired before (or during) execution
};
std::string_view to_string(QueryStatus status);

/// Why a query was rejected by admission control.
enum class RejectCause : std::uint8_t {
  kNone = 0,
  kQueueFull,         // bounded queue saturated: load was shed
  kInvalidArgument,   // vertex id out of range / no temporal view bound
  kShutdown,          // broker stopping; query never ran
};
std::string_view to_string(RejectCause cause);

/// Result payload, one alternative per QueryKind (monostate for
/// rejected / timed-out queries).
using QueryPayload =
    std::variant<std::monostate, std::vector<TimeUnit>, std::optional<Journey>,
                 NsfReport, std::vector<double>, RoutingTrialStats>;

struct QueryResult {
  QueryStatus status = QueryStatus::kRejected;
  RejectCause cause = RejectCause::kNone;
  /// Epoch the result is valid for (kOk results only).
  std::uint64_t epoch = 0;
  /// True when served from the result cache rather than executed.
  bool from_cache = false;
  /// Broker health observed at resolution. A non-Healthy broker keeps
  /// serving (graceful degradation), but callers can see that `epoch`
  /// is the last GOOD epoch, not necessarily the freshest stream state.
  HealthState health = HealthState::kHealthy;
  /// Staleness annotation: true iff health was not Healthy at flush —
  /// updates are failing, so the served epoch may lag the real world.
  bool stale = false;
  QueryPayload payload;
};

/// Exact payload comparison (doubles compare with ==) — what the churn
/// equivalence tests assert between served and freshly recomputed
/// results.
inline bool payload_equal(const QueryPayload& a, const QueryPayload& b) {
  return a == b;
}

/// Estimated resident bytes of a payload, the unit of the result
/// cache's byte budget.
std::size_t payload_bytes(const QueryPayload& payload);

}  // namespace structnet
