// Structural trimming of time-evolving graphs (Sec. III-A).
//
// The paper's static trimming rule: node u can be trimmed if for any path
// w -i-> u -j-> v with i <= j there is a replacement path
// w -i'-> u_1 -> ... -> u_k -j'-> v with i' >= i and j' <= j (only the
// first and last labels are compared). To avoid circular replacement,
// every node carries a distinct priority p(u); u may only be replaced if
// every intermediate node on the replacement path has higher priority.
//
// Three granularities are provided, from coarse to fine:
//   * node trimming  — remove u entirely (all its links);
//   * link trimming  — w "ignores neighbor u": only paths starting with
//     the (w, u) link need replacements (the paper's Fig. 2 example:
//     A can ignore D);
//   * label trimming — remove a single time label from a link when doing
//     so provably preserves every pair's earliest completion time.
//
// The `MinimumHopPreserving` variant restricts replacement paths to at
// most one intermediate node, which also preserves minimum hop counts
// (paper: "we can require that each replacement path have, at most, one
// intermediate node").
//
// Evaluation: a replacement journey from w that avoids u and relays only
// above p(u) does not depend on its target v. So the link and node rules
// run one constrained closure per (w, u, first label i) and read every
// target v's completion off it (the unit at which the closure first
// reaches v), against v's deadline j; the per-unit contact buckets are
// built once per graph state. The minimum-hop variant checks its direct
// and one-intermediate paths per (v, i).
#pragma once

#include <span>
#include <vector>

#include "temporal/temporal_graph.hpp"

namespace structnet {

enum class TrimVariant {
  kCompletionTimePreserving,  // replacement paths of any length
  kMinimumHopPreserving,      // replacement paths with <= 1 intermediate
};

/// True iff a replacement journey w -> v exists that avoids `banned`,
/// departs at label >= i, arrives (last label) <= j, and whose
/// intermediate vertices all have priority > priority[banned]. A journey
/// from w back to w never counts.
bool replacement_exists(const TemporalGraph& eg, VertexId w, VertexId banned,
                        VertexId v, TimeUnit i, TimeUnit j,
                        std::span<const double> priority, TrimVariant variant);

/// Localized variant (Sec. IV: each node knows only a k-hop horizon):
/// like can_ignore_neighbor, but replacement journeys may only relay
/// through vertices within `k` footprint-hops of `w` — the information a
/// k-hop-localized node actually possesses. k >= horizon diameter
/// recovers the global rule; small k trims less (the "price of being
/// near-sighted" [27], measured in bench_trimming).
bool can_ignore_neighbor_khop(const TemporalGraph& eg, VertexId w, VertexId u,
                              std::span<const double> priority,
                              std::uint32_t k,
                              TrimVariant variant =
                                  TrimVariant::kCompletionTimePreserving);

/// Link rule: true iff w can ignore its neighbor u — every 2-hop path
/// w -i-> u -j-> v (over all v in N(u) \ {w}, all label pairs i <= j) has
/// a replacement. Only the tightest j per (v, i) matters (the smallest
/// label of (u, v) at or after i), and one closure per i serves every v.
bool can_ignore_neighbor(const TemporalGraph& eg, VertexId w, VertexId u,
                         std::span<const double> priority,
                         TrimVariant variant =
                             TrimVariant::kCompletionTimePreserving);

/// Node rule: true iff u can be trimmed — every 2-hop path through u from
/// any neighbor w to any neighbor v has a replacement (vacuously true
/// for a vertex with no contacts).
bool can_trim_node(const TemporalGraph& eg, VertexId u,
                   std::span<const double> priority,
                   TrimVariant variant =
                       TrimVariant::kCompletionTimePreserving);

/// True iff removing label t from link (u, v) preserves the earliest
/// completion time between *all* vertex pairs at *all* start times.
bool label_is_redundant(const TemporalGraph& eg, VertexId u, VertexId v,
                        TimeUnit t);

struct TrimResult {
  TemporalGraph trimmed;
  std::vector<VertexId> removed_nodes;        // node trimming
  std::vector<std::pair<VertexId, VertexId>> removed_links;  // link trimming
  std::size_t removed_labels = 0;             // label trimming
};

/// Greedy node trimming: scans vertices in increasing priority order and
/// removes each vertex that the node rule admits (re-evaluated against
/// the current graph, so removals compound). A vertex with no contacts
/// — none, or only edge records whose labels were all removed — is never
/// a candidate.
TrimResult trim_nodes(const TemporalGraph& eg,
                      std::span<const double> priority,
                      TrimVariant variant =
                          TrimVariant::kCompletionTimePreserving);

/// Greedy link trimming: removes link (w, u) when BOTH directions are
/// ignorable under the link rule (the EG is undirected, so a link can
/// only be deleted when neither endpoint needs it) AND the endpoints
/// remain mutually reachable at every start time without it.
///
/// Guarantee: reachability between every pair at every start time is
/// preserved. Unlike node trimming, exact completion times are NOT
/// guaranteed for journeys that terminate at a trimmed link's endpoint —
/// the replacement rule only windows the first/last labels of *through*
/// traffic (see the LinkTrimMayDelayEndpointArrival test for the
/// canonical example).
TrimResult trim_links(const TemporalGraph& eg,
                      std::span<const double> priority,
                      TrimVariant variant =
                          TrimVariant::kCompletionTimePreserving);

/// Greedy label trimming: removes redundant labels one at a time until
/// none remains.
TrimResult trim_labels(const TemporalGraph& eg);

/// Verification helper: true iff for every pair of vertices alive in both
/// graphs and every start time, connectivity in `trimmed` matches
/// `original` (trimmed never loses a reachable pair). With
/// `check_completion`, earliest completion times must match exactly.
bool preserves_reachability(const TemporalGraph& original,
                            const TemporalGraph& trimmed,
                            const std::vector<bool>& alive,
                            bool check_completion);

}  // namespace structnet
