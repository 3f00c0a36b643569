// Embedded layering: nested scale-free (NSF) structure (Sec. III-B,
// citing NSFA [11]) and the level-labeling scheme of Sec. IV-A.
//
// G satisfies NSF if (1) G and every subgraph obtained by iteratively
// removing the local lowest-degree nodes satisfy the scale-free (SF)
// power-law property, and (2) the standard deviation of the power-law
// exponents across those subgraphs is o(1) ("similar in structure").
//
// The level labeling (Fig. 7 (b)): initially all nodes are unassigned;
// the adjusted degree of a node is its number of unassigned neighbors; in
// each round the nodes that are local minima in adjusted degree are
// assigned the current level. Local minimality is decided on the pair
// (adjusted degree, node id), which makes the process deterministic and
// guarantees progress even among ties.
#pragma once

#include <cstddef>
#include <vector>

#include "centrality/powerlaw.hpp"
#include "core/graph.hpp"

namespace structnet {

/// One peeling round: removes the current local lowest-degree vertices.
/// Returns the mask of surviving vertices (relative to g's numbering);
/// vertices already dead in `alive` stay dead.
std::vector<bool> peel_local_minimum_degree(const Graph& g,
                                            const std::vector<bool>& alive);

/// Iterated peeling until at most `stop_fraction` of the vertices remain
/// (e.g. 0.5 reproduces Fig. 3 (b)'s "top 50% peers"). Returns the
/// surviving masks after every round (last entry = final survivors).
std::vector<std::vector<bool>> peel_sequence(const Graph& g,
                                             double stop_fraction);

/// Level labels per Fig. 7 (b): level[v] >= 1 for every vertex; higher
/// levels are "more important" (assigned later). Returns the labels and
/// the number of rounds (= max level).
struct LevelLabeling {
  std::vector<std::uint32_t> level;
  std::uint32_t rounds = 0;
  /// Vertices holding the top level.
  std::vector<VertexId> top_nodes() const;
};
LevelLabeling nsf_level_labels(const Graph& g);

/// Plain degree-based labeling for the Fig. 7 (a) contrast: level = rank
/// class of raw degree (vertices of equal degree share a level; levels
/// ordered by increasing degree, starting at 1).
std::vector<std::uint32_t> degree_rank_labels(const Graph& g);

/// NSF verdict for a graph.
struct NsfReport {
  std::vector<PowerLawFit> fits;  // fit per peel round (index 0 = G itself)
  std::vector<std::size_t> sizes; // surviving vertex count per round
  double exponent_stddev = 0.0;
  bool all_scale_free = false;    // every round's fit passed the KS gate

  friend bool operator==(const NsfReport&, const NsfReport&) = default;
};

/// Runs peel_sequence and fits a power law per round. A round "passes"
/// when its KS distance is below ks_threshold (default 0.15, a practical
/// gate at experiment scale). The per-round fits run one shard per round
/// on the parallel layer; `threads` is 0 = default (STRUCTNET_THREADS /
/// hardware), 1 = serial. Results are identical at any thread count.
NsfReport nsf_report(const Graph& g, double stop_fraction = 0.5,
                     double ks_threshold = 0.15, std::size_t threads = 0);

/// Degeneracy core numbers via bucket peeling: core[v] is the largest k
/// such that v belongs to a subgraph of minimum degree k. This is the
/// monotone cousin of the local-minimum peeling above and the quantity
/// the streaming engine maintains incrementally (a single edge update
/// moves core numbers by at most one).
std::vector<std::uint32_t> core_numbers(const Graph& g);

/// NSF membership induced by core numbers: the tightest core prefix that
/// still keeps at most `stop_fraction` of the alive vertices (e.g. 0.5 =
/// the "top 50% peers" view of Fig. 3 (b)). Deterministic in `core`, so
/// incremental and from-scratch trackers agree iff their cores agree.
std::vector<bool> core_membership(const std::vector<std::uint32_t>& core,
                                  const std::vector<bool>& alive,
                                  double stop_fraction);

}  // namespace structnet
