// Classical node centralities surveyed in Sec. III of the paper: degree,
// closeness, betweenness (Brandes), and eigenvector centrality.
//
// The paper's point is that centrality measures a *single node's*
// importance; the structures built elsewhere in structnet (trimming,
// layering, remapping) span the whole network. These functions supply the
// node-level signals those structures consume (e.g. degree/betweenness as
// trimming priorities).
#pragma once

#include <vector>

#include "core/graph.hpp"

namespace structnet {

/// Degree centrality (raw neighbor counts).
std::vector<double> degree_centrality(const Graph& g);

// Closeness and betweenness share one multi-source BFS over a CsrGraph:
// sources go in blocks of 64 by ascending id, one traversal per block,
// each source a bit lane of per-vertex 64-bit words.

/// Closeness: (n_reachable - 1) / sum of BFS distances to reachable
/// vertices; 0 for isolated vertices. Uses the standard component-local
/// normalization so disconnected graphs are handled. Both terms are
/// exact integers, so the value is bit-identical to a per-source BFS.
/// Workspace: two 64-bit lane words per vertex (32 KB at n = 2000) plus
/// the level lists, allocated once per call.
std::vector<double> closeness_centrality(const Graph& g);

/// Betweenness via Brandes' algorithm (unweighted). Each pair (s, t) is
/// counted once; values are NOT normalized. Summation order, fixed so
/// that results do not depend on adjacency insertion order:
///   - sigma_s(v) sums sigma_s(u) over the neighbours u of v at level
///     d(v) - 1, in ascending vertex id;
///   - delta_s(u) sums sigma_s(u) / sigma_s(w) * (1 + delta_s(w)) over the
///     neighbours w of u at level d(u) + 1, in ascending vertex id;
///   - bc(v) adds delta_s(v) over sources s != v in ascending id, then
///     halves.
/// Workspace: sigma and delta as two n x 64 double arrays (2 MB at
/// n = 2000), three lane words per vertex and the level lists, allocated
/// once per call.
std::vector<double> betweenness_centrality(const Graph& g);

/// Eigenvector centrality via power iteration on the adjacency matrix,
/// L2-normalized, `iterations` steps (sufficient for experiment scale).
std::vector<double> eigenvector_centrality(const Graph& g,
                                           std::size_t iterations = 100);

/// Local clustering coefficient per vertex: closed neighbor pairs /
/// neighbor pairs (0 for degree < 2). The static counterpart of the
/// temporal correlation coefficient in temporal/smallworld_metrics.hpp.
std::vector<double> clustering_coefficients(const Graph& g);

/// Mean of the local clustering coefficients (Watts-Strogatz "C").
double average_clustering_coefficient(const Graph& g);

}  // namespace structnet
