// Temporal centralities: journey-based analogues of closeness and
// betweenness. Sec. III-A suggests assigning trimming priorities "using
// node degree or node betweenness, based on the strategic importance of
// the node in the network topology" — these are the temporal versions
// that plug directly into the trimming rules as priorities.
#pragma once

#include <cstddef>
#include <vector>

#include "temporal/temporal_graph.hpp"

namespace structnet {

class DeltaTemporalCsr;

// The all-sources sweeps below shard lane-packed multi-source blocks
// (temporal/multi_source.hpp: 64 sources per contact-stream pass) over
// the parallel layer (parallel/parallel.hpp); `threads` is 0 = default
// (STRUCTNET_THREADS / hardware), 1 = serial. Results are bit-identical
// at any thread count and to the legacy one-sweep-per-source loops.

/// Temporal closeness: for each vertex, the mean of
/// 1 / (1 + earliest completion) over all other vertices starting at
/// time 0 (unreachable contributes 0). Higher = reaches others sooner.
std::vector<double> temporal_closeness(const TemporalGraph& eg,
                                       std::size_t threads = 0);
/// Same, over the serving layer's contact index (what it uses for
/// CentralityMeasure::kTemporalCloseness).
std::vector<double> temporal_closeness(const DeltaTemporalCsr& csr,
                                       std::size_t threads = 0);

/// Temporal betweenness: how often a vertex relays on the canonical
/// earliest-arrival journey trees. Every interior vertex of the via
/// chain from a source to each reachable destination is credited once
/// per (source, destination) pair — computed per source as the size of
/// the vertex's subtree on that source's tree, one reverse pass over
/// the sweep's firing log (multi_source.hpp) rather than one chain walk
/// per pair. This is the journey analogue of shortest-path betweenness
/// restricted to one canonical journey per pair (exact Brandes-style
/// counting over all optimal journeys is #P-hard in temporal graphs).
std::vector<double> temporal_betweenness(const TemporalGraph& eg,
                                         std::size_t threads = 0);

/// Temporal degree: number of contacts a vertex participates in.
std::vector<double> temporal_degree(const TemporalGraph& eg);

}  // namespace structnet
