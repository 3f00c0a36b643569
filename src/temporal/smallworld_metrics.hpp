// Small-world behavior in time-varying graphs (Sec. III-B, citing Tang
// et al. [15]): temporal analogues of the clustering coefficient and the
// characteristic path length.
//
//   * temporal correlation coefficient C — how much a node's
//     neighborhood persists between consecutive snapshots (the temporal
//     "clustering" signal);
//   * characteristic temporal path length L — the mean earliest-arrival
//     delay over reachable ordered pairs.
// Socially-clustered mobility shows high C at moderate L — the
// time-and-space layered structure the paper suggests exploring.
#pragma once

#include <cstddef>

#include "temporal/temporal_graph.hpp"

namespace structnet {

/// Average of the topological overlap
/// |N_t(v) ∩ N_{t+1}(v)| / sqrt(|N_t(v)| * |N_{t+1}(v)|) over ALL
/// N * (T-1) vertex / consecutive-snapshot-pair samples, per the [15]
/// definition C = (1/N) Σ_v (1/(T-1)) Σ_t C_v(t, t+1). A vertex with an
/// empty neighborhood on either side contributes overlap 0 (0/0 := 0);
/// no sample is ever skipped.
double temporal_correlation_coefficient(const TemporalGraph& eg);

/// Mean earliest completion delay (completion - start, start = 0) over
/// all ordered reachable pairs; also reports reachability.
struct TemporalPathLength {
  double characteristic_length = 0.0;  // mean delay over reachable pairs
  double reachable_fraction = 0.0;     // reachable ordered pairs / all
};
/// `threads`: 0 = default (STRUCTNET_THREADS / hardware), 1 = serial,
/// k = shard the per-source sweeps over k threads. Results are
/// bit-identical at any thread count.
TemporalPathLength characteristic_temporal_path_length(
    const TemporalGraph& eg, std::size_t threads = 0);

}  // namespace structnet
