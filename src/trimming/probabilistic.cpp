#include "trimming/probabilistic.hpp"

#include <cassert>

#include "temporal/temporal_csr.hpp"

namespace structnet {

TemporalGraph sample_realization(const ProbabilisticTemporalGraph& eg,
                                 Rng& rng) {
  TemporalGraph out(eg.vertex_count(), eg.horizon());
  for (const WeightedContact& c : eg.contacts()) {
    if (rng.bernoulli(c.weight)) out.add_contact(c.u, c.v, c.t);
  }
  return out;
}

double ignore_neighbor_probability(const ProbabilisticTemporalGraph& eg,
                                   VertexId w, VertexId u,
                                   std::span<const double> priority,
                                   std::size_t samples, Rng& rng,
                                   TrimVariant variant) {
  assert(samples > 0);
  std::size_t holds = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const TemporalGraph realization = sample_realization(eg, rng);
    holds += can_ignore_neighbor(realization, w, u, priority, variant);
  }
  return static_cast<double>(holds) / static_cast<double>(samples);
}

bool can_ignore_neighbor_probabilistic(const ProbabilisticTemporalGraph& eg,
                                       VertexId w, VertexId u,
                                       std::span<const double> priority,
                                       double confidence, std::size_t samples,
                                       Rng& rng, TrimVariant variant) {
  return ignore_neighbor_probability(eg, w, u, priority, samples, rng,
                                     variant) >= confidence;
}

double trim_degradation(const ProbabilisticTemporalGraph& eg, VertexId w,
                        VertexId u, std::size_t samples, Rng& rng) {
  assert(samples > 0);
  std::size_t worse = 0, total = 0;
  TemporalWorkspace before, after;
  for (std::size_t i = 0; i < samples; ++i) {
    const TemporalGraph realization = sample_realization(eg, rng);
    // One index per realization and per trimmed copy; the CSR sweep's
    // arrivals are the walker's completion times bit-for-bit.
    const TemporalCsr full(realization);
    const TemporalCsr trimmed(realization.without_edge(w, u));
    for (VertexId s = 0; s < full.vertex_count(); ++s) {
      for (TimeUnit t0 = 0; t0 < full.horizon(); ++t0) {
        csr_earliest_arrival(full, s, t0, before);
        csr_earliest_arrival(trimmed, s, t0, after);
        for (VertexId v = 0; v < full.vertex_count(); ++v) {
          ++total;
          worse += after.arrival(v) > before.arrival(v);
        }
      }
    }
  }
  return total ? static_cast<double>(worse) / static_cast<double>(total) : 0.0;
}

}  // namespace structnet
