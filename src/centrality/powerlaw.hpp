// Power-law fitting for degree distributions.
//
// The NSF (nested scale-free) definition in Sec. III-B requires fitting a
// power-law exponent to G and to each trimmed subgraph, then checking that
// the exponents' standard deviation is o(1). This header provides the MLE
// exponent estimate (Clauset-Shalizi-Newman style, discrete approximation)
// and the Kolmogorov-Smirnov goodness-of-fit distance.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/graph.hpp"

namespace structnet {

struct PowerLawFit {
  double alpha = 0.0;   // exponent estimate; 0 when not fittable
  double ks = 1.0;      // KS distance between data and fitted CCDF
  std::size_t k_min = 1;
  std::size_t samples = 0;  // #observations >= k_min used for the fit

  friend bool operator==(const PowerLawFit&, const PowerLawFit&) = default;
};

/// MLE exponent for discrete data x >= k_min:
/// alpha = 1 + n / sum(ln(x_i / (k_min - 0.5))).
PowerLawFit fit_power_law(std::span<const std::size_t> values,
                          std::size_t k_min = 1);

/// Convenience: fit the degree distribution of g ignoring vertices of
/// degree < k_min.
PowerLawFit fit_degree_power_law(const Graph& g, std::size_t k_min = 1);

/// Scans k_min over the distinct values present and returns the fit with
/// the smallest KS distance (CSN's k_min selection).
PowerLawFit fit_power_law_auto_kmin(std::span<const std::size_t> values,
                                    std::size_t max_kmin = 16);

}  // namespace structnet
