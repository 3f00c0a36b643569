// Histograms for discrete counts (degree distributions, hyperedge
// cardinalities, hop counts) and log-binned continuous data (inter-contact
// times).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace structnet {

/// Exact histogram over non-negative integer values.
class CountHistogram {
 public:
  void add(std::uint64_t value, std::uint64_t weight = 1);

  std::uint64_t total() const { return total_; }
  std::uint64_t count_of(std::uint64_t value) const;
  /// P(X = value) as a fraction of total; 0 when empty.
  double fraction(std::uint64_t value) const;
  /// Complementary CDF P(X >= value).
  double ccdf(std::uint64_t value) const;
  double mean() const;
  std::uint64_t max_value() const;

 private:
  std::map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Logarithmically binned histogram for positive reals.
class LogHistogram {
 public:
  /// Bins grow geometrically from `min_edge` by factor `ratio` (> 1).
  explicit LogHistogram(double min_edge = 1e-3, double ratio = 2.0);

  void add(double value);
  std::uint64_t total() const { return total_; }

  struct Bin {
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t count = 0;
  };
  /// Non-empty bins in increasing order.
  std::vector<Bin> bins() const;

 private:
  double min_edge_;
  double log_ratio_;
  std::map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace structnet
