#include "util/histogram.hpp"

#include <cassert>
#include <cmath>

namespace structnet {

void CountHistogram::add(std::uint64_t value, std::uint64_t weight) {
  counts_[value] += weight;
  total_ += weight;
}

std::uint64_t CountHistogram::count_of(std::uint64_t value) const {
  const auto it = counts_.find(value);
  return it == counts_.end() ? 0 : it->second;
}

double CountHistogram::fraction(std::uint64_t value) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count_of(value)) / static_cast<double>(total_);
}

double CountHistogram::ccdf(std::uint64_t value) const {
  if (total_ == 0) return 0.0;
  std::uint64_t at_least = 0;
  for (auto it = counts_.lower_bound(value); it != counts_.end(); ++it) {
    at_least += it->second;
  }
  return static_cast<double>(at_least) / static_cast<double>(total_);
}

double CountHistogram::mean() const {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (const auto& [v, c] : counts_) {
    sum += static_cast<double>(v) * static_cast<double>(c);
  }
  return sum / static_cast<double>(total_);
}

std::uint64_t CountHistogram::max_value() const {
  return counts_.empty() ? 0 : counts_.rbegin()->first;
}

LogHistogram::LogHistogram(double min_edge, double ratio)
    : min_edge_(min_edge), log_ratio_(std::log(ratio)) {
  assert(min_edge > 0.0 && ratio > 1.0);
}

void LogHistogram::add(double value) {
  assert(value > 0.0);
  const double x = std::max(value, min_edge_);
  const auto bin = static_cast<std::int64_t>(
      std::floor(std::log(x / min_edge_) / log_ratio_));
  ++counts_[bin];
  ++total_;
}

std::vector<LogHistogram::Bin> LogHistogram::bins() const {
  std::vector<Bin> out;
  out.reserve(counts_.size());
  for (const auto& [b, c] : counts_) {
    Bin bin;
    bin.lo = min_edge_ * std::exp(log_ratio_ * static_cast<double>(b));
    bin.hi = min_edge_ * std::exp(log_ratio_ * static_cast<double>(b + 1));
    bin.count = c;
    out.push_back(bin);
  }
  return out;
}

}  // namespace structnet
