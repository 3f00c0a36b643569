#include "util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace structnet {

std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t stream) {
  // splitmix64 finalizer over the parent seed advanced by the stream
  // index; the +1 keeps stream 0 from aliasing the parent seed itself.
  std::uint64_t z = parent + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
  return dist(engine_);
}

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(uniform_u64(0, n - 1));
}

double Rng::uniform01() {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return uniform01() < p;
}

double Rng::exponential(double lambda) {
  assert(lambda > 0.0);
  std::exponential_distribution<double> dist(lambda);
  return dist(engine_);
}

std::uint64_t Rng::geometric(double p) {
  std::geometric_distribution<std::uint64_t> dist(std::clamp(p, 1e-12, 1.0));
  return dist(engine_);
}

double Rng::pareto(double x_min, double alpha) {
  assert(x_min > 0.0 && alpha > 1.0);
  // Inverse-CDF sampling: F(x) = 1 - (x_min/x)^(alpha-1).
  const double u = 1.0 - uniform01();
  return x_min * std::pow(u, -1.0 / (alpha - 1.0));
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  assert(n >= 1);
  // Rejection sampling against a bounding envelope (Devroye).
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = uniform01();
    const double v = uniform01();
    const auto x = static_cast<std::uint64_t>(
        std::floor(std::pow(static_cast<double>(n) + 1.0, u)));
    if (x < 1 || x > n) continue;
    const double t = std::pow(1.0 + 1.0 / static_cast<double>(x), s - 1.0);
    if (v * static_cast<double>(x) * (t - 1.0) / (b - 1.0) <= t / b) {
      return x;
    }
  }
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  // Floyd's algorithm: O(k) expected draws, no O(n) scratch.
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = index(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace structnet
