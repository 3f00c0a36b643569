// Deterministic random number generation utilities.
//
// Every stochastic component of structnet takes an explicit `Rng&` (or a
// seed) so that experiments are reproducible run-to-run. We wrap
// std::mt19937_64 rather than exposing it directly so call sites stay
// independent of the underlying engine.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace structnet {

/// Deterministic pseudo-random source used across the library.
///
/// A thin wrapper over std::mt19937_64 with convenience draws. Copyable;
/// copies evolve independently (useful for splitting streams in tests).
/// Derives a decorrelated child seed from a parent seed and a stream
/// index (splitmix64 finalizer). Used to split one logical seed into
/// independent per-shard/per-trial streams whose draw sequences depend
/// only on (parent, stream) — never on thread count or draw history —
/// so parallel Monte-Carlo runs are bit-identical to serial ones.
std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t stream);

class Rng {
 public:
  /// Seeds the engine. The same seed always yields the same stream.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
      : seed_(seed), engine_(seed) {}

  /// The seed this Rng was constructed with (draws do not change it).
  std::uint64_t seed() const { return seed_; }

  /// Child Rng for shard/trial `stream`: seeded with
  /// derive_seed(seed(), stream). Independent of draws already made on
  /// the parent, so shard streams are schedule-invariant.
  Rng split(std::uint64_t stream) const { return Rng(derive_seed(seed_, stream)); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with rate lambda (> 0).
  double exponential(double lambda);

  /// Geometric draw: number of failures before first success, P(success)=p.
  std::uint64_t geometric(double p);

  /// Pareto (power-law) draw with minimum x_min > 0 and exponent alpha > 1.
  /// Density ~ x^-alpha for x >= x_min.
  double pareto(double x_min, double alpha);

  /// Zipf-like integer draw in [1, n] with exponent s, via rejection.
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[index(i)]);
    }
  }

  /// Returns k distinct indices sampled uniformly from [0, n). k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Access to the raw engine for std distributions not wrapped here.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace structnet
