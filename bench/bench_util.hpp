// Shared benchmark output helpers.
//
// Every bench binary prints human-readable tables (util/table.hpp) AND
// machine-readable JSON lines so BENCH_*.json trajectories can be
// captured by simply grepping stdout for lines starting with '{'. The
// canonical record is {"bench": <name>, "n": <size>, "ns_per_op": <ns>}
// plus any extra fields a bench wants to attach; records that exercise
// the parallel layer also carry a "threads" field (stamped uniformly
// via BenchJson::threads so trajectories never guess the concurrency a
// number was measured at).
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string_view>

#include "parallel/parallel.hpp"
#include "util/json_line.hpp"

namespace structnet {

/// Builder for one JSON benchmark line. Field order is insertion order;
/// `bench` always comes first.
class BenchJson {
 public:
  explicit BenchJson(std::string_view bench) { line_.field("bench", bench); }

  BenchJson& field(std::string_view key, double value) {
    line_.field(key, value);
    return *this;
  }
  BenchJson& field(std::string_view key, std::uint64_t value) {
    line_.field(key, value);
    return *this;
  }
  BenchJson& field(std::string_view key, std::string_view value) {
    line_.field(key, value);
    return *this;
  }

  /// Stamps the uniform "threads" field: the concurrency the measurement
  /// ran at, or (when 0) the default every kernel resolves to.
  BenchJson& threads(std::uint64_t value = 0) {
    line_.field("threads", std::uint64_t{resolve_threads(value)});
    return *this;
  }

  /// Prints the record as a single line (flushed so partial runs still
  /// leave parseable output).
  void emit(std::ostream& os = std::cout) { line_.emit(os); }

 private:
  JsonLineWriter line_;
};

/// Convenience for the canonical record shape. `threads` is the
/// concurrency the measured operation actually used — most canonical
/// one-kernel measurements are serial, hence the default of 1; pass 0
/// for "whatever the parallel layer resolves to by default".
inline void bench_json_line(std::string_view bench, std::uint64_t n,
                            double ns_per_op, std::uint64_t threads = 1) {
  BenchJson(bench)
      .field("n", n)
      .field("ns_per_op", ns_per_op)
      .threads(threads)
      .emit();
}

/// Wall-clock timing of `ops` repetitions of `fn`; returns ns per op.
template <typename Fn>
double time_ns_per_op(std::size_t ops, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) fn(i);
  const auto stop = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  return ops == 0 ? 0.0
                  : static_cast<double>(ns) / static_cast<double>(ops);
}

}  // namespace structnet
