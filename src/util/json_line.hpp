// Single-line JSON record writer shared by the bench binaries
// (bench/bench_util.hpp) and the metrics registry's emit_json
// (obs/metrics.hpp), so every machine-readable line the project emits
// has one spelling: insertion-ordered fields, fixed-notation doubles
// (no scientific flips), null for non-finite values, and full string
// escaping. Records are grep-able as lines starting with '{'.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace structnet {

/// Builder for one JSON object serialized as a single line. Field order
/// is insertion order; keys are not deduplicated.
class JsonLineWriter {
 public:
  JsonLineWriter& field(std::string_view key, double value) {
    append_key(key);
    // Default stream formatting rounds to 6 significant digits and
    // flips to scientific notation for large values (ns_per_op easily
    // exceeds 1e6), silently corrupting BENCH_*.json trajectories. Emit
    // fixed notation with 6 fractional digits instead; non-finite
    // doubles have no JSON spelling, so they become null.
    if (!std::isfinite(value)) {
      out_ << "null";
      return *this;
    }
    char buf[352];  // fixed notation of the largest double fits
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    out_ << buf;
    return *this;
  }
  JsonLineWriter& field(std::string_view key, std::uint64_t value) {
    append_key(key);
    out_ << value;
    return *this;
  }
  JsonLineWriter& field(std::string_view key, std::string_view value) {
    append_key(key);
    append_string(value);
    return *this;
  }

  /// The record as a complete one-line JSON object.
  std::string str() const { return first_ ? "{}" : out_.str() + "}"; }

  /// Prints the record as a single line (flushed so partial runs still
  /// leave parseable output).
  void emit(std::ostream& os = std::cout) const {
    os << str() << std::endl;
  }

 private:
  void append_key(std::string_view key) {
    out_ << (first_ ? "{" : ", ");
    first_ = false;
    append_string(key);
    out_ << ": ";
  }

  /// JSON string literal with quote/backslash/control escaping.
  void append_string(std::string_view s) {
    out_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"':
          out_ << "\\\"";
          break;
        case '\\':
          out_ << "\\\\";
          break;
        case '\n':
          out_ << "\\n";
          break;
        case '\t':
          out_ << "\\t";
          break;
        case '\r':
          out_ << "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  bool first_ = true;
};

}  // namespace structnet
