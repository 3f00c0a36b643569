#include "fault/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace structnet {

namespace {

constexpr std::string_view kMagic = "structnet-checkpoint 1";

/// Splits `line` into exactly `count` unsigned fields. Returns an empty
/// string on success, else the reason.
std::string parse_fields(const std::string& line, std::uint64_t* out,
                         std::size_t count) {
  const char* p = line.data();
  const char* end = p + line.size();
  for (std::size_t i = 0; i < count; ++i) {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
    if (p == end) return "expected " + std::to_string(count) + " fields";
    const auto [next, ec] = std::from_chars(p, end, out[i]);
    if (ec == std::errc::result_out_of_range) return "number out of range";
    if (ec != std::errc() || (next < end && *next != ' ' && *next != '\t')) {
      return "invalid number";
    }
    p = next;
  }
  while (p < end && (*p == ' ' || *p == '\t')) ++p;
  if (p != end) return "trailing data";
  return {};
}

bool fits_u32(std::uint64_t x) {
  return x <= std::numeric_limits<std::uint32_t>::max();
}

// Minimum serialized footprint of one record, used to reject declared
// counts no seekable stream could back: an edge line is at least
// "0 1\n" and an event line at least "0 0 0 0 0\n"; the final line may
// lack its newline, so the per-record floors drop by one.
constexpr std::uint64_t kMinEdgeLineBytes = 3;
constexpr std::uint64_t kMinEventLineBytes = 9;

/// Bytes left between the stream's current position and its end, or
/// nullopt when the stream is not seekable (pipes): callers skip the
/// size-based sanity caps then.
std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  const auto cur = is.tellg();
  if (cur < 0) {
    is.clear();
    return std::nullopt;
  }
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(cur);
  if (end < 0 || end < cur || !is) {
    is.clear();
    is.seekg(cur);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - cur);
}

}  // namespace

void write_checkpoint(std::ostream& os, const StreamEngine& engine) {
  STRUCTNET_OBS_SPAN("fault.checkpoint_write");
  static obs::Counter& writes =
      obs::MetricsRegistry::global().counter("fault.checkpoint_writes");
  writes.add();
  const DynamicGraph& g = engine.graph();
  const Graph& initial = g.initial();
  os << kMagic << '\n';
  os << initial.vertex_count() << ' ' << initial.edge_count() << ' '
     << g.epoch() << ' ' << engine.accepted() << ' ' << engine.rejected()
     << '\n';
  const auto& counts = engine.reject_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    os << counts[i] << (i + 1 < counts.size() ? ' ' : '\n');
  }
  for (const Graph::Edge& e : initial.edges()) {
    os << e.u << ' ' << e.v << '\n';
  }
  for (const Event& ev : g.log()) {
    os << static_cast<unsigned>(ev.kind) << ' ' << ev.u << ' ' << ev.v << ' '
       << ev.time << ' ' << ev.new_time << '\n';
  }
}

CheckpointResult read_checkpoint(std::istream& is) {
  STRUCTNET_OBS_SPAN("fault.checkpoint_read");
  static obs::Counter& reads =
      obs::MetricsRegistry::global().counter("fault.checkpoint_reads");
  reads.add();
  CheckpointResult result;
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](std::string why) {
    result.line = lineno;
    result.error = std::move(why);
    result.engine.reset();
    return result;
  };
  // Skips blank lines; false at end of stream.
  const auto next_line = [&]() {
    while (std::getline(is, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
    }
    ++lineno;
    return false;
  };

  if (!next_line()) return fail("missing magic line");
  if (line != kMagic) return fail("bad magic (want '" + std::string(kMagic) + "')");

  if (!next_line()) return fail("missing header (n0 m0 epoch accepted rejected)");
  std::uint64_t header[5];
  if (auto err = parse_fields(line, header, 5); !err.empty()) {
    return fail("header: " + err);
  }
  const auto [n0, m0, epoch, accepted, rejected] =
      std::tuple{header[0], header[1], header[2], header[3], header[4]};
  if (!fits_u32(n0)) return fail("header: vertex count exceeds 32-bit ids");
  if (n0 > kMaxCheckpointVertices) {
    return fail("header: vertex count " + std::to_string(n0) +
                " exceeds cap " + std::to_string(kMaxCheckpointVertices));
  }

  // Size-based sanity caps: every declared edge/event costs a minimum
  // number of bytes, so counts the remaining stream cannot possibly
  // back are rejected here — before the allocation and replay loops
  // below do O(count) work on attacker-declared numbers.
  if (const auto rem = remaining_bytes(is)) {
    if (m0 > 0 && m0 > *rem / kMinEdgeLineBytes) {
      return fail("header: edge count " + std::to_string(m0) +
                  " exceeds remaining file size");
    }
    if (epoch > 0 && epoch > *rem / kMinEventLineBytes) {
      return fail("header: event count " + std::to_string(epoch) +
                  " exceeds remaining file size");
    }
    if (m0 * kMinEdgeLineBytes + epoch * kMinEventLineBytes > *rem + 2) {
      return fail("header: declared counts exceed remaining file size");
    }
  }

  if (!next_line()) return fail("missing reject-count line");
  std::uint64_t raw_counts[kRejectReasonCount];
  if (auto err = parse_fields(line, raw_counts, kRejectReasonCount);
      !err.empty()) {
    return fail("reject counts: " + err);
  }
  std::array<std::uint64_t, kRejectReasonCount> counts{};
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) counts[i] = raw_counts[i];

  Graph initial(static_cast<std::size_t>(n0));
  for (std::uint64_t i = 0; i < m0; ++i) {
    if (!next_line()) {
      return fail("truncated: expected " + std::to_string(m0) +
                  " initial edges, got " + std::to_string(i));
    }
    std::uint64_t uv[2];
    if (auto err = parse_fields(line, uv, 2); !err.empty()) {
      return fail("initial edge: " + err);
    }
    if (uv[0] >= n0 || uv[1] >= n0) return fail("initial edge: vertex out of range");
    if (uv[0] == uv[1]) return fail("initial edge: self loop");
    if (initial.add_edge_unique(static_cast<VertexId>(uv[0]),
                                static_cast<VertexId>(uv[1])) == kInvalidEdge) {
      return fail("initial edge: duplicate");
    }
  }

  DynamicGraph graph(initial);
  for (std::uint64_t i = 0; i < epoch; ++i) {
    if (!next_line()) {
      return fail("truncated: expected " + std::to_string(epoch) +
                  " logged events, got " + std::to_string(i));
    }
    std::uint64_t f[5];
    if (auto err = parse_fields(line, f, 5); !err.empty()) {
      return fail("event: " + err);
    }
    if (f[0] > static_cast<std::uint64_t>(EventKind::kNodeLeave)) {
      return fail("event: unknown kind " + std::to_string(f[0]));
    }
    if (!fits_u32(f[1]) || !fits_u32(f[2]) || !fits_u32(f[3]) ||
        !fits_u32(f[4])) {
      return fail("event: field exceeds 32-bit range");
    }
    const Event ev{static_cast<EventKind>(f[0]), static_cast<VertexId>(f[1]),
                   static_cast<VertexId>(f[2]), static_cast<TimeUnit>(f[3]),
                   static_cast<TimeUnit>(f[4])};
    // The log is exactly the accepted history; a replay rejection means
    // the checkpoint is internally inconsistent.
    if (!graph.apply(ev).accepted) {
      return fail("event: log replay rejected event " + std::to_string(i));
    }
  }

  StreamEngine engine{std::move(graph)};
  engine.restore_counters(accepted, rejected, counts);
  result.engine.emplace(std::move(engine));
  result.line = 0;
  result.error.clear();
  return result;
}

namespace detail {

bool atomic_write_file(const std::string& path, std::string_view payload,
                       std::string* error, std::size_t fail_after_bytes) {
  const auto fail = [&](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return fail("cannot open " + tmp + ": " + std::strerror(errno));
  }
  // Test seam: a simulated kill stops mid-write, leaving the partial
  // temp file behind — exactly what a real crash leaves. The target
  // path must be untouched in that case; that is the whole point of
  // writing to the side and renaming.
  const std::size_t to_write = std::min(payload.size(), fail_after_bytes);
  std::size_t off = 0;
  while (off < to_write) {
    const ssize_t n = ::write(fd, payload.data() + off, to_write - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return fail("write to " + tmp + " failed: " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  if (to_write < payload.size()) {
    ::close(fd);
    return fail("simulated crash after " + std::to_string(to_write) +
                " bytes");
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail("fsync " + tmp + " failed: " + std::strerror(errno));
  }
  ::close(fd);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail("rename to " + path + " failed: " + ec.message());
  // Make the rename itself durable: fsync the containing directory.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace detail

bool write_checkpoint_file(const std::string& path, const StreamEngine& engine,
                           std::string* error) {
  STRUCTNET_OBS_SPAN("fault.checkpoint_write_file");
  std::ostringstream payload;
  write_checkpoint(payload, engine);
  const bool ok = detail::atomic_write_file(path, payload.view(), error);
  obs::MetricsRegistry::global()
      .counter(ok ? "fault.checkpoint_file_writes"
                  : "fault.checkpoint_file_write_failures")
      .add();
  return ok;
}

CheckpointResult read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    CheckpointResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return read_checkpoint(in);
}

}  // namespace structnet
