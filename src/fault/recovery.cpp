#include "fault/recovery.hpp"

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "fault/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"

namespace structnet {

namespace {

namespace fs = std::filesystem;

std::string checkpoint_name(std::uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "checkpoint-%020llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return buf;
}

bool parse_checkpoint_name(const std::string& name, std::uint64_t* epoch) {
  if (name.size() != 11 + 20 + 5 || name.rfind("checkpoint-", 0) != 0 ||
      name.compare(name.size() - 5, 5, ".ckpt") != 0) {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 11; i < 11 + 20; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *epoch = v;
  return true;
}

/// Checkpoint files in `dir`, sorted by epoch ascending.
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t epoch = 0;
    if (parse_checkpoint_name(entry.path().filename().string(), &epoch)) {
      found.emplace_back(epoch, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The revived engine (graph `b`, observers attached after restore)
/// against the uninterrupted reference (graph `a`): log, epoch, counts,
/// materialized graph and liveness into out.graph_match; Core state
/// against the reference and against its own from-scratch recompute
/// into out.cores_match; MIS on alive vertices, checked the same way,
/// into out.mis_match. Both crash harnesses' outcomes carry these three
/// fields; each compares its own counters.
template <class Outcome>
void compare_revived(const DynamicGraph& a, const CoreObserver& ref_cores,
                     const MisObserver& ref_mis, const DynamicGraph& b,
                     const CoreObserver& cores, const MisObserver& mis,
                     Outcome& out) {
  out.graph_match = a.log() == b.log() && a.epoch() == b.epoch() &&
                    a.vertex_count() == b.vertex_count() &&
                    a.alive_count() == b.alive_count() &&
                    a.edge_count() == b.edge_count() &&
                    a.materialize() == b.materialize();
  if (out.graph_match) {
    for (VertexId v = 0; v < a.vertex_count(); ++v) {
      if (a.alive(v) != b.alive(v)) {
        out.graph_match = false;
        break;
      }
    }
  }

  CoreObserver recomputed_cores = cores;
  recomputed_cores.recompute(b);
  out.cores_match = cores.cores() == ref_cores.cores() &&
                    cores.cores() == recomputed_cores.cores() &&
                    cores.nsf_members(b) == ref_cores.nsf_members(a);

  out.mis_match = true;
  MisObserver recomputed_mis = mis;
  recomputed_mis.recompute(b);
  for (VertexId v = 0; v < b.vertex_count(); ++v) {
    if (!b.alive(v)) continue;
    if (mis.in_mis(v) != ref_mis.in_mis(v) ||
        mis.in_mis(v) != recomputed_mis.in_mis(v)) {
      out.mis_match = false;
      break;
    }
  }
}

}  // namespace

RecoveryOutcome run_crash_recovery(std::size_t initial_vertices,
                                   std::span<const Event> events,
                                   std::size_t kill_at,
                                   std::uint64_t mis_seed) {
  RecoveryOutcome out;
  out.events = events.size();
  out.kill_at = std::min(kill_at, events.size());

  // Uninterrupted reference run: observers ride the whole stream.
  StreamEngine reference{DynamicGraph(initial_vertices)};
  CoreObserver ref_cores;
  MisObserver ref_mis(mis_seed);
  reference.attach(&ref_cores);
  reference.attach(&ref_mis);
  for (const Event& e : events) reference.apply(e);

  // Crashed run: absorb the prefix, checkpoint, die.
  std::stringstream checkpoint;
  {
    StreamEngine doomed{DynamicGraph(initial_vertices)};
    CoreObserver doomed_cores;
    MisObserver doomed_mis(mis_seed);
    doomed.attach(&doomed_cores);
    doomed.attach(&doomed_mis);
    for (std::size_t i = 0; i < out.kill_at; ++i) doomed.apply(events[i]);
    write_checkpoint(checkpoint, doomed);
  }  // crash: engine and its observers are gone

  CheckpointResult restored = read_checkpoint(checkpoint);
  if (!restored.ok()) return out;  // nothing matches
  StreamEngine& revived = *restored.engine;
  CoreObserver cores;
  MisObserver mis(mis_seed);
  revived.attach(&cores);  // recompute-on-attach resynchronizes
  revived.attach(&mis);
  for (std::size_t i = out.kill_at; i < events.size(); ++i) {
    revived.apply(events[i]);
  }

  compare_revived(reference.graph(), ref_cores, ref_mis, revived.graph(),
                  cores, mis, out);
  out.counters_match = reference.accepted() == revived.accepted() &&
                       reference.rejected() == revived.rejected() &&
                       reference.reject_counts() == revived.reject_counts();
  return out;
}

std::string checkpoint_now(const std::string& dir, const StreamEngine& engine,
                           std::size_t keep) {
  STRUCTNET_OBS_SPAN("fault.checkpoint_now");
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::uint64_t epoch = engine.graph().epoch();
  const std::string path =
      (fs::path(dir) / checkpoint_name(epoch)).string();
  if (!write_checkpoint_file(path, engine)) return {};

  auto checkpoints = list_checkpoints(dir);
  if (keep == 0) keep = 1;  // the one just written always stays
  while (checkpoints.size() > keep) {
    fs::remove(checkpoints.front().second, ec);
    checkpoints.erase(checkpoints.begin());
  }
  // WAL records below the oldest surviving anchor serve no recovery
  // path any more (every fallback starts at or above it).
  if (!checkpoints.empty()) {
    prune_wal_segments(dir, checkpoints.front().first);
  }
  return path;
}

RecoverOutcome recover(const std::string& dir,
                       std::size_t initial_vertices) {
  STRUCTNET_OBS_SPAN("fault.recover");
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("fault.recover.runs").add();

  RecoverOutcome out;
  // Heal the log first: truncate a torn tail to its valid prefix and
  // drop unreachable segments, so a WalAppender resumed at the
  // recovered index chains cleanly and the NEXT recovery reaches its
  // records instead of stopping at the old tear.
  out.wal_repair = repair_wal(dir);
  out.wal = scan_wal(dir);
  const std::uint64_t wal_end = out.wal.first_index + out.wal.events.size();

  // Replays the WAL suffix past `engine`'s epoch; false when a record
  // the accepted history should contain gets rejected (an inconsistent
  // anchor — the caller falls back to an older one).
  const auto replay_suffix = [&](StreamEngine& engine,
                                 std::size_t* replayed) {
    const std::uint64_t epoch = engine.graph().epoch();
    *replayed = 0;
    if (out.wal.events.empty() || epoch >= wal_end) return true;
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = epoch - out.wal.first_index;
         i < out.wal.events.size(); ++i) {
      if (!engine.apply(out.wal.events[i])) return false;
      ++*replayed;
    }
    registry.histogram("fault.wal.replay_ns").record(now_ns() - t0);
    return true;
  };

  auto checkpoints = list_checkpoints(dir);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    const auto& [epoch, path] = *it;
    // An anchor below the WAL's reach cannot bridge to the durable
    // suffix (the records in between were pruned) — skip it.
    if (!out.wal.events.empty() && epoch < out.wal.first_index) continue;
    out.checkpoints_tried++;
    CheckpointResult result = read_checkpoint_file(path);
    if (!result.ok()) {
      registry.counter("fault.recover.bad_checkpoints").add();
      continue;
    }
    std::size_t replayed = 0;
    if (!replay_suffix(*result.engine, &replayed)) {
      registry.counter("fault.recover.bad_checkpoints").add();
      continue;
    }
    out.engine = std::move(result.engine);
    out.checkpoint_path = path;
    out.checkpoint_epoch = epoch;
    out.wal_replayed = replayed;
    break;
  }

  // No usable checkpoint: a WAL reaching back to epoch 0 is a complete
  // history on its own.
  if (!out.engine.has_value() && out.wal.first_index == 0) {
    StreamEngine engine{DynamicGraph(initial_vertices)};
    std::size_t replayed = 0;
    if (replay_suffix(engine, &replayed)) {
      out.engine.emplace(std::move(engine));
      out.wal_replayed = replayed;
    } else {
      out.error = "WAL replay rejected an accepted record";
    }
  } else if (!out.engine.has_value()) {
    out.error = "no usable checkpoint and WAL starts at index " +
                std::to_string(out.wal.first_index);
  }

  if (out.engine.has_value()) {
    registry.counter("fault.recover.success").add();
    registry.counter("fault.recover.wal_replayed").add(out.wal_replayed);
    if (out.checkpoints_tried > 1) {
      registry.counter("fault.recover.fallbacks")
          .add(out.checkpoints_tried - 1);
    }
  } else {
    registry.counter("fault.recover.failures").add();
  }
  return out;
}

WalCrashOutcome run_wal_crash_recovery(std::size_t initial_vertices,
                                       std::span<const Event> events,
                                       std::uint64_t cut_at_byte,
                                       const WalCrashOptions& options) {
  WalCrashOutcome out;

  std::string dir;
  {
    std::string tmpl =
        (fs::temp_directory_path() / "structnet-wal-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) return out;
    dir = tmpl;
  }

  // Doomed run: WAL attached first so accepted events hit disk before
  // any derived structure sees them; observers ride along so the run is
  // shaped like production. One oversized segment makes every byte
  // offset of the whole log a valid kill point.
  std::vector<Event> accepted_log;
  std::vector<std::uint64_t> checkpoint_epochs;
  {
    WalConfig config;
    config.dir = dir;
    config.segment_bytes = std::size_t{1} << 40;
    config.group_commit = options.group_commit;
    config.fsync_on_flush = false;  // the harness "crash" is a truncate
    WalAppender wal(config);
    StreamEngine doomed{DynamicGraph(initial_vertices)};
    CoreObserver cores;
    MisObserver mis(options.mis_seed);
    doomed.attach(&wal);
    doomed.attach(&cores);
    doomed.attach(&mis);
    for (const Event& e : events) {
      doomed.apply(e);
      const std::uint64_t epoch = doomed.graph().epoch();
      if (options.checkpoint_every != 0 && epoch != 0 &&
          epoch % options.checkpoint_every == 0 &&
          (checkpoint_epochs.empty() ||
           checkpoint_epochs.back() != epoch)) {
        wal.sync();
        if (!checkpoint_now(dir, doomed, /*keep=*/1000).empty()) {
          checkpoint_epochs.push_back(epoch);
        }
      }
    }
    wal.sync();
    const auto& log = doomed.graph().log();
    accepted_log.assign(log.begin(), log.end());
  }  // crash: engine, observers, and the appender's buffers are gone
  out.accepted = accepted_log.size();

  // The kill: truncate the WAL at an arbitrary byte offset.
  const std::string segment =
      (fs::path(dir) / "wal-00000000000000000000.seg").string();
  std::error_code ec;
  const std::uint64_t full = fs::file_size(segment, ec);
  out.cut_at = std::min(cut_at_byte, ec ? std::uint64_t{0} : full);
  fs::resize_file(segment, out.cut_at, ec);

  // Optionally maim the newest checkpoint so recover() must fall back.
  if (options.corrupt_newest_checkpoint && !checkpoint_epochs.empty()) {
    const std::string newest =
        (fs::path(dir) / checkpoint_name(checkpoint_epochs.back())).string();
    const std::uint64_t size = fs::file_size(newest, ec);
    if (!ec) fs::resize_file(newest, size / 2, ec);
  }

  // What should survive: the longest intact WAL record prefix, or the
  // best surviving checkpoint if it is newer than the torn WAL.
  const std::uint64_t intact =
      out.cut_at >= kWalHeaderBytes
          ? std::min<std::uint64_t>(
                (out.cut_at - kWalHeaderBytes) / kWalRecordBytes,
                out.accepted)
          : 0;
  std::uint64_t best_checkpoint = 0;
  for (std::size_t i = 0; i < checkpoint_epochs.size(); ++i) {
    const bool corrupted = options.corrupt_newest_checkpoint &&
                           i + 1 == checkpoint_epochs.size();
    if (!corrupted) best_checkpoint = checkpoint_epochs[i];
  }
  out.durable =
      static_cast<std::size_t>(std::max<std::uint64_t>(intact, best_checkpoint));

  RecoverOutcome rec = recover(dir, initial_vertices);
  fs::remove_all(dir, ec);
  out.recover_ok = rec.ok();
  out.checkpoints_tried = rec.checkpoints_tried;
  if (!rec.ok()) return out;

  StreamEngine& revived = *rec.engine;
  out.recovered = static_cast<std::size_t>(revived.graph().epoch());

  // Uncrashed reference fed exactly the durable accepted prefix.
  StreamEngine reference{DynamicGraph(initial_vertices)};
  CoreObserver ref_cores;
  MisObserver ref_mis(options.mis_seed);
  reference.attach(&ref_cores);
  reference.attach(&ref_mis);
  for (std::size_t i = 0; i < out.durable; ++i) {
    reference.apply(accepted_log[i]);
  }

  CoreObserver cores;
  MisObserver mis(options.mis_seed);
  revived.attach(&cores);  // recompute-on-attach resynchronizes
  revived.attach(&mis);

  compare_revived(reference.graph(), ref_cores, ref_mis, revived.graph(),
                  cores, mis, out);
  // Accepted totals only: rejections after the winning checkpoint are
  // not WAL-logged (accepted-events-only by design), so the revived
  // rejected counter is the checkpoint's, not the reference's zero.
  out.counters_match = reference.accepted() == revived.accepted();
  return out;
}

}  // namespace structnet
