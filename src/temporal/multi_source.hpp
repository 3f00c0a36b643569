// Lane-packed multi-source temporal sweeps: up to 64 queries share ONE
// ascending pass over the contact index's per-unit edge stream,
// amortizing the scan every caller used to repeat once per query
// (MS-BFS applied to the temporal kernels). Two kernels:
//
//   * csr_earliest_arrival_batch — up to 64 earliest-arrival sources
//     (all-pairs callers, the broker's TemporalDistances lanes);
//   * csr_fastest_departure_batch — up to 64 (source, target, t_start)
//     fastest-journey profiles: the one fastest-journey kernel (the
//     broker's FastestJourney lanes; a lone query is a one-lane block).
//
// Earliest arrival: lane layout. Lane l of a batch is source
// sources[l]. Per vertex the workspace keeps one 64-bit reached word
// (bit l set = lane l has reached the vertex) plus a lanes-strided
// arrival row. A unit's closure fires word-wide: for an edge (u, v)
// with words mu / mv, the lanes `mu & ~mv` fire u -> v and `mv & ~mu`
// fire v -> u — per lane at most one direction can fire, so one OR per
// endpoint replays up to 64 scalar firings.
//
// Earliest arrival: the firing log. When asked (record_via), a sweep
// also appends one (vertex, from, lanes) entry per word-wide fire, in
// firing order; each lane's sources open the log with from =
// kInvalidVertex. Each (vertex, lane) a sweep reaches is in exactly one
// entry, whose `from` is the vertex's parent on that lane's via tree,
// and a parent always fires before its child. So the log is every
// lane's journey tree in one list, sized by the fires rather than by
// n * lanes (at worst one 16-byte entry per reached (vertex, lane)),
// and a reverse pass over it visits every subtree before its root —
// what the betweenness fold (fold_relay_credits) needs.
//
// Earliest arrival: fixed-point identity. The batch kernel replays the
// legacy scalar sequence (temporal_kernels.hpp) exactly, per lane:
//   * pass 1 scans the whole unit in ascending edge id — per lane the
//     same scan the scalar kernel makes, because a lane's firing
//     decision reads only that lane's bits;
//   * re-scan passes keep edges whose merged word `mu | mv` is not yet
//     full — a per-lane superset of the scalar both-unreached list
//     whose extra edges have both endpoints reached in that lane and so
//     can never fire it;
//   * arrivals are written only on a lane's FIRST fire at a vertex
//     (bits enter the word exactly once), so every lane's arrival
//     times and via parents (read off the firing log) are
//     bit-identical to csr_earliest_arrival.
// The unit-activity probe generalizes the scalar one: a unit can fire
// iff some still-pending vertex w has a contact at t with a neighbor
// whose word carries a bit w lacks (`word(nbr) & ~word(w) != 0`).
//
// Fastest departure: shared union-find. A one-pass profile sweep
// (temporal_kernels.hpp argues why one pass finds the minimum span)
// spends its time building each unit's union-find over the unit's
// edges; the resulting components are a property of the snapshot, not
// of the query. The kernel builds each unit's union-find ONCE and gives
// every lane its own lanes-strided departure row (per vertex, the
// latest departure that has arrived by now). Each lane's result equals
// its one-lane run, whatever block it shares:
//   * component membership does not depend on union order, and a
//     component's value is the max over its members, so merging a
//     lane's rows lane-wise into the root and copying the root row back
//     to every member gives every member the component's latest
//     departure, lane by lane;
//   * a lane's source contributes "depart now" only from that lane's
//     own t_start on (before it the lane's row is empty and stays
//     empty), so one block mixes t_starts and the sweep starts at the
//     block's earliest one;
//   * a lane records a candidate span only when its target's departure
//     strictly improves, and stops recording once it reaches span 0;
//     the sweep ends when every lane is done or at the horizon.
// The span equals legacy::fastest_journey's (journeys.hpp), the oracle
// the tests check every lane against.
//
// Works on both index types (TemporalCsr and DeltaTemporalCsr) through
// the shared kernel iteration contract. All-sources callers run through
// one loop, for_each_source_block below: blocks of kMaxLanes sources,
// one shard per block (a fixed block -> shard mapping, so results stay
// bit-identical at any thread count). Betweenness folds each block's
// firing log; closeness, path length, flooding and the distance matrix
// read arrivals lane by lane (for_each_source_lane). The QueryBroker
// lane-packs batched TemporalDistances and FastestJourney queries into
// these sweeps (serve/broker.cpp); serving never records the log.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "parallel/parallel.hpp"
#include "temporal/temporal_csr.hpp"

namespace structnet {

/// Reusable scratch for lane-packed sweeps: one reached word per vertex
/// plus lanes-strided arrival rows, epoch-stamped so a new sweep
/// invalidates everything without clearing (pooled per worker slot
/// exactly like TemporalWorkspace), and the firing log of record_via
/// sweeps. Fastest-departure sweeps reuse the arrival rows as departure
/// rows and add a per-unit union-find, allocated only once such a sweep
/// runs; the betweenness fold reuses them as subtree counters.
class MultiSourceWorkspace {
 public:
  /// Lanes per sweep: one bit of the per-vertex reached word each.
  static constexpr std::size_t kMaxLanes = 64;

  /// One word-wide fire of a record_via sweep: the lanes in `lanes`
  /// reached `vertex` over a contact with `from` (kInvalidVertex for a
  /// lane's source).
  struct Fire {
    VertexId vertex = kInvalidVertex;
    VertexId from = kInvalidVertex;
    std::uint64_t lanes = 0;
  };

  std::size_t lane_count() const { return lanes_; }
  std::size_t vertex_count() const { return n_; }

  /// Lane l reached v in the last sweep?
  bool reached(std::size_t lane, VertexId v) const {
    return stamp_[v] == epoch_ && ((mask_[v] >> lane) & 1u) != 0;
  }
  /// Completion time of v in lane l (kNeverTime when unreached) —
  /// bit-identical to TemporalWorkspace::arrival after a scalar sweep
  /// from the lane's source.
  TimeUnit arrival(std::size_t lane, VertexId v) const {
    return reached(lane, v)
               ? arrival_[static_cast<std::size_t>(v) * lanes_ + lane]
               : kNeverTime;
  }
  /// The last sweep's firing log in firing order (empty unless it ran
  /// with record_via). Lane l's parent of v — TemporalWorkspace's
  /// via(v).from after the scalar sweep — is the `from` of the one entry
  /// whose vertex is v and whose lanes include l.
  std::span<const Fire> fires() const { return fires_; }
  /// Vertices lane l reached (including its source).
  std::size_t reached_count(std::size_t lane) const { return reached_[lane]; }

  /// Lane l's completion row for all vertices — the exact bytes
  /// TemporalWorkspace::to_earliest_arrival().completion holds after
  /// the scalar sweep (what the TemporalDistances payload carries).
  std::vector<TimeUnit> completion(std::size_t lane) const {
    std::vector<TimeUnit> out(n_);
    for (std::size_t v = 0; v < n_; ++v) {
      out[v] = arrival(lane, static_cast<VertexId>(v));
    }
    return out;
  }

  /// Adds the last record_via sweep's betweenness credits into credit:
  /// for every lane and every reached vertex v other than the lane's
  /// source, the number of vertices below v on the lane's via tree —
  /// the destinations whose canonical journey relays through v. One
  /// reverse pass over the firing log: a parent fires before its child,
  /// so each entry's subtree counts are complete when its turn comes,
  /// and it adds them (plus itself) into its parent's. The counts live
  /// in the arrival rows (sub-counts stay below n), so the fold consumes
  /// the sweep: afterwards the workspace reads as an empty sweep.
  /// Credits are whole numbers below 2^53, so every sum is exact in any
  /// order.
  void fold_relay_credits(std::span<double> credit) {
    TimeUnit* const rows = arrival_.data();
    std::fill_n(rows, n_ * lanes_, TimeUnit{0});
    for (auto f = fires_.rbegin(); f != fires_.rend(); ++f) {
      if (f->from == kInvalidVertex) continue;  // a source: never credited
      const TimeUnit* sub = rows + static_cast<std::size_t>(f->vertex) * lanes_;
      TimeUnit* up = rows + static_cast<std::size_t>(f->from) * lanes_;
      std::uint64_t below = 0;
      for (std::uint64_t bits = f->lanes; bits != 0; bits &= bits - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(bits));
        below += sub[l];
        up[l] += sub[l] + 1;
      }
      credit[f->vertex] += static_cast<double>(below);
    }
    begin_sweep();
  }

 private:
  friend struct detail::WorkspaceOps;

  void bind(std::size_t n, std::size_t lanes, bool record_via) {
    if (n_ != n) {
      n_ = n;
      // epoch_ keeps counting: zeroed stamps are always stale.
      stamp_.assign(n, 0);
      mask_.assign(n, 0);
    }
    lanes_ = lanes;
    record_via_ = record_via;
    // Strided rows grow to the high-water lane count and are never
    // cleared: reads are guarded by the epoch-stamped reached bits.
    if (arrival_.size() < n * lanes) arrival_.resize(n * lanes);
  }
  void begin_sweep() {
    ++epoch_;
    reached_.fill(0);
    fires_.clear();
  }
  std::uint64_t word(VertexId v) const {
    return stamp_[v] == epoch_ ? mask_[v] : 0;
  }
  /// Sizes the per-unit union-find of fastest-departure sweeps (kept
  /// out of bind() so earliest-arrival sweeps never allocate it).
  void bind_union_find(std::size_t n) {
    if (uf_.size() != n) uf_.assign(n, UnionFindNode{});
  }
  /// Opens a fresh union-find generation for one time unit. On the
  /// (rare) 32-bit wrap every node is re-zeroed, so a stale tick can
  /// never alias the current one.
  std::uint32_t next_unit_tick() {
    if (++unit_tick_ == 0) {
      for (UnionFindNode& node : uf_) node.tick = 0;
      unit_tick_ = 1;
    }
    return unit_tick_;
  }
  /// v's departure row in a fastest sweep: lanes_ entries holding d + 1
  /// (0 = no journey has arrived yet, so merging is a plain lane-wise
  /// max). Meaningful only while has_row(v); claim_row(v) makes it so
  /// without initializing it.
  TimeUnit* row(VertexId v) {
    return arrival_.data() + static_cast<std::size_t>(v) * lanes_;
  }
  bool has_row(VertexId v) const { return stamp_[v] == epoch_; }
  void claim_row(VertexId v) {
    stamp_[v] = epoch_;
    mask_[v] = 0;  // the earliest-arrival accessors then see nothing
  }
  /// ORs `bits` into v's reached word and stamps each newly set lane's
  /// arrival (and logs the fire) — the word-wide set_arrival. Callers
  /// pass only lanes not yet set (bits = other & ~word(v)), so every
  /// (vertex, lane) arrival is written exactly once per sweep.
  void fire(VertexId v, std::uint64_t bits, VertexId from, TimeUnit t) {
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      mask_[v] = 0;
    }
    mask_[v] |= bits;
    if (record_via_) log_fire(v, from, bits);
    const std::size_t base = static_cast<std::size_t>(v) * lanes_;
    while (bits != 0) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      arrival_[base + l] = t;
      ++reached_[l];
    }
  }

  /// Appends to the firing log. Kept out of line so the serving sweeps,
  /// which never log, keep fire() as small as it was without the log.
  [[gnu::noinline]] void log_fire(VertexId v, VertexId from,
                                  std::uint64_t bits) {
    fires_.push_back({v, from, bits});
  }

  std::size_t n_ = 0;
  std::size_t lanes_ = 0;
  bool record_via_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> stamp_;  // mask_ valid markers
  std::vector<std::uint64_t> mask_;   // per-vertex reached word
  std::vector<TimeUnit> arrival_;     // n * lanes_, stride lanes_
  std::vector<Fire> fires_;           // firing log, only when record_via
  std::array<std::size_t, kMaxLanes> reached_{};
  // pending_: contact-bearing vertices some lane has not reached;
  // live_edges_: per-unit re-scan list (merged word not yet full).
  std::vector<VertexId> pending_;
  std::vector<EdgeId> live_edges_;
  // Has-contacts vertex list cached per index state (see
  // WorkspaceOps::refresh_contact_list).
  std::uint64_t contact_state_ = 0;
  std::vector<VertexId> contact_list_;
  // Fastest-departure sweeps: the per-unit union-find (a node belongs
  // to the current unit iff its tick matches) and its lazy-init log,
  // i.e. the vertices the unit's edges touch.
  struct UnionFindNode {
    VertexId parent = 0;
    std::uint32_t tick = 0;
  };
  std::uint32_t unit_tick_ = 0;
  std::vector<UnionFindNode> uf_;
  std::vector<VertexId> touched_;
};

/// Number of kMaxLanes-sized source blocks covering an all-sources
/// range [0, n) — what converted all-pairs callers shard over (grain 1,
/// fixed block -> shard mapping).
inline std::size_t lane_block_count(std::size_t n) {
  return (n + MultiSourceWorkspace::kMaxLanes - 1) /
         MultiSourceWorkspace::kMaxLanes;
}

/// Earliest arrival from up to kMaxLanes sources in ONE pass over the
/// contact stream, departing at or after t_start; lane l's results are
/// bit-identical to csr_earliest_arrival(csr, sources[l], t_start, ...)
/// (arrivals always; via parents, through fires(), when record_via is
/// set). Duplicate sources are allowed (their lanes evolve
/// identically). Requires 1 <= sources.size() <= kMaxLanes.
template <class Index>
void csr_earliest_arrival_batch(const Index& csr,
                                std::span<const VertexId> sources,
                                TimeUnit t_start, MultiSourceWorkspace& ws,
                                bool record_via = false);

/// The all-sources loop: sweeps the sources [0, csr.vertex_count())
/// in kMaxLanes-wide blocks, one shard per block (grain 1: the block ->
/// shard mapping depends on n alone), one csr_earliest_arrival_batch
/// from t_start per block on the worker slot's pooled workspace. Then
/// fn(block, worker, sources, ws) runs with the block's sources
/// (ascending; lane l is sources[l]) and that workspace; `worker`
/// indexes per-slot accumulators (it is below resolve_threads(threads)).
template <class Index, class Fn>
void for_each_source_block(const Index& csr, TimeUnit t_start,
                           bool record_via, std::size_t threads, Fn&& fn) {
  constexpr std::size_t kLanes = MultiSourceWorkspace::kMaxLanes;
  const std::size_t n = csr.vertex_count();
  std::vector<MultiSourceWorkspace> ws(resolve_threads(threads));
  parallel_for_shards(
      0, lane_block_count(n), /*grain=*/1, threads,
      [&](std::size_t block, std::size_t, std::size_t, std::size_t worker) {
        MultiSourceWorkspace& w = ws[worker];
        const std::size_t s0 = block * kLanes;
        const std::size_t lanes = std::min(kLanes, n - s0);
        std::array<VertexId, kLanes> srcs;
        for (std::size_t l = 0; l < lanes; ++l) {
          srcs[l] = static_cast<VertexId>(s0 + l);
        }
        const std::span<const VertexId> block_sources(srcs.data(), lanes);
        csr_earliest_arrival_batch(csr, block_sources, t_start, w,
                                   record_via);
        fn(block, worker, block_sources, w);
      });
}

/// for_each_source_block without the firing log, read lane by lane:
/// fn(block, worker, lane, source, ws) runs for each lane in ascending
/// source order. Returning false from fn abandons the rest of the block.
template <class Index, class Fn>
void for_each_source_lane(const Index& csr, TimeUnit t_start,
                          std::size_t threads, Fn&& fn) {
  for_each_source_block(
      csr, t_start, /*record_via=*/false, threads,
      [&](std::size_t block, std::size_t worker,
          std::span<const VertexId> sources, MultiSourceWorkspace& w) {
        for (std::size_t l = 0; l < sources.size(); ++l) {
          if (!fn(block, worker, l, sources[l], std::as_const(w))) return;
        }
      });
}

/// One lane of a fastest-departure batch: one fastest-journey query.
struct FastestLane {
  VertexId source = kInvalidVertex;
  VertexId target = kInvalidVertex;
  TimeUnit t_start = 0;
};

/// Fastest-journey departure profiles for up to kMaxLanes lanes in ONE
/// ascending pass over the contact stream, each time unit's union-find
/// built once and shared by every lane. Entry l of the result is the
/// (departure, arrival) pair of a span-minimal lanes[l].source ->
/// lanes[l].target journey departing at or after lanes[l].t_start,
/// std::nullopt when unreachable — bit-identical to the one-lane run of
/// lanes[l]. Lanes may repeat and may mix t_starts (t_start >= horizon
/// included). Requires 1 <= lanes.size() <= kMaxLanes and
/// source != target.
template <class Index>
std::vector<std::optional<std::pair<TimeUnit, TimeUnit>>>
csr_fastest_departure_batch(const Index& csr,
                            std::span<const FastestLane> lanes,
                            MultiSourceWorkspace& ws);

}  // namespace structnet
