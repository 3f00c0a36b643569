#include "temporal/temporal_delta.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/temporal_kernels.hpp"

namespace structnet {

namespace {
// The per-vertex / per-edge delta vectors are tiny but numerous, and
// the fold path touches several of them per event. Jumping straight to
// a small capacity on first touch removes the 1->2->4 realloc ladder
// from that hot path.
template <typename Vec>
void reserve_small(Vec& v) {
  if (v.capacity() == 0) v.reserve(4);
}

std::uint64_t label_bloom(std::span<const TimeUnit> labels) {
  std::uint64_t bloom = 0;
  for (const TimeUnit t : labels) bloom |= 1ull << (t & 63);
  return bloom;
}

inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}
}  // namespace

DeltaTemporalCsr::DeltaTemporalCsr(const TemporalGraph& eg) {
  STRUCTNET_OBS_SPAN("temporal.delta_rebase");
  base_ = TemporalCsr(eg);
  n_ = base_.vertex_count();
  edge_of_.reset(base_.edge_count());
  for (EdgeId e = 0; e < base_.edge_count(); ++e) {
    edge_of_.insert(endpoint_key(base_.edge_u(e), base_.edge_v(e)), e,
                    label_bloom(base_.edge_labels(e)));
  }
  clear_delta();
}

void DeltaTemporalCsr::compact() {
  STRUCTNET_OBS_SPAN("temporal.delta_compact");
  // Each edge with delta state: its adds become its merged labels (its
  // live base labels appended, then merged), and its map entry drops the
  // slot and gets its Bloom word recomputed, not ORed into: add_contact
  // reads a zero word as "the base adjacency omits this edge".
  for (EdgeId e = 0; e < edge_count(); ++e) {
    if (edge_slot_[e] == kInvalidEdge) continue;
    EdgeDelta& d = edge_deltas_[edge_slot_[e]];
    if (e < base_m_) {
      const auto base = base_.edge_labels(e);
      const auto mid = static_cast<std::ptrdiff_t>(d.added.size());
      std::set_difference(base.begin(), base.end(), d.removed.begin(),
                          d.removed.end(), std::back_inserter(d.added));
      std::inplace_merge(d.added.begin(), d.added.begin() + mid,
                         d.added.end());
    }
    EdgeIdMap::Slot& ms =
        *edge_of_.find_slot(endpoint_key(edge_u(e), edge_v(e)));
    ms.dslot = kInvalidEdge;
    ms.bloom = label_bloom(d.added);
  }
  base_ = TemporalCsr(
      n_, horizon(), edge_count(),
      [this](EdgeId e) { return std::pair{edge_u(e), edge_v(e)}; },
      [this](EdgeId e) -> std::span<const TimeUnit> {
        const EdgeId slot = edge_slot_[e];
        if (slot != kInvalidEdge) return edge_deltas_[slot].added;
        return base_.edge_labels(e);
      });
  clear_delta();
}

void DeltaTemporalCsr::clear_delta() {
  state_id_ = detail::next_index_state_id();
  base_n_ = base_.vertex_count();
  base_m_ = base_.edge_count();
  adds_ = tombs_ = 0;
  dedge_u_.clear();
  dedge_v_.clear();
  edge_slot_.assign(base_m_, kInvalidEdge);
  edge_deltas_.clear();
  vadd_.assign(n_, {});
  vdel_.assign(n_, {});
  vnewadj_.assign(n_, {});
  tadd_.assign(horizon(), {});
  tdel_.assign(horizon(), {});
}

void DeltaTemporalCsr::prefetch_contact(VertexId u, VertexId v,
                                        TimeUnit t) const {
  if (u >= n_ || v >= n_ || u == v || t >= horizon()) return;
  prefetch(edge_of_.probe_line(endpoint_key(u, v)));
  prefetch(&vadd_[u]);
  prefetch(&vadd_[v]);
  prefetch(tadd_[t].data());
}

void DeltaTemporalCsr::grow_vertices(std::size_t n) {
  if (n <= n_) return;
  state_id_ = detail::next_index_state_id();
  n_ = n;
  vadd_.resize(n_);
  vdel_.resize(n_);
  vnewadj_.resize(n_);
}

DeltaTemporalCsr::EdgeIdMap::Slot& DeltaTemporalCsr::find_or_create_edge(
    VertexId u, VertexId v) {
  const auto key = endpoint_key(u, v);
  if (EdgeIdMap::Slot* found = edge_of_.find_slot(key)) return *found;
  // First touch after the base snapshot: the id continues the base
  // sequence in first-touch order, matching what TemporalGraph assigns
  // when the same mutations are replayed onto it (edge-id tie-breaks in
  // the kernels depend on this).
  const auto e = static_cast<EdgeId>(base_m_ + dedge_u_.size());
  dedge_u_.push_back(u);
  dedge_v_.push_back(v);
  edge_slot_.push_back(kInvalidEdge);
  return edge_of_.insert(key, e, 0);
}

bool DeltaTemporalCsr::add_contact(VertexId u, VertexId v, TimeUnit t) {
  assert(u < n_ && v < n_ && u != v && t < horizon());
  // Every long-latency line this op touches is addressable up front;
  // issuing the loads now lets the map probe, the per-vertex contact
  // vectors, and the per-unit vector resolve in parallel instead of as
  // a serial miss chain (the fold path is memory-latency bound).
  prefetch(edge_of_.probe_line(endpoint_key(u, v)));
  prefetch(&vadd_[u]);
  prefetch(&vadd_[v]);
  prefetch(tadd_[t].data());
  EdgeIdMap::Slot& ms = find_or_create_edge(u, v);
  const EdgeId e = ms.id;
  bool base_labeled = false;
  if (e < base_m_) {
    if (ms.dslot != kInvalidEdge) {
      auto& removed = edge_deltas_[ms.dslot].removed;
      const auto rit = std::lower_bound(removed.begin(), removed.end(), t);
      if (rit != removed.end() && *rit == t) {
        // Resurrect a tombstoned base contact: the base entry becomes
        // live again, so no delta add is recorded (keeps added disjoint
        // from live base labels).
        removed.erase(rit);
        erase_tombstone(e, u, v, t);
        --tombs_;
        state_id_ = detail::next_index_state_id();
        return true;
      }
    }
    base_labeled = ms.bloom != 0;
    // The slot's Bloom filter of base labels screens the duplicate
    // check: a clear bit proves t is not a base label, so the common
    // case never touches the base CSR here.
    if ((ms.bloom >> (t & 63)) & 1) {
      const auto labels = base_.edge_labels(e);
      if (std::binary_search(labels.begin(), labels.end(), t)) return false;
    }
  }
  EdgeDelta& d = delta_of(ms);
  const auto ait = std::lower_bound(d.added.begin(), d.added.end(), t);
  if (ait != d.added.end() && *ait == t) return false;
  const auto apos = ait - d.added.begin();
  reserve_small(d.added);
  d.added.insert(d.added.begin() + apos, t);
  record_add(e, u, v, t, base_labeled);
  ++adds_;
  state_id_ = detail::next_index_state_id();
  return true;
}

bool DeltaTemporalCsr::remove_label(VertexId u, VertexId v, TimeUnit t) {
  if (u >= n_ || v >= n_ || t >= horizon()) return false;
  prefetch(edge_of_.probe_line(endpoint_key(u, v)));
  prefetch(&vadd_[u]);
  prefetch(&vadd_[v]);
  prefetch(&vdel_[u]);
  prefetch(&vdel_[v]);
  EdgeIdMap::Slot* ms = edge_of_.find_slot(endpoint_key(u, v));
  if (ms == nullptr) return false;
  const EdgeId e = ms->id;
  if (ms->dslot != kInvalidEdge) {
    auto& added = edge_deltas_[ms->dslot].added;
    const auto ait = std::lower_bound(added.begin(), added.end(), t);
    if (ait != added.end() && *ait == t) {
      added.erase(ait);
      erase_add(e, u, v, t);
      --adds_;
      state_id_ = detail::next_index_state_id();
      return true;
    }
  }
  if (e >= base_m_) return false;
  if (((ms->bloom >> (t & 63)) & 1) == 0) return false;  // not a base label
  const auto labels = base_.edge_labels(e);
  if (!std::binary_search(labels.begin(), labels.end(), t)) return false;
  EdgeDelta& d = delta_of(*ms);
  const auto rit = std::lower_bound(d.removed.begin(), d.removed.end(), t);
  if (rit != d.removed.end() && *rit == t) return false;  // already dead
  const auto rpos = rit - d.removed.begin();
  reserve_small(d.removed);
  d.removed.insert(d.removed.begin() + rpos, t);
  record_tombstone(e, u, v, t);
  ++tombs_;
  state_id_ = detail::next_index_state_id();
  return true;
}

void DeltaTemporalCsr::record_add(EdgeId e, VertexId u, VertexId v, TimeUnit t,
                                  bool base_labeled) {
  const auto ins = [&](VertexId a, VertexId nbr) {
    auto& va = vadd_[a];
    const auto pos = std::lower_bound(
        va.begin(), va.end(), std::pair<TimeUnit, EdgeId>{t, e},
        [](const DeltaContact& c, const std::pair<TimeUnit, EdgeId>& x) {
          return c.t != x.first ? c.t < x.first : c.e < x.second;
        });
    const auto off = pos - va.begin();
    reserve_small(va);
    va.insert(va.begin() + off, DeltaContact{t, nbr, e});
  };
  ins(u, v);
  ins(v, u);
  auto& ta = tadd_[t];
  ta.insert(std::lower_bound(ta.begin(), ta.end(), e), e);
  // Base adjacency lists label-carrying base edges only; everything
  // else (new edges, base edges whose base label set is empty) needs a
  // new-adjacency entry so for_each_incident sees it. Entries persist
  // even if the edge's delta adds later drain — a label-free incident
  // edge is allowed by the kernel contract (first_label_at returns
  // kNeverTime and the kernel skips it). The caller already looked at
  // the base label set, so it passes the verdict in.
  if (base_labeled) return;
  const auto insadj = [&](VertexId a, VertexId nbr) {
    auto& na = vnewadj_[a];
    const auto pos = std::lower_bound(
        na.begin(), na.end(), e,
        [](const std::pair<EdgeId, VertexId>& p, EdgeId x) {
          return p.first < x;
        });
    if (pos == na.end() || pos->first != e) {
      const auto off = pos - na.begin();
      reserve_small(na);
      na.insert(na.begin() + off, {e, nbr});
    }
  };
  insadj(u, v);
  insadj(v, u);
}

void DeltaTemporalCsr::erase_add(EdgeId e, VertexId u, VertexId v,
                                 TimeUnit t) {
  const auto del = [&](VertexId a) {
    auto& va = vadd_[a];
    const auto pos = std::lower_bound(
        va.begin(), va.end(), std::pair<TimeUnit, EdgeId>{t, e},
        [](const DeltaContact& c, const std::pair<TimeUnit, EdgeId>& x) {
          return c.t != x.first ? c.t < x.first : c.e < x.second;
        });
    assert(pos != va.end() && pos->t == t && pos->e == e);
    va.erase(pos);
  };
  del(u);
  del(v);
  auto& ta = tadd_[t];
  const auto pos = std::lower_bound(ta.begin(), ta.end(), e);
  assert(pos != ta.end() && *pos == e);
  ta.erase(pos);
}

void DeltaTemporalCsr::record_tombstone(EdgeId e, VertexId u, VertexId v,
                                        TimeUnit t) {
  const auto ins = [&](VertexId a) {
    auto& vd = vdel_[a];
    const auto pos = std::lower_bound(vd.begin(), vd.end(),
                                      std::pair<TimeUnit, EdgeId>{t, e});
    const auto off = pos - vd.begin();
    reserve_small(vd);
    vd.insert(vd.begin() + off, {t, e});
  };
  ins(u);
  ins(v);
  auto& td = tdel_[t];
  td.insert(std::lower_bound(td.begin(), td.end(), e), e);
}

void DeltaTemporalCsr::erase_tombstone(EdgeId e, VertexId u, VertexId v,
                                       TimeUnit t) {
  const auto del = [&](VertexId a) {
    auto& vd = vdel_[a];
    const auto pos = std::lower_bound(vd.begin(), vd.end(),
                                      std::pair<TimeUnit, EdgeId>{t, e});
    assert(pos != vd.end() && *pos == (std::pair<TimeUnit, EdgeId>{t, e}));
    vd.erase(pos);
  };
  del(u);
  del(v);
  auto& td = tdel_[t];
  const auto pos = std::lower_bound(td.begin(), td.end(), e);
  assert(pos != td.end() && *pos == e);
  td.erase(pos);
}

}  // namespace structnet
