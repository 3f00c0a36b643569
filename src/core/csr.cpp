#include "core/csr.hpp"

#include <algorithm>

namespace structnet {

CsrGraph::CsrGraph(const Graph& g) {
  const std::size_t n = g.vertex_count();
  offsets_.assign(n + 1, 0);
  for (const Graph::Edge& e : g.edges()) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) offsets_[v] += offsets_[v - 1];
  neighbors_.resize(2 * g.edge_count());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Graph::Edge& e : g.edges()) {
    neighbors_[cursor[e.u]++] = e.v;
    neighbors_[cursor[e.v]++] = e.u;
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
              neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]));
  }
}

}  // namespace structnet
