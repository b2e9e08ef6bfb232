#include "topology/components.h"

#include <span>
#include <utility>

#include "obs/obs.h"
#include "util/cancel.h"

namespace psph::topology {

std::size_t ComponentCounter::lookup(VertexId v) const {
  return index_.find(v, [&](std::size_t i) { return vertices_[i] == v; });
}

std::uint32_t ComponentCounter::intern(VertexId v) {
  const std::size_t next = vertices_.size();
  const std::size_t index = index_.find_or_insert(
      v, next, [&](std::size_t i) { return vertices_[i] == v; });
  if (index == next) {
    vertices_.push_back(v);
    parent_.push_back(static_cast<std::uint32_t>(index));
    rank_.push_back(0);
    ++components_;
  }
  return static_cast<std::uint32_t>(index);
}

std::uint32_t ComponentCounter::find(std::uint32_t x) {
  // Path halving: every other node on the path skips to its grandparent.
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

void ComponentCounter::add_row(const VertexId* row, std::size_t width) {
  if (width == 0) return;
  // Union by rank against the row's running root, found once per vertex.
  std::uint32_t root = find(intern(row[0]));
  for (std::size_t i = 1; i < width; ++i) {
    std::uint32_t other = find(intern(row[i]));
    if (other == root) continue;
    if (rank_[root] < rank_[other]) std::swap(root, other);
    parent_[other] = root;
    if (rank_[root] == rank_[other]) ++rank_[root];
    --components_;
  }
}

bool ComponentCounter::same(VertexId a, VertexId b) {
  const std::size_t ia = lookup(a);
  const std::size_t ib = lookup(b);
  return ia != util::FlatIndex::kAbsent && ib != util::FlatIndex::kAbsent &&
         find(static_cast<std::uint32_t>(ia)) ==
             find(static_cast<std::uint32_t>(ib));
}

ComponentCounter components_of(const SimplicialComplex& k) {
  obs::SpanTimer span("homology.components");
  ComponentCounter counter;
  std::size_t rows = 0;
  k.for_each_facet([&](std::span<const VertexId> facet) {
    // Cooperative cancellation (util/cancel.h), every 4096 facets.
    if ((rows++ & 4095) == 0) util::poll_deadline();
    counter.add_row(facet.data(), facet.size());
  });
  return counter;
}

std::size_t connected_component_count(const SimplicialComplex& k) {
  return components_of(k).component_count();
}

bool is_connected(const SimplicialComplex& k) {
  return connected_component_count(k) == 1;
}

}  // namespace psph::topology
