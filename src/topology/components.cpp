#include "topology/components.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"
#include "util/cancel.h"
#include "util/hash.h"

namespace psph::topology {

std::uint32_t ComponentCounter::lookup(VertexId v) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = util::mix64(v) & mask; slots_[at].index != kNone;
       at = (at + 1) & mask) {
    if (slots_[at].id == v) return slots_[at].index;
  }
  return kNone;
}

std::uint32_t ComponentCounter::intern(VertexId v) {
  const auto index = static_cast<std::uint32_t>(parent_.size());
  if ((parent_.size() + 1) * 2 > slots_.size()) {
    // Double (from 16) and reinsert: the table stays at most half full.
    std::vector<Slot> grown(std::max<std::size_t>(16, slots_.size() * 2));
    const std::size_t mask = grown.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.index == kNone) continue;
      std::size_t at = util::mix64(slot.id) & mask;
      while (grown[at].index != kNone) at = (at + 1) & mask;
      grown[at] = slot;
    }
    slots_.swap(grown);
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = util::mix64(v) & mask;
  for (; slots_[at].index != kNone; at = (at + 1) & mask) {
    if (slots_[at].id == v) return slots_[at].index;
  }
  slots_[at] = Slot{v, index};
  parent_.push_back(index);
  rank_.push_back(0);
  ++components_;
  return index;
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
  const std::uint32_t ia = lookup(a);
  const std::uint32_t ib = lookup(b);
  return ia != kNone && ib != kNone && find(ia) == find(ib);
}

ComponentCounter components_of(const SimplicialComplex& k) {
  obs::SpanTimer span("homology.components");
  ComponentCounter counter;
  std::size_t rows = 0;
  k.for_each_facet([&](const Simplex& facet) {
    // Cooperative cancellation (util/cancel.h), every 4096 facets.
    if ((rows++ & 4095) == 0) util::poll_deadline();
    counter.add_row(facet.vertices());
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
