#include "oracle/greedy_collapse.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

namespace psph::oracle {

using topology::Simplex;
using topology::SimplexHash;
using topology::SimplicialComplex;
using topology::VertexId;

namespace {

// Face-poset node bookkeeping for the greedy collapse.
struct Poset {
  std::vector<Simplex> faces;                      // index -> simplex
  std::unordered_map<Simplex, std::size_t, SimplexHash> index;
  std::vector<std::vector<std::size_t>> cofaces;   // codim-1 cofaces
  std::vector<std::vector<std::size_t>> subfaces;  // codim-1 faces
  std::vector<bool> alive;
  std::vector<std::size_t> live_coface_count;
};

Poset build_poset(const SimplicialComplex& k) {
  Poset poset;
  for (int d = 0; d <= k.dimension(); ++d) {
    const std::size_t width = static_cast<std::size_t>(d) + 1;
    const std::span<const VertexId> rows = k.face_rows_of_dim(d);
    for (std::size_t at = 0; at < rows.size(); at += width) {
      const Simplex s(rows.subspan(at, width));
      poset.index.emplace(s, poset.faces.size());
      poset.faces.push_back(s);
    }
  }
  const std::size_t n = poset.faces.size();
  poset.cofaces.assign(n, {});
  poset.subfaces.assign(n, {});
  poset.alive.assign(n, true);
  poset.live_coface_count.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Simplex& s = poset.faces[i];
    if (s.dimension() == 0) continue;
    for (std::size_t omit = 0; omit < s.size(); ++omit) {
      const std::size_t sub = poset.index.at(s.face_without_index(omit));
      poset.cofaces[sub].push_back(i);
      poset.subfaces[i].push_back(sub);
      ++poset.live_coface_count[sub];
    }
  }
  return poset;
}

}  // namespace

CollapseResult collapse_greedily(const SimplicialComplex& k) {
  CollapseResult result;
  if (k.empty()) return result;

  Poset poset = build_poset(k);
  const std::size_t n = poset.faces.size();

  // Seed the work list with all current free faces (exactly one live
  // codim-1 coface; see header for why that implies a unique coface overall).
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < n; ++i) {
    if (poset.live_coface_count[i] == 1) work.push_back(i);
  }
  // Prefer collapsing high-dimensional pairs first: sort the seed list so
  // larger faces pop first (the work list is used as a stack).
  std::sort(work.begin(), work.end(), [&](std::size_t a, std::size_t b) {
    return poset.faces[a].dimension() < poset.faces[b].dimension();
  });

  std::size_t live = n;
  while (!work.empty()) {
    const std::size_t sigma = work.back();
    work.pop_back();
    if (!poset.alive[sigma] || poset.live_coface_count[sigma] != 1) continue;
    // Find the unique live coface tau.
    std::size_t tau = n;
    for (std::size_t candidate : poset.cofaces[sigma]) {
      if (poset.alive[candidate]) {
        tau = candidate;
        break;
      }
    }
    if (tau == n) continue;  // stale entry
    // tau must itself have no live cofaces (it must be a facet of the
    // current complex) for (sigma, tau) to be removable.
    if (poset.live_coface_count[tau] != 0) continue;

    poset.alive[sigma] = false;
    poset.alive[tau] = false;
    live -= 2;
    ++result.steps;

    // Removing tau decrements the coface counts of its codim-1 faces;
    // any that drop to one become new free-face candidates.
    for (std::size_t sub : poset.subfaces[tau]) {
      if (!poset.alive[sub]) continue;
      if (--poset.live_coface_count[sub] == 1) work.push_back(sub);
    }
    // Removing sigma likewise affects *its* subfaces.
    for (std::size_t sub : poset.subfaces[sigma]) {
      if (!poset.alive[sub]) continue;
      if (--poset.live_coface_count[sub] == 1) work.push_back(sub);
    }
  }

  result.remaining_faces = live;
  result.collapsed_to_point = (live == 1);
  return result;
}

bool collapses_to_point(const SimplicialComplex& k) {
  return collapse_greedily(k).collapsed_to_point;
}

}  // namespace psph::oracle
