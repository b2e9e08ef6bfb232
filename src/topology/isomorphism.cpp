#include "topology/isomorphism.h"

#include <algorithm>
#include <span>
#include <unordered_set>

namespace psph::topology {

bool is_isomorphism(const SimplicialComplex& a, const SimplicialComplex& b,
                    const VertexMap& map) {
  const std::vector<VertexId> vertices_a = a.vertex_ids();
  // Defined everywhere and injective.
  std::unordered_set<VertexId> image;
  for (VertexId v : vertices_a) {
    const auto it = map.find(v);
    if (it == map.end()) return false;
    if (!image.insert(it->second).second) return false;
  }
  if (image.size() != b.vertex_ids().size()) return false;

  if (a.facet_count() != b.facet_count()) return false;
  bool ok = true;
  a.for_each_facet([&](std::span<const VertexId> facet) {
    if (!ok) return;
    std::vector<VertexId> mapped;
    mapped.reserve(facet.size());
    for (VertexId v : facet) mapped.push_back(map.at(v));
    Simplex image_facet{std::move(mapped)};
    // The image must itself be a facet of b (not merely contained): facets
    // must map onto facets for the inverse map to be simplicial too.
    bool is_facet = false;
    b.for_each_facet([&](std::span<const VertexId> g) {
      if (row_equal(g, image_facet.vertices())) is_facet = true;
    });
    if (!is_facet) ok = false;
  });
  return ok;
}

bool is_automorphism(const SimplicialComplex& k, const VertexMap& map) {
  return is_isomorphism(k, k, map);
}

ComplexFingerprint fingerprint(const SimplicialComplex& k) {
  ComplexFingerprint fp;
  fp.f_vector = k.f_vector();
  std::unordered_map<VertexId, std::size_t> degree;
  k.for_each_facet([&](std::span<const VertexId> facet) {
    fp.facet_dimensions.push_back(static_cast<int>(facet.size()) - 1);
    for (VertexId v : facet) ++degree[v];
  });
  for (const auto& [v, d] : degree) fp.vertex_degrees.push_back(d);
  std::sort(fp.vertex_degrees.begin(), fp.vertex_degrees.end());
  std::sort(fp.facet_dimensions.begin(), fp.facet_dimensions.end());
  return fp;
}

namespace {

struct SearchState {
  std::vector<VertexId> vertices_a;
  std::vector<VertexId> vertices_b;
  const SimplicialComplex* a = nullptr;
  const SimplicialComplex* b = nullptr;
  VertexMap forward;
  std::unordered_set<VertexId> used_b;
};

// Checks the facets of `a` all map to facets of `b` under the (total)
// assignment in state.forward.
bool full_check(const SearchState& state) {
  bool ok = true;
  std::unordered_set<Simplex, SimplexHash> facets_b;
  state.b->for_each_facet(
      [&](std::span<const VertexId> g) { facets_b.insert(Simplex(g)); });
  state.a->for_each_facet([&](std::span<const VertexId> facet) {
    if (!ok) return;
    std::vector<VertexId> mapped;
    for (VertexId v : facet) mapped.push_back(state.forward.at(v));
    if (facets_b.count(Simplex{std::move(mapped)}) == 0) ok = false;
  });
  return ok;
}

bool backtrack(SearchState& state, std::size_t index) {
  if (index == state.vertices_a.size()) return full_check(state);
  const VertexId v = state.vertices_a[index];
  for (VertexId candidate : state.vertices_b) {
    if (state.used_b.count(candidate) != 0) continue;
    state.forward[v] = candidate;
    state.used_b.insert(candidate);
    // Cheap local pruning: every fully mapped facet of `a` restricted to the
    // assigned vertices must be a simplex of `b`.
    bool feasible = true;
    state.a->for_each_facet([&](std::span<const VertexId> facet) {
      if (!feasible || !std::binary_search(facet.begin(), facet.end(), v)) {
        return;
      }
      std::vector<VertexId> mapped;
      for (VertexId u : facet) {
        const auto it = state.forward.find(u);
        if (it != state.forward.end()) mapped.push_back(it->second);
      }
      if (!state.b->contains(Simplex{std::move(mapped)})) feasible = false;
    });
    if (feasible && backtrack(state, index + 1)) return true;
    state.used_b.erase(candidate);
    state.forward.erase(v);
  }
  return false;
}

}  // namespace

std::optional<VertexMap> find_isomorphism(const SimplicialComplex& a,
                                          const SimplicialComplex& b) {
  if (!(fingerprint(a) == fingerprint(b))) return std::nullopt;
  SearchState state;
  state.vertices_a = a.vertex_ids();
  state.vertices_b = b.vertex_ids();
  state.a = &a;
  state.b = &b;
  if (state.vertices_a.size() != state.vertices_b.size()) return std::nullopt;
  if (!backtrack(state, 0)) return std::nullopt;
  return state.forward;
}

}  // namespace psph::topology
