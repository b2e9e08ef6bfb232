#include "topology/subdivision.h"

#include <functional>
#include <span>
#include <unordered_map>

namespace psph::topology {

Subdivision barycentric_subdivision(const SimplicialComplex& k) {
  Subdivision result;
  std::unordered_map<Simplex, VertexId, SimplexHash> vertex_of;

  const auto intern = [&](const Simplex& s) -> VertexId {
    const auto it = vertex_of.find(s);
    if (it != vertex_of.end()) return it->second;
    const VertexId id = static_cast<VertexId>(result.carriers.size());
    result.carriers.push_back(s);
    vertex_of.emplace(s, id);
    return id;
  };

  // For each facet, enumerate the maximal chains of its face poset. A chain
  // through a facet of dimension d has the form σ_0 ⊂ ... ⊂ σ_d with
  // dim σ_i = i; equivalently an ordering v_0, v_1, ... of the facet's
  // vertices where σ_i = {v_0..v_i}. So chains correspond to permutations.
  k.for_each_facet([&](std::span<const VertexId> facet) {
    std::vector<VertexId> order(facet.begin(), facet.end());
    // Heap's-algorithm-free approach: recurse over "which vertex joins next".
    std::vector<VertexId> chain_vertices;
    std::vector<VertexId> prefix;
    std::function<void(std::vector<VertexId>&)> recurse =
        [&](std::vector<VertexId>& remaining) {
          if (remaining.empty()) {
            result.complex.add_facet(Simplex(chain_vertices));
            return;
          }
          for (std::size_t i = 0; i < remaining.size(); ++i) {
            const VertexId v = remaining[i];
            prefix.push_back(v);
            chain_vertices.push_back(intern(Simplex(prefix)));
            remaining.erase(remaining.begin() +
                            static_cast<std::ptrdiff_t>(i));
            recurse(remaining);
            remaining.insert(
                remaining.begin() + static_cast<std::ptrdiff_t>(i), v);
            chain_vertices.pop_back();
            prefix.pop_back();
          }
        };
    recurse(order);
  });
  return result;
}

Subdivision iterated_barycentric_subdivision(const SimplicialComplex& k,
                                             int rounds) {
  Subdivision result;
  result.complex = k;
  // Identity carriers for round zero: each vertex carries itself.
  for (VertexId v : k.vertex_ids()) {
    while (result.carriers.size() <= v) {
      result.carriers.push_back(Simplex());
    }
    result.carriers[v] = Simplex({v});
  }
  for (int i = 0; i < rounds; ++i) {
    result = barycentric_subdivision(result.complex);
  }
  return result;
}

}  // namespace psph::topology
