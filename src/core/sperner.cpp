#include "core/sperner.h"

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>

#include "topology/subdivision.h"

namespace psph::core {

SpernerInstance make_subdivided_simplex(int dim, int rounds) {
  if (dim < 0) throw std::invalid_argument("make_subdivided_simplex: dim<0");
  SpernerInstance instance;
  instance.dim = dim;

  // Round 0: the solid simplex on corners 0..dim, each vertex carried by
  // itself.
  std::vector<topology::VertexId> corners;
  for (int i = 0; i <= dim; ++i) {
    corners.push_back(static_cast<topology::VertexId>(i));
  }
  instance.complex = topology::SimplicialComplex();
  instance.complex.add_facet(topology::Simplex(corners));
  instance.carriers.assign(corners.size(), {});
  for (topology::VertexId c : corners) instance.carriers[c] = {c};

  for (int round = 0; round < rounds; ++round) {
    const topology::Subdivision sd =
        topology::barycentric_subdivision(instance.complex);
    // Compose carriers: the carrier of a barycenter of simplex σ is the
    // union of the carriers of σ's vertices.
    std::vector<std::vector<topology::VertexId>> new_carriers(
        sd.carriers.size());
    for (std::size_t v = 0; v < sd.carriers.size(); ++v) {
      std::set<topology::VertexId> merged;
      for (topology::VertexId old : sd.carriers[v].vertices()) {
        merged.insert(instance.carriers[old].begin(),
                      instance.carriers[old].end());
      }
      new_carriers[v].assign(merged.begin(), merged.end());
    }
    instance.complex = sd.complex;
    instance.carriers = std::move(new_carriers);
  }
  return instance;
}

void color_randomly(SpernerInstance& instance, util::Rng& rng) {
  instance.coloring.assign(instance.carriers.size(), 0);
  for (std::size_t v = 0; v < instance.carriers.size(); ++v) {
    instance.coloring[v] = rng.pick(instance.carriers[v]);
  }
}

void color_min_carrier(SpernerInstance& instance) {
  instance.coloring.assign(instance.carriers.size(), 0);
  for (std::size_t v = 0; v < instance.carriers.size(); ++v) {
    instance.coloring[v] = *std::min_element(instance.carriers[v].begin(),
                                             instance.carriers[v].end());
  }
}

bool is_sperner_coloring(const SpernerInstance& instance) {
  if (instance.coloring.size() != instance.carriers.size()) return false;
  for (std::size_t v = 0; v < instance.carriers.size(); ++v) {
    if (!std::binary_search(instance.carriers[v].begin(),
                            instance.carriers[v].end(),
                            instance.coloring[v])) {
      return false;
    }
  }
  return true;
}

std::size_t count_panchromatic(const SpernerInstance& instance) {
  if (!is_sperner_coloring(instance)) {
    throw std::invalid_argument("count_panchromatic: illegal coloring");
  }
  std::size_t count = 0;
  instance.complex.for_each_facet(
      [&](std::span<const topology::VertexId> facet) {
        std::set<topology::VertexId> colors;
        for (topology::VertexId v : facet) {
          colors.insert(instance.coloring[v]);
        }
        if (static_cast<int>(colors.size()) == instance.dim + 1) ++count;
      });
  return count;
}

}  // namespace psph::core
