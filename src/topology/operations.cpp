#include "topology/operations.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_set>

namespace psph::topology {

SimplicialComplex union_of(const SimplicialComplex& a,
                           const SimplicialComplex& b) {
  SimplicialComplex result = a;
  result.merge(b);
  return result;
}

SimplicialComplex union_of(const std::vector<SimplicialComplex>& parts) {
  SimplicialComplex result;
  for (const SimplicialComplex& part : parts) result.merge(part);
  return result;
}

SimplicialComplex intersection_of(const SimplicialComplex& a,
                                  const SimplicialComplex& b) {
  // σ ∈ K ∩ L iff σ is a face of some facet of K and some facet of L, i.e.
  // a face of (fK ∩ fL) for some facet pair. The pairwise meets generate the
  // intersection; add_facet keeps only the maximal ones.
  SimplicialComplex result;
  const std::vector<Simplex> facets_a = a.facets();
  const std::vector<Simplex> facets_b = b.facets();
  for (const Simplex& fa : facets_a) {
    for (const Simplex& fb : facets_b) {
      Simplex meet = fa.intersect(fb);
      if (!meet.empty()) result.add_facet(std::move(meet));
    }
  }
  return result;
}

SimplicialComplex star(const SimplicialComplex& k, const Simplex& s) {
  SimplicialComplex result;
  k.for_each_facet([&](std::span<const VertexId> facet) {
    if (std::includes(facet.begin(), facet.end(), s.vertices().begin(),
                      s.vertices().end())) {
      result.add_facet(Simplex(facet));
    }
  });
  return result;
}

SimplicialComplex link(const SimplicialComplex& k, const Simplex& s) {
  SimplicialComplex result;
  k.for_each_facet([&](std::span<const VertexId> facet_row) {
    const Simplex facet(facet_row);
    if (!s.is_face_of(facet)) return;
    // The link contribution of this facet is facet \ s.
    Simplex remainder = facet;
    for (VertexId v : s.vertices()) remainder = remainder.without_vertex(v);
    if (!remainder.empty()) result.add_facet(std::move(remainder));
  });
  return result;
}

SimplicialComplex skeleton(const SimplicialComplex& k, int d) {
  SimplicialComplex result;
  if (d < 0) return result;
  k.for_each_facet([&](std::span<const VertexId> facet_row) {
    const Simplex facet(facet_row);
    if (facet.dimension() <= d) {
      result.add_facet(facet);
    } else {
      for (Simplex& face : facet.faces_of_dim(d)) {
        result.add_facet(std::move(face));
      }
    }
  });
  return result;
}

SimplicialComplex join(const SimplicialComplex& a,
                       const SimplicialComplex& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  // Vertex sets must be disjoint for the join to be a simplicial complex.
  const std::vector<VertexId> va = a.vertex_ids();
  const std::vector<VertexId> vb = b.vertex_ids();
  std::vector<VertexId> common;
  std::set_intersection(va.begin(), va.end(), vb.begin(), vb.end(),
                        std::back_inserter(common));
  if (!common.empty()) {
    throw std::invalid_argument("join: vertex sets are not disjoint");
  }
  SimplicialComplex result;
  a.for_each_facet([&](std::span<const VertexId> fa) {
    b.for_each_facet([&](std::span<const VertexId> fb) {
      result.add_facet(Simplex(fa).unite(Simplex(fb)));
    });
  });
  return result;
}

SimplicialComplex induced(const SimplicialComplex& k,
                          const std::vector<VertexId>& keep) {
  std::unordered_set<VertexId> allowed(keep.begin(), keep.end());
  SimplicialComplex result;
  k.for_each_facet([&](std::span<const VertexId> facet) {
    std::vector<VertexId> kept;
    for (VertexId v : facet) {
      if (allowed.count(v) != 0) kept.push_back(v);
    }
    if (!kept.empty()) result.add_facet(Simplex(std::move(kept)));
  });
  return result;
}

SimplicialComplex boundary_complex(const Simplex& s) {
  SimplicialComplex result;
  if (s.dimension() < 1) return result;  // a vertex has empty boundary
  for (std::size_t i = 0; i < s.size(); ++i) {
    result.add_facet(s.face_without_index(i));
  }
  return result;
}

}  // namespace psph::topology
