#pragma once

// Standard constructions on simplicial complexes: union, intersection,
// star, link, skeleton, join, induced subcomplex. Theorem 2 (Mayer-Vietoris)
// reasons about K ∪ L via K, L and K ∩ L; these are the operations the
// paper's proofs manipulate, so the library exposes them directly.

#include <vector>

#include "topology/complex.h"

namespace psph::topology {

/// K ∪ L: facets of both, maximality maintained.
SimplicialComplex union_of(const SimplicialComplex& a,
                           const SimplicialComplex& b);

/// Union of any number of complexes.
SimplicialComplex union_of(const std::vector<SimplicialComplex>& parts);

/// K ∩ L: all simplexes that are faces of both. Computed as the maximal
/// elements of pairwise facet intersections.
SimplicialComplex intersection_of(const SimplicialComplex& a,
                                  const SimplicialComplex& b);

/// star(σ, K): all facets of K containing σ (closure thereof).
SimplicialComplex star(const SimplicialComplex& k, const Simplex& s);

/// link(σ, K): { τ ∈ K : τ ∩ σ = ∅ and τ ∪ σ ∈ K }.
SimplicialComplex link(const SimplicialComplex& k, const Simplex& s);

/// d-skeleton: all simplexes of dimension ≤ d.
SimplicialComplex skeleton(const SimplicialComplex& k, int d);

/// Join K * L. Vertex sets must be disjoint; facets are σ ∪ τ.
SimplicialComplex join(const SimplicialComplex& a, const SimplicialComplex& b);

/// Induced subcomplex on a vertex subset: faces of facets restricted to the
/// subset (maximal restrictions kept).
SimplicialComplex induced(const SimplicialComplex& k,
                          const std::vector<VertexId>& keep);

/// The full boundary of a simplex: all proper faces (a combinatorial
/// (d-1)-sphere when s has dimension d).
SimplicialComplex boundary_complex(const Simplex& s);

}  // namespace psph::topology
