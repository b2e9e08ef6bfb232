#pragma once

// The test-only collapse oracle: greedy elementary collapses.
//
// A free face σ is a simplex with exactly one proper coface τ (necessarily
// of dimension dim σ + 1); removing the pair (σ, τ) is an elementary
// collapse and preserves homotopy type. A complex that collapses to a single
// vertex is contractible, hence k-connected for every k — a certificate
// strictly stronger than the homological proxy in topology/homology.h.
// Greedy collapsing is not complete (some contractible complexes are not
// collapsible, and greedy order matters), so a `false` result is
// inconclusive. No shipped path reports a collapse certificate: the tests
// use it to check collapsible ⇒ acyclic against the homology engine, and
// that IIS¹ is collapsible (Kozlov, standard protocol complexes).

#include <cstddef>

#include "topology/complex.h"

namespace psph::oracle {

struct CollapseResult {
  /// True if greedy collapsing reached a single vertex.
  bool collapsed_to_point = false;
  /// Number of elementary collapse steps performed.
  std::size_t steps = 0;
  /// Simplexes remaining when no free face was left.
  std::size_t remaining_faces = 0;
};

/// Greedily collapses the complex (highest-dimensional free faces first).
/// Runs on the full face poset; exponential in facet dimension, intended
/// for the instance sizes of the tests.
CollapseResult collapse_greedily(const topology::SimplicialComplex& k);

/// Convenience wrapper: true iff greedy collapsing certifies contractibility.
bool collapses_to_point(const topology::SimplicialComplex& k);

}  // namespace psph::oracle
