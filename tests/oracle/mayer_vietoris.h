#pragma once

// Theorem 2 (the Mayer-Vietoris consequence the paper's connectivity
// arguments lean on): if K and L are k-connected and K ∩ L is nonempty and
// (k-1)-connected, then K ∪ L is k-connected. This test-only checker
// measures all three sides of an instance so the tests can confirm the
// implication on concrete decompositions — including every prefix union in
// the Lemma 15/20 analyses. No shipped path runs it.

#include "topology/complex.h"

namespace psph::oracle {

struct Theorem2Instance {
  int k = 0;
  int connectivity_a = -2;
  int connectivity_b = -2;
  int connectivity_intersection = -2;
  int connectivity_union = -2;
  /// K and L are k-connected, K ∩ L nonempty and (k-1)-connected.
  bool hypothesis = false;
  /// K ∪ L is k-connected.
  bool conclusion = false;
};

/// Measures homological connectivity of K, L, K ∩ L, and K ∪ L and
/// evaluates Theorem 2's hypothesis and conclusion at level k.
Theorem2Instance check_theorem2(const topology::SimplicialComplex& a,
                                const topology::SimplicialComplex& b, int k);

}  // namespace psph::oracle
