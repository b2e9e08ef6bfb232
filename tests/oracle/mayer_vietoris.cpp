#include "oracle/mayer_vietoris.h"

#include <algorithm>

#include "topology/homology.h"
#include "topology/operations.h"

namespace psph::oracle {

using topology::homological_connectivity;
using topology::intersection_of;
using topology::SimplicialComplex;
using topology::union_of;

Theorem2Instance check_theorem2(const SimplicialComplex& a,
                                const SimplicialComplex& b, int k) {
  Theorem2Instance instance;
  instance.k = k;
  const int depth = std::max(k, 0);
  instance.connectivity_a = homological_connectivity(a, depth);
  instance.connectivity_b = homological_connectivity(b, depth);
  instance.connectivity_intersection =
      homological_connectivity(intersection_of(a, b), depth);
  instance.connectivity_union =
      homological_connectivity(union_of(a, b), depth);

  const auto at_least = [](int measured, int bound) {
    // measured is the largest verified level; -2 encodes the empty complex
    // (k-connected only for k < -1).
    return measured >= bound || bound < -1;
  };
  instance.hypothesis = at_least(instance.connectivity_a, k) &&
                        at_least(instance.connectivity_b, k) &&
                        instance.connectivity_intersection >= -1 &&
                        at_least(instance.connectivity_intersection, k - 1);
  instance.conclusion = at_least(instance.connectivity_union, k);
  return instance;
}

}  // namespace psph::oracle
