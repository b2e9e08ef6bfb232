#pragma once

// Connected components by union-find over vertex rows: the one way the
// homology engine gets dimension 0. A complex is 0-connected iff its
// 1-skeleton is connected (Definition 1), and every simplex joins its
// vertices, so one union per vertex of every facet suffices. Over Z,
// H̃_0 is free of rank (components − 1) with no torsion, so the count is
// exact, not a proxy.
//
// Two feeders share the counter: components_of feeds it a complex's facets
// (for reduced_homology and the connectivity checks), and the orbit
// pipeline feeds it each seed's image under each group element
// (construction.h). Vertex ids are mapped to compact indices by a flat
// index (util/flat_index.h), so memory grows with the number of distinct
// vertices — never with the largest id of a hand-built complex.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/complex.h"
#include "util/flat_index.h"

namespace psph::topology {

/// Disjoint-set union over the vertices of the rows added so far.
class ComponentCounter {
 public:
  /// Adds the simplex spelled by `row`: its vertices join one component.
  /// A row of one vertex adds that vertex alone.
  void add_row(const VertexId* row, std::size_t width);
  void add_row(const std::vector<VertexId>& row) {
    add_row(row.data(), row.size());
  }

  /// True if a and b are in one component (false if either is unknown).
  bool same(VertexId a, VertexId b);

  /// Number of components; 0 before any row.
  std::size_t component_count() const { return components_; }

  /// Number of distinct vertices seen (f_0 of the complex the rows span).
  std::size_t vertex_count() const { return parent_.size(); }

 private:
  /// Compact index of `v`, or FlatIndex::kAbsent if unseen.
  std::size_t lookup(VertexId v) const;
  /// Compact index of `v`, making it a singleton on first sight.
  std::uint32_t intern(VertexId v);
  std::uint32_t find(std::uint32_t x);

  util::FlatIndex index_;          // over vertices_
  std::vector<VertexId> vertices_;  // by compact index
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t components_ = 0;
};

/// The counter fed every facet of the complex: its components and f_0.
/// Recorded as span `homology.components`; polls the caller's deadline
/// every 4096 facets.
ComponentCounter components_of(const SimplicialComplex& k);

/// Number of connected components of the complex (0 for the empty complex).
std::size_t connected_component_count(const SimplicialComplex& k);

/// True iff the complex is nonempty and has exactly one component —
/// equivalent to β̃₀ = 0.
bool is_connected(const SimplicialComplex& k);

}  // namespace psph::topology
