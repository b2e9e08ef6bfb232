#pragma once

// A simplex is a finite set of vertices (Section 3 of the paper). We store
// the vertex ids sorted and unique; the sorted order doubles as the
// orientation convention for boundary operators.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "topology/types.h"
#include "util/hash.h"

namespace psph::topology {

class Simplex {
 public:
  /// The empty simplex (dimension -1).
  Simplex() = default;

  /// Builds a simplex from vertices; sorts them and rejects duplicates.
  explicit Simplex(std::vector<VertexId> vertices);
  explicit Simplex(std::span<const VertexId> vertices);
  Simplex(std::initializer_list<VertexId> vertices);

  /// Number of vertices minus one; the empty simplex has dimension -1.
  int dimension() const { return static_cast<int>(vertices_.size()) - 1; }

  std::size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }

  const std::vector<VertexId>& vertices() const { return vertices_; }
  VertexId operator[](std::size_t index) const { return vertices_[index]; }

  bool contains(VertexId v) const;

  /// True if every vertex of *this appears in `other` (⊆, faces included
  /// improperly: a simplex is a face of itself).
  bool is_face_of(const Simplex& other) const;

  /// The face omitting the vertex at `index` (paper notation: circumflex).
  Simplex face_without_index(std::size_t index) const;

  /// The face omitting vertex `v`; *this if v is not present.
  Simplex without_vertex(VertexId v) const;

  /// The face spanned by the vertices of *this that are also in `other`.
  Simplex intersect(const Simplex& other) const;

  /// The simplex spanned by the union of vertex sets.
  Simplex unite(const Simplex& other) const;

  /// All faces of the given dimension (d+1 choose k+1 of them).
  std::vector<Simplex> faces_of_dim(int d) const;

  /// All proper and improper faces, excluding the empty simplex, ordered by
  /// dimension then lexicographically.
  std::vector<Simplex> all_faces() const;

  bool operator==(const Simplex& other) const {
    return vertices_ == other.vertices_;
  }
  bool operator!=(const Simplex& other) const { return !(*this == other); }
  /// Lexicographic-by-vertex order (shorter prefixes first); used for
  /// deterministic iteration.
  bool operator<(const Simplex& other) const {
    return vertices_ < other.vertices_;
  }

  std::string to_string() const;

 private:
  std::vector<VertexId> vertices_;
};

struct SimplexHash {
  std::size_t operator()(const Simplex& s) const {
    return util::hash_range(s.vertices());
  }
};

}  // namespace psph::topology
