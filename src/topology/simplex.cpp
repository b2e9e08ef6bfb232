#include "topology/simplex.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "math/combinatorics.h"

namespace psph::topology {

Simplex::Simplex(std::vector<VertexId> vertices)
    : vertices_(std::move(vertices)) {
  std::sort(vertices_.begin(), vertices_.end());
  if (std::adjacent_find(vertices_.begin(), vertices_.end()) !=
      vertices_.end()) {
    throw std::invalid_argument("Simplex: duplicate vertex");
  }
}

Simplex::Simplex(std::span<const VertexId> vertices)
    : Simplex(std::vector<VertexId>(vertices.begin(), vertices.end())) {}

Simplex::Simplex(std::initializer_list<VertexId> vertices)
    : Simplex(std::vector<VertexId>(vertices)) {}

bool Simplex::contains(VertexId v) const {
  return std::binary_search(vertices_.begin(), vertices_.end(), v);
}

bool Simplex::is_face_of(const Simplex& other) const {
  return std::includes(other.vertices_.begin(), other.vertices_.end(),
                       vertices_.begin(), vertices_.end());
}

Simplex Simplex::face_without_index(std::size_t index) const {
  if (index >= vertices_.size()) {
    throw std::out_of_range("Simplex::face_without_index");
  }
  Simplex result;
  result.vertices_ = vertices_;
  result.vertices_.erase(result.vertices_.begin() +
                         static_cast<std::ptrdiff_t>(index));
  return result;
}

Simplex Simplex::without_vertex(VertexId v) const {
  Simplex result;
  result.vertices_.reserve(vertices_.size());
  for (VertexId u : vertices_) {
    if (u != v) result.vertices_.push_back(u);
  }
  return result;
}

Simplex Simplex::intersect(const Simplex& other) const {
  Simplex result;
  std::set_intersection(vertices_.begin(), vertices_.end(),
                        other.vertices_.begin(), other.vertices_.end(),
                        std::back_inserter(result.vertices_));
  return result;
}

Simplex Simplex::unite(const Simplex& other) const {
  Simplex result;
  std::set_union(vertices_.begin(), vertices_.end(), other.vertices_.begin(),
                 other.vertices_.end(), std::back_inserter(result.vertices_));
  return result;
}

std::vector<Simplex> Simplex::faces_of_dim(int d) const {
  std::vector<Simplex> result;
  if (d < 0 || d > dimension()) return result;
  for (const std::vector<int>& combo :
       math::combinations(static_cast<int>(vertices_.size()), d + 1)) {
    Simplex face;
    face.vertices_.reserve(combo.size());
    for (int index : combo) {
      face.vertices_.push_back(vertices_[static_cast<std::size_t>(index)]);
    }
    result.push_back(std::move(face));
  }
  return result;
}

std::vector<Simplex> Simplex::all_faces() const {
  std::vector<Simplex> result;
  for (int d = 0; d <= dimension(); ++d) {
    std::vector<Simplex> layer = faces_of_dim(d);
    result.insert(result.end(), std::make_move_iterator(layer.begin()),
                  std::make_move_iterator(layer.end()));
  }
  return result;
}

std::string Simplex::to_string() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (i > 0) out << ",";
    out << vertices_[i];
  }
  out << "}";
  return out.str();
}

}  // namespace psph::topology
