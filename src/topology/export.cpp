#include "topology/export.h"

#include <cmath>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace psph::topology {

std::string to_dot(const SimplicialComplex& k,
                   const std::function<std::string(VertexId)>& label) {
  std::ostringstream out;
  out << "graph complex {\n  node [shape=circle];\n";
  for (VertexId v : k.vertex_ids()) {
    out << "  v" << v;
    if (label) out << " [label=\"" << label(v) << "\"]";
    out << ";\n";
  }
  const std::span<const VertexId> edges = k.face_rows_of_dim(1);
  for (std::size_t i = 0; i < edges.size(); i += 2) {
    out << "  v" << edges[i] << " -- v" << edges[i + 1] << ";\n";
  }
  out << "}\n";
  return out.str();
}

std::string to_off(const SimplicialComplex& k) {
  const std::vector<VertexId> vertices = k.vertex_ids();
  std::unordered_map<VertexId, std::size_t> index;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    index.emplace(vertices[i], i);
  }
  const std::span<const VertexId> triangles = k.face_rows_of_dim(2);

  std::ostringstream out;
  out << "OFF\n"
      << vertices.size() << " " << triangles.size() / 3 << " 0\n";
  // Deterministic layout: vertices evenly spaced on a unit circle, with a
  // small z offset cycling to break coplanarity for viewers.
  const double tau = 6.283185307179586;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const double angle =
        tau * static_cast<double>(i) / static_cast<double>(vertices.size());
    const double z = 0.15 * static_cast<double>(i % 3);
    out << std::cos(angle) << " " << std::sin(angle) << " " << z << "\n";
  }
  for (std::size_t i = 0; i < triangles.size(); i += 3) {
    out << "3 " << index.at(triangles[i]) << " " << index.at(triangles[i + 1])
        << " " << index.at(triangles[i + 2]) << "\n";
  }
  return out.str();
}

std::string to_facet_listing(const SimplicialComplex& k) {
  std::ostringstream out;
  for (const Simplex& facet : k.facets()) {
    const auto& vertices = facet.vertices();
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      if (i > 0) out << " ";
      out << vertices[i];
    }
    out << "\n";
  }
  return out.str();
}

SimplicialComplex from_facet_listing(const std::string& text) {
  SimplicialComplex result;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::vector<VertexId> vertices;
    long long value = 0;
    while (fields >> value) {
      if (value < 0) {
        throw std::invalid_argument("from_facet_listing: negative vertex id");
      }
      vertices.push_back(static_cast<VertexId>(value));
    }
    if (!fields.eof()) {
      throw std::invalid_argument("from_facet_listing: malformed line: " +
                                  line);
    }
    if (!vertices.empty()) result.add_facet(Simplex(std::move(vertices)));
  }
  return result;
}

}  // namespace psph::topology
