#pragma once

// Facet-based simplicial complexes (Section 3).
//
// A complex is represented by its maximal simplexes; closure under
// containment is implicit, and faces are enumerated on demand. add_facet
// maintains maximality: dominated insertions are dropped and newly dominated
// facets are removed, so unions of pseudospheres deduplicate automatically.
//
// The facets are sorted vertex rows in one topology::RowSet (rows.h): one
// vertex array with a slot per facet under the facet index, no heap vector
// per facet. A facet removed by domination leaves its slot empty (a
// tombstone), so slot order is insertion order with the removed facets
// skipped, and for_each_facet visits the live rows in that order.
//
// Face queries (face_rows_of_dim, count_of_dim, f_vector,
// euler_characteristic, boundary matrices) all read one lazily built
// per-dimension face table, built only as deep as the deepest dimension
// asked for so far: a query about dimension d builds dimensions 0..d, and a
// later deeper query extends the table in place (the levels already built
// are not touched). The cache is invalidated by any mutation (add_facet /
// merge), so the rows and links returned by face_rows_of_dim /
// boundary_links_of_dim are valid only until the next mutation. Concurrent
// *const* access is safe: the lazy build is guarded by a mutex behind an
// atomic depth (warm_face_cache() lets callers pay the build before fanning
// out). The per-vertex facet index the domination scans read is lazy the
// same way: the pure bulk lane of add_facets never reads it, so it is built
// on the first scan (or contains()) and maintained from then on. Mutation
// requires external synchronization, as for standard containers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/rows.h"
#include "topology/simplex.h"
#include "topology/types.h"

namespace psph::topology {

class SimplicialComplex {
 public:
  SimplicialComplex() = default;
  SimplicialComplex(const SimplicialComplex& other);
  SimplicialComplex& operator=(const SimplicialComplex& other);
  SimplicialComplex(SimplicialComplex&& other) noexcept;
  SimplicialComplex& operator=(SimplicialComplex&& other) noexcept;

  /// Inserts `s` as a (candidate) facet. No-op if some existing facet
  /// already contains it; removes existing facets that it contains.
  /// Inserting the empty simplex is rejected.
  void add_facet(Simplex s);

  /// Inserts a batch of candidate facets, each a nonempty, strictly
  /// increasing vertex row (std::invalid_argument otherwise, before any is
  /// inserted); equivalent to add_facet in a loop, widths may mix. When
  /// every incoming facet has one dimension d and the complex is empty or
  /// pure of the same dimension (the common case when unioning
  /// pseudospheres), insertion takes a fast lane that skips the per-facet
  /// domination scans entirely — only the exact-duplicate hash check
  /// remains. Mixed-dimension batches fall back to add_facet per facet.
  /// The facet tables grow geometrically, so many small batches cost the
  /// same amortized time per facet as one large one.
  void add_facets(RowSpan facets);

  /// Inserts every facet of `other`.
  void merge(const SimplicialComplex& other);

  /// True if the complex has no simplexes at all.
  bool empty() const { return live_count_ == 0; }

  /// Largest dimension of any facet; -1 for the empty complex. O(1).
  int dimension() const { return max_facet_dim_; }

  std::size_t facet_count() const { return live_count_; }

  /// Snapshot of the current facets in deterministic (sorted) order.
  std::vector<Simplex> facets() const;

  /// Calls `fn` with each facet's vertex row (a std::span<const VertexId>),
  /// in slot order: insertion order with removed facets skipped. Nothing is
  /// copied; `fn` must not mutate the complex.
  template <typename Fn>
  void for_each_facet(Fn&& fn) const {
    for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
      const std::span<const VertexId> row = rows_[slot];
      if (!row.empty()) fn(row);
    }
  }

  /// True if `s` is a face of some facet. The empty simplex is contained in
  /// every nonempty complex.
  bool contains(const Simplex& s) const;

  /// The distinct d-simplexes from the face cache, as count_of_dim(d)
  /// sorted (d+1)-wide vertex rows end to end, in lexicographic order: row
  /// c is the d-simplex of rank c (the boundary operator's row/column id).
  /// Valid until the next mutation. Empty for d outside [0, dimension()].
  std::span<const VertexId> face_rows_of_dim(int d) const;

  /// Flattened boundary-face indices of the d-simplexes, d in
  /// [1, dimension()]: entry c*(d+1) + omit is the rank among the
  /// (d-1)-simplexes of the face of the c-th d-simplex obtained by omitting
  /// its omit-th vertex (the boundary operator's row index; the incidence
  /// sign is (-1)^omit). Built with the face cache, so boundary matrices
  /// and Morse reductions never re-hash faces. Empty for d outside
  /// [1, dimension()]; same lifetime contract as face_rows_of_dim.
  const std::vector<std::size_t>& boundary_links_of_dim(int d) const;

  /// Count of distinct d-simplexes. O(1) once the face cache is warm.
  std::size_t count_of_dim(int d) const;

  /// Builds the face cache through dimension `depth` (default: every
  /// dimension) if it is not that deep yet. The top level of a shallow
  /// build interns the (depth+1)-subsets of every taller facet; the levels
  /// below come top-down as in a full build, so each level built equals the
  /// full build's. The accessors also build lazily (under a mutex), so
  /// skipping this is never incorrect: it lets callers pay the build before
  /// fanning out, or under a span of their own. The build polls the
  /// caller's deadline (util/cancel.h) per level and every 4096 rows;
  /// DeadlineExceeded leaves the cache as deep as it was, so the next face
  /// query builds the rest again.
  void warm_face_cache(int depth = std::numeric_limits<int>::max()) const;

  /// All vertex ids used by at least one facet, sorted: sort and unique
  /// over a copy of the facet rows. Does not touch the face cache.
  std::vector<VertexId> vertex_ids() const;

  /// f-vector: entry d is the number of d-simplexes, d = 0..dimension().
  std::vector<std::size_t> f_vector() const;

  /// Euler characteristic  Σ (-1)^d f_d.
  long long euler_characteristic() const;

  /// True if all facets have the same dimension.
  bool is_pure() const;

  /// Exact equality as sets of facets (hence as complexes).
  bool operator==(const SimplicialComplex& other) const;
  bool operator!=(const SimplicialComplex& other) const {
    return !(*this == other);
  }

  /// True if every facet of *this is contained in `other` (subcomplex test).
  bool is_subcomplex_of(const SimplicialComplex& other) const;

  /// Applies a vertex map to every facet, producing the image complex. The
  /// map must be defined for every vertex in use; it need not be injective
  /// (a non-injective simplicial map collapses simplexes), but duplicate
  /// image vertices within one facet are rejected to catch accidents —
  /// pass allow_collapse = true to permit them.
  SimplicialComplex apply_vertex_map(
      const std::function<VertexId(VertexId)>& map,
      bool allow_collapse = false) const;

  std::string to_string() const;

 private:
  // One dimension's slice of the face lattice. The d-simplexes are one flat
  // array of (d+1)-wide vertex rows in sorted order; a row's position is the
  // simplex's rank (boundary-operator row/col id). boundary_links holds the
  // flattened codim-1 face ranks ((d+1) per row, omit order).
  struct FaceTable {
    std::vector<VertexId> rows;
    std::vector<std::size_t> boundary_links;
  };

  void add_row(std::span<const VertexId> s);
  bool dominated(std::span<const VertexId> s) const;
  bool has_facet(std::span<const VertexId> s, std::uint64_t hash) const;
  // Records a facet just stored in `slot` (per-vertex index, dimensions).
  void note_facet(std::size_t slot, std::span<const VertexId> s);
  void build_vertex_index() const;
  void invalidate_face_cache();
  void build_face_levels(int depth) const;
  const FaceTable* face_table(int d) const;

  // The facets, one slot each, under the facet index (kept at most 3/4
  // full). Erasing a facet empties its slot in place (a tombstone) and
  // leaves its index entry behind, matching no live row; the next grow
  // drops it.
  RowSet rows_{3};
  std::size_t live_count_ = 0;
  // Bounds on live facet dimensions, gating the domination scans so
  // pure-complex bulk inserts are O(1). The max is *exact*: add_facet only
  // removes facets strictly smaller than the facet it inserts, so the
  // maximum can never be held by a tombstone. The min is conservative
  // (never shrunk on removal).
  int min_facet_dim_ = std::numeric_limits<int>::max();
  int max_facet_dim_ = -1;
  // vertex -> slot indices of live facets containing it (may contain stale
  // slot references which are skipped on read). Built by the first read
  // (build_vertex_index, under cache_mutex_, published by by_vertex_built_)
  // and maintained by every insertion after that.
  mutable std::unordered_map<VertexId, std::vector<std::size_t>> by_vertex_;
  mutable std::atomic<bool> by_vertex_built_{false};

  // Lazily built face lattice, entry d = FaceTable for the d-simplexes:
  // dimension() + 1 entries once anything is built, of which 0..face_depth_
  // are valid. Double-checked: readers take the mutex only while the depth
  // is short of what they need. A deeper build writes only entries above
  // face_depth_, which no reader touches, and never resizes the vector.
  mutable std::vector<FaceTable> face_cache_;
  mutable std::atomic<int> face_depth_{-1};
  // Guards the lazy builds of face_cache_ and by_vertex_.
  mutable std::mutex cache_mutex_;
};

}  // namespace psph::topology
