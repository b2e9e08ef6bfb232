#pragma once

// Symmetry quotients for protocol complexes (DESIGN §5.16).
//
// Every construction in the paper commutes with relabeling: permute the
// process names by π and the input values by σ and each round operator maps
// executions of the relabeled input to relabeled executions. Whenever the
// *input* is invariant under a joint relabeling g = (π, σ), the whole
// r-round complex is too, so its frontier at every level — and its final
// facet set — partitions into G-orbits for G = Aut(input) ≤ S_pids × S_vals.
// The orbit-quotient pipeline (construction.h, ConstructionMode::kOrbit)
// expands exactly one canonical representative per orbit and recovers the
// full complex's counts, f-vector, and homology from orbit data.
//
// This header provides the group machinery:
//
//   * SymmetryGroup — the automorphism group of an input facet, enumerated
//     explicitly (|G| ≤ (#participants)!, tiny for the process counts these
//     constructions reach).
//   * OrbitContext  — deterministic canonicalization of facets under G.
//     A facet's canonical form is the lexicographically least relabeled
//     vertex row over all g ∈ G, where relabeled views are hash-consed
//     through the same ViewRegistry/VertexArena the pipeline builds in.
//     Facets go in as vertex rows (spans into the pipeline's level arrays)
//     and the representative comes out in the caller's scratch row, so a
//     canonicalization allocates nothing once the buffers are warm.
//     Relabeling is memoized in flat per-element tables indexed by StateId
//     and by VertexId, so a vertex relabels (and interns) once per element
//     and every later canonicalization touching it is array reads: the
//     memo hit is inline here, the miss (which interns) out of line.
//   * OrbitImages   — the context's vertex-image tables, detached once a
//     build is done. The orbit pipeline keeps them in its result, so the
//     domination scan, the f-vector and reconstitution read every image
//     the build computed instead of relabeling again (construction.h).
//
// Orbit sizes come from orbit–stabilizer: the number of g mapping a facet
// to its canonical form is |Stab|, hence |orbit| = |G| / |Stab|. Because
// canonical forms are interned deterministically (facets in frontier order,
// group elements in enumeration order), orbit-mode output is bit-identical
// across thread counts.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

/// One joint relabeling g = (π, σ): a process-name permutation plus an
/// input-value permutation. Both maps are total on the labels they can
/// meet: pids outside `pid_map` and values outside `value_map` are fixed.
struct SymmetryElement {
  /// Sorted by .first; π(pid) for participating pids.
  std::vector<std::pair<ProcessId, ProcessId>> pid_map;
  /// Sorted by .first; σ(value) for input values in use.
  std::vector<std::pair<std::int64_t, std::int64_t>> value_map;

  ProcessId map_pid(ProcessId pid) const;
  std::int64_t map_value(std::int64_t value) const;
  bool is_identity() const;
};

/// The joint automorphism group of an input, enumerated element by element.
/// Element 0 is always the identity.
class SymmetryGroup {
 public:
  /// The trivial group {id}. Orbit mode under it degenerates to the full
  /// pipeline (every orbit has size 1).
  static SymmetryGroup identity();

  /// Aut of a single input facet whose vertices carry round-0 views:
  /// all (π, σ) with σ(input_of(p)) = input_of(π(p)) for every participant
  /// p. For all-distinct inputs (the rainbow facet) this is the full
  /// diagonal copy of S_{participants}. Throws std::invalid_argument if a
  /// vertex state is not a round-0 view.
  static SymmetryGroup for_input_facet(const topology::Simplex& input,
                                       const ViewRegistry& views,
                                       const topology::VertexArena& arena);

  std::size_t size() const { return elements_.size(); }
  const std::vector<SymmetryElement>& elements() const { return elements_; }
  const SymmetryElement& element(std::size_t i) const { return elements_[i]; }

 private:
  std::vector<SymmetryElement> elements_;
};

/// The vertex images an OrbitContext computed, detached from the context
/// and its state memo: image(g, v) = g·v for every vertex the context
/// relabeled under element g (element 0, the identity, needs no table).
/// Read-only: it never interns, so it cannot renumber anything, and reading
/// an image that was never computed throws std::logic_error. It remembers
/// the registry pair its ids live in.
class OrbitImages {
 public:
  /// True iff the images were interned in exactly this registry pair.
  bool bound_to(const ViewRegistry& views,
                const topology::VertexArena& arena) const {
    return views_ == &views && arena_ == &arena;
  }

  /// g-image of a vertex.
  topology::VertexId image(std::size_t element_index,
                           topology::VertexId vertex) const {
    if (element_index == 0) return vertex;
    const std::vector<topology::VertexId>& table = tables_[element_index];
    if (vertex >= table.size() || table[vertex] == topology::kInvalidVertex) {
      missing_image();
    }
    return table[vertex];
  }

 private:
  friend class OrbitContext;
  [[noreturn]] static void missing_image();

  const ViewRegistry* views_ = nullptr;
  const topology::VertexArena* arena_ = nullptr;
  /// tables_[g][v] = g·v, kInvalidVertex where not computed. VertexIds are
  /// dense arena indices, so the hot canonicalize path reads arrays.
  std::vector<std::vector<topology::VertexId>> tables_;
};

/// Memoized relabeling + canonicalization engine bound to one registry /
/// arena pair. NOT thread-safe: canonicalize interns views and vertices, so
/// the pipeline calls it only from its serial phases (which is also what
/// keeps interning order — and therefore ids — deterministic).
class OrbitContext {
 public:
  OrbitContext(SymmetryGroup group, ViewRegistry& views,
               topology::VertexArena& arena);

  const SymmetryGroup& group() const { return group_; }

  /// g-image of a vertex (pid, state) as an interned VertexId, relabeling
  /// its view (and, recursively, every view it heard) on a memo miss. The
  /// hit, which canonicalization takes for nearly every vertex, is one
  /// table read here; the miss, which interns, stays out of line.
  topology::VertexId relabel_vertex(std::size_t element_index,
                                    topology::VertexId vertex) {
    const std::vector<topology::VertexId>& memo =
        images_.tables_[element_index];
    if (vertex < memo.size() && memo[vertex] != topology::kInvalidVertex) {
      return memo[vertex];
    }
    return relabel_vertex_miss(element_index, vertex);
  }

  /// g-image of a whole facet (vertex set; Simplex re-sorts).
  topology::Simplex relabel_facet(std::size_t element_index,
                                  const topology::Simplex& facet);

  /// Writes the canonical orbit representative of the sorted row `facet` —
  /// the lexicographically least relabeled row over all g — into `rep`, and
  /// returns the number of elements mapping the facet onto it (= |Stab| by
  /// orbit–stabilizer, so |orbit| = |G| / stabilizer). `facet` must not
  /// point into `rep`; interning never moves it, so it may point into any
  /// row array of the caller's.
  std::uint32_t canonicalize(std::span<const topology::VertexId> facet,
                             std::vector<topology::VertexId>& rep);

  /// Detaches the vertex-image tables filled so far; the context is spent.
  OrbitImages take_images() && { return std::move(images_); }

 private:
  /// relabel_vertex on a memo miss: relabels the state, interns the image
  /// vertex and records it in the memo.
  topology::VertexId relabel_vertex_miss(std::size_t element_index,
                                         topology::VertexId vertex);
  /// g-image of an interned state, interning the result.
  StateId relabel_state(std::size_t element_index, StateId state);

  SymmetryGroup group_;
  ViewRegistry& views_;
  topology::VertexArena& arena_;
  /// memo_[g][state] = relabeled state (kNoState = not yet computed), flat
  /// like the vertex memo: StateIds are dense registry indices.
  std::vector<std::vector<StateId>> memo_;
  /// The vertex memo, kept in the form the orbit result retains.
  OrbitImages images_;
  /// canonicalize's candidate row.
  std::vector<topology::VertexId> candidate_;
};

}  // namespace psph::core
