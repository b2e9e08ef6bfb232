#pragma once

// The r-round asynchronous protocol complex A^r(S) of Section 6.
//
// One round from input simplex S with participant set ids(S): each
// participating process P_i receives the round's messages from itself plus
// an independently chosen set of at least (n - f) other participants
// (with n + 1 processes total and at most f failures, n - f + 1 received
// messages including one's own is the most a process can wait for). By
// Lemma 11 the resulting complex is a single pseudosphere
//   A¹(S) ≅ ψ(S; 2^{P-{P_0}}_{≥n-f}, ..., 2^{P-{P_m}}_{≥n-f}).
//
// The r-round complex is the inductive union of A^{r-1}(T) over the facets
// T of A¹(S). (The paper takes the union over all simplexes T; every view
// reachable from a proper face of a facet is also reachable from the facet
// itself — the face's executions are those where the missing processes'
// messages are simply never heard — so the facet union generates the same
// complex, and that is what we enumerate.)

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

struct AsyncParams {
  int num_processes = 3;  // n + 1 (global count; participants may be fewer)
  int max_failures = 1;   // f
  int rounds = 1;         // r
};

/// A¹(S): the one-round complex from an input facet whose vertex labels are
/// (pid, state). Empty when fewer than (n + 1 - f) processes participate.
topology::SimplicialComplex async_round_complex(const topology::Simplex& input,
                                                const AsyncParams& params,
                                                ViewRegistry& views,
                                                topology::VertexArena& arena);

/// A^r(S): the r-round complex by the inductive construction. Runs the
/// level loop of construction.h; output equals the depth-first recursion
/// the tests keep as a reference (tests/oracle).
topology::SimplicialComplex async_protocol_complex(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

/// P(I): union of A^r over every facet of an input complex (Section 4's
/// P(I) for the subset of well-behaved executions).
topology::SimplicialComplex async_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

/// Facet count predicted by Lemma 11 for an input facet with m+1
/// participants: Π_i Σ_{j≥n-f} C(m, j)  — each process independently picks
/// which of the other m participants it hears.
std::uint64_t async_round_facet_count(int participants, int num_processes,
                                      int max_failures);

}  // namespace psph::core
