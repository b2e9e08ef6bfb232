#pragma once

// The iterated immediate snapshot (IIS) model of Borowsky and Gafni [BG97].
//
// Section 6 remarks that the paper's asynchronous round structure "looks
// something like a message-passing analog of the executions arising in the
// iterated immediate snapshot model". This module makes the remark
// checkable: it builds the IIS protocol complex so it can be compared,
// side by side, with A^r(S).
//
// One IIS round from an input simplex S: the participants are split into an
// *ordered partition* (B_1, ..., B_t); a process in block B_j snapshots the
// states of everyone in B_1 ∪ ... ∪ B_j. Each ordered partition contributes
// one facet, so the one-round complex is the chromatic (standard
// chromatic) subdivision of S — e.g. 13 facets for three processes. The
// r-round complex iterates the construction facet-wise.
//
// Known facts exercised by tests and the bench:
//   * facet count = ordered Bell number of the participant count
//     (1, 1, 3, 13, 75, 541, ...);
//   * the complex is a subdivision of S, hence contractible — homologically
//     trivial in every dimension;
//   * wait-free k-set agreement is impossible on IIS^r for k <= n (same
//     threshold the paper derives for its message-passing rounds).

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

/// One-round IIS complex from an input facet (the chromatic subdivision).
topology::SimplicialComplex iis_round_complex(const topology::Simplex& input,
                                              ViewRegistry& views,
                                              topology::VertexArena& arena);

/// r-round iterated complex. Runs the level loop of construction.h; output
/// equals the depth-first recursion the tests keep as a reference
/// (tests/oracle).
topology::SimplicialComplex iis_protocol_complex(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena);

/// Union of IIS^r over every facet of an input complex.
topology::SimplicialComplex iis_protocol_complex_over(
    const topology::SimplicialComplex& inputs, int rounds,
    ViewRegistry& views, topology::VertexArena& arena);

/// Ordered Bell number (Fubini number): the number of ordered set
/// partitions of m elements — the facet count of a one-round IIS complex
/// with m participants. Throws on overflow.
std::uint64_t ordered_bell(int m);

}  // namespace psph::core
