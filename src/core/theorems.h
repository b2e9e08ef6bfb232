#pragma once

// Machine checks for the paper's numbered results. Each function builds the
// relevant construction, runs the homological-connectivity engine, and
// returns a structured verdict that tests assert on and bench binaries
// print. A bound of at most 0 asks only whether the complex is connected,
// which union-find answers (topology/components.h) without the engine's
// face lattice. Core measures connectivity; whether a decision map exists
// is decided by solve::decide (src/solve), which core does not link.

#include <cstdint>
#include <string>
#include <vector>

#include "core/async_complex.h"
#include "core/construction.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::core {

struct ConnectivityCheck {
  /// The bound the paper asserts (e.g. m - (n - f) - 1 for Lemma 12).
  int expected = 0;
  /// Homological connectivity measured up to `expected` (>= expected means
  /// the paper's claim holds on this instance).
  int measured = -2;
  bool satisfied = false;
  std::size_t facet_count = 0;
  std::size_t vertex_count = 0;
  int dimension = -1;

  std::string to_string() const;
};

/// Builds the input facet on processes 0..participants-1 with all-distinct
/// inputs 0..participants-1.
topology::Simplex rainbow_input(int participants, ViewRegistry& views,
                                topology::VertexArena& arena);

/// Corollary 6: ψ(S^m; U_0..U_m) is (m-1)-connected for nonempty U_i.
/// `value_set_sizes` gives |U_i| per position.
ConnectivityCheck check_pseudosphere_connectivity(
    const std::vector<int>& value_set_sizes);

/// Lemma 12: A^r(S^m) is (m - (n - f) - 1)-connected. `participants` = m+1,
/// `num_processes` = n+1. With options.mode == kOrbit the complex is built
/// through the symmetry-reduced pipeline (DESIGN §5.16); a bound of at most
/// 0 is measured by union-find over the orbit images
/// (orbit_full_components), a larger one on the reconstituted complex. Every
/// field of the check is value-identical either way.
ConnectivityCheck check_async_connectivity(int num_processes,
                                           int participants, int f, int r,
                                           const ConstructionOptions& options =
                                               {});

/// Lemmas 16 (r = 1) and 17: S^r(S^m) is (m - (n - k) - 1)-connected when
/// n >= rk + k. `participants` = m+1.
ConnectivityCheck check_sync_connectivity(int num_processes, int participants,
                                          int k, int r,
                                          const ConstructionOptions& options =
                                              {});

/// Lemma 21: M^r(S^m) is (m - (n - k) - 1)-connected when n >= (r+1)k.
ConnectivityCheck check_semisync_connectivity(
    int num_processes, int participants, int k, int mu, int r,
    const ConstructionOptions& options = {});

/// The FloodSet/min-seen rule on the r-round synchronous complex: returns
/// true if it solves k-set agreement on every facet (inputs {0..k}).
bool floodmin_solves_sync(int num_processes, int f, int k, int r);

struct Corollary10Check {
  /// Per participant count m+1 in [n+1-f, n+1]: the measured connectivity
  /// of P(S^m) and the required (m - (n - k) - 1).
  struct Level {
    int participants = 0;
    int required = 0;
    int measured = -2;
    bool satisfied = false;
  };
  std::vector<Level> levels;
  /// All levels satisfied: Corollary 10's hypothesis holds, so k-set
  /// agreement must be impossible with f failures.
  bool hypothesis_holds = false;
};

/// Corollary 10 instantiated for the asynchronous model: measures
/// P(S^m)-connectivity for every m with n-f <= m <= n. Callers cross-check
/// the implied impossibility with solve::decide on the same instance.
Corollary10Check check_corollary10_async(int num_processes, int f, int k,
                                         int r);

struct Theorem5Check {
  int c = 0;  // the constant in the theorem (n - f for the async protocol)
  /// Hypothesis: P(S^ℓ) is (ℓ - c - 1)-connected for every face of S^n.
  bool hypothesis_holds = false;
  /// Conclusion: P(ψ(Pⁿ; U_0..U_n)) is (n - c - 1)-connected.
  ConnectivityCheck conclusion;
};

/// Theorem 5 instantiated with the one-round asynchronous protocol
/// (c = n - f): verifies the per-face hypothesis, builds P over the input
/// pseudosphere with the given per-process value sets, and measures the
/// conclusion's connectivity.
Theorem5Check check_theorem5_async(int num_processes, int f,
                                   const std::vector<std::vector<std::int64_t>>&
                                       per_process_values);

/// Theorem 7: the same conclusion for a *union* of input pseudospheres
/// ψ(Pⁿ; A_0), ..., ψ(Pⁿ; A_t) with ∩ A_i nonempty. `families` lists the
/// uniform value sets A_i.
Theorem5Check check_theorem7_async(
    int num_processes, int f,
    const std::vector<std::vector<std::int64_t>>& families);

}  // namespace psph::core
