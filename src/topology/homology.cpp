#include "topology/homology.h"

#include <algorithm>
#include <sstream>

#include "math/smith.h"
#include "obs/obs.h"
#include "topology/collapse.h"
#include "topology/components.h"
#include "util/cancel.h"
#include "util/logging.h"

namespace psph::topology {

namespace {

// Homology observability: per-dimension rank and SNF spans (the trace arg
// is the boundary dimension), plus engine-level counters.
obs::Counter g_obs_reports("homology.reports");
obs::Counter g_obs_rank_dims("homology.rank_dims");
obs::Counter g_obs_snf_dims("homology.snf_dims");

// The report of a complex with `components` connected components (0 for
// the empty complex) with only dimension 0 filled in: reduced_betti[0] =
// components − 1, no torsion, zeros above. A negative max_dim asks for no
// dimension and gets empty vectors.
HomologyReport reduced_homology_from_components(
    std::size_t components, const HomologyOptions& options) {
  HomologyReport report;
  report.nonempty = components > 0;
  report.exact = options.exact;
  const std::size_t dims =
      static_cast<std::size_t>(std::max(options.max_dim, -1) + 1);
  report.reduced_betti.assign(dims, 0);
  report.torsion.assign(dims, {});
  if (report.nonempty && dims > 0) {
    report.reduced_betti[0] = static_cast<long long>(components) - 1;
  }
  return report;
}

}  // namespace

math::SparseMatrix boundary_matrix(const SimplicialComplex& k, int d) {
  if (d < 0) throw std::invalid_argument("boundary_matrix: d < 0");
  const std::size_t columns = k.count_of_dim(d);

  if (d == 0) {
    // Augmentation C_0 → Z: one row of ones.
    math::SparseMatrix matrix(1, columns);
    for (std::size_t c = 0; c < columns; ++c) matrix.set(0, c, 1);
    return matrix;
  }

  // The face cache records each d-simplex's codim-1 face indices when it
  // builds the (d-1)-level, so assembling ∂_d is a pure table read — no
  // hashing and no face construction on this path.
  const std::vector<std::size_t>& links = k.boundary_links_of_dim(d);
  const std::size_t faces_per_col = static_cast<std::size_t>(d) + 1;

  math::SparseMatrix matrix(k.count_of_dim(d - 1), columns);
  {
    // One counting pass sizes every row exactly, so the column-major fill
    // below never reallocates.
    std::vector<std::uint32_t> row_count(matrix.rows(), 0);
    for (std::size_t e = 0; e < columns * faces_per_col; ++e) {
      ++row_count[links[e]];
    }
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      matrix.reserve_row(r, row_count[r]);
    }
  }
  for (std::size_t c = 0; c < columns; ++c) {
    std::int64_t sign = 1;
    for (std::size_t omit = 0; omit < faces_per_col; ++omit) {
      matrix.set(links[c * faces_per_col + omit], c, sign);
      sign = -sign;
    }
  }
  return matrix;
}

HomologyReport reduced_homology(const SimplicialComplex& k,
                                const HomologyOptions& options) {
  obs::SpanTimer whole_span("homology.reduced",
                            static_cast<std::int64_t>(options.max_dim));
  g_obs_reports.add(1);
  // Dimension 0 by union-find over the facets (components.h): exact over Z
  // with no torsion, so no boundary matrix of it is ranked or reduced.
  HomologyReport report = reduced_homology_from_components(
      connected_component_count(k), options);
  if (!report.nonempty || options.max_dim <= 0) return report;

  // Dimensions 1..max_dim: n_d and rank(∂_d) for d = 1..max_dim+1.
  // Slot 0 (the augmentation) stays unused.
  std::vector<std::size_t> counts(
      static_cast<std::size_t>(options.max_dim) + 2, 0);
  std::vector<std::size_t> ranks(
      static_cast<std::size_t>(options.max_dim) + 2, 0);
  std::vector<math::SparseMatrix> boundaries(
      static_cast<std::size_t>(options.max_dim) + 2);

  // The face lattice through dimension max_dim + 1 serves every dimension
  // asked for; nothing above it is built. Building it up front, under its
  // own span, keeps its cost out of the Morse and rank spans below.
  {
    obs::SpanTimer span("homology.warm_face_cache");
    k.warm_face_cache(options.max_dim + 1);
  }
  // Cooperative cancellation boundaries (serve deadlines): once before the
  // Morse cascade and once per dimension ahead of each elimination. With no
  // deadline active each poll is a single thread-local load.
  util::poll_deadline();
  if (options.morse) {
    // Morse preprocessing: the critical-cell complex has the same homology
    // (Betti and torsion) as the full one, with typically far fewer cells.
    MorseComplex mc = morse_reduce(k, options.max_dim + 1);
    for (std::size_t slot = 1; slot < counts.size(); ++slot) {
      counts[slot] = mc.critical[slot];
      boundaries[slot] = std::move(mc.boundary[slot]);
    }
  } else {
    for (int d = 1; d <= options.max_dim + 1; ++d) {
      counts[static_cast<std::size_t>(d)] = k.count_of_dim(d);
    }
  }
  for (std::size_t slot = 1; slot < counts.size(); ++slot) {
    if (counts[slot] == 0) {
      // No d-cells: the boundary map is zero from an empty space.
      if (!options.morse) boundaries[slot] = math::SparseMatrix(0, 0);
      continue;
    }
    util::poll_deadline();
    obs::SpanTimer span("homology.rank", static_cast<std::int64_t>(slot));
    g_obs_rank_dims.add(1);
    if (!options.morse) {
      boundaries[slot] = boundary_matrix(k, static_cast<int>(slot));
    }
    ranks[slot] = boundaries[slot].rank_mod_p(options.prime);
  }

  for (int d = 1; d <= options.max_dim; ++d) {
    const std::size_t slot = static_cast<std::size_t>(d);
    const long long betti = static_cast<long long>(counts[slot]) -
                            static_cast<long long>(ranks[slot]) -
                            static_cast<long long>(ranks[slot + 1]);
    report.reduced_betti[slot] = betti;
  }

  if (options.exact) {
    // Exact cross-check: SNF of each boundary map ∂_{d+1}, d >= 1, gives
    // the integral rank and the torsion coefficients of H̃_d.
    for (int d = 1; d <= options.max_dim; ++d) {
      const std::size_t slot = static_cast<std::size_t>(d);
      if (counts[slot + 1] == 0) continue;
      util::poll_deadline();
      obs::SpanTimer span("homology.snf", static_cast<std::int64_t>(slot + 1));
      g_obs_snf_dims.add(1);
      const math::SmithResult snf =
          math::smith_normal_form(boundaries[slot + 1]);
      // Cross-check the GF(p) rank against the exact one.
      if (snf.rank() != ranks[slot + 1]) {
        PSPH_LOG(warn) << "GF(p) rank " << ranks[slot + 1]
                       << " disagrees with exact rank " << snf.rank()
                       << " for boundary dim " << d + 1
                       << "; correcting from SNF";
        const long long betti = static_cast<long long>(counts[slot]) -
                                static_cast<long long>(ranks[slot]) -
                                static_cast<long long>(snf.rank());
        report.reduced_betti[slot] = betti;
      }
      for (const math::BigInt& t : snf.torsion()) {
        report.torsion[slot].push_back(t.to_string());
      }
    }
  }
  return report;
}

int homological_connectivity(const SimplicialComplex& k, int up_to_dim,
                             const HomologyOptions& options) {
  if (k.empty()) return -2;
  HomologyOptions local = options;
  local.max_dim = std::max(up_to_dim, 0);
  const HomologyReport report = reduced_homology(k, local);
  int q = -1;
  for (int d = 0; d <= up_to_dim; ++d) {
    if (report.reduced_betti[static_cast<std::size_t>(d)] != 0) break;
    if (options.exact &&
        !report.torsion[static_cast<std::size_t>(d)].empty()) {
      break;
    }
    q = d;
  }
  return q;
}

std::string HomologyReport::to_string() const {
  std::ostringstream out;
  out << (nonempty ? "nonempty" : "EMPTY") << " betti~=[";
  for (std::size_t d = 0; d < reduced_betti.size(); ++d) {
    if (d > 0) out << ",";
    out << reduced_betti[d];
  }
  out << "]";
  if (exact) {
    out << " torsion=[";
    for (std::size_t d = 0; d < torsion.size(); ++d) {
      if (d > 0) out << ",";
      out << "{";
      for (std::size_t i = 0; i < torsion[d].size(); ++i) {
        if (i > 0) out << ",";
        out << torsion[d][i];
      }
      out << "}";
    }
    out << "]";
  }
  return out.str();
}

}  // namespace psph::topology
