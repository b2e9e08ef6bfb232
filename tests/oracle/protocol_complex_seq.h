#pragma once

// The test-only construction oracle: the depth-first r-round recursions,
// kept as the reference the level loop (core/construction.h) is checked
// against. Each expands every facet of the one-round complex by the
// remaining rounds and unions the results, calling the same one-round
// expanders (core/round_ops.h) the pipeline does. Run against the same
// registry and arena as the pipeline, hash-consing makes the comparison an
// exact complex equality. Only test binaries link it; shipped code builds
// through core::*_protocol_complex.

#include "core/async_complex.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::oracle {

/// A^r(S) by depth-first recursion.
topology::SimplicialComplex async_protocol_complex_seq(
    const topology::Simplex& input, const core::AsyncParams& params,
    core::ViewRegistry& views, topology::VertexArena& arena);

/// S^r(S) by depth-first recursion, one failure set at a time.
topology::SimplicialComplex sync_protocol_complex_seq(
    const topology::Simplex& input, const core::SyncParams& params,
    core::ViewRegistry& views, topology::VertexArena& arena);

/// M^r(S) by depth-first recursion, one failure pattern at a time.
topology::SimplicialComplex semisync_protocol_complex_seq(
    const topology::Simplex& input, const core::SemiSyncParams& params,
    core::ViewRegistry& views, topology::VertexArena& arena);

/// IIS^r by depth-first recursion.
topology::SimplicialComplex iis_protocol_complex_seq(
    const topology::Simplex& input, int rounds, core::ViewRegistry& views,
    topology::VertexArena& arena);

}  // namespace psph::oracle
