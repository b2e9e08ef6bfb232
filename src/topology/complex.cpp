#include "topology/complex.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/cancel.h"
#include "util/flat_index.h"
#include "util/hash.h"

namespace psph::topology {

SimplicialComplex::SimplicialComplex(const SimplicialComplex& other) {
  *this = other;
}

SimplicialComplex& SimplicialComplex::operator=(
    const SimplicialComplex& other) {
  if (this == &other) return *this;
  // Lock the source's caches so copying while another thread lazily builds
  // them stays race-free; the destination mutex is fresh. Whatever the
  // source has not built is not built for the copy either.
  std::lock_guard<std::mutex> lock(other.cache_mutex_);
  rows_ = other.rows_;
  live_count_ = other.live_count_;
  min_facet_dim_ = other.min_facet_dim_;
  max_facet_dim_ = other.max_facet_dim_;
  const bool indexed = other.by_vertex_built_.load(std::memory_order_relaxed);
  if (indexed) {
    by_vertex_ = other.by_vertex_;
  } else {
    by_vertex_.clear();
  }
  by_vertex_built_.store(indexed, std::memory_order_relaxed);
  face_cache_ = other.face_cache_;
  face_depth_.store(other.face_depth_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return *this;
}

SimplicialComplex::SimplicialComplex(SimplicialComplex&& other) noexcept {
  *this = std::move(other);
}

SimplicialComplex& SimplicialComplex::operator=(
    SimplicialComplex&& other) noexcept {
  if (this == &other) return *this;
  // Moving-from implies exclusive access to `other`; no lock needed.
  rows_ = std::move(other.rows_);
  live_count_ = other.live_count_;
  min_facet_dim_ = other.min_facet_dim_;
  max_facet_dim_ = other.max_facet_dim_;
  by_vertex_ = std::move(other.by_vertex_);
  by_vertex_built_.store(
      other.by_vertex_built_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  face_cache_ = std::move(other.face_cache_);
  face_depth_.store(other.face_depth_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  other.rows_.clear();
  other.live_count_ = 0;
  other.min_facet_dim_ = std::numeric_limits<int>::max();
  other.max_facet_dim_ = -1;
  other.by_vertex_built_.store(false, std::memory_order_relaxed);
  other.face_depth_.store(-1, std::memory_order_relaxed);
  return *this;
}

void SimplicialComplex::add_facet(Simplex s) {
  if (s.empty()) {
    throw std::invalid_argument("add_facet: empty simplex");
  }
  add_row(s.vertices());
}

void SimplicialComplex::add_row(std::span<const VertexId> s) {
  const std::uint64_t hash = row_hash(s);
  if (has_facet(s, hash)) return;
  if (dominated(s)) return;
  invalidate_face_cache();

  // Remove facets *strictly* contained in s (equal-dimension facets cannot
  // be: a same-size subset is equality, which the hash check above already
  // excluded). Any strictly contained facet shares s's vertices, so
  // scanning the per-vertex slot lists of s's vertices — filtered to lower
  // dimension — finds them all. On pure complexes both scans are no-ops, so
  // bulk construction (pseudosphere products) is O(1) per facet. A removed
  // facet's slot empties in place (see rows_).
  const int dim = static_cast<int>(s.size()) - 1;
  if (min_facet_dim_ < dim) {
    build_vertex_index();
    std::vector<std::size_t> candidates;
    for (VertexId v : s) {
      const auto it = by_vertex_.find(v);
      if (it == by_vertex_.end()) continue;
      for (std::size_t slot : it->second) candidates.push_back(slot);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (std::size_t slot : candidates) {
      const std::span<const VertexId> facet = rows_[slot];
      if (facet.empty()) continue;  // tombstone
      if (facet.size() < s.size() &&
          std::includes(s.begin(), s.end(), facet.begin(), facet.end())) {
        rows_.erase(slot);
        --live_count_;
      }
    }
  }
  note_facet(rows_.insert(s, hash).first, s);
}

bool SimplicialComplex::dominated(std::span<const VertexId> s) const {
  // Only *strictly* larger facets can properly contain s (improper
  // containment, i.e. equality, is handled by the facet-index lookups at
  // the call sites). A facet containing s must contain s's first vertex.
  if (max_facet_dim_ <= static_cast<int>(s.size()) - 1) return false;
  build_vertex_index();
  const auto it = by_vertex_.find(s[0]);
  if (it == by_vertex_.end()) return false;
  for (std::size_t slot : it->second) {
    const std::span<const VertexId> facet = rows_[slot];
    if (facet.size() > s.size() &&
        std::includes(facet.begin(), facet.end(), s.begin(), s.end())) {
      return true;
    }
  }
  return false;
}

bool SimplicialComplex::has_facet(std::span<const VertexId> s,
                                  std::uint64_t hash) const {
  return rows_.find(s, hash) != util::FlatIndex::kAbsent;
}

void SimplicialComplex::note_facet(std::size_t slot,
                                   std::span<const VertexId> s) {
  if (by_vertex_built_.load(std::memory_order_relaxed)) {
    for (VertexId v : s) by_vertex_[v].push_back(slot);
  }
  const int dim = static_cast<int>(s.size()) - 1;
  min_facet_dim_ = std::min(min_facet_dim_, dim);
  max_facet_dim_ = std::max(max_facet_dim_, dim);
  ++live_count_;
}

void SimplicialComplex::build_vertex_index() const {
  if (by_vertex_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (by_vertex_built_.load(std::memory_order_relaxed)) return;
  by_vertex_.clear();
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    for (VertexId v : rows_[slot]) by_vertex_[v].push_back(slot);
  }
  by_vertex_built_.store(true, std::memory_order_release);
}

void SimplicialComplex::add_facets(RowSpan facets) {
  if (facets.empty()) return;
  const std::size_t batch_width = facets[0].size();
  bool pure = true;
  for (std::size_t i = 0; i < facets.size(); ++i) {
    const std::span<const VertexId> row = facets[i];
    if (row.empty()) throw std::invalid_argument("add_facet: empty simplex");
    if (std::adjacent_find(row.begin(), row.end(),
                           std::greater_equal<VertexId>()) != row.end()) {
      throw std::invalid_argument(
          "add_facets: a row is not strictly increasing");
    }
    if (row.size() != batch_width) pure = false;  // mixed batch
  }
  // Growth policy: room for the whole batch, at least doubling (rows.h).
  rows_.reserve(facets.size(), facets.vertex_count());
  const int batch_dim = static_cast<int>(batch_width) - 1;
  const bool complex_compatible =
      live_count_ == 0 ||
      (min_facet_dim_ == batch_dim && max_facet_dim_ == batch_dim);
  if (!pure || !complex_compatible) {
    // Mixed dimensions somewhere: domination is possible, take the scanning
    // path facet by facet.
    for (std::size_t i = 0; i < facets.size(); ++i) add_row(facets[i]);
    return;
  }
  // Pure fast lane: every live facet and every incoming facet has dimension
  // batch_dim, so no facet can strictly contain another — domination scans
  // are provably no-ops and only exact-duplicate detection remains.
  invalidate_face_cache();
  for (std::size_t i = 0; i < facets.size(); ++i) {
    const std::span<const VertexId> row = facets[i];
    const auto [slot, added] = rows_.insert(row, row_hash(row));
    if (added) note_facet(slot, row);  // else an exact duplicate
  }
}

void SimplicialComplex::merge(const SimplicialComplex& other) {
  // Batch through add_facets so pure-into-pure merges (unions of equal-rank
  // pseudospheres) take the fast lane.
  FacetRows batch;
  other.for_each_facet(
      [&](std::span<const VertexId> facet) { batch.push_back(facet); });
  add_facets(batch);
}

std::vector<Simplex> SimplicialComplex::facets() const {
  std::vector<Simplex> result;
  result.reserve(live_count_);
  for_each_facet(
      [&](std::span<const VertexId> facet) { result.emplace_back(facet); });
  std::sort(result.begin(), result.end());
  return result;
}

bool SimplicialComplex::contains(const Simplex& s) const {
  if (s.empty()) return !empty();
  return dominated(s.vertices()) ||
         has_facet(s.vertices(), row_hash(s.vertices()));
}

void SimplicialComplex::invalidate_face_cache() {
  // Mutators run with exclusive access (same contract as std containers),
  // so relaxed ordering suffices.
  face_depth_.store(-1, std::memory_order_relaxed);
  face_cache_.clear();
}

void SimplicialComplex::build_face_levels(int depth) const {
  // Caller holds cache_mutex_, and face_depth_ < depth <= dimension().
  // Levels 0..face_depth_ are built and stay as they are; this builds
  // levels face_depth_ + 1 .. depth.
  const int built = face_depth_.load(std::memory_order_relaxed);
  if (built < 0) {
    face_cache_.clear();
    face_cache_.resize(static_cast<std::size_t>(max_facet_dim_) + 1);
  }
  const std::size_t top = static_cast<std::size_t>(depth);
  const std::size_t bottom = static_cast<std::size_t>(built + 1);
  // A build that threw may have left partial levels behind; start over.
  for (std::size_t d = bottom; d <= top; ++d) face_cache_[d] = FaceTable{};

  // Top-down level enumeration: the d-simplexes are exactly the facets of
  // dimension d plus the codim-1 faces of the (d+1)-simplexes, so each face
  // is generated from the level above instead of re-enumerating the full
  // 2^k subset lattice of every facet. Each level's rows are interned in a
  // local flat index (util/flat_index.h: stored hash + row id), and
  // the codim-1 lookups that dedup level d are recorded as boundary links
  // for level d+1 — the boundary operator comes out of the same hashing
  // that builds the cache. Rows live in one flat array per level, so no
  // face costs an allocation of its own. A build that stops short of
  // dimension() starts from the (top+1)-subsets of every taller facet.
  using Row = std::span<const VertexId>;
  std::vector<std::vector<Row>> facets_by_dim(top + 1);
  std::vector<Row> taller;
  for_each_facet([&](Row facet) {
    const std::size_t d = facet.size() - 1;
    if (d > top) {
      taller.push_back(facet);
    } else if (d >= bottom) {
      facets_by_dim[d].push_back(facet);
    }
  });

  // Cooperative cancellation (util/cancel.h): polled once per level and
  // every 4096 rows. A throw leaves face_depth_ as it was (warm_face_cache
  // sets it only after this returns), so the next query builds again.
  const auto poll_every_4096 = [](std::size_t row) {
    if ((row & 4095) == 0) util::poll_deadline();
  };
  std::vector<VertexId> pool;  // this level's rows in insertion order
  std::vector<VertexId> key(top + 1);
  std::vector<std::size_t> pick(top + 1);
  for (std::size_t width = top + 1; width > bottom; --width) {
    util::poll_deadline();
    const std::vector<Row>& own = facets_by_dim[width - 1];
    FaceTable* above = width <= top ? &face_cache_[width] : nullptr;
    const std::size_t above_count =
        above != nullptr ? above->rows.size() / (width + 1) : 0;
    pool.clear();
    std::size_t n = 0;
    // This level's intern table over pool rows, at most half full: nearly
    // every probe is a hit (a row appears in many cofaces), and short probe
    // runs pay more than the table costs.
    util::FlatIndex table;
    // Returns the row id of `row`, appending it on first sighting.
    const auto intern = [&](const VertexId* row) {
      const std::size_t id = table.find_or_insert(
          util::row_hash(row, width), n, [&](std::size_t i) {
            return std::equal(row, row + width, pool.data() + i * width);
          });
      if (id == n) {
        pool.insert(pool.end(), row, row + width);
        ++n;
      }
      return id;
    };
    // Where row id i's vertices are: the facet rows themselves at the top
    // of a full build, else this level's pool.
    const bool top_of_full = above == nullptr && taller.empty();
    if (top_of_full) {
      // Top level of a full build: only facets, which the facet index keeps
      // distinct, so the level is read straight from the facet rows, with
      // no intern table and no pool.
      n = own.size();
    } else if (above == nullptr) {
      // Top level of a shallow build: this level's facets plus every
      // width-subset of every taller facet. C(k, width) per facet bounds
      // the distinct rows far too loosely to reserve for, so the table and
      // the pool start small and double.
      for (std::size_t i = 0; i < own.size(); ++i) {
        poll_every_4096(i);
        intern(own[i].data());
      }
      for (std::size_t f = 0; f < taller.size(); ++f) {
        poll_every_4096(f);
        const Row vertices = taller[f];
        const std::size_t k = vertices.size();
        // Subsets as increasing index picks in lexicographic order; the
        // facet's vertices are sorted, so every key is a sorted row.
        std::iota(pick.begin(),
                  pick.begin() + static_cast<std::ptrdiff_t>(width),
                  std::size_t{0});
        while (true) {
          for (std::size_t i = 0; i < width; ++i) key[i] = vertices[pick[i]];
          intern(key.data());
          std::size_t i = width;
          while (i > 0 && pick[i - 1] == k - width + i - 1) --i;
          if (i == 0) break;
          ++pick[i - 1];
          for (std::size_t j = i; j < width; ++j) pick[j] = pick[j - 1] + 1;
        }
      }
    } else {
      // Each (d+1)-simplex contributes d+2 codim-1 probes and interior
      // faces are shared by ≥2 cofaces, so half the probe count (plus this
      // level's facets) bounds the live entries closely enough in practice.
      const std::size_t estimate =
          own.size() + above_count * (width + 1) / 2 + 1;
      pool.reserve(estimate * width);
      table.reserve(estimate);
      // Facets of dimension d first. Maximality makes them distinct from
      // every face generated from the level above (a facet that appeared
      // there would be a face of another facet), but they still seed the
      // table so probes from above dedup against them.
      for (std::size_t i = 0; i < own.size(); ++i) {
        poll_every_4096(i);
        intern(own[i].data());
      }
      above->boundary_links.resize(above_count * (width + 1));
      std::size_t* link = above->boundary_links.data();
      const VertexId* face = above->rows.data();
      for (std::size_t c = 0; c < above_count; ++c, face += width + 1) {
        poll_every_4096(c);
        for (std::size_t omit = 0; omit <= width; ++omit) {
          std::copy(face, face + omit, key.begin());
          std::copy(face + omit + 1, face + width + 1, key.begin() + omit);
          *link++ = intern(key.data());
        }
      }
    }
    // Sort this level by permuting row ids; fix the links recorded for the
    // level above in place. Rows of one width compare lexicographically
    // exactly as the Simplexes they spell.
    const auto row = [&](std::uint32_t id) {
      return top_of_full ? own[id].data() : pool.data() + id * width;
    };
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(row(a), row(a) + width, row(b),
                                          row(b) + width);
    });
    FaceTable& level = face_cache_[width - 1];
    level.rows.resize(n * width);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(row(perm[i]), row(perm[i]) + width,
                level.rows.begin() + static_cast<std::ptrdiff_t>(i * width));
    }
    if (above != nullptr) {
      std::vector<std::uint32_t> sorted_rank(n);
      for (std::size_t i = 0; i < n; ++i) {
        sorted_rank[perm[i]] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t& link : above->boundary_links) {
        link = sorted_rank[link];
      }
    }
  }

  if (bottom > 0) {
    // Extending a shallower cache: the new bottom level's links point into
    // the level below it, built earlier. That level's rows are sorted, so
    // each face's rank is a binary search away.
    FaceTable& level = face_cache_[bottom];
    const std::size_t width = bottom;  // row width of the level below
    const VertexId* below = face_cache_[bottom - 1].rows.data();
    const std::size_t below_count =
        face_cache_[bottom - 1].rows.size() / width;
    const std::size_t count = level.rows.size() / (width + 1);
    level.boundary_links.resize(count * (width + 1));
    std::size_t* link = level.boundary_links.data();
    const VertexId* face = level.rows.data();
    for (std::size_t c = 0; c < count; ++c, face += width + 1) {
      poll_every_4096(c);
      for (std::size_t omit = 0; omit <= width; ++omit) {
        std::copy(face, face + omit, key.begin());
        std::copy(face + omit + 1, face + width + 1, key.begin() + omit);
        std::size_t lo = 0;
        std::size_t hi = below_count;
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if (std::lexicographical_compare(below + mid * width,
                                           below + (mid + 1) * width,
                                           key.begin(), key.begin() + width)) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        *link++ = lo;
      }
    }
  }
}

void SimplicialComplex::warm_face_cache(int depth) const {
  depth = std::min(depth, max_facet_dim_);
  if (face_depth_.load(std::memory_order_acquire) >= depth) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (face_depth_.load(std::memory_order_relaxed) >= depth) return;
  build_face_levels(depth);
  face_depth_.store(depth, std::memory_order_release);
}

const SimplicialComplex::FaceTable* SimplicialComplex::face_table(
    int d) const {
  if (d < 0 || d > max_facet_dim_) return nullptr;
  warm_face_cache(d);
  return &face_cache_[static_cast<std::size_t>(d)];
}

std::span<const VertexId> SimplicialComplex::face_rows_of_dim(int d) const {
  const FaceTable* table = face_table(d);
  return table ? std::span<const VertexId>(table->rows)
               : std::span<const VertexId>();
}

const std::vector<std::size_t>& SimplicialComplex::boundary_links_of_dim(
    int d) const {
  static const std::vector<std::size_t> kNoLinks;
  if (d < 1) return kNoLinks;
  const FaceTable* table = face_table(d);
  return table ? table->boundary_links : kNoLinks;
}

std::size_t SimplicialComplex::count_of_dim(int d) const {
  const FaceTable* table = face_table(d);
  return table ? table->rows.size() / (static_cast<std::size_t>(d) + 1) : 0;
}

std::vector<VertexId> SimplicialComplex::vertex_ids() const {
  std::vector<VertexId> result;
  for_each_facet([&](std::span<const VertexId> facet) {
    result.insert(result.end(), facet.begin(), facet.end());
  });
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<std::size_t> SimplicialComplex::f_vector() const {
  warm_face_cache();
  std::vector<std::size_t> result;
  for (int d = 0; d <= max_facet_dim_; ++d) {
    const std::size_t slot = static_cast<std::size_t>(d);
    result.push_back(face_cache_[slot].rows.size() / (slot + 1));
  }
  return result;
}

long long SimplicialComplex::euler_characteristic() const {
  long long chi = 0;
  long long sign = 1;
  for (std::size_t count : f_vector()) {
    chi += sign * static_cast<long long>(count);
    sign = -sign;
  }
  return chi;
}

bool SimplicialComplex::is_pure() const {
  bool pure = true;
  for_each_facet([&](std::span<const VertexId> facet) {
    if (static_cast<int>(facet.size()) - 1 != max_facet_dim_) pure = false;
  });
  return pure;
}

bool SimplicialComplex::operator==(const SimplicialComplex& other) const {
  if (live_count_ != other.live_count_) return false;
  bool equal = true;
  for_each_facet([&](std::span<const VertexId> facet) {
    if (equal && !other.has_facet(facet, row_hash(facet))) equal = false;
  });
  return equal;
}

bool SimplicialComplex::is_subcomplex_of(
    const SimplicialComplex& other) const {
  bool sub = true;
  for_each_facet([&](std::span<const VertexId> facet) {
    if (sub && !other.dominated(facet) &&
        !other.has_facet(facet, row_hash(facet))) {
      sub = false;
    }
  });
  return sub;
}

SimplicialComplex SimplicialComplex::apply_vertex_map(
    const std::function<VertexId(VertexId)>& map, bool allow_collapse) const {
  SimplicialComplex image;
  for_each_facet([&](std::span<const VertexId> facet) {
    std::vector<VertexId> mapped;
    mapped.reserve(facet.size());
    for (VertexId v : facet) mapped.push_back(map(v));
    std::sort(mapped.begin(), mapped.end());
    const auto dup = std::unique(mapped.begin(), mapped.end());
    if (dup != mapped.end()) {
      if (!allow_collapse) {
        throw std::invalid_argument(
            "apply_vertex_map: map collapses a simplex (pass "
            "allow_collapse=true if intended)");
      }
      mapped.erase(dup, mapped.end());
    }
    image.add_facet(Simplex(std::move(mapped)));
  });
  return image;
}

std::string SimplicialComplex::to_string() const {
  std::ostringstream out;
  out << "Complex(dim=" << dimension() << ", facets=" << live_count_ << ")[";
  bool first = true;
  for (const Simplex& facet : facets()) {
    if (!first) out << ", ";
    first = false;
    out << facet.to_string();
  }
  out << "]";
  return out.str();
}

}  // namespace psph::topology
