#pragma once

// Hash combinators shared by the interning arenas and simplex tables.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace psph::util {

/// Mixes a new value into an accumulating hash (boost-style combine with a
/// 64-bit golden-ratio constant).
inline std::size_t hash_combine(std::size_t seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

/// splitmix64's finalizer: a bijection on 64 bits in which every input bit
/// reaches every output bit, so open-addressing tables can mask off the low
/// bits of clustered keys (small dense ids, combined rows) and still spread.
/// FlatIndex (util/flat_index.h) applies it to every hash it is handed.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of a vector of hashable elements, order-sensitive.
template <typename T>
std::size_t hash_range(const std::vector<T>& items, std::size_t seed = 0) {
  std::hash<T> hasher;
  for (const T& item : items) seed = hash_combine(seed, hasher(item));
  return hash_combine(seed, items.size());
}

/// Hash of a row of integers, combined in order from `seed`. Unlike
/// hash_range it leaves the length out: the flat indexes' rows either share
/// one width or compare it in their own predicate.
template <typename T>
std::size_t row_hash(const T* row, std::size_t width, std::size_t seed = 0) {
  for (std::size_t i = 0; i < width; ++i) {
    seed = hash_combine(seed, static_cast<std::size_t>(row[i]));
  }
  return seed;
}

/// Deterministic 64-bit hash of a byte range (xxhash-style mixing). Unlike
/// std::hash, the value is specified by this implementation alone, so it is
/// stable across processes, platforms, and standard libraries — safe to use
/// in on-disk formats (store checksums, cache keys).
inline std::uint64_t hash_bytes(const void* data, std::size_t size,
                                std::uint64_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint64_t prime1 = 0x9e3779b185ebca87ULL;
  const std::uint64_t prime2 = 0xc2b2ae3d27d4eb4fULL;
  const std::uint64_t prime3 = 0x165667b19e3779f9ULL;
  std::uint64_t h = seed + prime3 + size;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t block = 0;
    for (int b = 0; b < 8; ++b) {
      block |= static_cast<std::uint64_t>(p[i + b]) << (8 * b);
    }
    block *= prime2;
    block = (block << 31) | (block >> 33);
    h ^= block * prime1;
    h = ((h << 27) | (h >> 37)) * prime1 + prime2;
  }
  for (; i < size; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]) * prime3;
    h = ((h << 11) | (h >> 53)) * prime1;
  }
  h ^= h >> 33;
  h *= prime2;
  h ^= h >> 29;
  h *= prime3;
  h ^= h >> 32;
  return h;
}

/// Hash for std::pair, usable as a map hasher.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    return hash_combine(std::hash<A>{}(p.first), std::hash<B>{}(p.second));
  }
};

/// Hash for vectors, usable as a map hasher.
template <typename T>
struct VectorHash {
  std::size_t operator()(const std::vector<T>& v) const {
    return hash_range(v);
  }
};

}  // namespace psph::util
