#include "core/iis_complex.h"

#include <functional>
#include <limits>
#include <stdexcept>

#include "core/round_ops.h"
#include "math/combinatorics.h"
#include "topology/simplex.h"

namespace psph::core {

namespace detail {

void for_each_ordered_partition(
    const std::vector<int>& items,
    const std::function<void(const std::vector<std::vector<int>>&)>& visit) {
  std::vector<std::vector<int>> blocks;
  std::vector<int> remaining = items;
  const std::function<void()> recurse = [&]() {
    if (remaining.empty()) {
      visit(blocks);
      return;
    }
    // Choose the next block: blocks are unordered sets but their *sequence*
    // matters, and every nonempty subset may come first. Enumerating all
    // nonempty subsets of `remaining` as the next block never double
    // counts.
    const std::vector<std::vector<int>> subsets =
        math::subsets_with_size_between(remaining, 1,
                                        static_cast<int>(remaining.size()));
    for (const std::vector<int>& block : subsets) {
      std::vector<int> rest;
      for (int item : remaining) {
        bool in_block = false;
        for (int b : block) {
          if (b == item) in_block = true;
        }
        if (!in_block) rest.push_back(item);
      }
      blocks.push_back(block);
      std::vector<int> saved = std::move(remaining);
      remaining = std::move(rest);
      recurse();
      remaining = std::move(saved);
      blocks.pop_back();
    }
  };
  recurse();
}

}  // namespace detail

std::uint64_t ordered_bell(int m) {
  if (m < 0) throw std::invalid_argument("ordered_bell: m < 0");
  // a(m) = sum_{j=1..m} C(m, j) a(m-j), a(0) = 1.
  std::vector<std::uint64_t> a(static_cast<std::size_t>(m) + 1, 0);
  a[0] = 1;
  for (int i = 1; i <= m; ++i) {
    std::uint64_t total = 0;
    for (int j = 1; j <= i; ++j) {
      const std::uint64_t term = math::binomial(i, j) *
                                 a[static_cast<std::size_t>(i - j)];
      if (total > std::numeric_limits<std::uint64_t>::max() - term) {
        throw std::overflow_error("ordered_bell: overflow");
      }
      total += term;
    }
    a[static_cast<std::size_t>(i)] = total;
  }
  return a[static_cast<std::size_t>(m)];
}

topology::SimplicialComplex iis_round_complex(const topology::Simplex& input,
                                              ViewRegistry& views,
                                              topology::VertexArena& arena) {
  detail::ExpandScratch scratch;
  detail::RoundOutput out;
  detail::expand_iis_round(input.vertices(), views, arena, scratch, &out);
  topology::SimplicialComplex result;
  for (const detail::RoundGroup& group : out.groups) {
    result.add_facets(out.facets.rows(group.first, group.last));
  }
  return result;
}

}  // namespace psph::core
