// Unit and property tests for the exact-math layer: BigInt arithmetic,
// combinatorial enumeration, GF(p) arithmetic, sparse matrices and ranks,
// Smith normal form (including known homology matrices).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "math/bigint.h"
#include "math/combinatorics.h"
#include "math/matrix.h"
#include "math/modular.h"
#include "math/smith.h"
#include "util/random.h"

namespace psph::math {
namespace {

// ---------------------------------------------------------------- BigInt --

TEST(BigInt, SmallRoundTrip) {
  for (std::int64_t v : {0LL, 1LL, -1LL, 42LL, -42LL, 1000000007LL}) {
    EXPECT_EQ(BigInt(v).to_int64(), v);
    EXPECT_EQ(BigInt(v).to_string(), std::to_string(v));
  }
}

TEST(BigInt, Int64Extremes) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(BigInt(min).to_int64(), min);
  EXPECT_EQ(BigInt(max).to_int64(), max);
  EXPECT_EQ(BigInt(min).to_string(), std::to_string(min));
}

TEST(BigInt, ParseDecimal) {
  EXPECT_EQ(BigInt("0").to_int64(), 0);
  EXPECT_EQ(BigInt("-123456789012345678").to_int64(), -123456789012345678LL);
  EXPECT_EQ(BigInt("+17").to_int64(), 17);
  EXPECT_THROW(BigInt(""), std::invalid_argument);
  EXPECT_THROW(BigInt("12a"), std::invalid_argument);
}

TEST(BigInt, LargeMultiplication) {
  // 2^128 computed by repeated squaring of 2^32.
  const BigInt two32(1LL << 32);
  const BigInt two64 = two32 * two32;
  const BigInt two128 = two64 * two64;
  EXPECT_EQ(two128.to_string(), "340282366920938463463374607431768211456");
  EXPECT_FALSE(two128.fits_int64());
  EXPECT_THROW(two128.to_int64(), std::overflow_error);
}

TEST(BigInt, AdditionAgainstInt64) {
  util::Rng rng(101);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t a = rng.next_in(-1000000000, 1000000000);
    const std::int64_t b = rng.next_in(-1000000000, 1000000000);
    EXPECT_EQ((BigInt(a) + BigInt(b)).to_int64(), a + b);
    EXPECT_EQ((BigInt(a) - BigInt(b)).to_int64(), a - b);
    EXPECT_EQ((BigInt(a) * BigInt(b)).to_int64(), a * b);
  }
}

TEST(BigInt, DivModMatchesCppSemantics) {
  util::Rng rng(103);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t a = rng.next_in(-100000, 100000);
    std::int64_t b = rng.next_in(-1000, 1000);
    if (b == 0) b = 7;
    EXPECT_EQ((BigInt(a) / BigInt(b)).to_int64(), a / b) << a << "/" << b;
    EXPECT_EQ((BigInt(a) % BigInt(b)).to_int64(), a % b) << a << "%" << b;
  }
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(5) / BigInt(0), std::domain_error);
  EXPECT_THROW(BigInt(5) % BigInt(0), std::domain_error);
}

TEST(BigInt, DivModIdentityOnLargeValues) {
  // dividend == quotient * divisor + remainder must hold for values far
  // beyond int64.
  const BigInt big("123456789012345678901234567890123456789");
  const BigInt div("98765432109876543210");
  BigInt q, r;
  BigInt::div_mod(big, div, &q, &r);
  EXPECT_EQ(q * div + r, big);
  EXPECT_TRUE(r.abs() < div.abs());
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(2), BigInt(10));
  EXPECT_FALSE(BigInt(3) < BigInt(3));
  EXPECT_LE(BigInt(3), BigInt(3));
  EXPECT_GT(BigInt("100000000000000000000"), BigInt(1));
}

TEST(BigInt, GcdBasics) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).to_int64(), 0);
}

TEST(BigInt, GcdAgainstInt64) {
  util::Rng rng(107);
  const auto gcd64 = [](std::int64_t a, std::int64_t b) {
    a = a < 0 ? -a : a;
    b = b < 0 ? -b : b;
    while (b != 0) {
      const std::int64_t r = a % b;
      a = b;
      b = r;
    }
    return a;
  };
  for (int i = 0; i < 300; ++i) {
    const std::int64_t a = rng.next_in(-100000, 100000);
    const std::int64_t b = rng.next_in(-100000, 100000);
    EXPECT_EQ(BigInt::gcd(BigInt(a), BigInt(b)).to_int64(), gcd64(a, b));
  }
}

TEST(BigInt, UnaryMinusAndAbs) {
  EXPECT_EQ((-BigInt(5)).to_int64(), -5);
  EXPECT_EQ((-BigInt(0)).to_int64(), 0);
  EXPECT_FALSE((-BigInt(0)).is_negative());
  EXPECT_EQ(BigInt(-9).abs().to_int64(), 9);
}

// -------------------------------------------------------- combinatorics --

TEST(Combinatorics, BinomialTable) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(3, 4), 0u);
  EXPECT_EQ(binomial(-1, 0), 0u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Combinatorics, CombinationsCountAndOrder) {
  const auto combos = combinations(5, 3);
  EXPECT_EQ(combos.size(), binomial(5, 3));
  // Lexicographic order, first and last known.
  EXPECT_EQ(combos.front(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(combos.back(), (std::vector<int>{2, 3, 4}));
  for (std::size_t i = 1; i < combos.size(); ++i) {
    EXPECT_LT(combos[i - 1], combos[i]);
  }
}

TEST(Combinatorics, CombinationsEdges) {
  EXPECT_EQ(combinations(4, 0).size(), 1u);  // the empty combination
  EXPECT_TRUE(combinations(4, 0).front().empty());
  EXPECT_TRUE(combinations(3, 5).empty());
  EXPECT_EQ(combinations(0, 0).size(), 1u);
}

TEST(Combinatorics, AllSubsetsPowerSetSize) {
  const std::vector<int> items{1, 2, 3, 4};
  EXPECT_EQ(all_subsets(items).size(), 16u);
}

TEST(Combinatorics, SubsetsWithSizeBetween) {
  const std::vector<int> items{10, 20, 30, 40};
  const auto subsets = subsets_with_size_between(items, 2, 3);
  EXPECT_EQ(subsets.size(), binomial(4, 2) + binomial(4, 3));
  for (const auto& s : subsets) {
    EXPECT_GE(s.size(), 2u);
    EXPECT_LE(s.size(), 3u);
  }
}

TEST(Combinatorics, SubsetsClampedBounds) {
  const std::vector<int> items{1, 2};
  EXPECT_EQ(subsets_with_size_between(items, -3, 99).size(), 4u);
}

TEST(Combinatorics, ProductEnumeration) {
  std::vector<std::vector<std::size_t>> seen;
  for_each_product({2, 3}, [&](const std::vector<std::size_t>& odo) {
    seen.push_back(odo);
  });
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen.front(), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(seen.back(), (std::vector<std::size_t>{1, 2}));
}

TEST(Combinatorics, ProductWithEmptyFactorVisitsNothing) {
  int visits = 0;
  for_each_product({2, 0, 3},
                   [&](const std::vector<std::size_t>&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(Combinatorics, EmptyProductVisitsOnce) {
  int visits = 0;
  for_each_product({}, [&](const std::vector<std::size_t>&) { ++visits; });
  EXPECT_EQ(visits, 1);
}

// -------------------------------------------------------------- modular --

TEST(Modular, BasicOps) {
  const std::int64_t p = 97;
  EXPECT_EQ(mod_normalize(-1, p), 96);
  EXPECT_EQ(mod_add(96, 5, p), 4);
  EXPECT_EQ(mod_sub(3, 5, p), 95);
  EXPECT_EQ(mod_mul(10, 10, p), 3);
  EXPECT_EQ(mod_pow(2, 10, p), 1024 % 97);
}

TEST(Modular, InverseIsInverse) {
  const std::int64_t p = kDefaultPrime;
  util::Rng rng(109);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.next_in(1, p - 1);
    EXPECT_EQ(mod_mul(v, mod_inverse(v, p), p), 1);
  }
  EXPECT_THROW(mod_inverse(0, p), std::domain_error);
}

TEST(Modular, FermatLittleTheorem) {
  const std::int64_t p = 101;
  for (std::int64_t v = 1; v < p; ++v) {
    EXPECT_EQ(mod_pow(v, p - 1, p), 1);
  }
}

// --------------------------------------------------------------- matrix --

TEST(SparseMatrix, SetGetAddEraseZero) {
  SparseMatrix m(3, 3);
  m.set(0, 0, 5);
  EXPECT_EQ(m.get(0, 0), 5);
  m.add(0, 0, -5);
  EXPECT_EQ(m.get(0, 0), 0);
  EXPECT_EQ(m.nonzeros(), 0u);
  m.set(1, 2, 7);
  m.set(1, 2, 0);
  EXPECT_EQ(m.nonzeros(), 0u);
  EXPECT_THROW(m.set(3, 0, 1), std::out_of_range);
  EXPECT_THROW(m.get(0, 3), std::out_of_range);
}

TEST(SparseMatrix, DenseRoundTrip) {
  SparseMatrix m(2, 3);
  m.set(0, 1, -1);
  m.set(1, 2, 4);
  const auto dense = m.to_dense();
  EXPECT_EQ(dense[0][1], -1);
  EXPECT_EQ(dense[1][2], 4);
  EXPECT_EQ(dense[0][0], 0);
}

TEST(SparseMatrix, RankIdentity) {
  SparseMatrix m(4, 4);
  for (std::size_t i = 0; i < 4; ++i) m.set(i, i, 1);
  EXPECT_EQ(m.rank_mod_p(kDefaultPrime), 4u);
}

TEST(SparseMatrix, RankDependentRows) {
  SparseMatrix m(3, 3);
  // Row2 = row0 + row1.
  m.set(0, 0, 1);
  m.set(0, 1, 2);
  m.set(1, 1, 3);
  m.set(1, 2, 4);
  m.set(2, 0, 1);
  m.set(2, 1, 5);
  m.set(2, 2, 4);
  EXPECT_EQ(m.rank_mod_p(kDefaultPrime), 2u);
}

TEST(SparseMatrix, RankZeroMatrix) {
  SparseMatrix m(5, 7);
  EXPECT_EQ(m.rank_mod_p(kDefaultPrime), 0u);
}

TEST(SparseMatrix, RankRandomProductBound) {
  // rank(A*B) <= min(rank A, rank B); build A (4x2) and B (2x5) explicitly,
  // so the 4x5 product has rank <= 2.
  util::Rng rng(113);
  std::int64_t a[4][2];
  std::int64_t b[2][5];
  for (auto& row : a) {
    for (auto& cell : row) cell = rng.next_in(-4, 4);
  }
  for (auto& row : b) {
    for (auto& cell : row) cell = rng.next_in(-4, 4);
  }
  SparseMatrix product(4, 5);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      std::int64_t sum = 0;
      for (std::size_t t = 0; t < 2; ++t) sum += a[i][t] * b[t][j];
      product.set(i, j, sum);
    }
  }
  EXPECT_LE(product.rank_mod_p(kDefaultPrime), 2u);
}

namespace {

// Dense GF(2) Gaussian elimination, the reference for the sparse elimination
// at p = 2.
std::size_t dense_rank_mod_2(std::vector<std::vector<std::int64_t>> a) {
  std::size_t rank = 0;
  const std::size_t rows = a.size();
  const std::size_t cols = rows == 0 ? 0 : a[0].size();
  for (std::size_t c = 0; c < cols && rank < rows; ++c) {
    std::size_t pivot = rank;
    while (pivot < rows && (a[pivot][c] & 1) == 0) ++pivot;
    if (pivot == rows) continue;
    std::swap(a[rank], a[pivot]);
    for (std::size_t r = 0; r < rows; ++r) {
      if (r != rank && (a[r][c] & 1) != 0) {
        for (std::size_t j = c; j < cols; ++j) a[r][j] ^= a[rank][j];
      }
    }
    ++rank;
  }
  return rank;
}

}  // namespace

TEST(SparseMatrix, RankAtTwoMatchesDenseReference) {
  util::Rng rng(211);
  for (int trial = 0; trial < 50; ++trial) {
    // Narrow and wide shapes, with entries of both parities.
    const std::size_t rows = 1 + rng.next_below(8);
    const std::size_t cols = 1 + rng.next_below(trial % 2 == 0 ? 8 : 130);
    SparseMatrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        if (rng.next_bool(0.3)) m.set(i, j, rng.next_in(-3, 3));
      }
    }
    EXPECT_EQ(m.rank_mod_p(2), dense_rank_mod_2(m.to_dense()))
        << "trial " << trial;
  }
}

TEST(SparseMatrix, RankAtTwoAgreesWithOddPrimeOnTorsionFreeMatrix) {
  // A boundary-like ±1 incidence matrix of a path graph: torsion-free, so
  // the GF(2) rank equals the rank at the default (large) prime.
  SparseMatrix m(5, 4);
  for (std::size_t e = 0; e < 4; ++e) {
    m.set(e, e, -1);
    m.set(e + 1, e, 1);
  }
  EXPECT_EQ(m.rank_mod_p(2), m.rank_mod_p(kDefaultPrime));
  EXPECT_EQ(m.rank_mod_p(2), 4u);
}

TEST(SparseMatrix, RankAtTwoExactOnWideMatrix) {
  // Identity-with-duplicates plus one more column: rank known exactly.
  SparseMatrix known(6, 130);
  for (std::size_t r = 0; r < 3; ++r) known.set(r, 40 * r + 7, 1);
  for (std::size_t r = 3; r < 6; ++r) known.set(r, 40 * (r - 3) + 7, 1);
  known.set(5, 129, 1);  // row 5 = row 2 + e_129: independent
  EXPECT_EQ(known.rank_mod_p(2), 4u);
}

TEST(SparseMatrix, SetOutOfIncreasingColumnOrder) {
  // The flat rows keep entries sorted even when columns arrive backwards.
  SparseMatrix m(1, 6);
  m.set(0, 5, 1);
  m.set(0, 1, 2);
  m.set(0, 3, 3);
  m.set(0, 1, 0);  // erase
  EXPECT_EQ(m.get(0, 1), 0);
  EXPECT_EQ(m.get(0, 3), 3);
  EXPECT_EQ(m.get(0, 5), 1);
  EXPECT_EQ(m.nonzeros(), 2u);
  const auto& row = m.row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_LT(row[0].first, row[1].first);
}

// ---------------------------------------------------------------- smith --

TEST(Smith, DiagonalMatrix) {
  SparseMatrix m(3, 3);
  m.set(0, 0, 2);
  m.set(1, 1, 6);
  m.set(2, 2, 12);
  const SmithResult snf = smith_normal_form(m);
  ASSERT_EQ(snf.rank(), 3u);
  // Invariant factors must divide in a chain; for diag(2,6,12) they are
  // (2, 6, 12) already.
  EXPECT_EQ(snf.invariants[0].to_int64(), 2);
  EXPECT_EQ(snf.invariants[1].to_int64(), 6);
  EXPECT_EQ(snf.invariants[2].to_int64(), 12);
}

TEST(Smith, DivisibilityChainEnforced) {
  // diag(4, 6) has SNF diag(2, 12).
  SparseMatrix m(2, 2);
  m.set(0, 0, 4);
  m.set(1, 1, 6);
  const SmithResult snf = smith_normal_form(m);
  ASSERT_EQ(snf.rank(), 2u);
  EXPECT_EQ(snf.invariants[0].to_int64(), 2);
  EXPECT_EQ(snf.invariants[1].to_int64(), 12);
}

TEST(Smith, ZeroMatrix) {
  SparseMatrix m(3, 4);
  const SmithResult snf = smith_normal_form(m);
  EXPECT_EQ(snf.rank(), 0u);
  EXPECT_TRUE(snf.torsion().empty());
}

TEST(Smith, TorsionOfProjectivePlaneBoundary) {
  // The classical minimal triangulation of RP^2 has H_1 = Z/2. Rather than
  // build the whole complex here (the topology tests do), check the SNF of
  // the matrix [[2]] directly and of a small matrix with known invariants.
  SparseMatrix m(1, 1);
  m.set(0, 0, 2);
  const SmithResult snf = smith_normal_form(m);
  ASSERT_EQ(snf.rank(), 1u);
  EXPECT_EQ(snf.invariants[0].to_int64(), 2);
  ASSERT_EQ(snf.torsion().size(), 1u);
  EXPECT_EQ(snf.torsion()[0].to_int64(), 2);
}

TEST(Smith, RankMatchesGfpOnRandomMatrices) {
  util::Rng rng(127);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t rows = 1 + rng.next_below(5);
    const std::size_t cols = 1 + rng.next_below(5);
    SparseMatrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        if (rng.next_bool(0.6)) m.set(i, j, rng.next_in(-3, 3));
      }
    }
    EXPECT_EQ(smith_normal_form(m).rank(), m.rank_mod_p(kDefaultPrime));
  }
}

TEST(Smith, NegativeEntriesGivePositiveInvariants) {
  SparseMatrix m(2, 2);
  m.set(0, 0, -3);
  m.set(1, 1, -5);
  const SmithResult snf = smith_normal_form(m);
  ASSERT_EQ(snf.rank(), 2u);
  EXPECT_GT(snf.invariants[0], BigInt(0));
  EXPECT_GT(snf.invariants[1], BigInt(0));
  EXPECT_EQ(snf.invariants[0] * snf.invariants[1], BigInt(15));
}

}  // namespace
}  // namespace psph::math
