// Tests for GF(2)/Boolean matrix algebra, Shamir's reduction, and the
// F_{2^61-1} dense-matrix kernels.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/subgraph.h"
#include "linalg/f2matrix.h"
#include "linalg/kernels.h"
#include "linalg/mat61.h"
#include "util/rng.h"

namespace cclique {
namespace {

TEST(F2Matrix, SetGet) {
  F2Matrix m(70);
  m.set(0, 69, true);
  m.set(69, 0, true);
  EXPECT_TRUE(m.get(0, 69));
  EXPECT_FALSE(m.get(1, 69));
  m.set(0, 69, false);
  EXPECT_FALSE(m.get(0, 69));
}

TEST(F2Matrix, AdditionIsXor) {
  Rng rng(1);
  const F2Matrix a = F2Matrix::random(20, rng);
  const F2Matrix b = F2Matrix::random(20, rng);
  const F2Matrix c = a + b;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      EXPECT_EQ(c.get(i, j), a.get(i, j) != b.get(i, j));
    }
  }
  EXPECT_EQ(a + a, F2Matrix(20));
}

TEST(F2Matrix, IdentityIsNeutral) {
  Rng rng(2);
  const F2Matrix a = F2Matrix::random(17, rng);
  EXPECT_EQ(f2_multiply_naive(a, F2Matrix::identity(17)), a);
  EXPECT_EQ(f2_multiply_naive(F2Matrix::identity(17), a), a);
}

TEST(F2Matrix, NaiveMatchesScalarDefinition) {
  Rng rng(3);
  const int n = 9;
  const F2Matrix a = F2Matrix::random(n, rng);
  const F2Matrix b = F2Matrix::random(n, rng);
  const F2Matrix c = f2_multiply_naive(a, b);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      bool sum = false;
      for (int k = 0; k < n; ++k) sum = sum != (a.get(i, k) && b.get(k, j));
      EXPECT_EQ(c.get(i, j), sum);
    }
  }
}

class StrassenTest : public ::testing::TestWithParam<int> {};

TEST_P(StrassenTest, MatchesNaive) {
  const int n = GetParam();
  Rng rng(100 + n);
  const F2Matrix a = F2Matrix::random(n, rng);
  const F2Matrix b = F2Matrix::random(n, rng);
  EXPECT_EQ(f2_multiply_strassen(a, b, /*cutoff=*/2), f2_multiply_naive(a, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, StrassenTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 30, 64, 100));

TEST(F2Matrix, StrassenOddSizesMatchNaive) {
  // Regression for the odd-size bailout: odd blocks used to fall back to
  // the full Θ(n³) naive product (and the top level padded to the next
  // power of two); the recursion now peels odd levels down to their even
  // core and patches with rank-1/border terms, so large odd sizes stay on
  // the Strassen path and must still be exact.
  Rng rng(77);
  for (int n : {31, 63, 127}) {
    const F2Matrix a = F2Matrix::random(n, rng);
    const F2Matrix b = F2Matrix::random(n, rng);
    EXPECT_EQ(f2_multiply_strassen(a, b, /*cutoff=*/16), f2_multiply_naive(a, b))
        << "n=" << n;
  }
}

TEST(F2Matrix, RandomFillsWordsAndMasksTail) {
  // The word-filling random() must keep the bits beyond column n-1 zero —
  // operator== compares raw words, so tail garbage would break equality.
  Rng rng(9);
  const int n = 70;  // tail word uses 6 of 64 bits
  const F2Matrix m = F2Matrix::random(n, rng);
  F2Matrix rebuilt(n);
  int ones = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      rebuilt.set(i, j, m.get(i, j));
      ones += m.get(i, j) ? 1 : 0;
    }
  }
  EXPECT_EQ(m, rebuilt);  // fails iff random() left tail bits set
  // Distribution sanity: about half the n^2 bits are set.
  EXPECT_GT(ones, n * n / 2 - 3 * n);
  EXPECT_LT(ones, n * n / 2 + 3 * n);
}

TEST(F2Matrix, AssociativityHolds) {
  Rng rng(4);
  const int n = 24;
  const F2Matrix a = F2Matrix::random(n, rng);
  const F2Matrix b = F2Matrix::random(n, rng);
  const F2Matrix c = F2Matrix::random(n, rng);
  EXPECT_EQ(f2_multiply_naive(f2_multiply_naive(a, b), c),
            f2_multiply_naive(a, f2_multiply_naive(b, c)));
}

TEST(BoolMultiply, MatchesScalarDefinition) {
  Rng rng(5);
  const int n = 12;
  const F2Matrix a = F2Matrix::random(n, rng);
  const F2Matrix b = F2Matrix::random(n, rng);
  const F2Matrix c = bool_multiply(a, b);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      bool any = false;
      for (int k = 0; k < n; ++k) any = any || (a.get(i, k) && b.get(k, j));
      EXPECT_EQ(c.get(i, j), any);
    }
  }
}

TEST(Shamir, OneSidedAndComplete) {
  Rng rng(6);
  const int n = 16;
  for (int trial = 0; trial < 5; ++trial) {
    const F2Matrix a = F2Matrix::random(n, rng);
    const F2Matrix b = F2Matrix::random(n, rng);
    const F2Matrix exact = bool_multiply(a, b);
    const F2Matrix approx = bool_multiply_via_f2(a, b, /*reps=*/20, rng);
    int missed = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        // One-sided: approx 1 implies exact 1.
        if (approx.get(i, j)) {
          EXPECT_TRUE(exact.get(i, j));
        }
        if (exact.get(i, j) && !approx.get(i, j)) ++missed;
      }
    }
    // With 20 reps, per-entry miss probability is 2^-20.
    EXPECT_EQ(missed, 0);
  }
}

TEST(TriangleViaMm, MatchesCombinatorialCount) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = gnp(24, 0.08 + 0.02 * trial, rng);
    EXPECT_EQ(has_triangle_via_mm(F2Matrix::adjacency(g)),
              count_triangles(g) > 0);
  }
}

TEST(Mat61, IdentityIsNeutral) {
  Rng rng(11);
  const Mat61 a = Mat61::random(9, rng);
  EXPECT_EQ(m61_multiply_schoolbook(a, Mat61::identity(9)), a);
  EXPECT_EQ(m61_multiply_schoolbook(Mat61::identity(9), a), a);
}

TEST(Mat61, SchoolbookMatchesScalarDefinition) {
  Rng rng(12);
  const int n = 7;
  const Mat61 a = Mat61::random(n, rng);
  const Mat61 b = Mat61::random(n, rng);
  const Mat61 c = m61_multiply_schoolbook(a, b);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::uint64_t acc = 0;
      for (int k = 0; k < n; ++k) {
        acc = Mersenne61::add(acc, Mersenne61::mul(a.get(i, k), b.get(k, j)));
      }
      EXPECT_EQ(c.get(i, j), acc);
    }
  }
}

class Mat61BlockedTest : public ::testing::TestWithParam<int> {};

TEST_P(Mat61BlockedTest, BlockedMatchesSchoolbook) {
  const int n = GetParam();
  Rng rng(200 + n);
  const Mat61 a = Mat61::random(n, rng);
  const Mat61 b = Mat61::random(n, rng);
  EXPECT_EQ(m61_multiply_kernel(a, b, KernelKind::kScalar, 1), m61_multiply_schoolbook(a, b));
}

// Sizes straddle the k-panel depth (32) so the lazy-reduction folds at the
// panel boundaries are exercised, including a partial trailing panel.
INSTANTIATE_TEST_SUITE_P(Sizes, Mat61BlockedTest,
                         ::testing::Values(1, 2, 5, 31, 32, 33, 70));

TEST(Mat61, BlockedSurvivesMaximalEntries) {
  // All-(p-1) matrices maximize every product in the 128-bit accumulator —
  // the worst case for the panel-overflow bound.
  const int n = 40;
  Mat61 a(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a.set(i, j, Mersenne61::kP - 1);
  }
  EXPECT_EQ(m61_multiply_kernel(a, a, KernelKind::kScalar, 1), m61_multiply_schoolbook(a, a));
}

TEST(Mat61, AdjacencySymmetricZeroDiagonal) {
  Rng rng(13);
  Graph g = gnp(12, 0.5, rng);
  const Mat61 a = Mat61::adjacency(g);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.get(i, i), 0u);
    for (int j = 0; j < 12; ++j) EXPECT_EQ(a.get(i, j), a.get(j, i));
  }
}

TEST(Adjacency, SymmetricZeroDiagonal) {
  Rng rng(8);
  Graph g = gnp(15, 0.4, rng);
  const F2Matrix a = F2Matrix::adjacency(g);
  for (int i = 0; i < 15; ++i) {
    EXPECT_FALSE(a.get(i, i));
    for (int j = 0; j < 15; ++j) EXPECT_EQ(a.get(i, j), a.get(j, i));
  }
}

}  // namespace
}  // namespace cclique
