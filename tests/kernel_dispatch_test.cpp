// The kernel-dispatch determinism gate (linalg/kernels): every
// {scalar, avx2-if-available} x CC_THREADS combination must produce
// bit-identical products for both semirings, CC_KERNEL must parse like
// CC_THREADS (unrecognized -> scalar, avx2 on a non-AVX2 host -> graceful
// scalar fallback, never a crash), and routing core/algebraic_mm and
// core/apsp through the dispatcher must leave CommStats untouched.
#include <gtest/gtest.h>

#include <vector>

#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/apsp.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "linalg/mat61.h"
#include "linalg/tropical.h"
#include "scoped_env.h"
#include "util/check.h"
#include "util/rng.h"

namespace cclique {
namespace {

/// The ablation grid: every kernel this host can run, crossed with the
/// thread counts the CI legs pin (1, 2, 8).
std::vector<KernelKind> runnable_kernels() {
  std::vector<KernelKind> kinds = {KernelKind::kScalar};
  if (cpu_has_avx2()) kinds.push_back(KernelKind::kAvx2);
  return kinds;
}

const int kThreadGrid[] = {1, 2, 8};

// --------------------------------------------------------------- Mat61 grid

/// Every (kernel, threads) cell must equal the schoolbook reference — not
/// just each other — so a shared systematic bug cannot self-certify.
void expect_m61_grid_matches(const Mat61& a, const Mat61& b) {
  const Mat61 ref = m61_multiply_schoolbook(a, b);
  for (KernelKind kind : runnable_kernels()) {
    for (int threads : kThreadGrid) {
      const Mat61 got = m61_multiply_kernel(a, b, kind, threads);
      EXPECT_EQ(got, ref) << "kernel=" << kernel_name(kind)
                          << " threads=" << threads << " n=" << a.n();
    }
  }
}

TEST(KernelDispatchM61, RandomMatricesMatchSchoolbookAcrossGrid) {
  Rng rng(20260807);
  // Odd sizes exercise the AVX2 kernels' vectorized-prefix/scalar-tail
  // column split (67 = 16*4 + 3 leaves a 3-column tail) and the gathered
  // quad-k passes' 1/2/3-lane remainders.
  for (int n : {1, 2, 3, 19, 64, 67}) {
    const Mat61 a = Mat61::random(n, rng);
    const Mat61 b = Mat61::random(n, rng);
    expect_m61_grid_matches(a, b);
  }
}

TEST(KernelDispatchM61, StructuredMatricesMatchSchoolbookAcrossGrid) {
  Rng rng(7);
  const Graph g = gnp(53, 0.3, rng);
  const Mat61 adj = Mat61::adjacency(g);  // sparse 0/1 — hits the aik==0 skip
  expect_m61_grid_matches(adj, adj);
  expect_m61_grid_matches(Mat61::identity(53), adj);
  expect_m61_grid_matches(Mat61(53), adj);  // all-zero
  // Worst-case magnitudes: every entry p-1 stresses the limb folds' upper
  // bounds (the depth-6 panel analysis is tight exactly here).
  Mat61 maxed(33);
  for (int i = 0; i < 33; ++i) {
    for (int j = 0; j < 33; ++j) maxed.set(i, j, Mersenne61::kP - 1);
  }
  expect_m61_grid_matches(maxed, maxed);
}

// ------------------------------------------------------------ tropical grid

void expect_tropical_grid_matches(const TropicalMat& a, const TropicalMat& b) {
  const TropicalMat ref = tropical_multiply_schoolbook(a, b);
  for (KernelKind kind : runnable_kernels()) {
    for (int threads : kThreadGrid) {
      const TropicalMat got = tropical_multiply_kernel(a, b, kind, threads);
      EXPECT_EQ(got, ref) << "kernel=" << kernel_name(kind)
                          << " threads=" << threads << " n=" << a.n();
    }
  }
}

TEST(KernelDispatchTropical, InfDensitySweepMatchesSchoolbookAcrossGrid) {
  Rng rng(99);
  for (int n : {1, 3, 21, 64, 67}) {
    // inf-free, mixed, inf-heavy, and all-inf inputs: the +inf lane-masking
    // argument must hold at every density, including degenerate extremes.
    for (double inf_prob : {0.0, 0.25, 0.7, 1.0}) {
      const TropicalMat a = TropicalMat::random(n, rng, /*bound=*/1u << 20, inf_prob);
      const TropicalMat b = TropicalMat::random(n, rng, /*bound=*/1u << 20, inf_prob);
      expect_tropical_grid_matches(a, b);
    }
  }
}

TEST(KernelDispatchTropical, StructuredDistanceMatricesMatchAcrossGrid) {
  Rng rng(4242);
  const Graph g = gnp(45, 0.12, rng);
  std::vector<std::uint32_t> weights;
  weights.reserve(static_cast<std::size_t>(g.num_edges()));
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    weights.push_back(static_cast<std::uint32_t>(rng.uniform(1000) + 1));
  }
  const TropicalMat d = TropicalMat::from_weighted_graph(g, weights);
  expect_tropical_grid_matches(d, d);
  expect_tropical_grid_matches(TropicalMat::identity(45), d);
  expect_tropical_grid_matches(TropicalMat(45), d);  // all-+inf
  // Saturation boundary: near-kInf finite entries whose sums cross kInf.
  const TropicalMat near_inf =
      TropicalMat::random(32, rng, kTropicalInf, /*inf_prob=*/0.3);
  expect_tropical_grid_matches(near_inf, near_inf);
}

// ------------------------------------------------------------- env parsing

TEST(KernelDispatchEnv, AutoEmptyAndUnsetPickTheBestAvailableKernel) {
  const KernelKind best =
      cpu_has_avx2() ? KernelKind::kAvx2 : KernelKind::kScalar;
  {
    ScopedEnv e("CC_KERNEL", "auto");
    EXPECT_EQ(active_kernel(), best);
  }
  {
    ScopedEnv e("CC_KERNEL", "");
    EXPECT_EQ(active_kernel(), best);
  }
}

TEST(KernelDispatchEnv, ScalarAndUnrecognizedValuesFailSafeToScalar) {
  for (const char* v : {"scalar", "SCALAR", "avx512", "3", "garbage"}) {
    ScopedEnv e("CC_KERNEL", v);
    EXPECT_EQ(active_kernel(), KernelKind::kScalar) << "CC_KERNEL=" << v;
  }
}

TEST(KernelDispatchEnv, Avx2RequestNeverCrashesOnAnyHost) {
  // On an AVX2 host the request is honored; on any other host it must fall
  // back to scalar with a notice — never throw, never crash. Either way a
  // dispatch-path product must still be correct.
  ScopedEnv e("CC_KERNEL", "avx2");
  const KernelKind k = active_kernel();
  if (cpu_has_avx2()) {
    EXPECT_EQ(k, KernelKind::kAvx2);
  } else {
    EXPECT_EQ(k, KernelKind::kScalar);
  }
  Rng rng(5);
  const Mat61 a = Mat61::random(20, rng);
  const Mat61 b = Mat61::random(20, rng);
  EXPECT_EQ(m61_multiply_dispatch(a, b), m61_multiply_schoolbook(a, b));
}

TEST(KernelDispatchEnv, ExplicitAvx2KernelRequiresAvx2Support) {
  // The explicit-grid API is strict where the env knob is forgiving: asking
  // for a kernel the host cannot run is a precondition error.
  if (cpu_has_avx2()) {
    GTEST_SKIP() << "host supports AVX2 — the strict-precondition branch is "
                    "only reachable on non-AVX2 hosts";
  }
  Rng rng(6);
  const Mat61 a = Mat61::random(8, rng);
  EXPECT_THROW(m61_multiply_kernel(a, a, KernelKind::kAvx2, 1),
               PreconditionError);
  const TropicalMat t = TropicalMat::random(8, rng);
  EXPECT_THROW(tropical_multiply_kernel(t, t, KernelKind::kAvx2, 1),
               PreconditionError);
}

TEST(KernelDispatchEnv, DispatchHonorsKernelAndThreadKnobsTogether) {
  Rng rng(77);
  const Mat61 a = Mat61::random(40, rng);
  const Mat61 b = Mat61::random(40, rng);
  const Mat61 ref = m61_multiply_schoolbook(a, b);
  const TropicalMat ta = TropicalMat::random(40, rng, 1u << 16, 0.2);
  const TropicalMat tb = TropicalMat::random(40, rng, 1u << 16, 0.2);
  const TropicalMat tref = tropical_multiply_schoolbook(ta, tb);
  for (const char* kernel : {"auto", "scalar", "avx2"}) {
    for (const char* threads : {"1", "2", "8", "not-a-number"}) {
      ScopedEnv ek("CC_KERNEL", kernel);
      ScopedEnv et("CC_THREADS", threads);
      EXPECT_EQ(m61_multiply_dispatch(a, b), ref)
          << "CC_KERNEL=" << kernel << " CC_THREADS=" << threads;
      EXPECT_EQ(tropical_multiply_dispatch(ta, tb), tref)
          << "CC_KERNEL=" << kernel << " CC_THREADS=" << threads;
    }
  }
}

// ----------------------------------------------- protocol-level determinism

/// CommStats must be kernel-independent: the kernels are local compute
/// between metered phases, so the full distributed protocols must report
/// identical schedules (and results) under every CC_KERNEL setting.
TEST(KernelDispatchProtocol, AlgebraicMmAndApspStatsAreKernelIndependent) {
  Rng rng(31337);
  const Graph g = gnp(24, 0.4, rng);
  std::vector<std::uint32_t> weights;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    weights.push_back(static_cast<std::uint32_t>(rng.uniform(100) + 1));
  }

  struct Run {
    AlgebraicCountResult tri;
    CommStats tri_stats;
    ApspResult apsp;
  };
  auto run_protocols = [&]() {
    CliqueUnicast net1(24, /*bandwidth=*/64);
    Run r;
    r.tri = triangle_count_algebraic(net1, g);
    r.tri_stats = net1.stats();
    CliqueUnicast net2(24, /*bandwidth=*/64);
    r.apsp = apsp_run(net2, g, weights);
    return r;
  };

  ScopedEnv base("CC_KERNEL", "scalar");
  const Run ref = run_protocols();
  for (const char* kernel : {"auto", "avx2"}) {
    ScopedEnv e("CC_KERNEL", kernel);
    const Run got = run_protocols();
    EXPECT_EQ(got.tri.count, ref.tri.count) << "CC_KERNEL=" << kernel;
    EXPECT_EQ(got.tri.total_rounds, ref.tri.total_rounds);
    EXPECT_EQ(got.tri_stats, ref.tri_stats);
    EXPECT_EQ(got.apsp.dist, ref.apsp.dist) << "CC_KERNEL=" << kernel;
    EXPECT_EQ(got.apsp.total_rounds, ref.apsp.total_rounds);
    EXPECT_EQ(got.apsp.total_bits, ref.apsp.total_bits);
  }
}

/// AVX2 coverage notice: on hosts without AVX2 the vector half of the grid
/// is unreachable; make that visible as a skip instead of silently passing.
TEST(KernelDispatchProtocol, Avx2GridActuallyRanOnThisHost) {
  if (!cpu_has_avx2()) {
    GTEST_SKIP() << "host lacks AVX2 (or build lacks the AVX2 TU) — grid "
                    "tests covered the scalar kernels only";
  }
  SUCCEED();
}

}  // namespace
}  // namespace cclique
