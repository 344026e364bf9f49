// Tests for the min-plus workload: the tropical matrix substrate
// (linalg/tropical), the distributed distance product (min_plus_mm over the
// shared block-MM schedule), and exact APSP by repeated squaring
// (core/apsp) — correctness against per-source Dijkstra on a spread of
// generators (including disconnected and zero-weight-edge graphs), exact
// agreement between the measured schedule and apsp_plan, the degenerate
// m = 1 decomposition, the derived eccentricity/diameter/radius queries,
// agreement of the dense, sparse and adaptive squaring backends, and
// scheduler-independence of the stats.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/oblivious_guard.h"
#include "core/apsp.h"
#include "core/sparse_mm.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "linalg/sparse.h"
#include "linalg/tropical.h"
#include "scoped_env.h"
#include "util/rng.h"

namespace cclique {
namespace {

std::vector<std::uint32_t> random_weights(const Graph& g, Rng& rng,
                                          std::uint32_t bound) {
  std::vector<std::uint32_t> w(g.num_edges());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.uniform(bound));
  return w;
}

std::vector<std::uint32_t> unit_weights(const Graph& g) {
  return std::vector<std::uint32_t>(g.num_edges(), 1);
}

/// The local reference APSP: ceil(log2(n-1)) schoolbook squarings of W.
TropicalMat schoolbook_squarings(const Graph& g, const std::vector<std::uint32_t>& w) {
  TropicalMat d = TropicalMat::from_weighted_graph(g, w);
  for (int s = 0; s < apsp_plan(g.num_vertices(), 64).squarings; ++s) {
    d = tropical_multiply_schoolbook(d, d);
  }
  return d;
}

// ---------------------------------------------------------------- tropical

TEST(Tropical, SaturatingAdd) {
  EXPECT_EQ(tropical_add(0, 0), 0u);
  EXPECT_EQ(tropical_add(3, 4), 7u);
  EXPECT_EQ(tropical_add(kTropicalInf, 0), kTropicalInf);
  EXPECT_EQ(tropical_add(0, kTropicalInf), kTropicalInf);
  EXPECT_EQ(tropical_add(kTropicalInf, kTropicalInf), kTropicalInf);
  // Finite sums that reach the infinity encoding saturate instead of
  // producing a bogus huge "finite" value.
  EXPECT_EQ(tropical_add(kTropicalInf - 1, 1), kTropicalInf);
  EXPECT_EQ(tropical_add(kTropicalInf - 1, 2), kTropicalInf);
  EXPECT_EQ(tropical_add(kTropicalInf - 1, 0), kTropicalInf - 1);
}

TEST(Tropical, DefaultMatrixIsSemiringZero) {
  const TropicalMat z(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ(z.get(i, j), kTropicalInf);
  }
  // Semiring zero is the identity of ⊕ (entrywise min): Z ⊗ A = Z.
  Rng rng(1);
  const TropicalMat a = TropicalMat::random(3, rng, 100);
  EXPECT_EQ(tropical_multiply_schoolbook(z, a), z);
  EXPECT_EQ(tropical_multiply_schoolbook(a, z), z);
}

TEST(Tropical, IdentityIsMultiplicativeIdentity) {
  Rng rng(2);
  for (int n : {1, 4, 7}) {
    const TropicalMat a = TropicalMat::random(n, rng, 1000, 0.2);
    const TropicalMat id = TropicalMat::identity(n);
    EXPECT_EQ(tropical_multiply_schoolbook(id, a), a) << "n=" << n;
    EXPECT_EQ(tropical_multiply_schoolbook(a, id), a) << "n=" << n;
    EXPECT_EQ(tropical_multiply_kernel(id, a, KernelKind::kScalar, 1), a) << "n=" << n;
    EXPECT_EQ(tropical_multiply_kernel(a, id, KernelKind::kScalar, 1), a) << "n=" << n;
  }
}

TEST(Tropical, BlockedKernelMatchesSchoolbook) {
  Rng rng(3);
  // Sweep density of +inf entries from inf-free to all-inf; the kernels
  // must agree exactly, including on saturating near-kInf sums.
  for (int n : {1, 2, 5, 8, 16}) {
    for (double inf_prob : {0.0, 0.3, 0.9, 1.0}) {
      const TropicalMat a = TropicalMat::random(n, rng, kTropicalInf, inf_prob);
      const TropicalMat b = TropicalMat::random(n, rng, kTropicalInf, inf_prob);
      EXPECT_EQ(tropical_multiply_kernel(a, b, KernelKind::kScalar, 1),
                tropical_multiply_schoolbook(a, b))
          << "n=" << n << " inf_prob=" << inf_prob;
    }
  }
}

TEST(Tropical, SetRejectsOutOfCarrierValues) {
  TropicalMat m(2);
  EXPECT_THROW(m.set(0, 0, kTropicalInf + 1), PreconditionError);
  EXPECT_THROW(m.min_at(0, 0, ~0ULL), PreconditionError);
  EXPECT_THROW(m.get(2, 0), PreconditionError);
}

TEST(Tropical, FromWeightedGraph) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const TropicalMat w = TropicalMat::from_weighted_graph(g, {5, 0});
  EXPECT_EQ(w.get(0, 0), 0u);
  EXPECT_EQ(w.get(0, 1), 5u);
  EXPECT_EQ(w.get(1, 0), 5u);
  EXPECT_EQ(w.get(1, 2), 0u);  // zero-weight edge is a real edge, not "absent"
  EXPECT_EQ(w.get(0, 2), kTropicalInf);
  EXPECT_EQ(w.get(3, 0), kTropicalInf);
  EXPECT_THROW(TropicalMat::from_weighted_graph(g, {1}), PreconditionError);
}

// ----------------------------------------------------- distributed product

class MinPlusMmSizes : public ::testing::TestWithParam<int> {};

// Sizes cover the degenerate one-triple grid (m=1, n in [1, 8)), non-cubes
// with idle players and ragged last intervals, and a perfect cube.
INSTANTIATE_TEST_SUITE_P(Sizes, MinPlusMmSizes,
                         ::testing::Values(1, 2, 5, 7, 8, 11, 27));

TEST_P(MinPlusMmSizes, MatchesSchoolbook) {
  const int n = GetParam();
  Rng rng(500 + n);
  const TropicalMat a = TropicalMat::random(n, rng, 1u << 20, 0.25);
  const TropicalMat b = TropicalMat::random(n, rng, 1u << 20, 0.25);
  CliqueUnicast net(n, 64);
  TropicalMat c;
  const AlgebraicMmPlan plan = min_plus_mm(net, a, b, &c);
  EXPECT_EQ(c, tropical_multiply_schoolbook(a, b));
  EXPECT_EQ(net.stats().rounds, plan.total_rounds);
  EXPECT_EQ(net.stats().total_bits, plan.total_bits);
}

TEST(MinPlusMm, DegenerateGridRunsOneTriple) {
  // n < 8 means m = 1: the whole product is one block at player 0, every
  // row owner ships its rows in, player 0 ships all partial rows out.
  for (int n : {2, 3, 7}) {
    const AlgebraicMmPlan plan = apsp_plan(n, 64).product;
    EXPECT_EQ(plan.grid, 1) << "n=" << n;
    EXPECT_EQ(plan.block, n) << "n=" << n;
  }
}

TEST(MinPlusMm, ScheduleMatchesM61Product) {
  // One distance product costs the identical data-independent schedule as
  // the F_{2^61-1} product: same 61-bit word width, same geometry, so
  // exactly 6 * n^{1/3} rounds at perfect cubes with b = 64.
  for (int cbrt : {2, 3}) {
    const int n = cbrt * cbrt * cbrt;
    const AlgebraicMmPlan m61 = algebraic_mm_plan(n, 61, 64);
    const AlgebraicMmPlan trop = apsp_plan(n, 64).product;
    EXPECT_EQ(trop.total_rounds, m61.total_rounds);
    EXPECT_EQ(trop.total_bits, m61.total_bits);
    EXPECT_EQ(trop.total_rounds, 6 * cbrt);
  }
}

TEST(MinPlusMm, KernelChoiceDoesNotChangeScheduleOrOutput) {
  // The triple players' local kernel is the CC_KERNEL dispatch: every
  // kernel this host runs must reproduce the schoolbook product and meter
  // the identical schedule.
  const int n = 11;
  Rng rng(77);
  const TropicalMat a = TropicalMat::random(n, rng, 1u << 16, 0.4);
  const TropicalMat b = TropicalMat::random(n, rng, 1u << 16, 0.4);
  const TropicalMat ref = tropical_multiply_schoolbook(a, b);
  std::vector<CommStats> stats;
  for (const char* kernel : {"scalar", "avx2"}) {
    ScopedEnv e("CC_KERNEL", kernel);
    CliqueUnicast net(n, 32);
    TropicalMat c;
    const AlgebraicMmPlan plan = min_plus_mm(net, a, b, &c);
    EXPECT_EQ(c, ref) << "CC_KERNEL=" << kernel;
    EXPECT_EQ(net.stats().total_bits, plan.total_bits) << "CC_KERNEL=" << kernel;
    stats.push_back(net.stats());
  }
  EXPECT_EQ(stats[0], stats[1]);
}

// ------------------------------------------------------------------- APSP

struct ApspCase {
  const char* name;
  Graph g;
  std::vector<std::uint32_t> weights;
};

std::vector<ApspCase> apsp_cases() {
  Rng rng(2026);
  std::vector<ApspCase> cases;
  cases.push_back({"single_vertex", Graph(1), {}});
  cases.push_back({"two_path", path_graph(2), {3}});
  cases.push_back({"edgeless", Graph(6), {}});
  {
    Graph g = path_graph(9);
    cases.push_back({"path_unit", g, unit_weights(g)});
  }
  {
    Graph g = cycle_graph(10);
    cases.push_back({"cycle_random", g, random_weights(g, rng, 1000)});
  }
  {
    Graph g = complete_graph(8);
    cases.push_back({"complete_random", g, random_weights(g, rng, 50)});
  }
  {
    Graph g = star_graph(12);
    cases.push_back({"star_random", g, random_weights(g, rng, 1u << 20)});
  }
  {
    Graph g = complete_bipartite(4, 5);
    cases.push_back({"bipartite_random", g, random_weights(g, rng, 100)});
  }
  {
    Graph g = gnp(20, 0.3, rng);
    cases.push_back({"gnp_random", g, random_weights(g, rng, 1u << 16)});
  }
  {
    Graph g = gnm(16, 22, rng);
    cases.push_back({"gnm_random", g, random_weights(g, rng, 1u << 10)});
  }
  {
    Graph g = random_tree(15, rng);
    cases.push_back({"tree_random", g, random_weights(g, rng, 500)});
  }
  {
    // Disconnected: two G(n, p) components — cross-component distances must
    // come out +infinity and the diameter must be infinite.
    Graph g = gnp(7, 0.6, rng).disjoint_union(gnp(6, 0.6, rng));
    cases.push_back({"disconnected_gnp", g, random_weights(g, rng, 200)});
  }
  {
    // Zero-weight edges: distances collapse along 0-edges; Dijkstra with
    // non-negative weights handles them, and so must the squaring.
    Graph g = gnp(14, 0.35, rng);
    std::vector<std::uint32_t> w(g.num_edges());
    for (std::size_t e = 0; e < w.size(); ++e) {
      w[e] = e % 3 == 0 ? 0u : static_cast<std::uint32_t>(rng.uniform(64));
    }
    cases.push_back({"zero_weight_mix", g, std::move(w)});
  }
  {
    Graph g = gnp(13, 0.4, rng);
    cases.push_back({"all_zero_weights", g,
                     std::vector<std::uint32_t>(g.num_edges(), 0)});
  }
  return cases;
}

TEST(Apsp, MatchesDijkstraOnAllGenerators) {
  for (const ApspCase& c : apsp_cases()) {
    CliqueUnicast net(c.g.num_vertices(), 64);
    const ApspResult r = apsp_run(net, c.g, c.weights);
    EXPECT_EQ(r.dist, apsp_dijkstra_reference(c.g, c.weights)) << c.name;
    EXPECT_EQ(r.total_rounds, r.plan.total_rounds) << c.name;
    EXPECT_EQ(r.total_bits, r.plan.total_bits) << c.name;
    EXPECT_EQ(net.stats().rounds, r.total_rounds) << c.name;
    EXPECT_EQ(static_cast<int>(r.steps.size()), r.plan.squarings) << c.name;
  }
}

TEST(Apsp, SchoolbookKernelAgreesEverywhere) {
  // Every distributed squaring must equal the schoolbook squaring of the
  // same matrix, so the whole chain equals the local schoolbook chain.
  for (const ApspCase& c : apsp_cases()) {
    CliqueUnicast net(c.g.num_vertices(), 64);
    const ApspResult r = apsp_run(net, c.g, c.weights);
    EXPECT_EQ(r.dist, schoolbook_squarings(c.g, c.weights)) << c.name;
    EXPECT_EQ(net.stats().total_bits, r.plan.total_bits) << c.name;
  }
}

TEST(Apsp, BackendsAgreeOnAllGenerators) {
  // kAuto and kSparse compute the same distances and eccentricity spectrum
  // as kDense and Dijkstra, and every backend's CommStats delta is exactly
  // its per-step plans plus the eccentricity exchange.
  for (const ApspCase& c : apsp_cases()) {
    const int n = c.g.num_vertices();
    CliqueUnicast net_dense(n, 64);
    const ApspResult dense = apsp_run(net_dense, c.g, c.weights, CountBackend::kDense);
    EXPECT_EQ(dense.dist, apsp_dijkstra_reference(c.g, c.weights)) << c.name;
    for (CountBackend backend : {CountBackend::kDense, CountBackend::kAuto,
                                 CountBackend::kSparse}) {
      CliqueUnicast net(n, 64);
      const ApspResult r = apsp_run(net, c.g, c.weights, backend);
      EXPECT_EQ(r.dist, dense.dist) << c.name;
      EXPECT_EQ(r.eccentricity, dense.eccentricity) << c.name;
      EXPECT_EQ(r.diameter, dense.diameter) << c.name;
      EXPECT_EQ(r.radius, dense.radius) << c.name;
      ASSERT_EQ(static_cast<int>(r.steps.size()), r.plan.squarings) << c.name;
      int rounds = r.plan.ecc_rounds;
      std::uint64_t bits = r.plan.ecc_bits;
      for (const ProductStep& s : r.steps) {
        if (backend == CountBackend::kSparse) {
          EXPECT_TRUE(s.used_sparse) << c.name;
        }
        rounds += s.planned_rounds;
        bits += s.planned_bits;
      }
      EXPECT_EQ(net.stats().rounds, rounds) << c.name;
      EXPECT_EQ(net.stats().total_bits, bits) << c.name;
      EXPECT_EQ(r.total_bits, bits) << c.name;
    }
  }
}

TEST(Apsp, DenseBackendDeclaresNothing) {
  // The dense path never prices a sparse schedule: no nnz profile is
  // declared (the oblivious guard's counted escape hatch stays untouched)
  // and every step is the plain dense product.
  Rng rng(90);
  const Graph g = gnp(20, 0.2, rng);
  const std::vector<std::uint32_t> w = random_weights(g, rng, 1000);
  CliqueUnicast net(20, 64);
  const std::uint64_t before = oblivious::declared_use_count();
  const ApspResult r = apsp_run(net, g, w, CountBackend::kDense);
  EXPECT_EQ(oblivious::declared_use_count(), before);
  for (const ProductStep& s : r.steps) {
    EXPECT_FALSE(s.used_sparse);
    EXPECT_EQ(s.declared_nnz, 0u);
    EXPECT_EQ(s.planned_bits, r.plan.product.total_bits);
  }
  EXPECT_EQ(r.total_bits, r.plan.total_bits);
  EXPECT_EQ(r.total_rounds, r.plan.total_rounds);
  if (oblivious::enabled()) {
    // The counter is live in this build: the sparse backend does move it.
    CliqueUnicast sparse_net(20, 64);
    apsp_run(sparse_net, g, w, CountBackend::kSparse);
    EXPECT_GT(oblivious::declared_use_count(), before);
  }
}

TEST(Apsp, AdaptiveBackendsDeclareOneProfilePerSquaring) {
  // kSparse and kAuto declare and price each squaring's operand once: the
  // guard's declared-read counter moves by exactly one profile of D_s per
  // step (and not at all in builds without the guard).
  Rng rng(91);
  const Graph g = gnp(20, 0.2, rng);
  const std::vector<std::uint32_t> w = random_weights(g, rng, 1000);
  ApspArtifacts arts;
  CliqueUnicast dense_net(20, 64);
  apsp_run(dense_net, g, w, CountBackend::kDense, &arts);
  std::uint64_t one_per_step = 0;
  for (std::size_t s = 0; s + 1 < arts.powers.size(); ++s) {
    const Csr61 d = Csr61::from_dense(arts.powers[s]);
    const std::uint64_t before = oblivious::declared_use_count();
    declared_nnz_profile(d, d);
    one_per_step += oblivious::declared_use_count() - before;
  }
  if (oblivious::enabled()) {
    EXPECT_GT(one_per_step, 0u);
  }
  for (CountBackend backend : {CountBackend::kSparse, CountBackend::kAuto}) {
    CliqueUnicast net(20, 64);
    const std::uint64_t before = oblivious::declared_use_count();
    apsp_run(net, g, w, backend);
    EXPECT_EQ(oblivious::declared_use_count() - before, one_per_step);
  }
}

TEST(Apsp, AutoBackendStartsSparseOnSparseInputs) {
  Rng rng(503);
  for (const Graph& g : {random_tree(22, rng), gnp(22, 0.1, rng)}) {
    const std::vector<std::uint32_t> w = random_weights(g, rng, 50);
    CliqueUnicast net(g.num_vertices(), 64);
    const ApspResult r = apsp_run(net, g, w, CountBackend::kAuto);
    EXPECT_EQ(r.dist, apsp_dijkstra_reference(g, w));
    ASSERT_FALSE(r.steps.empty());
    // A tree / sparse G(n, p) one-step matrix sits far below the crossover.
    EXPECT_TRUE(r.steps.front().used_sparse);
  }
}

TEST(Apsp, AutoStepsRecordDensification) {
  Rng rng(504);
  const Graph g = gnp(33, 0.15, rng);
  CliqueUnicast net(33, 64);
  const ApspResult r = apsp_run(net, g, unit_weights(g), CountBackend::kAuto);
  // nnz is monotone under min-plus squaring (an entry once finite stays
  // finite), and every step records the profile it declared.
  ASSERT_FALSE(r.steps.empty());
  EXPECT_GT(r.steps.front().declared_nnz, 0u);
  for (std::size_t s = 1; s < r.steps.size(); ++s) {
    EXPECT_GE(r.steps[s].declared_nnz, r.steps[s - 1].declared_nnz);
  }
}

TEST(Apsp, PlanSquaringCounts) {
  // ⌈log2(n-1)⌉ squarings reach paths of <= n-1 edges; 1- and 2-cliques
  // need none (W is already the closure).
  const struct {
    int n;
    int squarings;
  } expect[] = {{1, 0}, {2, 0}, {3, 1}, {4, 2}, {5, 2}, {9, 3}, {17, 4}, {27, 5}};
  for (const auto& e : expect) {
    EXPECT_EQ(apsp_plan(e.n, 64).squarings, e.squarings) << "n=" << e.n;
  }
}

TEST(Apsp, PlanFollowsCubeRootLogSeries) {
  // At perfect cubes with b = 64 every squaring is exactly 6 * n^{1/3}
  // rounds and the eccentricity exchange is one more round, so the whole
  // run is 6 * n^{1/3} * ceil(log2(n-1)) + 1 rounds — the measured-vs-
  // predicted contract of bench_e18 asserted as a hard equality.
  for (int cbrt : {2, 3, 4}) {
    const int n = cbrt * cbrt * cbrt;
    const ApspPlan plan = apsp_plan(n, 64);
    EXPECT_EQ(plan.ecc_rounds, 1) << "n=" << n;
    EXPECT_EQ(plan.total_rounds, 6 * cbrt * plan.squarings + 1) << "n=" << n;
  }
}

TEST(Apsp, EccentricityDiameterRadius) {
  {
    // Unit-weight path P_9: diameter 8, radius 4 (center vertex 4),
    // eccentricity of endpoint 0 is 8.
    Graph g = path_graph(9);
    CliqueUnicast net(9, 64);
    const ApspResult r = apsp_run(net, g, unit_weights(g));
    EXPECT_EQ(r.diameter, 8u);
    EXPECT_EQ(r.radius, 4u);
    EXPECT_EQ(r.eccentricity[0], 8u);
    EXPECT_EQ(r.eccentricity[4], 4u);
  }
  {
    // Unit-weight cycle C_10: vertex-transitive, ecc = 5 everywhere.
    Graph g = cycle_graph(10);
    CliqueUnicast net(10, 64);
    const ApspResult r = apsp_run(net, g, unit_weights(g));
    EXPECT_EQ(r.diameter, 5u);
    EXPECT_EQ(r.radius, 5u);
  }
  {
    // Weighted star: ecc(center) = max spoke, diameter = two heaviest
    // spokes, radius = ecc of the center.
    Graph g = star_graph(5);  // center 0, spokes 1..4
    CliqueUnicast net(5, 64);
    const ApspResult r = apsp_run(net, g, {2, 3, 5, 7});
    EXPECT_EQ(r.eccentricity[0], 7u);
    EXPECT_EQ(r.radius, 7u);
    EXPECT_EQ(r.diameter, 12u);  // 5 + 7 through the center
  }
  {
    // Disconnected: infinite diameter AND infinite radius (every vertex
    // misses the other component).
    Graph g = complete_graph(3).disjoint_union(complete_graph(2));
    CliqueUnicast net(5, 64);
    const ApspResult r = apsp_run(net, g, unit_weights(g));
    EXPECT_EQ(r.diameter, kTropicalInf);
    EXPECT_EQ(r.radius, kTropicalInf);
  }
  {
    // Single vertex: ecc 0, no exchange rounds.
    CliqueUnicast net(1, 64);
    const ApspResult r = apsp_run(net, Graph(1), {});
    EXPECT_EQ(r.diameter, 0u);
    EXPECT_EQ(r.radius, 0u);
    EXPECT_EQ(r.total_rounds, 0);
  }
}

TEST(Apsp, LargeWeightsDoNotSaturateFinitePaths) {
  // Max uint32 weights on a path: the end-to-end distance is (n-1) * (2^32-1),
  // far below kTropicalInf — saturation must only ever mean "unreachable".
  Graph g = path_graph(6);
  const std::vector<std::uint32_t> w(g.num_edges(), 0xFFFFFFFFu);
  CliqueUnicast net(6, 64);
  const ApspResult r = apsp_run(net, g, w);
  EXPECT_EQ(r.dist.get(0, 5), 5ull * 0xFFFFFFFFull);
  EXPECT_LT(r.diameter, kTropicalInf);
}

TEST(Apsp, RejectsMismatchedInputs) {
  Graph g = path_graph(4);
  CliqueUnicast wrong_n(5, 64);
  EXPECT_THROW(apsp_run(wrong_n, g, unit_weights(g)), PreconditionError);
  CliqueUnicast net(4, 64);
  EXPECT_THROW(apsp_run(net, g, {1, 2}), PreconditionError);
}

TEST(Apsp, StatsAreThreadCountInvariant) {
  // The protocol only speaks round_fill through unicast_payloads(_relayed),
  // so the engine determinism contract must carry over verbatim.
  auto run = [] {
    Rng rng(88);
    Graph g = gnp(12, 0.4, rng);
    const std::vector<std::uint32_t> w = random_weights(g, rng, 1u << 12);
    CliqueUnicast net(12, 32);
    apsp_run(net, g, w);
    return net.stats();
  };
  CommStats serial;
  {
    ScopedEnv scoped("CC_THREADS", "1");
    serial = run();
  }
  for (const char* threads : {"2", "5"}) {
    ScopedEnv scoped("CC_THREADS", threads);
    EXPECT_EQ(run(), serial) << "CC_THREADS=" << threads;
  }
}

}  // namespace
}  // namespace cclique
