// Integration tests for the paper's protocols (src/core) running on the
// metered engines.
#include <gtest/gtest.h>

#include "circuit/builders.h"
#include "core/adaptive_detect.h"
#include "core/circuit_sim.h"
#include "core/dlp_triangle.h"
#include "core/mm_triangle.h"
#include "core/turan_detect.h"
#include "graph/extremal.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "graph/turan.h"
#include "util/rng.h"

namespace cclique {
namespace {

// ---------------------------------------------------------------- Theorem 2

TEST(CircuitSim, ParityMatchesDirectEvaluation) {
  Rng rng(1);
  const int n = 8;
  Circuit c = parity_tree(n * n, 4);
  CircuitSimulation sim(c, n);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<bool> inputs(static_cast<std::size_t>(n * n));
    for (auto&& x : inputs) x = rng.coin();
    CliqueUnicast net(n, sim.plan().recommended_bandwidth);
    auto result = sim.run_round_robin(net, inputs);
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0], c.evaluate(inputs)[0]);
  }
}

TEST(CircuitSim, MajorityWithHeavyGate) {
  Rng rng(2);
  const int n = 8;
  // A single threshold gate over n^2 inputs: weight n^2 + 1 >= 2ns, so it
  // is heavy — exercises the Definition 1 aggregation path.
  Circuit c = majority(n * n);
  CircuitSimulation sim(c, n);
  EXPECT_GE(sim.plan().heavy_gates, 1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<bool> inputs(static_cast<std::size_t>(n * n));
    for (auto&& x : inputs) x = rng.coin();
    CliqueUnicast net(n, sim.plan().recommended_bandwidth);
    auto result = sim.run_round_robin(net, inputs);
    EXPECT_EQ(result.outputs[0], c.evaluate(inputs)[0]);
  }
}

TEST(CircuitSim, RandomCircuitsDifferentialFuzz) {
  Rng rng(3);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 6;
    Circuit c = random_layered_circuit(/*inputs=*/n * n, /*width=*/15,
                                       /*depth=*/4, /*fanin=*/6, rng);
    CircuitSimulation sim(c, n);
    std::vector<bool> inputs(static_cast<std::size_t>(n * n));
    for (auto&& x : inputs) x = rng.coin();
    CliqueUnicast net(n, sim.plan().recommended_bandwidth);
    auto result = sim.run_round_robin(net, inputs);
    EXPECT_EQ(result.outputs[0], c.evaluate(inputs)[0]) << "trial " << trial;
  }
}

TEST(CircuitSim, MultiOutputOperator) {
  Rng rng(4);
  const int n = 6;
  // Remark 3: operators with many outputs. Output = all bottom MOD gates of
  // a depth-2 circuit plus the top gate.
  Circuit c;
  std::vector<int> ins;
  for (int i = 0; i < n * n; ++i) ins.push_back(c.add_input());
  std::vector<int> mods;
  for (int g = 0; g < 10; ++g) {
    std::vector<int> wires;
    for (int k = 0; k < 7; ++k) wires.push_back(ins[rng.uniform(ins.size())]);
    mods.push_back(c.add_mod(wires, 3));
  }
  for (int m : mods) c.mark_output(m);
  c.mark_output(c.add_gate(GateKind::kXor, mods));
  CircuitSimulation sim(c, n);
  std::vector<bool> inputs(static_cast<std::size_t>(n * n));
  for (auto&& x : inputs) x = rng.coin();
  CliqueUnicast net(n, sim.plan().recommended_bandwidth);
  auto result = sim.run_round_robin(net, inputs);
  const auto expect = c.evaluate(inputs);
  ASSERT_EQ(result.outputs.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(result.outputs[i], expect[i]);
  }
}

TEST(CircuitSim, PlanRespectsPaperBounds) {
  Rng rng(5);
  const int n = 10;
  Circuit c = random_layered_circuit(n * n, 30, 5, 8, rng);
  CircuitSimulation sim(c, n);
  const auto& plan = sim.plan();
  EXPECT_LE(plan.heavy_gates, n);
  EXPECT_LE(plan.max_light_weight,
            static_cast<std::size_t>(4 * n) * static_cast<std::size_t>(plan.s));
  EXPECT_GE(plan.s, 1);
}

TEST(CircuitSim, RoundsScaleWithDepthNotSize) {
  // Theorem 2's shape: at fixed n, rounds grow ~linearly in depth for
  // constant-width layers.
  Rng rng(6);
  const int n = 6;
  std::vector<int> rounds;
  for (int depth : {2, 4, 8}) {
    Circuit c = random_layered_circuit(n * n, 12, depth, 4, rng);
    CircuitSimulation sim(c, n);
    CliqueUnicast net(n, sim.plan().recommended_bandwidth);
    std::vector<bool> inputs(static_cast<std::size_t>(n * n), true);
    auto result = sim.run_round_robin(net, inputs);
    rounds.push_back(result.stats.rounds);
  }
  EXPECT_LT(rounds[2], 8 * rounds[0]) << "rounds should track depth, not blow up";
  EXPECT_GT(rounds[2], rounds[0]);
}

TEST(CircuitSim, ArbitraryInputPartition) {
  Rng rng(7);
  const int n = 6;
  Circuit c = parity_tree(n * n, 3);
  CircuitSimulation sim(c, n);
  std::vector<bool> inputs(static_cast<std::size_t>(n * n));
  std::vector<int> owner(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = rng.coin();
    owner[i] = static_cast<int>(rng.uniform(n));  // skewed random partition
  }
  CliqueUnicast net(n, sim.plan().recommended_bandwidth);
  auto result = sim.run(net, inputs, owner);
  EXPECT_EQ(result.outputs[0], c.evaluate(inputs)[0]);
}

// ------------------------------------------------------------------- §2.1

TEST(MmTriangle, SoundOnTriangleFreeGraphs) {
  Rng rng(8);
  // Bipartite (triangle-free) inputs: the verdict must always be "no".
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = complete_bipartite(5, 5);
    CliqueUnicast net(10, 64);
    auto result = mm_triangle_detect(net, g, /*reps=*/4, rng);
    EXPECT_FALSE(result.detected);
  }
}

TEST(MmTriangle, DetectsPlantedTriangles) {
  Rng rng(9);
  Graph g = gnp(10, 0.12, rng);
  plant_subgraph(g, complete_graph(3), rng);
  ASSERT_GT(count_triangles(g), 0u);
  bool any = false;
  for (int attempt = 0; attempt < 3 && !any; ++attempt) {
    CliqueUnicast net(10, 64);
    any = mm_triangle_detect(net, g, /*reps=*/10, rng).detected;
  }
  EXPECT_TRUE(any) << "10 reps x 3 attempts: miss probability < 1e-3";
}

TEST(MmTriangle, StrassenGrowsSlowerThanNaive) {
  // The asymptotic content of §2.1: the Strassen circuit's wire count grows
  // like 7^{log2 n} against the naive 8^{log2 n}; at small n the Strassen
  // constant is larger, so we compare growth factors across a doubling.
  Rng rng(10);
  Graph g8 = gnp(8, 0.3, rng), g16 = gnp(16, 0.3, rng);
  CliqueUnicast a(8, 64), b(16, 64), c(8, 64), d(16, 64);
  const double s8 = static_cast<double>(mm_triangle_detect(a, g8, 1, rng, true).circuit_wires);
  const double s16 = static_cast<double>(mm_triangle_detect(b, g16, 1, rng, true).circuit_wires);
  const double n8 = static_cast<double>(mm_triangle_detect(c, g8, 1, rng, false).circuit_wires);
  const double n16 = static_cast<double>(mm_triangle_detect(d, g16, 1, rng, false).circuit_wires);
  EXPECT_LT(s16 / s8, n16 / n8)
      << "Strassen growth per doubling must be below the naive cubic rate";
}

// ------------------------------------------------------------- [8] baseline

TEST(DlpTriangle, ExactOnRandomGraphs) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 20;
    Graph g = gnp(n, 0.05 + 0.04 * trial, rng);
    CliqueUnicast net(n, 32);
    auto result = dlp_triangle_detect(net, g);
    EXPECT_EQ(result.detected, count_triangles(g) > 0) << "trial " << trial;
  }
}

TEST(DlpTriangle, ExactOnAdversarialShapes) {
  CliqueUnicast net1(12, 32);
  EXPECT_FALSE(dlp_triangle_detect(net1, complete_bipartite(6, 6)).detected);
  CliqueUnicast net2(12, 32);
  EXPECT_TRUE(dlp_triangle_detect(net2, complete_graph(12)).detected);
  CliqueUnicast net3(15, 32);
  EXPECT_FALSE(dlp_triangle_detect(net3, cycle_graph(15)).detected);
}

TEST(DlpTriangle, PromisedVariantFindsRichTriangles) {
  Rng rng(12);
  const int n = 24;
  Graph g = gnp(n, 0.5, rng);  // hundreds of triangles
  const std::uint64_t t = count_triangles(g);
  ASSERT_GT(t, 50u);
  CliqueUnicast net(n, 32);
  auto result = dlp_triangle_detect_promised(net, g, t, /*runs=*/6, rng);
  EXPECT_TRUE(result.detected);
}

TEST(DlpTriangle, PromisedAnnouncementChunksAtNarrowBandwidth) {
  // t = floor((27 * 10)^{1/3}) = 6 groups, so a triple is 3 * bits_for(6) =
  // 9 bits: at b = 4 its all-gather takes ceil(9 / 4) = 3 rounds per run.
  Rng rng(14);
  const Graph g = gnp(27, 0.5, rng);
  ASSERT_GT(count_triangles(g), 10u);
  CliqueUnicast net(27, 4);
  const DlpResult result = dlp_triangle_detect_promised(net, g, 10, /*runs=*/1, rng);
  EXPECT_TRUE(result.detected);
  EXPECT_EQ(result.groups, 6);
  EXPECT_EQ(result.announce_rounds, 3);
  EXPECT_EQ(all_gather_cost(27, 9, 4).rounds, 3);
}

TEST(DlpTriangle, PromisedSoundOnTriangleFree) {
  Rng rng(13);
  Graph g = complete_bipartite(12, 12);
  CliqueUnicast net(24, 32);
  auto result = dlp_triangle_detect_promised(net, g, 10, 3, rng);
  EXPECT_FALSE(result.detected);
}

// ---------------------------------------------------------------- Theorem 7

class TuranDetectTest : public ::testing::TestWithParam<int> {};

TEST_P(TuranDetectTest, MatchesGroundTruthOnRandomInputs) {
  const int variant = GetParam();
  Rng rng(100 + variant);
  Graph h = variant == 0   ? path_graph(3)
            : variant == 1 ? cycle_graph(4)
            : variant == 2 ? complete_graph(4)
            : variant == 3 ? complete_bipartite(2, 2)
                           : cycle_graph(5);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 24;
    Graph g = gnp(n, 0.03 + 0.05 * trial, rng);
    CliqueBroadcast net(n, 16);
    auto result = turan_subgraph_detect(net, g, h);
    EXPECT_EQ(result.contains_h, contains_subgraph(g, h))
        << "variant " << variant << " trial " << trial;
    if (result.embedding.has_value()) {
      for (const Edge& e : h.edges()) {
        EXPECT_TRUE(g.has_edge((*result.embedding)[static_cast<std::size_t>(e.u)],
                               (*result.embedding)[static_cast<std::size_t>(e.v)]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, TuranDetectTest, ::testing::Values(0, 1, 2, 3, 4));

TEST(TuranDetect, HFreeExtremalInputReconstructs) {
  // A C4-free polarity graph is the hardest H-free input: its degeneracy
  // sits right at the Claim 6 cap.
  const Graph er = polarity_graph(5);
  CliqueBroadcast net(er.num_vertices(), 16);
  auto result = turan_subgraph_detect(net, er, cycle_graph(4));
  EXPECT_FALSE(result.contains_h);
  EXPECT_TRUE(result.reconstructed);
}

TEST(TuranDetect, DenseInputShortCircuitsViaClaim6) {
  // A dense graph (degeneracy above the cap) must be declared H-containing
  // even without reconstruction.
  Graph g = complete_graph(30);
  CliqueBroadcast net(30, 16);
  auto result = turan_subgraph_detect(net, g, path_graph(3));
  EXPECT_TRUE(result.contains_h);
  EXPECT_FALSE(result.reconstructed);
}

TEST(TuranDetect, FullBroadcastBaselineIsExact) {
  Rng rng(14);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = gnp(18, 0.2, rng);
    CliqueBroadcast net(18, 8);
    auto result = full_broadcast_detect(net, g, complete_graph(3));
    EXPECT_EQ(result.contains_h, count_triangles(g) > 0);
  }
}

TEST(TuranDetect, RoundsFlatInNForTreePatternsUnlikeFullBroadcast) {
  // Theorem 7's shape: for a tree pattern the degeneracy cap — hence the
  // sketch size and round count — is *constant in n*, while the trivial
  // algorithm's rounds grow linearly. (The absolute crossover sits at
  // larger n because each sketch field element is 61 bits.)
  Rng rng(15);
  int turan_rounds[2], full_rounds[2];
  int idx = 0;
  for (int n : {48, 96}) {
    Graph g = random_tree(n, rng);
    CliqueBroadcast fast(n, 8), slow(n, 8);
    auto f = turan_subgraph_detect(fast, g, path_graph(4));
    auto s = full_broadcast_detect(slow, g, path_graph(4));
    EXPECT_EQ(f.contains_h, s.contains_h);
    turan_rounds[idx] = f.stats.rounds;
    full_rounds[idx] = s.stats.rounds;
    ++idx;
  }
  EXPECT_LE(turan_rounds[1], turan_rounds[0] + 1)
      << "tree-pattern sketch rounds must not grow with n";
  EXPECT_GE(full_rounds[1], 2 * full_rounds[0] - 1)
      << "full-broadcast rounds grow ~linearly in n";
}

// ---------------------------------------------------------------- Theorem 9

TEST(AdaptiveDetect, MatchesGroundTruth) {
  Rng rng(16);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 24;
    Graph g = gnp(n, 0.05 + 0.06 * trial, rng);
    CliqueBroadcast net(n, 16);
    auto result = adaptive_subgraph_detect(net, g, complete_graph(3), rng);
    EXPECT_EQ(result.contains_h, count_triangles(g) > 0) << "trial " << trial;
    if (result.embedding.has_value()) {
      const auto& m = *result.embedding;
      EXPECT_TRUE(g.has_edge(m[0], m[1]));
      EXPECT_TRUE(g.has_edge(m[1], m[2]));
      EXPECT_TRUE(g.has_edge(m[0], m[2]));
    }
  }
}

TEST(AdaptiveDetect, HFreeVerdictIsDefinitive) {
  Rng rng(17);
  Graph g = complete_bipartite(12, 12);  // triangle-free
  CliqueBroadcast net(24, 16);
  auto result = adaptive_subgraph_detect(net, g, complete_graph(3), rng);
  EXPECT_FALSE(result.contains_h);
  EXPECT_EQ(result.final_level, 0) << "H-free verdicts must come from G_0";
}

TEST(AdaptiveDetect, FindsCopiesInDenseGraphs) {
  Rng rng(18);
  Graph g = gnp(32, 0.5, rng);
  ASSERT_GT(count_triangles(g), 0u);
  CliqueBroadcast net(32, 16);
  auto result = adaptive_subgraph_detect(net, g, complete_graph(3), rng);
  EXPECT_TRUE(result.contains_h);
}

TEST(AdaptiveDetect, WorksForC4Patterns) {
  Rng rng(19);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = gnp(20, 0.1 + 0.1 * trial, rng);
    CliqueBroadcast net(20, 16);
    auto result = adaptive_subgraph_detect(net, g, cycle_graph(4), rng);
    EXPECT_EQ(result.contains_h, contains_cycle(g, 4));
  }
}

}  // namespace
}  // namespace cclique
