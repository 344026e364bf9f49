// Cross-module property sweeps: broad randomized instantiations of the
// full pipelines, with invariants checked against ground truth. These are
// the "keep the system honest" tests — every protocol is compared to an
// exact reference on every drawn instance.
#include <gtest/gtest.h>

#include <tuple>

#include "circuit/builders.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "core/adaptive_detect.h"
#include "core/circuit_sim.h"
#include "core/dlp_subgraph.h"
#include "core/turan_detect.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "lowerbound/bipartite_lb.h"
#include "lowerbound/clique_lb.h"
#include "lowerbound/cycle_lb.h"
#include "lowerbound/disjointness_reduction.h"
#include "routing/router.h"
#include "sketch/sketch.h"
#include "util/rng.h"

namespace cclique {
namespace {

// ------------------------------------------------------- circuit pipeline

class CircuitSimSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CircuitSimSweep, CompiledProtocolMatchesDirectEvaluation) {
  const auto [n, depth, width] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + depth * 10 + width));
  for (int trial = 0; trial < 3; ++trial) {
    Circuit c = random_layered_circuit(n * n, width, depth, 5, rng);
    CircuitSimulation sim(c, n);
    std::vector<bool> inputs(static_cast<std::size_t>(n * n));
    for (auto&& x : inputs) x = rng.coin();
    CliqueUnicast net(n, sim.plan().recommended_bandwidth);
    auto result = sim.run_round_robin(net, inputs);
    ASSERT_EQ(result.outputs[0], c.evaluate(inputs)[0])
        << "n=" << n << " depth=" << depth << " width=" << width;
    // Invariant: plan bounds hold on every instance.
    EXPECT_LE(sim.plan().heavy_gates, n);
    EXPECT_LE(sim.plan().max_light_weight,
              4 * static_cast<std::size_t>(n) * static_cast<std::size_t>(sim.plan().s));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CircuitSimSweep,
    ::testing::Values(std::make_tuple(4, 2, 6), std::make_tuple(4, 6, 10),
                      std::make_tuple(6, 3, 20), std::make_tuple(8, 5, 12),
                      std::make_tuple(8, 2, 40), std::make_tuple(10, 4, 8)));

// Bandwidth-1 stress: the theorem's rounds scale by the chunking factor but
// correctness must be unaffected.
TEST(CircuitSimProperty, BandwidthOneIsCorrect) {
  Rng rng(77);
  const int n = 5;
  Circuit c = parity_tree(n * n, 3);
  CircuitSimulation sim(c, n);
  std::vector<bool> inputs(static_cast<std::size_t>(n * n));
  for (auto&& x : inputs) x = rng.coin();
  CliqueUnicast net(n, 1);
  auto result = sim.run_round_robin(net, inputs);
  EXPECT_EQ(result.outputs[0], c.evaluate(inputs)[0]);
  EXPECT_GT(result.stats.rounds, 10) << "b=1 must pay the chunking factor";
}

// ------------------------------------------------------- routing invariants

class RoutingSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RoutingSweep, AllRoutersAgreeOnDeliveredMultiset) {
  const auto [n, load, bw] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 100 + load * 10 + bw));
  RoutingDemand d;
  d.payload_bits = 12;
  for (int i = 0; i < n * load; ++i) {
    d.messages.push_back(RoutedMessage{
        static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n))),
        static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n))),
        rng.uniform(1ULL << 12)});
  }
  auto fingerprint = [](const RoutingResult& r) {
    std::uint64_t acc = 0;
    for (std::size_t v = 0; v < r.delivered.size(); ++v) {
      for (const auto& [src, payload] : r.delivered[v]) {
        acc += (v + 1) * 1000003ULL + static_cast<std::uint64_t>(src) * 10007ULL +
               payload * 31ULL;
      }
    }
    return acc;
  };
  CliqueUnicast n1(n, bw), n2(n, bw), n3(n, bw);
  const auto r1 = route_direct(n1, d);
  const auto r2 = route_two_phase(n2, d);
  const auto r3 = route_valiant(n3, d, rng);
  EXPECT_EQ(fingerprint(r1), fingerprint(r2));
  EXPECT_EQ(fingerprint(r2), fingerprint(r3));
  // Engine invariant: accounted bits equal rounds' worth of traffic at most.
  EXPECT_LE(n2.stats().max_edge_bits_in_round, static_cast<std::uint64_t>(bw));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoutingSweep,
    ::testing::Values(std::make_tuple(4, 2, 8), std::make_tuple(8, 4, 16),
                      std::make_tuple(8, 1, 4), std::make_tuple(16, 8, 32),
                      std::make_tuple(12, 3, 5)));

// ---------------------------------------------- detection vs ground truth

class DetectionSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DetectionSweep, AllThreeDetectorsMatchExactSearch) {
  const auto [pattern_id, density] = GetParam();
  Rng rng(static_cast<std::uint64_t>(pattern_id * 997 + density * 1000));
  const Graph h = pattern_id == 0   ? complete_graph(3)
                  : pattern_id == 1 ? cycle_graph(4)
                  : pattern_id == 2 ? path_graph(4)
                                    : complete_graph(4);
  const int n = 20;
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = gnp(n, density, rng);
    const bool truth = contains_subgraph(g, h);
    CliqueBroadcast b1(n, 16), b2(n, 16);
    CliqueUnicast u1(n, 32);
    EXPECT_EQ(turan_subgraph_detect(b1, g, h).contains_h, truth);
    EXPECT_EQ(adaptive_subgraph_detect(b2, g, h, rng).contains_h, truth);
    EXPECT_EQ(dlp_subgraph_detect(u1, g, h).detected, truth);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndDensities, DetectionSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.05, 0.15, 0.3)));

// --------------------------------------------- reconstruction invariants

class SketchSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SketchSweep, ReconstructionMatchesAtDegeneracyThreshold) {
  const auto [n, density] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 31 + density * 997));
  Graph g = gnp(n, density, rng);
  const int k = std::max(1, compute_degeneracy(g).degeneracy);
  std::vector<NodeSketch> sketches;
  for (int v = 0; v < n; ++v) sketches.push_back(make_sketch(g, v, k));
  auto at_k = reconstruct_from_sketches(sketches, k, n);
  ASSERT_TRUE(at_k.success);
  EXPECT_EQ(at_k.graph, g);
  // One below the threshold must fail (soundly) whenever k > 1.
  if (k > 1) {
    std::vector<NodeSketch> small;
    for (int v = 0; v < n; ++v) small.push_back(make_sketch(g, v, k - 1));
    EXPECT_FALSE(reconstruct_from_sketches(small, k - 1, n).success);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, SketchSweep,
    ::testing::Combine(::testing::Values(16, 32, 48),
                       ::testing::Values(0.08, 0.2, 0.4)));

// ------------------------------------------------ reduction battery

TEST(ReductionProperty, AllGadgetsSolveManyRandomInstances) {
  Rng rng(123);
  struct Case {
    LowerBoundGraph lbg;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({clique_lower_bound_graph(4, 5), "K4/Lemma14"});
  cases.push_back({clique_lower_bound_graph(5, 4), "K5/Lemma14"});
  cases.push_back({cycle_lower_bound_graph(4, 6, rng), "C4/Lemma18"});
  cases.push_back({cycle_lower_bound_graph(5, 6, rng), "C5/Lemma18"});
  cases.push_back({cycle_lower_bound_graph(6, 6, rng), "C6/Lemma18"});
  cases.push_back({bipartite_lower_bound_graph(2, 2, 10), "K22/Lemma21"});
  cases.push_back({bipartite_lower_bound_graph(3, 3, 10), "K33/Lemma21"});
  for (auto& c : cases) {
    const std::size_t m = c.lbg.f.edges().size();
    ASSERT_GT(m, 0u) << c.name;
    BroadcastDetector detect = [&](CliqueBroadcast& net, const Graph& g) {
      return full_broadcast_detect(net, g, c.lbg.h).contains_h;
    };
    for (int t = 0; t < 8; ++t) {
      DisjointnessInstance inst = (t % 2 == 0)
                                      ? random_disjoint_instance(m, 0.6, rng)
                                      : random_intersecting_instance(m, 0.6, rng);
      auto out = solve_disjointness_via_detection(c.lbg, inst, 8, detect);
      EXPECT_TRUE(out.correct) << c.name << " trial " << t;
    }
  }
}

// ------------------------------------------------ engine accounting laws

TEST(EngineProperty, BitAccountingIsExact) {
  Rng rng(321);
  const int n = 6;
  CliqueUnicast net(n, 10);
  std::uint64_t expected_bits = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<int>> plan(static_cast<std::size_t>(n),
                                       std::vector<int>(static_cast<std::size_t>(n), 0));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) {
          plan[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              static_cast<int>(rng.uniform(11));  // 0..10 bits
          expected_bits += static_cast<std::uint64_t>(
              plan[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
        }
      }
    }
    // Messages are drawn before the round: send callbacks must be local
    // (comm/model.h) — a shared Rng inside the callback would make one
    // player's messages depend on the draws of the players before it.
    std::vector<std::vector<Message>> outbox(static_cast<std::size_t>(n),
                                             std::vector<Message>(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        Message m;
        for (int bit = 0; bit < plan[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]; ++bit) {
          m.push_bit(rng.coin());
        }
        outbox[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = std::move(m);
      }
    }
    net.round_fill(
        [&](int i, Message* box) {
          const auto& mine = outbox[static_cast<std::size_t>(i)];
          for (int j = 0; j < n; ++j) box[j].append(mine[static_cast<std::size_t>(j)]);
        },
        [](int, const std::vector<Message>&) {});
  }
  EXPECT_EQ(net.stats().total_bits, expected_bits);
  EXPECT_EQ(net.stats().rounds, 20);
}

TEST(EngineProperty, CutBitsNeverExceedTotal) {
  Rng rng(654);
  const int n = 8;
  CliqueBroadcast net(n, 16);
  std::vector<int> side(static_cast<std::size_t>(n));
  for (auto& s : side) s = rng.coin() ? 1 : 0;
  net.set_cut(side);
  for (int round = 0; round < 10; ++round) {
    // Pre-drawn for the same locality reason as above.
    std::vector<Message> writes(static_cast<std::size_t>(n));
    for (auto& m : writes) {
      const int len = static_cast<int>(rng.uniform(17));
      for (int bit = 0; bit < len; ++bit) m.push_bit(rng.coin());
    }
    net.round_fill([&](int i, Message& out) { out.append(writes[static_cast<std::size_t>(i)]); });
  }
  EXPECT_LE(net.stats().cut_bits, net.stats().total_bits);
}

}  // namespace
}  // namespace cclique
