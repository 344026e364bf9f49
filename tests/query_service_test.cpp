// Unit, negative-path, guard-twin, and concurrency-determinism tests for
// the serving layer (core/query_service): artifact cache coherence over
// mutations, the zero-cost cache-hit contract (serving_plan CC_CHECKs),
// stale-batch rejection, eviction answer-stability, the oblivious guard's
// declared-residency boundary, and byte-identical answers/CommStats across
// the CC_THREADS x CC_KERNEL grid. The high-volume differential fuzzer
// lives in serving_property_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "core/apsp.h"
#include "core/query_service.h"
#include "graph/generators.h"
#include "linalg/tropical.h"
#include "scoped_env.h"
#include "util/check.h"
#include "util/rng.h"

namespace cclique {
namespace {

/// Weighted fixture: a connected-ish gnp graph with random small weights.
struct Fixture {
  Graph g;
  std::vector<std::uint32_t> w;
};

Fixture weighted_gnp(int n, double p, std::uint64_t seed) {
  Rng rng(seed);
  Fixture f;
  f.g = gnp(n, p, rng);
  f.w.resize(f.g.num_edges());
  for (auto& x : f.w) x = static_cast<std::uint32_t>(1 + rng.uniform(1 << 10));
  return f;
}

/// Reference k-hop reachability from the unit-weight Dijkstra matrix (hop
/// distance == unit-weight shortest path).
std::uint64_t reach_reference(const TropicalMat& hop, int u, int v, int k) {
  if (u == v) return 1;
  return hop.get(u, v) <= static_cast<std::uint64_t>(k) ? 1 : 0;
}

TEST(QueryService, AnswersMatchDirectRuns) {
  const Fixture f = weighted_gnp(14, 0.35, 101);
  const int n = f.g.num_vertices();
  QueryService svc(f.g, f.w);

  // Ground truth from direct runs: a fresh APSP protocol run plus Dijkstra,
  // and the standalone counting protocols.
  CliqueUnicast net(n, 64);
  const ApspResult direct = apsp_run(net, f.g, f.w);
  ASSERT_EQ(direct.dist, apsp_dijkstra_reference(f.g, f.w));
  CliqueUnicast net2(n, 64);
  const AlgebraicCountResult tri = triangle_count_algebraic(net2, f.g);
  const AlgebraicCountResult c4 = four_cycle_count_algebraic(net2, f.g);
  const std::vector<std::uint32_t> unit(f.g.num_edges(), 1);
  const TropicalMat hop = apsp_dijkstra_reference(f.g, unit);

  QueryBatch batch = svc.new_batch();
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) batch.push(Query::dist(u, v));
  }
  for (int v = 0; v < n; ++v) batch.push(Query::ecc(v));
  batch.push(Query::diameter());
  batch.push(Query::radius());
  batch.push(Query::triangles());
  batch.push(Query::four_cycles());
  for (int u = 0; u < n; ++u) {
    for (int k : {0, 1, 2, 5}) batch.push(Query::reach(u, (u + 3) % n, k));
  }
  const BatchResult r = svc.answer(batch);
  ASSERT_EQ(r.answers.size(), batch.size());

  std::size_t i = 0;
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(r.answers[i++], direct.dist.get(u, v)) << "dist " << u << "," << v;
    }
  }
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(r.answers[i++], direct.eccentricity[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(r.answers[i++], direct.diameter);
  EXPECT_EQ(r.answers[i++], direct.radius);
  EXPECT_EQ(r.answers[i++], tri.count);
  EXPECT_EQ(r.answers[i++], c4.count);
  for (int u = 0; u < n; ++u) {
    for (int k : {0, 1, 2, 5}) {
      EXPECT_EQ(r.answers[i++], reach_reference(hop, u, (u + 3) % n, k))
          << "reach " << u << " k=" << k;
    }
  }
}

TEST(QueryService, ColdMissCostMatchesPlansAndWarmHitsChargeZero) {
  const Fixture f = weighted_gnp(12, 0.3, 7);
  const int n = f.g.num_vertices();
  QueryService svc(f.g, f.w);

  QueryBatch cold = svc.new_batch();
  cold.push(Query::dist(0, n - 1));
  cold.push(Query::triangles());
  cold.push(Query::reach(0, n - 1, 3));
  const BatchResult rc = svc.answer(cold);
  // Cold cost: one full protocol run per class — two APSP schedules (the
  // weighted closure and the unit-weight hop chain) plus the counting run.
  const ApspPlan ap = apsp_plan(n, 64);
  const CountingArtifactPlan cp = counting_artifacts_plan(n, 64);
  EXPECT_EQ(rc.rounds, 2 * ap.total_rounds + cp.total_rounds);
  EXPECT_EQ(rc.bits, 2 * ap.total_bits + cp.total_bits);
  EXPECT_EQ(rc.misses, 3u);
  EXPECT_EQ(rc.hits, 0u);

  // Warm: identical stream, all three classes resident — the plan prices
  // zero and the protocol CC_CHECKs the measured delta against it.
  QueryBatch warm = svc.new_batch();
  warm.push(Query::dist(0, n - 1));
  warm.push(Query::triangles());
  warm.push(Query::reach(0, n - 1, 3));
  const CommStats before = svc.stats();
  const BatchResult rw = svc.answer(warm);
  EXPECT_EQ(rw.rounds, 0);
  EXPECT_EQ(rw.bits, 0u);
  EXPECT_EQ(rw.plan.total_rounds, 0);
  EXPECT_EQ(rw.plan.total_bits, 0u);
  EXPECT_EQ(rw.hits, 3u);
  EXPECT_EQ(rw.misses, 0u);
  EXPECT_EQ(svc.stats(), before);  // not a single bit moved
  EXPECT_EQ(rw.answers, rc.answers);
}

TEST(QueryService, MutationInvalidatesAndRevertRestoresArtifacts) {
  const Fixture f = weighted_gnp(10, 0.4, 13);
  QueryService svc(f.g, f.w);
  QueryBatch warmup = svc.new_batch();
  warmup.push(Query::diameter());
  svc.answer(warmup);

  // A batch admitted before the mutation is permanently stale.
  QueryBatch stale = svc.new_batch();
  stale.push(Query::diameter());
  int a = -1, b = -1;
  for (int u = 0; u < svc.n() && a < 0; ++u) {
    for (int v = u + 1; v < svc.n() && a < 0; ++v) {
      if (!svc.graph().has_edge(u, v)) {
        a = u;
        b = v;
      }
    }
  }
  ASSERT_GE(a, 0) << "fixture unexpectedly complete";
  const std::uint64_t fp_before = svc.fingerprint();
  ASSERT_TRUE(svc.add_edge(a, b, 2));
  EXPECT_NE(svc.fingerprint(), fp_before);
  EXPECT_THROW(svc.answer(stale), InvariantError);

  // The new fingerprint misses (fresh run), and reverting the mutation
  // restores the original fingerprint — the old artifact hits again.
  QueryBatch fresh = svc.new_batch();
  fresh.push(Query::diameter());
  const BatchResult rf = svc.answer(fresh);
  EXPECT_EQ(rf.misses, 1u);
  ASSERT_TRUE(svc.remove_edge(a, b));
  EXPECT_EQ(svc.fingerprint(), fp_before);
  QueryBatch reverted = svc.new_batch();
  reverted.push(Query::diameter());
  const BatchResult rr = svc.answer(reverted);
  EXPECT_EQ(rr.hits, 1u);
  EXPECT_EQ(rr.rounds, 0);
}

TEST(QueryService, IdempotentMutationsKeepVersionAndBatchesAlive) {
  const Fixture f = weighted_gnp(10, 0.4, 17);
  QueryService svc(f.g, f.w);
  QueryBatch warm = svc.new_batch();
  warm.push(Query::radius());
  svc.answer(warm);

  const std::uint64_t version = svc.version();
  QueryBatch batch = svc.new_batch();
  batch.push(Query::radius());
  const std::vector<Edge> edges = svc.graph().edges();
  ASSERT_FALSE(edges.empty());
  // Re-adding an existing edge and removing an absent one change nothing:
  // no version bump, admitted batches stay valid, artifacts stay hot.
  EXPECT_FALSE(svc.add_edge(edges[0].u, edges[0].v, 999));
  EXPECT_FALSE(svc.remove_edge(0, 0 == edges[0].u && 1 == edges[0].v ? 2 : 1) &&
               svc.graph().has_edge(0, 1));
  svc.remove_edge(0, 0);  // self-loop never exists; also a no-op
  EXPECT_EQ(svc.version(), version);
  const BatchResult r = svc.answer(batch);
  EXPECT_EQ(r.hits, 1u);
  EXPECT_EQ(r.rounds, 0);
}

TEST(QueryService, SetGraphBumpsVersionAndRejectsOldBatches) {
  const Fixture f = weighted_gnp(8, 0.5, 23);
  QueryService svc(f.g, f.w);
  QueryBatch old_batch = svc.new_batch();
  old_batch.push(Query::diameter());
  const Fixture f2 = weighted_gnp(8, 0.5, 24);
  svc.set_graph(f2.g, f2.w);
  EXPECT_THROW(svc.answer(old_batch), InvariantError);
  // Replacing with a different vertex count rebuilds the engine.
  const Fixture f3 = weighted_gnp(12, 0.4, 25);
  svc.set_graph(f3.g, f3.w);
  EXPECT_EQ(svc.n(), 12);
  EXPECT_EQ(svc.answer_one(Query::dist(0, 0)), 0u);
}

TEST(QueryService, MalformedQueriesThrow) {
  const Fixture f = weighted_gnp(8, 0.5, 29);
  QueryService svc(f.g, f.w);
  const int n = svc.n();
  EXPECT_THROW(svc.answer_one(Query::dist(n, 0)), PreconditionError);
  EXPECT_THROW(svc.answer_one(Query::dist(0, -1)), PreconditionError);
  EXPECT_THROW(svc.answer_one(Query::ecc(n)), PreconditionError);
  EXPECT_THROW(svc.answer_one(Query::reach(0, n, 1)), PreconditionError);
  EXPECT_THROW(svc.answer_one(Query::reach(0, 1, -1)), PreconditionError);
  // A malformed query poisons its whole batch before any protocol runs:
  // the engine must not have moved a bit.
  const CommStats before = svc.stats();
  QueryBatch batch = svc.new_batch();
  batch.push(Query::dist(0, 1));
  batch.push(Query::dist(0, n));
  EXPECT_THROW(svc.answer(batch), PreconditionError);
  EXPECT_EQ(svc.stats(), before);
}

TEST(QueryService, DisconnectedPairsUseTheInBandInfinity) {
  // Two disjoint triangles: cross-component distances are +inf in-band,
  // never an exception; reachability is 0 at any hop budget.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  QueryService svc(g);
  EXPECT_EQ(svc.answer_one(Query::dist(0, 3)), kTropicalInf);
  EXPECT_EQ(svc.answer_one(Query::ecc(0)), kTropicalInf);
  EXPECT_EQ(svc.answer_one(Query::diameter()), kTropicalInf);
  EXPECT_EQ(svc.answer_one(Query::reach(0, 3, 1000)), 0u);
  EXPECT_EQ(svc.answer_one(Query::dist(0, 2)), 1u);
}

TEST(QueryService, SingleVertexClique) {
  QueryService svc(Graph(1));
  EXPECT_EQ(svc.answer_one(Query::dist(0, 0)), 0u);
  EXPECT_EQ(svc.answer_one(Query::ecc(0)), 0u);
  EXPECT_EQ(svc.answer_one(Query::diameter()), 0u);
  EXPECT_EQ(svc.answer_one(Query::radius()), 0u);
  EXPECT_EQ(svc.answer_one(Query::triangles()), 0u);
  EXPECT_EQ(svc.answer_one(Query::four_cycles()), 0u);
  EXPECT_EQ(svc.answer_one(Query::reach(0, 0, 0)), 1u);
  // On a 1-clique every plan is zero rounds — even the cold miss.
  EXPECT_EQ(svc.stats().rounds, 0);
  EXPECT_EQ(svc.stats().total_bits, 0u);
}

TEST(QueryService, HopChainAnswersExactHopBudgets) {
  // A path maximizes hop sensitivity: reach(0, j, k) iff j <= k, exercising
  // every power of the chain (incl. budgets between powers of two).
  const int n = 13;
  QueryService svc(path_graph(n));
  for (int j = 0; j < n; ++j) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_EQ(svc.answer_one(Query::reach(0, j, k)), j <= k ? 1u : 0u)
          << "j=" << j << " k=" << k;
    }
  }
  // Weighted distances must NOT leak into hop budgets: a heavy edge is
  // still one hop.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  // Spelled-out vector: a bare two-number list would also initialize Config.
  QueryService heavy(g, std::vector<std::uint32_t>{1000000, 1000000});
  EXPECT_EQ(heavy.answer_one(Query::reach(0, 2, 2)), 1u);
  EXPECT_EQ(heavy.answer_one(Query::reach(0, 2, 1)), 0u);
  EXPECT_EQ(heavy.answer_one(Query::dist(0, 2)), 2000000u);
}

TEST(QueryService, EvictionUnderSizeCapNeverChangesAnswers) {
  const Fixture f = weighted_gnp(12, 0.35, 31);
  QueryService unbounded(f.g, f.w);
  QueryService::Config tiny;
  tiny.capacity_words = 1;  // nothing survives between batches
  QueryService capped(f.g, f.w, tiny);

  Rng rng(97);
  std::uint64_t capped_rounds = 0;
  for (int round = 0; round < 4; ++round) {
    QueryBatch bu = unbounded.new_batch();
    QueryBatch bc = capped.new_batch();
    for (int i = 0; i < 25; ++i) {
      const int u = static_cast<int>(rng.uniform(12));
      const int v = static_cast<int>(rng.uniform(12));
      Query q = Query::dist(u, v);
      switch (rng.uniform(5)) {
        case 0: q = Query::ecc(v); break;
        case 1: q = Query::triangles(); break;
        case 2: q = Query::four_cycles(); break;
        case 3: q = Query::reach(u, v, static_cast<int>(rng.uniform(6))); break;
        default: break;
      }
      bu.push(q);
      bc.push(q);
    }
    const BatchResult ru = unbounded.answer(bu);
    const BatchResult rc = capped.answer(bc);
    EXPECT_EQ(ru.answers, rc.answers) << "round " << round;
    capped_rounds += static_cast<std::uint64_t>(rc.rounds);
  }
  EXPECT_GT(capped.cache_evictions(), 0u);
  EXPECT_EQ(unbounded.cache_evictions(), 0u);
  // The cap costs rounds (every batch re-misses) but never answers.
  EXPECT_GT(capped_rounds, static_cast<std::uint64_t>(0));
  EXPECT_GT(capped.cache_misses(), unbounded.cache_misses());
}

// ---------------------------------------------------------------------------
// Oblivious / locality guard twins.

TEST(QueryServiceGuards, ResidencyProbeIsDeclaredOnEveryBatch) {
  const Fixture f = weighted_gnp(8, 0.5, 37);
  QueryService svc(f.g, f.w);
  const std::uint64_t before = oblivious::declared_use_count();
  svc.answer_one(Query::diameter());
  if (oblivious::enabled()) {
    // answer() probed all three classes through the declared boundary.
    EXPECT_GE(oblivious::declared_use_count(), before + 3);
  } else {
    EXPECT_EQ(oblivious::declared_use_count(), 0u);
  }
}

TEST(QueryServiceGuards, UndeclaredResidencyProbeInsideSinkThrows) {
  const Fixture f = weighted_gnp(8, 0.5, 41);
  QueryService svc(f.g, f.w);
  svc.answer_one(Query::diameter());
  // The negative twin of declared_residency: the same probe without the
  // declaration is a schedule decision leaking payload history.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("undeclared serving schedule"));
  if (oblivious::enabled()) {
    EXPECT_THROW(svc.cache().resident(ArtifactClass::kApsp, svc.fingerprint()),
                 ModelViolation);
  } else {
    EXPECT_FALSE(svc.cache().resident(ArtifactClass::kCounting, 12345));
  }
}

TEST(QueryServiceGuards, ArtifactReadInsideSinkThrows) {
  // Wiring an *answer* into a length decision must trip the matrices' own
  // source taint: serve from a warm cache inside an armed sink.
  ScopedEnv serial("CC_THREADS", "1");  // keep the read on the sink's thread
  const Fixture f = weighted_gnp(8, 0.5, 43);
  QueryService svc(f.g, f.w);
  svc.answer_one(Query::dist(0, 1));  // warm: the sinked run below is hit-only
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("schedule shaped by an answer"));
  if (oblivious::enabled()) {
    EXPECT_THROW(svc.answer_one(Query::dist(0, 1)), ModelViolation);
  } else {
    EXPECT_EQ(svc.answer_one(Query::dist(0, 1)),
              svc.answer_one(Query::dist(0, 1)));
  }
}

TEST(QueryServiceGuards, ServingRunsCleanUnderArmedGuards) {
  // Tier-1 runs this suite under the locality and oblivious presets too:
  // a full mixed batch (cold + warm + mutation) must not trip either guard.
  const Fixture f = weighted_gnp(10, 0.4, 47);
  QueryService svc(f.g, f.w);
  QueryBatch batch = svc.new_batch();
  batch.push(Query::dist(0, 9));
  batch.push(Query::triangles());
  batch.push(Query::reach(0, 9, 4));
  svc.answer(batch);
  svc.remove_edge(0, 9);  // make the add below effective regardless of fixture
  svc.add_edge(0, 9, 7);
  QueryBatch after = svc.new_batch();
  after.push(Query::dist(0, 9));
  after.push(Query::four_cycles());
  const BatchResult r = svc.answer(after);
  EXPECT_LE(r.answers[0], 7u);  // the fresh weight-7 edge caps the distance
  SUCCEED() << (locality::enabled() ? "locality armed" : "locality off");
}

// ---------------------------------------------------------------------------
// Concurrency determinism grid.

struct GridRun {
  std::vector<std::uint64_t> answers;
  CommStats stats;
};

GridRun run_grid_stream() {
  const Fixture f = weighted_gnp(16, 0.3, 53);
  QueryService svc(f.g, f.w);
  GridRun out;
  Rng rng(59);
  for (int phase = 0; phase < 3; ++phase) {
    QueryBatch batch = svc.new_batch();
    for (int i = 0; i < 64; ++i) {
      const int u = static_cast<int>(rng.uniform(16));
      const int v = static_cast<int>(rng.uniform(16));
      switch (rng.uniform(6)) {
        case 0: batch.push(Query::dist(u, v)); break;
        case 1: batch.push(Query::ecc(v)); break;
        case 2: batch.push(Query::diameter()); break;
        case 3: batch.push(Query::triangles()); break;
        case 4: batch.push(Query::four_cycles()); break;
        default: batch.push(Query::reach(u, v, static_cast<int>(rng.uniform(8))));
      }
    }
    const BatchResult r = svc.answer(batch);
    out.answers.insert(out.answers.end(), r.answers.begin(), r.answers.end());
    // Mutate between phases so the stream covers invalidation + re-miss.
    if (phase == 0) svc.add_edge(0, 15, 3);
    if (phase == 1) svc.remove_edge(0, 15);
  }
  out.stats = svc.stats();
  return out;
}

TEST(QueryServiceDeterminism, AnswersAndStatsIdenticalAcrossThreadsAndKernels) {
  ScopedEnv base_threads("CC_THREADS", "1");
  ScopedEnv base_kernel("CC_KERNEL", "scalar");
  const GridRun base = run_grid_stream();
  ASSERT_FALSE(base.answers.empty());
  for (const char* threads : {"1", "2", "8"}) {
    for (const char* kernel : {"scalar", "avx2"}) {
      ScopedEnv t("CC_THREADS", threads);
      ScopedEnv k("CC_KERNEL", kernel);
      const GridRun run = run_grid_stream();
      EXPECT_EQ(run.answers, base.answers)
          << "CC_THREADS=" << threads << " CC_KERNEL=" << kernel;
      EXPECT_EQ(run.stats, base.stats)
          << "CC_THREADS=" << threads << " CC_KERNEL=" << kernel;
    }
  }
}

}  // namespace
}  // namespace cclique
