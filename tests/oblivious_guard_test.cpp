// Negative-test suite for the runtime obliviousness guard
// (analysis/oblivious_guard.h): payload reads seeded inside engine length
// sinks must throw ModelViolation in CCLIQUE_OBLIVIOUS builds, naming both
// the source accessor and the sink, and the same protocols must be
// untouched in default builds (the guard compiles to nothing). The tests
// branch on oblivious::enabled() so one source covers both build modes,
// mirroring locality_guard_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/oblivious_guard.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "comm/congest.h"
#include "comm/nof.h"
#include "comm/two_party.h"
#include "core/algebraic_mm.h"
#include "core/apsp.h"
#include "core/mst.h"
#include "graph/generators.h"
#include "linalg/mat61.h"
#include "linalg/tropical.h"
#include "scoped_env.h"
#include "util/check.h"

namespace cclique {
namespace {

Message bits_of(std::uint64_t v, int w) {
  Message m;
  m.push_uint(v, w);
  return m;
}

Mat61 counting_matrix(int n) {
  Mat61 a(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a.set(i, j, static_cast<std::uint64_t>(i * n + j + 1));
    }
  }
  return a;
}

TEST(ObliviousGuard, ScopeTracksActiveSinkWhenEnabled) {
  EXPECT_EQ(oblivious::active_sink(), nullptr);
  {
    oblivious::SinkScope outer("outer sink");
    if (oblivious::enabled()) {
      EXPECT_STREQ(oblivious::active_sink(), "outer sink");
      {
        oblivious::SinkScope inner("inner sink");
        EXPECT_STREQ(oblivious::active_sink(), "inner sink");
      }
      // Nested scopes restore the previous sink, not "no sink".
      EXPECT_STREQ(oblivious::active_sink(), "outer sink");
    } else {
      EXPECT_EQ(oblivious::active_sink(), nullptr);
    }
  }
  EXPECT_EQ(oblivious::active_sink(), nullptr);
}

TEST(ObliviousGuard, PayloadReadsOutsideSinksAreFree) {
  // Orchestrator-level reads (payload building, decoding, result checks)
  // are unrestricted in every build.
  const Mat61 a = counting_matrix(4);
  EXPECT_NO_THROW(a.get(1, 2));
  EXPECT_NO_THROW(a.row(3));
  EXPECT_NO_THROW(a.data());
}

TEST(ObliviousGuard, TaintedReadInsideSinkNamesSourceAndSink) {
  const Mat61 a = counting_matrix(4);
  oblivious::SinkScope sink("test length sink");
  if (!oblivious::enabled()) {
    EXPECT_NO_THROW(a.get(0, 0));
    return;
  }
  try {
    a.get(0, 0);
    FAIL() << "payload read inside a sink must throw";
  } catch (const ModelViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Mat61::get"), std::string::npos) << what;
    EXPECT_NE(what.find("mat61.h"), std::string::npos) << what;
    EXPECT_NE(what.find("test length sink"), std::string::npos) << what;
    EXPECT_NE(what.find("declared_dependence"), std::string::npos) << what;
  }
}

TEST(ObliviousGuard, DeclaredDependenceSuppressesAndCounts) {
  const Mat61 a = counting_matrix(3);
  const TropicalMat t(3);
  oblivious::SinkScope sink("declared test sink");
  const std::uint64_t before = oblivious::declared_use_count();
  {
    [[maybe_unused]] auto dd = oblivious::declared_dependence(
        CC_OBLIVIOUS_SITE("test sparse schedule"));
    EXPECT_NO_THROW(a.get(1, 1));
    EXPECT_NO_THROW(t.get(2, 2));
  }
  if (oblivious::enabled()) {
    // Both reads were counted, and the declaration does not outlive its
    // scope: the next read throws again.
    EXPECT_EQ(oblivious::declared_use_count(), before + 2);
    EXPECT_THROW(a.get(0, 2), ModelViolation);
  } else {
    EXPECT_EQ(oblivious::declared_use_count(), 0u);
    EXPECT_NO_THROW(a.get(0, 2));
  }
}

// --- seeded violations through the real engines -------------------------

TEST(ObliviousGuard, UnicastSendCallbackCannotSizeMessagesFromPayload) {
  const int n = 6;
  CliqueUnicast net(n, 16);
  const Mat61 payload = counting_matrix(n);
  const auto leaky_fill = [&](int i, Message* box) {
    // Planted violation: the emitted length is a function of a matrix
    // entry, so the round count would leak payload values.
    const int w = 1 + static_cast<int>(payload.get(i, (i + 1) % n) % 7);
    box[(i + 1) % n].push_uint(0, w);
  };
  const auto no_recv = [](int, const std::vector<Message>&) {};
  if (oblivious::enabled()) {
    EXPECT_THROW(net.round_fill(leaky_fill, no_recv), ModelViolation);
    // The violating round commits nothing and the engine stays usable.
    EXPECT_EQ(net.stats().rounds, 0);
    EXPECT_EQ(net.stats().total_bits, 0u);
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_fill, no_recv));
    EXPECT_EQ(net.stats().rounds, 1);
  }
  net.round_fill([&](int, Message*) {}, no_recv);
}

TEST(ObliviousGuard, UnicastFillCallbackIsASinkToo) {
  const int n = 4;
  CliqueUnicast net(n, 16);
  const TropicalMat dist = TropicalMat::from_weighted_graph(
      cycle_graph(n), std::vector<std::uint32_t>(
                          static_cast<std::size_t>(cycle_graph(n).num_edges()), 2));
  const auto leaky_fill = [&](int i, Message* box) {
    // Planted violation: branching on a distance entry decides whether a
    // message is sent at all.
    if (i == 2 && dist.get(2, 3) < kTropicalInf) box[0] = bits_of(1, 3);
  };
  const auto no_recv = [](int, const std::vector<Message>&) {};
  if (oblivious::enabled()) {
    try {
      net.round_fill(leaky_fill, no_recv);
      FAIL() << "payload-dependent fill must throw";
    } catch (const ModelViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("TropicalMat::get"), std::string::npos) << what;
      EXPECT_NE(what.find("CLIQUE-UCAST fill callback"), std::string::npos) << what;
    }
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_fill, no_recv));
  }
}

TEST(ObliviousGuard, BroadcastCallbackIsASink) {
  const int n = 4;
  CliqueBroadcast net(n, 16);
  const Mat61 payload = counting_matrix(n);
  const auto leaky_fill = [&](int i, Message& out) {
    out.push_uint(0, 1 + static_cast<int>(payload.get(i, i) % 5));
  };
  if (oblivious::enabled()) {
    try {
      net.round_fill(leaky_fill);
      FAIL() << "payload-dependent broadcast length must throw";
    } catch (const ModelViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("Mat61::get"), std::string::npos) << what;
      EXPECT_NE(what.find("CLIQUE-BCAST fill callback"), std::string::npos) << what;
    }
    EXPECT_EQ(net.stats().rounds, 0);
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_fill));
  }
}

TEST(ObliviousGuard, CongestCallbackIsASink) {
  const int n = 6;
  const Graph g = cycle_graph(n);
  CongestUnicast net(g, 16);
  const Mat61 payload = counting_matrix(n);
  const auto leaky_fill = [&](int v, Message* box) {
    if (v == 3) box[0].push_uint(0, 1 + static_cast<int>(payload.get(3, 4) % 3));
  };
  const auto no_recv = [](int, const std::vector<Message>&) {};
  if (oblivious::enabled()) {
    EXPECT_THROW(net.round_fill(leaky_fill, no_recv), ModelViolation);
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_fill, no_recv));
  }
}

TEST(ObliviousGuard, AllGatherFillIsASink) {
  const int n = 4;
  CliqueUnicast net(n, 16);
  const Mat61 payload = counting_matrix(n);
  const auto leaky_fill = [&](int i, Message& out) {
    // Planted violation: whether player i sends depends on a matrix entry.
    if (payload.get(i, i) % 2 == 0) out.push_uint(1, 8);
  };
  if (oblivious::enabled()) {
    try {
      all_gather(net, 8, leaky_fill);
      FAIL() << "payload-dependent all-gather fill must throw";
    } catch (const ModelViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("Mat61::get"), std::string::npos) << what;
      EXPECT_NE(what.find("all_gather fill callback"), std::string::npos) << what;
    }
    EXPECT_EQ(net.stats().rounds, 0);
  } else {
    EXPECT_NO_THROW(all_gather(net, 8, leaky_fill));
  }
}

TEST(ObliviousGuard, NofReductionInheritsBroadcastSink) {
  // Reduction shape: a broadcast callback decides what to write to the NOF
  // blackboard. The taint is caught at the CLIQUE-BCAST sink before the
  // board is ever touched, so the whole reduction stack is covered.
  const int n = 3;
  CliqueBroadcast net(n, 16);
  NofBlackboard board;
  const Mat61 payload = counting_matrix(n);
  const auto leaky_reduction = [&](int i, Message& out) {
    out.push_uint(0, 1 + static_cast<int>(payload.get(i, 0) % 3));
    board.write(i, out);
  };
  if (oblivious::enabled()) {
    EXPECT_THROW(net.round_fill(leaky_reduction), ModelViolation);
    EXPECT_EQ(board.total_bits(), 0u);
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_reduction));
  }
}

TEST(ObliviousGuard, TwoPartySinkScopeIsTheMeterSeam) {
  // The meter substrates have no callback seam, so a two-party protocol
  // marks its own length decisions with the public SinkScope — the guard
  // then polices payload reads exactly as in the engines.
  TwoPartyChannel channel;
  const Mat61 secret = counting_matrix(2);
  channel.send_from_alice(bits_of(0, 3));  // fixed-length send: always fine
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("two-party transcript sizing"));
  if (oblivious::enabled()) {
    EXPECT_THROW(secret.get(0, 1), ModelViolation);
  } else {
    EXPECT_NO_THROW(secret.get(0, 1));
  }
  EXPECT_EQ(channel.alice_bits(), 3u);
}

TEST(ObliviousGuard, SinkScopePropagatesAcrossWorkerThreads) {
  // The sink scope is constructed inside the engine's send callback: the
  // guard must hold at every CC_THREADS setting, a knob that reaches only
  // the local kernels' pool, never the engines' rounds.
  for (const char* threads : {"1", "2", "8"}) {
    ScopedEnv scope("CC_THREADS", threads);
    const int n = 8;
    CliqueUnicast net(n, 16);
    const Mat61 payload = counting_matrix(n);
    const auto leaky_fill = [&](int i, Message* box) {
      box[(i + 1) % n] = bits_of(0, 1 + static_cast<int>(payload.get(i, i) % 4));
    };
    const auto no_recv = [](int, const std::vector<Message>&) {};
    if (oblivious::enabled()) {
      EXPECT_THROW(net.round_fill(leaky_fill, no_recv), ModelViolation)
          << "CC_THREADS=" << threads;
      EXPECT_EQ(net.stats().rounds, 0) << "CC_THREADS=" << threads;
    } else {
      EXPECT_NO_THROW(net.round_fill(leaky_fill, no_recv));
    }
  }
}

// --- the shipped schedules are oblivious --------------------------------

TEST(ObliviousGuard, PlanFunctionsRunCleanUnderTheGuard) {
  // The plan functions carry their own SinkScopes: pricing a schedule from
  // (n, w, b) alone must never trip the guard, in any build.
  EXPECT_NO_THROW(algebraic_mm_plan(27, 61, 64));
  EXPECT_NO_THROW(apsp_plan(27, 64));
  EXPECT_NO_THROW(mst_phase_plan(MstAlgorithm::kLotker, 16, 5, 64));
  EXPECT_NO_THROW(mst_phase_plan(MstAlgorithm::kBoruvka, 16, 16, 64));
}

TEST(ObliviousGuard, DistributedProductRunsCleanUnderTheGuard) {
  // End-to-end positive check: the real block-MM protocol builds payloads
  // at orchestrator level and only committed lengths cross the sinks.
  const int n = 8;
  CliqueUnicast net(n, 256);
  const Mat61 a = counting_matrix(n);
  const Mat61 b = counting_matrix(n);
  Mat61 c;
  EXPECT_NO_THROW(algebraic_mm_m61(net, a, b, &c));
  EXPECT_GT(net.stats().rounds, 0);
}

}  // namespace
}  // namespace cclique
