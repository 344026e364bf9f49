// Negative-test suite for the runtime locality guard
// (analysis/locality_guard.h): seeded cross-player accesses inside engine
// callbacks must throw ModelViolation in CCLIQUE_LOCALITY builds, naming
// both players and the registration site, and the same protocols must be
// untouched in default builds (the guard compiles to nothing). The tests
// branch on locality::enabled() so one source covers both build modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/locality_guard.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "comm/congest.h"
#include "comm/nof.h"
#include "comm/two_party.h"
#include "graph/generators.h"
#include "util/check.h"

namespace cclique {
namespace {

Message bits_of(std::uint64_t v, int w) {
  Message m;
  m.push_uint(v, w);
  return m;
}

TEST(LocalityGuard, ScopeTracksCurrentPlayerWhenEnabled) {
  EXPECT_EQ(locality::current_player(), locality::kNoPlayer);
  {
    locality::PlayerScope outer(3);
    if (locality::enabled()) {
      EXPECT_EQ(locality::current_player(), 3);
      {
        locality::PlayerScope inner(7);
        EXPECT_EQ(locality::current_player(), 7);
      }
      // Nested scopes restore the previous player, not kNoPlayer.
      EXPECT_EQ(locality::current_player(), 3);
    } else {
      EXPECT_EQ(locality::current_player(), locality::kNoPlayer);
    }
  }
  EXPECT_EQ(locality::current_player(), locality::kNoPlayer);
}

TEST(LocalityGuard, PerPlayerAllowsSelfAndOrchestratorAccess) {
  locality::PerPlayer<int> state(4, CC_LOCALITY_SITE("test state"));
  // Orchestrator level (no scope): unrestricted in every build.
  for (int i = 0; i < 4; ++i) state[i] = 10 * i;
  {
    locality::PlayerScope scope(2);
    EXPECT_EQ(state[2], 20);  // own element: always legal
    state[2] = 21;
  }
  EXPECT_EQ(state.raw()[2], 21);
  const std::vector<int> out = state.take();
  EXPECT_EQ(out.size(), 4u);
}

TEST(LocalityGuard, CrossPlayerAccessThrowsWhenEnabled) {
  locality::PerPlayer<int> state(4, CC_LOCALITY_SITE("cross test state"));
  locality::PlayerScope scope(1);
  if (locality::enabled()) {
    EXPECT_THROW(state[3], ModelViolation);
  } else {
    EXPECT_NO_THROW(state[3]);
  }
}

TEST(LocalityGuard, ViolationMessageNamesBothPlayersAndSite) {
  if (!locality::enabled()) GTEST_SKIP() << "guard compiled out";
  locality::PerPlayer<int> state(8, CC_LOCALITY_SITE("secret counters"));
  locality::PlayerScope scope(5);
  try {
    state[2] = 1;
    FAIL() << "cross-player write must throw";
  } catch (const ModelViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("player 5"), std::string::npos) << what;
    EXPECT_NE(what.find("player 2"), std::string::npos) << what;
    EXPECT_NE(what.find("secret counters"), std::string::npos) << what;
    EXPECT_NE(what.find("locality_guard_test.cpp"), std::string::npos) << what;
  }
}

TEST(LocalityGuard, BoundsAreCheckedInEveryBuild) {
  locality::PerPlayer<int> state(3, CC_LOCALITY_SITE("bounds state"));
  EXPECT_THROW(state[3], PreconditionError);
  EXPECT_THROW(state[-1], PreconditionError);
}

TEST(LocalityGuard, MineResolvesToScopedElement) {
  locality::PerPlayer<int> state(4, CC_LOCALITY_SITE("mine state"));
  state[2] = 42;
  if (locality::enabled()) {
    locality::PlayerScope scope(2);
    EXPECT_EQ(state.mine(), 42);
  } else {
    // Without the guard there is no scope tracking: mine() has nothing to
    // resolve against and refuses instead of guessing.
    locality::PlayerScope scope(2);
    EXPECT_THROW(state.mine(), PreconditionError);
  }
}

// --- seeded violations through the real engines -------------------------

TEST(LocalityGuard, UnicastSendCallbackCannotReadAnotherPlayersState) {
  const int n = 6;
  CliqueUnicast net(n, 8);
  locality::PerPlayer<std::uint64_t> secret(
      n, CC_LOCALITY_SITE("per-player secret"));
  for (int i = 0; i < n; ++i) secret[i] = static_cast<std::uint64_t>(i);
  const auto leaky_fill = [&](int i, Message* box) {
    // Planted violation: player i reads player (i+1)%n's private value.
    const std::uint64_t stolen = secret[(i + 1) % n];
    box[(i + 1) % n].push_uint(stolen, 5);
  };
  const auto no_recv = [](int, const std::vector<Message>&) {};
  if (locality::enabled()) {
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

TEST(LocalityGuard, UnicastRecvCallbackCannotReadAnotherPlayersState) {
  const int n = 5;
  CliqueUnicast net(n, 8);
  locality::PerPlayer<std::uint64_t> inbox_state(
      n, CC_LOCALITY_SITE("per-player decode state"));
  const auto fill = [&](int i, Message* box) {
    for (int j = 0; j < n; ++j) {
      if (j != i) box[j].push_uint(1, 2);
    }
  };
  const auto leaky_recv = [&](int r, const std::vector<Message>&) {
    // Planted violation: the receiver peeks at player 0's slot. Receiver 0
    // itself is legal (self access), so seed from the other players.
    if (r != 0) inbox_state[0] += 1;
  };
  if (locality::enabled()) {
    EXPECT_THROW(net.round_fill(fill, leaky_recv), ModelViolation);
  } else {
    EXPECT_NO_THROW(net.round_fill(fill, leaky_recv));
  }
}

TEST(LocalityGuard, RoundFillCallbackIsScopedToo) {
  const int n = 4;
  CliqueUnicast net(n, 8);
  locality::PerPlayer<std::uint64_t> secret(
      n, CC_LOCALITY_SITE("fill-path secret"));
  const auto leaky_fill = [&](int i, Message* box) {
    if (i == 2) box[0].push_uint(secret[1], 3);  // 2 reads 1's state
  };
  const auto no_recv = [](int, const std::vector<Message>&) {};
  if (locality::enabled()) {
    EXPECT_THROW(net.round_fill(leaky_fill, no_recv), ModelViolation);
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_fill, no_recv));
  }
}

TEST(LocalityGuard, BroadcastCallbackIsScoped) {
  const int n = 4;
  CliqueBroadcast net(n, 8);
  locality::PerPlayer<std::uint64_t> secret(
      n, CC_LOCALITY_SITE("broadcast secret"));
  for (int i = 0; i < n; ++i) secret[i] = static_cast<std::uint64_t>(i) + 1;
  const auto leaky_fill = [&](int i, Message& out) { out.push_uint(secret[(i + 1) % n], 4); };
  if (locality::enabled()) {
    EXPECT_THROW(net.round_fill(leaky_fill), ModelViolation);
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_fill));
  }
}

TEST(LocalityGuard, CongestCallbacksAreScoped) {
  const int n = 6;
  CongestUnicast net(cycle_graph(n), 8);
  locality::PerPlayer<std::uint64_t> secret(
      n, CC_LOCALITY_SITE("congest secret"));
  const auto leaky_fill = [&](int v, Message* box) {
    if (v == 3) box[0].push_uint(secret[4], 3);  // 3 reads 4's state
  };
  const auto no_recv = [](int, const std::vector<Message>&) {};
  if (locality::enabled()) {
    EXPECT_THROW(net.round_fill(leaky_fill, no_recv), ModelViolation);
  } else {
    EXPECT_NO_THROW(net.round_fill(leaky_fill, no_recv));
  }
}

TEST(LocalityGuard, AllGatherFillIsScoped) {
  const int n = 5;
  CliqueUnicast net(n, 8);
  locality::PerPlayer<std::uint64_t> secret(
      n, CC_LOCALITY_SITE("all-gather secret"));
  const auto leaky_fill = [&](int i, Message& out) {
    out.push_uint(secret[(i + 2) % n], 4);  // i reads i+2's state
  };
  if (locality::enabled()) {
    EXPECT_THROW(all_gather(net, 4, leaky_fill), ModelViolation);
    EXPECT_EQ(net.stats().rounds, 0);
  } else {
    EXPECT_NO_THROW(all_gather(net, 4, leaky_fill));
  }
}

TEST(LocalityGuard, NofBlackboardWriteMustMatchActiveScope) {
  NofBlackboard board;
  // Orchestrator level: any attribution is fine (reductions run unscoped).
  board.write(1, bits_of(0, 4));
  EXPECT_EQ(board.total_bits(), 4u);
  locality::PlayerScope scope(0);
  board.write(0, bits_of(0, 2));  // own budget: always legal
  if (locality::enabled()) {
    EXPECT_THROW(board.write(2, bits_of(0, 1)), ModelViolation);
    EXPECT_EQ(board.total_bits(), 6u);  // rejected write charged nothing
  } else {
    EXPECT_NO_THROW(board.write(2, bits_of(0, 1)));
    EXPECT_EQ(board.total_bits(), 7u);
  }
}

TEST(LocalityGuard, TwoPartyChannelSendMustMatchActiveScope) {
  TwoPartyChannel channel;
  channel.send_from_bob(bits_of(0, 3));  // unscoped: fine
  locality::PlayerScope scope(0);        // Alice's scope
  channel.send_from_alice(bits_of(0, 2));
  if (locality::enabled()) {
    EXPECT_THROW(channel.send_from_bob(bits_of(0, 1)), ModelViolation);
  } else {
    EXPECT_NO_THROW(channel.send_from_bob(bits_of(0, 1)));
  }
}

}  // namespace
}  // namespace cclique
