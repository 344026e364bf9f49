// Tests for the routing substrate — correctness of all three routers and
// the balanced-demand round bounds the Theorem 2 simulation relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "routing/router.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace cclique {
namespace {

// Sorts delivered (source, payload) pairs for comparison.
using Delivered = std::vector<std::vector<std::pair<int, std::uint64_t>>>;

std::multiset<std::tuple<int, int, std::uint64_t>> flatten(const RoutingDemand& d) {
  std::multiset<std::tuple<int, int, std::uint64_t>> out;
  for (const auto& m : d.messages) out.insert({m.dest, m.source, m.payload});
  return out;
}

std::multiset<std::tuple<int, int, std::uint64_t>> flatten(const Delivered& del) {
  std::multiset<std::tuple<int, int, std::uint64_t>> out;
  for (std::size_t v = 0; v < del.size(); ++v) {
    for (const auto& [src, payload] : del[v]) {
      out.insert({static_cast<int>(v), src, payload});
    }
  }
  return out;
}

RoutingDemand random_balanced_demand(int n, int per_player, int width, Rng& rng) {
  RoutingDemand d;
  d.payload_bits = width;
  // Per-player out quota exactly per_player; destinations drawn from a
  // random permutation-of-slots construction keeping in-load balanced too.
  std::vector<int> dest_slots;
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < per_player; ++k) dest_slots.push_back(v);
  }
  rng.shuffle(dest_slots);
  std::size_t cursor = 0;
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < per_player; ++k) {
      d.messages.push_back(RoutedMessage{
          v, dest_slots[cursor++],
          rng.uniform(width >= 64 ? ~0ULL : (1ULL << width))});
    }
  }
  return d;
}

TEST(Routing, DemandLoadHelpers) {
  RoutingDemand d;
  d.payload_bits = 4;
  d.messages = {{0, 1, 5}, {0, 2, 6}, {1, 2, 7}};
  EXPECT_EQ(d.max_out(3), 2u);
  EXPECT_EQ(d.max_in(3), 2u);
}

TEST(Routing, DirectDeliversEverything) {
  Rng rng(1);
  CliqueUnicast net(6, 8);
  RoutingDemand d = random_balanced_demand(6, 4, 8, rng);
  RoutingResult r = route_direct(net, d);
  EXPECT_EQ(flatten(r.delivered), flatten(d));
}

TEST(Routing, TwoPhaseDeliversEverything) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    CliqueUnicast net(8, 16);
    RoutingDemand d = random_balanced_demand(8, 6, 10, rng);
    RoutingResult r = route_two_phase(net, d);
    EXPECT_EQ(flatten(r.delivered), flatten(d));
  }
}

TEST(Routing, ValiantDeliversEverything) {
  Rng rng(3);
  CliqueUnicast net(8, 16);
  RoutingDemand d = random_balanced_demand(8, 6, 10, rng);
  RoutingResult r = route_valiant(net, d, rng);
  EXPECT_EQ(flatten(r.delivered), flatten(d));
}

TEST(Routing, EmptyDemand) {
  CliqueUnicast net(4, 8);
  RoutingDemand d;
  d.payload_bits = 4;
  RoutingResult r = route_two_phase(net, d);
  EXPECT_EQ(r.rounds, 0);
  for (const auto& v : r.delivered) EXPECT_TRUE(v.empty());
}

TEST(Routing, SelfMessagesDeliveredLocally) {
  CliqueUnicast net(3, 8);
  RoutingDemand d;
  d.payload_bits = 5;
  d.messages = {{1, 1, 17}, {2, 0, 9}};
  RoutingResult r = route_direct(net, d);
  ASSERT_EQ(r.delivered[1].size(), 1u);
  EXPECT_EQ(r.delivered[1][0].second, 17u);
}

TEST(Routing, PayloadWidthValidated) {
  CliqueUnicast net(3, 8);
  RoutingDemand d;
  d.payload_bits = 3;
  d.messages = {{0, 1, 9}};  // 9 needs 4 bits
  EXPECT_THROW(route_direct(net, d), PreconditionError);
}

// An endpoint outside [0, n) is rejected by every router before any bit
// moves: the engine's stats stay those of a fresh engine.
TEST(Routing, OutOfRangeEndpointsThrowBeforeAnyBitMoves) {
  const int n = 4;
  const CommStats fresh = CliqueUnicast(n, 8).stats();
  for (const RoutedMessage bad : {RoutedMessage{-1, 2, 1}, RoutedMessage{1, n, 1}}) {
    RoutingDemand d;
    d.payload_bits = 4;
    d.messages = {{0, 1, 3}, {2, 3, 5}, bad, {3, 0, 7}};
    CliqueUnicast direct(n, 8), two_phase(n, 8), valiant(n, 8);
    Rng rng(12);
    EXPECT_THROW(route_direct(direct, d), PreconditionError);
    EXPECT_THROW(route_two_phase(two_phase, d), PreconditionError);
    EXPECT_THROW(route_valiant(valiant, d, rng), PreconditionError);
    EXPECT_EQ(direct.stats(), fresh);
    EXPECT_EQ(two_phase.stats(), fresh);
    EXPECT_EQ(valiant.stats(), fresh);
  }
}

// The two-phase router ships one positional stream per (source,
// destination) pair through unicast_payloads_relayed, so a call costs
// exactly relay_cost of its record-length matrix: the schedule depends on
// the per-pair record counts alone.
TEST(Routing, TwoPhaseChargesRelayCostOfItsRecordMatrix) {
  const auto check = [](int n, int b, const RoutingDemand& d) {
    const std::size_t w = static_cast<std::size_t>(std::max(d.payload_bits, 1));
    const std::size_t un = static_cast<std::size_t>(n);
    LengthMatrix len(un, std::vector<std::size_t>(un, 0));
    for (const auto& m : d.messages) {
      const std::size_t s = static_cast<std::size_t>(m.source);
      const std::size_t t = static_cast<std::size_t>(m.dest);
      if (s != t) len[s][t] += w;
    }
    const RelaySchedule cost = relay_cost(len, b);
    CliqueUnicast net(n, b);
    const RoutingResult r = route_two_phase(net, d);
    EXPECT_EQ(r.rounds, cost.rounds());
    EXPECT_EQ(net.stats().rounds, cost.rounds());
    EXPECT_EQ(net.stats().total_bits, cost.bits);
    return cost;
  };
  Rng rng(13);
  for (int n : {2, 5, 8, 16}) {
    for (int width : {0, 1, 7, 20, 64}) {
      for (int b : {1, 8, 32}) check(n, b, random_balanced_demand(n, 2 * n, width, rng));
    }
  }
  // DESIGN.md §4a: at n = 8 and b = 8, "v sends 8 records to v + 1" and
  // "v sends 4 each to v + 1 and v + 2" have the same per-player counts and
  // cost the same: 2 rounds and 560 bits of 5-bit records.
  const int n = 8;
  RoutingDemand one_partner, two_partners;
  one_partner.payload_bits = two_partners.payload_bits = 5;
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < 8; ++k) one_partner.messages.push_back({v, (v + 1) % n, 21});
    for (int k = 0; k < 4; ++k) {
      two_partners.messages.push_back({v, (v + 1) % n, 10});
      two_partners.messages.push_back({v, (v + 2) % n, 11});
    }
  }
  for (const RoutingDemand* d : {&one_partner, &two_partners}) {
    const RelaySchedule cost = check(n, 8, *d);
    EXPECT_EQ(cost.rounds(), 2);
    EXPECT_EQ(cost.bits, 560u);
  }
}

// The headline property: hot-pair demands (all of one player's messages to
// a single destination) sink the direct router but stay O(c) for the
// two-phase router.
TEST(Routing, TwoPhaseSpreadsHotPairs) {
  const int n = 16;
  RoutingDemand d;
  d.payload_bits = 8;
  // Player 0 sends n messages, all to player 1 (in-load of 1 is n = c*n
  // with c=1; out-load of 0 is n).
  for (int k = 0; k < n; ++k) {
    d.messages.push_back(RoutedMessage{0, 1, static_cast<std::uint64_t>(k)});
  }
  CliqueUnicast direct_net(n, 16);
  const int direct_rounds = route_direct(direct_net, d).rounds;
  CliqueUnicast relay_net(n, 16);
  const int relay_rounds = route_two_phase(relay_net, d).rounds;
  EXPECT_GE(direct_rounds, n / 2) << "direct routing must serialize the hot pair";
  EXPECT_LE(relay_rounds, 6) << "two-phase routing must spread the hot pair";
}

// Deterministic O(c) bound: for c-balanced demands the two-phase router's
// rounds must not grow with n (at fixed record width / bandwidth ratio).
TEST(Routing, TwoPhaseRoundsScaleWithLoadNotSize) {
  Rng rng(5);
  std::map<int, int> rounds_by_n;
  for (int n : {8, 16, 32}) {
    CliqueUnicast net(n, 32);
    RoutingDemand d = random_balanced_demand(n, 2 * n, 8, rng);  // c = 2
    rounds_by_n[n] = route_two_phase(net, d).rounds;
  }
  // Allow slack of 2 rounds for addressing-width growth.
  EXPECT_LE(rounds_by_n[32], rounds_by_n[8] + 2)
      << "two-phase rounds should be O(c), not O(n)";
}

TEST(Routing, TwoPhaseRoundsGrowLinearlyInC) {
  Rng rng(6);
  const int n = 12;
  std::vector<int> rounds;
  for (int c : {1, 2, 4}) {
    CliqueUnicast net(n, 32);
    RoutingDemand d = random_balanced_demand(n, c * n, 8, rng);
    rounds.push_back(route_two_phase(net, d).rounds);
  }
  EXPECT_LT(rounds[2], 8 * rounds[0] + 8) << "rounds should track c roughly linearly";
  EXPECT_GT(rounds[2], rounds[0]) << "more load must cost more rounds";
}

// DESIGN.md §4a, asserted directly from the per-player accounting. When
// every player sends and receives <= M records of w bits, hop 1 moves at
// most M*w of a player's bits, and on hop 2 each of its n links carries at
// most ceil(M*w/n) + min(M, n-1) bits. The cap below, 2 * n * (M/n + 1)
// records of bits_for(n) + w bits per player, covers both hops here — a
// certificate the aggregate max_edge_bits_in_round cannot give.
TEST(Routing, TwoPhasePerPlayerLoadCertificate) {
  Rng rng(11);
  const int n = 16;
  const int c = 3;  // per-player demand M = c * n
  const int width = 8;
  CliqueUnicast net(n, 32);
  RoutingDemand d = random_balanced_demand(n, c * n, width, rng);
  const std::size_t M = static_cast<std::size_t>(c) * static_cast<std::size_t>(n);
  ASSERT_EQ(d.max_out(n), M);
  ASSERT_EQ(d.max_in(n), M);
  route_two_phase(net, d);

  const std::uint64_t record_bits =
      static_cast<std::uint64_t>(bits_for(static_cast<std::uint64_t>(n)) + width);
  const std::uint64_t edge_cap_records = M / static_cast<std::size_t>(n) + 1;  // ceil(M/n) + 1
  const std::uint64_t player_cap_bits =
      2 * static_cast<std::uint64_t>(n) * edge_cap_records * record_bits;
  const CommStats& s = net.stats();
  ASSERT_EQ(s.per_player_sent_bits.size(), static_cast<std::size_t>(n));
  std::uint64_t sent_sum = 0, recv_sum = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_LE(s.per_player_sent_bits[static_cast<std::size_t>(i)], player_cap_bits)
        << "player " << i << " overloaded on send";
    EXPECT_LE(s.per_player_recv_bits[static_cast<std::size_t>(i)], player_cap_bits)
        << "player " << i << " overloaded on receive";
    sent_sum += s.per_player_sent_bits[static_cast<std::size_t>(i)];
    recv_sum += s.per_player_recv_bits[static_cast<std::size_t>(i)];
  }
  // Unicast delivers every sent bit to exactly one receiver.
  EXPECT_EQ(sent_sum, s.total_bits);
  EXPECT_EQ(recv_sum, s.total_bits);
}

TEST(Routing, ValiantNearBalanced) {
  Rng rng(7);
  const int n = 16;
  CliqueUnicast net(n, 32);
  RoutingDemand d = random_balanced_demand(n, n, 8, rng);  // c = 1
  RoutingResult r = route_valiant(net, d, rng);
  EXPECT_LE(r.rounds, 16) << "valiant should stay near O(c + log n / log log n)";
}

TEST(Routing, DeterministicScheduleIsReproducible) {
  Rng rng(8);
  RoutingDemand d = random_balanced_demand(8, 8, 8, rng);
  CliqueUnicast net1(8, 16), net2(8, 16);
  RoutingResult r1 = route_two_phase(net1, d);
  RoutingResult r2 = route_two_phase(net2, d);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(flatten(r1.delivered), flatten(r2.delivered));
  EXPECT_EQ(net1.stats().total_bits, net2.stats().total_bits);
}

TEST(Routing, DuplicatePayloadsSurvive) {
  // Identical (source, dest, payload) triples must all arrive (multiset
  // semantics) — the circuit simulator relies on counts.
  CliqueUnicast net(4, 16);
  RoutingDemand d;
  d.payload_bits = 4;
  d.messages = {{0, 2, 7}, {0, 2, 7}, {0, 2, 7}};
  RoutingResult r = route_two_phase(net, d);
  EXPECT_EQ(r.delivered[2].size(), 3u);
}

TEST(Routing, BandwidthOneStillCorrect) {
  Rng rng(9);
  CliqueUnicast net(5, 1);
  RoutingDemand d = random_balanced_demand(5, 3, 4, rng);
  RoutingResult r = route_two_phase(net, d);
  EXPECT_EQ(flatten(r.delivered), flatten(d));
  EXPECT_GT(r.rounds, 4) << "b=1 must chunk multi-bit records over rounds";
}

}  // namespace
}  // namespace cclique
