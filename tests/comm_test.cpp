// Tests for the communication engines: model semantics, bandwidth
// enforcement, exact accounting, cut metering.
#include <gtest/gtest.h>

#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "comm/congest.h"
#include "comm/nof.h"
#include "comm/two_party.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace cclique {
namespace {

Message bits_of(std::uint64_t v, int w) {
  Message m;
  m.push_uint(v, w);
  return m;
}

TEST(CliqueUnicast, DeliversPointToPoint) {
  CliqueUnicast net(4, 8);
  std::vector<std::vector<std::uint64_t>> got(4, std::vector<std::uint64_t>(4, 0));
  net.round_fill(
      [&](int i, Message* box) {
        for (int j = 0; j < 4; ++j) {
          if (j != i) box[j].push_uint(static_cast<std::uint64_t>(10 * i + j), 8);
        }
      },
      [&](int r, const std::vector<Message>& inbox) {
        for (int j = 0; j < 4; ++j) {
          if (j != r) got[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] = inbox[static_cast<std::size_t>(j)].read_uint(0, 8);
        }
      });
  for (int r = 0; r < 4; ++r) {
    for (int j = 0; j < 4; ++j) {
      if (j != r) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)],
                  static_cast<std::uint64_t>(10 * j + r));
      }
    }
  }
  EXPECT_EQ(net.stats().rounds, 1);
  EXPECT_EQ(net.stats().total_bits, 12u * 8u);
  EXPECT_EQ(net.stats().total_messages, 12u);
}

TEST(CliqueUnicast, BandwidthEnforced) {
  CliqueUnicast net(3, 4);
  EXPECT_THROW(net.round_fill(
                   [&](int i, Message* box) {
                     if (i == 0) box[1].push_uint(0, 5);  // 5 > 4 bits
                   },
                   [](int, const std::vector<Message>&) {}),
               ModelViolation);
  EXPECT_EQ(net.stats().rounds, 0);
}

TEST(CliqueUnicast, SelfMessageRejected) {
  CliqueUnicast net(3, 4);
  EXPECT_THROW(net.round_fill([&](int i, Message* box) { box[i].push_bit(true); },
                              [](int, const std::vector<Message>&) {}),
               ModelViolation);
}

TEST(CliqueUnicast, PerPlayerAccounting) {
  const int n = 5;
  CliqueUnicast net(n, 8);
  net.round_fill(
      [&](int i, Message* box) {
        for (int j = 0; j < n; ++j) {
          if (j != i) box[j].push_uint(0, 2);
        }
      },
      [](int, const std::vector<Message>&) {});
  ASSERT_EQ(net.stats().per_player_sent_bits.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(net.stats().per_player_recv_bits.size(), static_cast<std::size_t>(n));
  std::uint64_t sent_sum = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(net.stats().per_player_sent_bits[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(2 * (n - 1)));
    EXPECT_EQ(net.stats().per_player_recv_bits[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(2 * (n - 1)));
    sent_sum += net.stats().per_player_sent_bits[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(sent_sum, net.stats().total_bits);
}

TEST(CliqueBroadcast, PerPlayerAccounting) {
  const int n = 4;
  CliqueBroadcast net(n, 8);
  // Player i writes i+1 bits.
  net.round_fill([&](int i, Message& out) { out.push_uint(0, i + 1); });
  const std::uint64_t board_total = 1 + 2 + 3 + 4;
  EXPECT_EQ(net.stats().total_bits, board_total);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(net.stats().per_player_sent_bits[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i + 1));
    // Each player reads everyone else's writes.
    EXPECT_EQ(net.stats().per_player_recv_bits[static_cast<std::size_t>(i)],
              board_total - static_cast<std::uint64_t>(i + 1));
  }
}

TEST(CliqueUnicast, CutMetering) {
  CliqueUnicast net(4, 8);
  net.set_cut({0, 0, 1, 1});
  net.round_fill(
      [&](int i, Message* box) {
        for (int j = 0; j < 4; ++j) {
          if (j != i) box[j].push_uint(0, 2);
        }
      },
      [](int, const std::vector<Message>&) {});
  // 8 of the 12 directed pairs cross the cut.
  EXPECT_EQ(net.stats().cut_bits, 8u * 2u);
}

TEST(CliqueUnicast, PayloadHelperChunksAtBandwidth) {
  CliqueUnicast net(3, 4);
  std::vector<std::vector<Message>> payload(3, std::vector<Message>(3));
  payload[0][1] = bits_of(0x3FF, 10);  // 10 bits -> 3 rounds at b=4
  std::vector<std::vector<Message>> received;
  const int rounds = unicast_payloads(net, payload, &received);
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(received[1][0].read_uint(0, 10), 0x3FFu);
  EXPECT_EQ(net.stats().rounds, 3);
}

TEST(CliqueUnicast, PayloadHelperAllPairs) {
  CliqueUnicast net(5, 7);
  std::vector<std::vector<Message>> payload(5, std::vector<Message>(5));
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i != j) payload[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = bits_of(static_cast<std::uint64_t>(i * 5 + j), 13);
    }
  }
  std::vector<std::vector<Message>> received;
  unicast_payloads(net, payload, &received);
  for (int r = 0; r < 5; ++r) {
    for (int j = 0; j < 5; ++j) {
      if (j == r) continue;
      EXPECT_EQ(received[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)].read_uint(0, 13),
                static_cast<std::uint64_t>(j * 5 + r));
    }
  }
}

TEST(CliqueUnicast, PayloadHelperRejectsSelfPayload) {
  // A diagonal payload would never be shipped, so it must not be charged
  // either: the precondition fires before any bit moves.
  CliqueUnicast net(3, 4);
  std::vector<std::vector<Message>> payload(3, std::vector<Message>(3));
  payload[1][1] = bits_of(0x3FF, 10);
  std::vector<std::vector<Message>> received;
  EXPECT_THROW(unicast_payloads(net, payload, &received), PreconditionError);
  EXPECT_EQ(net.stats(), CliqueUnicast(3, 4).stats());
}

TEST(CliqueUnicast, PayloadHelperRejectsNullReceived) {
  CliqueUnicast net(3, 4);
  std::vector<std::vector<Message>> payload(3, std::vector<Message>(3));
  payload[0][1] = bits_of(0x3FF, 10);
  EXPECT_THROW(unicast_payloads(net, payload, nullptr), PreconditionError);
  EXPECT_EQ(net.stats(), CliqueUnicast(3, 4).stats());
}

TEST(AllGather, WideMessagesChunkAtBandwidth) {
  const int n = 5;
  CliqueUnicast net(n, 4);
  const auto row = all_gather(net, 10, [](int i, Message& out) {
    out.push_uint(static_cast<std::uint64_t>(1000 + i), 10);
  });
  ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(row[static_cast<std::size_t>(i)].read_uint(0, 10),
              static_cast<std::uint64_t>(1000 + i));
  }
  // ceil(10 / 4) = 3 rounds; every ordered pair carries the 10 bits.
  EXPECT_EQ(net.stats().rounds, 3);
  EXPECT_EQ(net.stats().total_bits, 5u * 4u * 10u);
  EXPECT_EQ(net.stats().max_edge_bits_in_round, 4u);
}

TEST(AllGather, PartialAndEmptyFillsStillTakeEveryRound) {
  // The schedule is a function of the declared width alone.
  CliqueUnicast net(4, 8);
  const auto row = all_gather(net, 20, [](int i, Message& out) {
    if (i == 2) out.push_uint(5, 3);
  });
  EXPECT_EQ(net.stats().rounds, 3);
  EXPECT_EQ(net.stats().total_bits, 3u * 3u);
  EXPECT_TRUE(row[0].empty());
  EXPECT_EQ(row[2].read_uint(0, 3), 5u);
  CliqueUnicast quiet(4, 8);
  all_gather(quiet, 20, [](int, Message&) {});
  EXPECT_EQ(quiet.stats().rounds, 3);
  EXPECT_EQ(quiet.stats().total_bits, 0u);
}

TEST(AllGather, SinglePlayerCliqueChargesNothing) {
  CliqueUnicast net(1, 8);
  const auto row = all_gather(net, 61, [](int, Message& out) { out.push_uint(42, 61); });
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].read_uint(0, 61), 42u);
  EXPECT_EQ(net.stats(), CliqueUnicast(1, 8).stats());
}

TEST(AllGather, OverlongMessageThrowsBeforeAnyBitMoves) {
  CliqueUnicast net(4, 8);
  EXPECT_THROW(all_gather(net, 6,
                          [](int i, Message& out) { out.push_uint(0, i == 3 ? 7 : 6); }),
               ModelViolation);
  EXPECT_EQ(net.stats(), CliqueUnicast(4, 8).stats());
}

TEST(AllGather, MeasuredCostEqualsAllGatherCost) {
  for (int n : {2, 27}) {
    for (int b : {1, 61, 64}) {
      for (int width : {1, 61, 130}) {
        CliqueUnicast net(n, b);
        all_gather(net, width, [&](int i, Message& out) {
          for (int k = 0; k < width; ++k) out.push_bit((i + k) % 3 == 0);
        });
        const AllGatherCost cost = all_gather_cost(n, width, b);
        EXPECT_EQ(net.stats().rounds, cost.rounds) << n << " " << b << " " << width;
        EXPECT_EQ(net.stats().total_bits, cost.bits) << n << " " << b << " " << width;
        EXPECT_EQ(cost.bits, static_cast<std::uint64_t>(n) * cost.sender_bits);
      }
    }
  }
}

TEST(CliqueBroadcast, BlackboardVisibleToAll) {
  CliqueBroadcast net(3, 8);
  const auto& board = net.round_fill(
      [&](int i, Message& out) { out.push_uint(static_cast<std::uint64_t>(i + 40), 8); });
  ASSERT_EQ(board.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(board[static_cast<std::size_t>(i)].read_uint(0, 8), static_cast<std::uint64_t>(i + 40));
  }
  EXPECT_EQ(net.stats().rounds, 1);
  EXPECT_EQ(net.stats().total_bits, 24u);
}

TEST(CliqueBroadcast, BandwidthEnforced) {
  CliqueBroadcast net(3, 2);
  EXPECT_THROW(net.round_fill([&](int, Message& out) { out.push_uint(0, 3); }), ModelViolation);
  EXPECT_EQ(net.stats().rounds, 0);
}

TEST(CliqueBroadcast, PayloadChunking) {
  CliqueBroadcast net(4, 3);
  std::vector<Message> payloads(4);
  payloads[2] = bits_of(0b1011011, 7);  // 7 bits at b=3 -> 3 rounds
  int rounds = 0;
  const auto assembled = broadcast_payloads(net, payloads, &rounds);
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(assembled[2].read_uint(0, 7), 0b1011011u);
  EXPECT_TRUE(assembled[0].empty());
}

TEST(CliqueBroadcast, CutChargesEveryWrittenBit) {
  CliqueBroadcast net(4, 8);
  net.set_cut({0, 1, 0, 1});
  net.round_fill([&](int, Message& out) { out.push_uint(0, 5); });
  EXPECT_EQ(net.stats().cut_bits, 4u * 5u);
}

TEST(Congest, OnlyGraphEdgesCarry) {
  const Graph topo = path_graph(3);  // 0-1-2
  CongestUnicast net(topo, 4);
  std::vector<int> heard_by_2;
  net.round_fill(
      [&](int v, Message* box) {
        for (int k = 0; k < topo.degree(v); ++k) box[k].push_uint(static_cast<std::uint64_t>(v), 2);
      },
      [&](int v, const std::vector<Message>& inbox) {
        if (v != 2) return;
        for (std::size_t k = 0; k < inbox.size(); ++k) {
          heard_by_2.push_back(static_cast<int>(inbox[k].read_uint(0, 2)));
        }
      });
  // Node 2 has a single neighbor: node 1.
  EXPECT_EQ(heard_by_2, (std::vector<int>{1}));
}

TEST(Congest, CutMetersOnlyCutEdges) {
  const Graph topo = path_graph(4);  // 0-1-2-3
  CongestUnicast net(topo, 8);
  net.set_cut({0, 0, 1, 1});
  net.round_fill(
      [&](int v, Message* box) {
        for (int k = 0; k < topo.degree(v); ++k) box[k].push_uint(0, 3);
      },
      [](int, const std::vector<Message>&) {});
  // Only edge 1-2 crosses; both directions carry 3 bits.
  EXPECT_EQ(net.stats().cut_bits, 6u);
}

TEST(TwoParty, InstanceGenerators) {
  Rng rng(1);
  for (int t = 0; t < 20; ++t) {
    EXPECT_TRUE(random_disjoint_instance(50, 0.4, rng).disjoint());
    EXPECT_FALSE(random_intersecting_instance(50, 0.4, rng).disjoint());
  }
}

TEST(TwoParty, TrivialProtocolCorrectAndMetered) {
  Rng rng(2);
  for (int t = 0; t < 20; ++t) {
    DisjointnessInstance inst = random_disjointness(64, 0.1, rng);
    TwoPartyChannel ch;
    EXPECT_EQ(trivial_disjointness_protocol(inst, &ch), inst.disjoint());
    EXPECT_EQ(ch.total_bits(), 65u);
    EXPECT_EQ(ch.alice_bits(), 64u);
    EXPECT_EQ(ch.bob_bits(), 1u);
  }
}

TEST(Nof, InstanceGenerators) {
  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    EXPECT_FALSE(random_nof_disjoint(40, 0.5, rng).intersecting());
    EXPECT_TRUE(random_nof_intersecting(40, 0.5, rng).intersecting());
  }
}

TEST(Nof, BlackboardAccounting) {
  NofBlackboard board;
  board.write(0, bits_of(0, 10));
  board.write(1, bits_of(0, 5));
  board.write(0, bits_of(0, 1));
  EXPECT_EQ(board.total_bits(), 16u);
  EXPECT_EQ(board.bits_by(0), 11u);
  EXPECT_EQ(board.bits_by(2), 0u);
}

}  // namespace
}  // namespace cclique
