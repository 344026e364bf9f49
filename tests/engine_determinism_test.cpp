// Tests for the transport core's round contract (comm/engine.h): a round is
// one synchronous step, run serially in player order. CommStats must be
// bit-identical at every CC_THREADS setting (the knob reaches only the local
// kernels), and a throwing callback or a failed bandwidth check must end its
// round at once: later players never run and nothing is committed.
#include <gtest/gtest.h>

#include <string>

#include "analysis/locality_guard.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "comm/congest.h"
#include "comm/engine.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "scoped_env.h"
#include "util/rng.h"

namespace cclique {
namespace {

/// A fixed protocol exercising every engine: a unicast round of varying
/// per-pair widths, chunked all-pairs payloads, chunked broadcasts, and a
/// CONGEST round — all with a registered cut.
struct ProtocolStats {
  CommStats unicast;
  CommStats broadcast;
  CommStats congest;
};

ProtocolStats run_fixed_protocol() {
  ProtocolStats out;
  const int n = 12;
  {
    CliqueUnicast net(n, 16);
    std::vector<int> side(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) side[static_cast<std::size_t>(i)] = i % 2;
    net.set_cut(side);
    // One round: deterministic per-pair messages of varying width.
    net.round_fill(
        [&](int i, Message* box) {
          for (int j = 0; j < n; ++j) {
            if (j != i) box[j].push_uint(static_cast<std::uint64_t>(i * n + j), 1 + (i + j) % 13);
          }
        },
        [](int, const std::vector<Message>&) {});
    // All-pairs payload streams of varying lengths.
    std::vector<std::vector<Message>> payload(
        static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        Message& m = payload[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        for (int t = 0; t < 5 + 7 * ((i + 3 * j) % 9); ++t) m.push_bit((i + j + t) % 3 == 0);
      }
    }
    std::vector<std::vector<Message>> received;
    unicast_payloads(net, payload, &received);
    // Spot-check delivery so the determinism test also proves transport.
    EXPECT_EQ(received[1][0], payload[0][1]);
    out.unicast = net.stats();
  }
  {
    CliqueBroadcast net(n, 8);
    std::vector<int> side(static_cast<std::size_t>(n), 0);
    side[0] = 1;
    net.set_cut(side);
    std::vector<Message> payloads(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int t = 0; t < 3 + 5 * (i % 4); ++t) {
        payloads[static_cast<std::size_t>(i)].push_bit((i + t) % 2 == 0);
      }
    }
    int rounds = 0;
    const auto assembled = broadcast_payloads(net, payloads, &rounds);
    EXPECT_EQ(assembled[3], payloads[3]);
    out.broadcast = net.stats();
  }
  {
    CongestUnicast net(cycle_graph(n), 6);
    net.round_fill(
        [&](int v, Message* box) {
          box[0].push_uint(static_cast<std::uint64_t>(v), 5);
          box[1].push_uint(static_cast<std::uint64_t>(v) + 1, 3 + v % 4);
        },
        [](int, const std::vector<Message>&) {});
    out.congest = net.stats();
  }
  return out;
}

TEST(EngineDeterminism, CommStatsBitIdenticalAcrossThreadCounts) {
  ScopedEnv base("CC_THREADS", "1");
  const ProtocolStats serial = run_fixed_protocol();
  // Fixed protocol sanity: something nontrivial was charged everywhere.
  EXPECT_GT(serial.unicast.total_bits, 0u);
  EXPECT_GT(serial.unicast.cut_bits, 0u);
  EXPECT_GT(serial.broadcast.cut_bits, 0u);
  EXPECT_GT(serial.congest.total_bits, 0u);
  for (const char* threads : {"2", "8"}) {
    ScopedEnv scoped("CC_THREADS", threads);
    const ProtocolStats other = run_fixed_protocol();
    // Every field, including cut_bits, max_edge_bits_in_round, and the
    // per-player vectors, must match the CC_THREADS=1 run exactly.
    EXPECT_EQ(other.unicast, serial.unicast) << "CC_THREADS=" << threads;
    EXPECT_EQ(other.broadcast, serial.broadcast) << "CC_THREADS=" << threads;
    EXPECT_EQ(other.congest, serial.congest) << "CC_THREADS=" << threads;
  }
}

// The per-player bandwidth check of a serial round: an over-long message
// throws when its player's fill returns, whatever CC_THREADS says.
TEST(EngineDeterminism, BandwidthCheckThrowsAndLeavesTheEngineUsable) {
  ScopedEnv scoped("CC_THREADS", "8");
  CliqueUnicast net(8, 4);
  const auto oversend = [&](int i, Message* box) {
    if (i == 5) box[2].push_uint(0, 5);  // 5 > 4 bits
  };
  EXPECT_THROW(net.round_fill(oversend, [](int, const std::vector<Message>&) {}),
               ModelViolation);
  // A violating round commits nothing and leaves the engine usable.
  EXPECT_EQ(net.stats().rounds, 0);
  EXPECT_EQ(net.stats().total_bits, 0u);
  net.round_fill([&](int, Message*) {}, [](int, const std::vector<Message>&) {});
  EXPECT_EQ(net.stats().rounds, 1);
}

TEST(EngineDeterminism, BandwidthCheckThrowsBeforeTheRoundCounts) {
  ScopedEnv scoped("CC_THREADS", "8");
  CliqueUnicast net(8, 4);
  EXPECT_THROW(net.round_fill(
                   [&](int i, Message* box) {
                     if (i == 3) box[6].push_uint(0, 5);  // past the 4-bit cap
                   },
                   [](int, const std::vector<Message>&) {}),
               ModelViolation);
  EXPECT_EQ(net.stats().rounds, 0);
}

TEST(EngineDeterminism, LowestPlayerExceptionWinsAtEveryThreadCount) {
  for (const char* threads : {"1", "2", "8"}) {
    ScopedEnv scoped("CC_THREADS", threads);
    CliqueUnicast net(16, 8);
    // Two different players fail with different exception types; the
    // serial fill loop stops at player 2, so player 2's always surfaces.
    const auto fill = [&](int i, Message*) {
      if (i == 2) throw PreconditionError("player 2 failed");
      if (i == 9) throw InvariantError("player 9 failed");
    };
    EXPECT_THROW(net.round_fill(fill, [](int, const std::vector<Message>&) {}),
                 PreconditionError)
        << "CC_THREADS=" << threads;
  }
}

TEST(EngineDeterminism, FailedRoundStopsAtTheFailingPlayer) {
  // Player 2's callback throws: the round ends there, players 3..n-1 never
  // run, the engine's stats stay those of a fresh engine, and the next
  // round commits.
  const auto no_recv = [](int, const std::vector<Message>&) {};
  for (const char* threads : {"1", "2", "8"}) {
    ScopedEnv scoped("CC_THREADS", threads);
    const int n = 8;
    CliqueUnicast net(n, 8);
    std::vector<int> ran(static_cast<std::size_t>(n), 0);
    const auto fill = [&](int i, Message* box) {
      ran[static_cast<std::size_t>(i)] = 1;
      box[(i + 1) % n].push_uint(1, 4);
      if (i == 2) throw PreconditionError("player 2 failed");
    };
    EXPECT_THROW(net.round_fill(fill, no_recv), PreconditionError) << "CC_THREADS=" << threads;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(ran[static_cast<std::size_t>(i)], i <= 2 ? 1 : 0)
          << "player " << i << ", CC_THREADS=" << threads;
    }
    EXPECT_EQ(net.stats(), CliqueUnicast(n, 8).stats()) << "CC_THREADS=" << threads;
    net.round_fill([&](int i, Message* box) { box[(i + 1) % n].push_uint(1, 4); }, no_recv);
    EXPECT_EQ(net.stats().rounds, 1) << "CC_THREADS=" << threads;
    EXPECT_EQ(net.stats().total_bits, static_cast<std::uint64_t>(4 * n))
        << "CC_THREADS=" << threads;
  }
}

TEST(EngineDeterminism, OverlongMessageStopsAtTheFailingPlayer) {
  // On each round engine player 2 writes one bit past the b-bit cap. The
  // check as its callback returns throws ModelViolation: players 3..n-1
  // never run, the stats stay those of a fresh engine, and the next round
  // commits and delivers exactly its own messages.
  const int n = 8, b = 4;
  std::vector<int> ran;
  const auto fill_width = [&](int i) {
    ran[static_cast<std::size_t>(i)] = 1;
    return i == 2 ? b + 1 : b;
  };
  const auto expect_stopped_at_player_2 = [&](const char* engine) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(ran[static_cast<std::size_t>(i)], i <= 2 ? 1 : 0) << engine << ", player " << i;
    }
  };
  const auto expect_one_round = [&](const CommStats& s, const char* engine) {
    EXPECT_EQ(s.rounds, 1) << engine;
    EXPECT_EQ(s.total_bits, static_cast<std::uint64_t>(n * b)) << engine;
  };
  {
    CliqueUnicast net(n, b);
    ran.assign(static_cast<std::size_t>(n), 0);
    const auto overlong = [&](int i, Message* box) {
      box[(i + 1) % n].push_uint(0, fill_width(i));
    };
    EXPECT_THROW(net.round_fill(overlong, [](int, const std::vector<Message>&) {}),
                 ModelViolation);
    expect_stopped_at_player_2("CLIQUE-UCAST");
    EXPECT_EQ(net.stats(), CliqueUnicast(n, b).stats());
    net.round_fill(
        [&](int i, Message* box) { box[(i + 1) % n].push_uint(static_cast<std::uint64_t>(i), b); },
        [&](int r, const std::vector<Message>& inbox) {
          const int from = (r + n - 1) % n;
          for (int j = 0; j < n; ++j) {
            const Message& m = inbox[static_cast<std::size_t>(j)];
            if (j == from) {
              ASSERT_EQ(m.size_bits(), static_cast<std::size_t>(b)) << j << " -> " << r;
              EXPECT_EQ(m.read_uint(0, b), static_cast<std::uint64_t>(from));
            } else {
              EXPECT_TRUE(m.empty()) << j << " -> " << r;
            }
          }
        });
    expect_one_round(net.stats(), "CLIQUE-UCAST");
  }
  {
    CliqueBroadcast net(n, b);
    ran.assign(static_cast<std::size_t>(n), 0);
    EXPECT_THROW(net.round_fill([&](int i, Message& out) { out.push_uint(0, fill_width(i)); }),
                 ModelViolation);
    expect_stopped_at_player_2("CLIQUE-BCAST");
    EXPECT_EQ(net.stats(), CliqueBroadcast(n, b).stats());
    const std::vector<Message>& board = net.round_fill(
        [&](int i, Message& out) { out.push_uint(static_cast<std::uint64_t>(i), b); });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(board[static_cast<std::size_t>(i)].read_uint(0, b), static_cast<std::uint64_t>(i));
    }
    expect_one_round(net.stats(), "CLIQUE-BCAST");
  }
  {
    const Graph ring = cycle_graph(n);
    CongestUnicast net(ring, b);
    ran.assign(static_cast<std::size_t>(n), 0);
    EXPECT_THROW(net.round_fill([&](int v, Message* box) { box[0].push_uint(0, fill_width(v)); },
                                [](int, const std::vector<Message>&) {}),
                 ModelViolation);
    expect_stopped_at_player_2("CONGEST");
    EXPECT_EQ(net.stats(), CongestUnicast(ring, b).stats());
    net.round_fill(
        [&](int v, Message* box) { box[0].push_uint(static_cast<std::uint64_t>(v), b); },
        [&](int v, const std::vector<Message>& inbox) {
          // Each neighbor u sent to its first neighbor only.
          const auto& nbrs = ring.neighbors(v);
          for (std::size_t k = 0; k < nbrs.size(); ++k) {
            const int u = nbrs[k];
            if (ring.neighbors(u)[0] == v) {
              EXPECT_EQ(inbox[k].read_uint(0, b), static_cast<std::uint64_t>(u));
            } else {
              EXPECT_TRUE(inbox[k].empty()) << u << " -> " << v;
            }
          }
        });
    expect_one_round(net.stats(), "CONGEST");
  }
}

TEST(EngineDeterminism, LocalityViolationPropagatesAtEveryThreadCount) {
  // A cross-player access tripped by the locality guard must behave exactly
  // like every other callback exception: it escapes the engine at any
  // CC_THREADS setting, the violating round commits nothing, and the engine
  // stays usable. In guard-off builds the same protocol runs untouched.
  for (const char* threads : {"1", "2", "8"}) {
    ScopedEnv scoped("CC_THREADS", threads);
    const int n = 12;
    CliqueUnicast net(n, 8);
    locality::PerPlayer<std::uint64_t> secret(
        n, CC_LOCALITY_SITE("thread-test secret"));
    const auto leaky_fill = [&](int i, Message* box) {
      if (i == 7) box[0].push_uint(secret[4], 3);  // 7 reads 4's state
    };
    const auto no_recv = [](int, const std::vector<Message>&) {};
    if (locality::enabled()) {
      EXPECT_THROW(net.round_fill(leaky_fill, no_recv), ModelViolation)
          << "CC_THREADS=" << threads;
      EXPECT_EQ(net.stats().rounds, 0) << "CC_THREADS=" << threads;
      EXPECT_EQ(net.stats().total_bits, 0u) << "CC_THREADS=" << threads;
    } else {
      EXPECT_NO_THROW(net.round_fill(leaky_fill, no_recv));
    }
    net.round_fill([&](int, Message*) {}, no_recv);
    EXPECT_GE(net.stats().rounds, 1) << "CC_THREADS=" << threads;
  }
}

TEST(EngineDeterminism, LowestPlayerWinsForLocalityViolations) {
  if (!locality::enabled()) GTEST_SKIP() << "guard compiled out";
  // Two players violate the locality discipline in the same round; the
  // fill loop stops at the first failing player for guard exceptions
  // exactly as for CC_* exceptions, so the surfaced message must name the
  // lower violator at every thread count.
  for (const char* threads : {"1", "2", "8"}) {
    ScopedEnv scoped("CC_THREADS", threads);
    const int n = 16;
    CliqueUnicast net(n, 8);
    locality::PerPlayer<std::uint64_t> secret(
        n, CC_LOCALITY_SITE("contested secret"));
    const auto fill = [&](int i, Message* box) {
      if (i == 3 || i == 11) box[0].push_uint(secret[(i + 1) % n], 3);
    };
    try {
      net.round_fill(fill, [](int, const std::vector<Message>&) {});
      FAIL() << "seeded violations must throw (CC_THREADS=" << threads << ")";
    } catch (const ModelViolation& e) {
      EXPECT_NE(std::string(e.what()).find("player 3"), std::string::npos)
          << "CC_THREADS=" << threads << ": " << e.what();
    }
    EXPECT_EQ(net.stats().rounds, 0) << "CC_THREADS=" << threads;
  }
}

TEST(EngineDeterminism, ThreadCountParsing) {
  {
    ScopedEnv scoped("CC_THREADS", "3");
    EXPECT_EQ(cc_thread_count(), 3);
  }
  {
    ScopedEnv scoped("CC_THREADS", "not-a-number");
    EXPECT_EQ(cc_thread_count(), 1);
  }
  {
    ScopedEnv scoped("CC_THREADS", "-2");
    EXPECT_EQ(cc_thread_count(), 1);
  }
}

}  // namespace
}  // namespace cclique
