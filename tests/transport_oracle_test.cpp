// The transport oracle. The four forwarding transports (unicast_payloads,
// unicast_payloads_relayed, broadcast_payloads, all_gather) charge their
// streams in closed form (EngineCore::charge_stream / charge_board) and hand
// each payload over once. Their chunked twins (chunked_transports.h)
// re-enact every round through round_fill and reassemble the payloads from
// the wire. Run on two engines with the same random cut registered, a
// transport and its twin must agree on every CommStats field and on every
// delivered payload: over random length matrices (all-zero rows, lengths
// below n, one hot sender), the MM distribute and aggregate geometries,
// broadcasts, and all-gathers of short and empty messages. The ChargeStream
// tests pin the closed form's own checks: a rejected charge commits nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "chunked_transports.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "comm/engine.h"
#include "core/block_mm.h"
#include "util/check.h"
#include "util/rng.h"

namespace cclique {
namespace {

using Payloads = std::vector<std::vector<Message>>;

const int kSizes[] = {1, 2, 3, 8, 13, 27, 64};
const int kBandwidths[] = {1, 7, 64};

std::vector<int> random_cut(int n, Rng& rng) {
  std::vector<int> side(static_cast<std::size_t>(n));
  for (int& s : side) s = rng.coin() ? 1 : 0;
  return side;
}

Message random_message(std::size_t bits, Rng& rng) {
  Message msg;
  for (std::size_t done = 0; done < bits; done += 64) {
    msg.push_uint(rng.next_u64(), static_cast<int>(std::min<std::size_t>(64, bits - done)));
  }
  return msg;
}

Payloads random_payloads(const LengthMatrix& len, Rng& rng) {
  Payloads payload(len.size());
  for (std::size_t v = 0; v < len.size(); ++v) {
    for (const std::size_t bits : len[v]) payload[v].push_back(random_message(bits, rng));
  }
  return payload;
}

/// Every CommStats field on its own line, so a mismatch names the field.
void expect_same_stats(const CommStats& metered, const CommStats& chunked) {
  EXPECT_EQ(metered.rounds, chunked.rounds);
  EXPECT_EQ(metered.total_bits, chunked.total_bits);
  EXPECT_EQ(metered.total_messages, chunked.total_messages);
  EXPECT_EQ(metered.cut_bits, chunked.cut_bits);
  EXPECT_EQ(metered.max_edge_bits_in_round, chunked.max_edge_bits_in_round);
  EXPECT_EQ(metered.per_player_sent_bits, chunked.per_player_sent_bits);
  EXPECT_EQ(metered.per_player_recv_bits, chunked.per_player_recv_bits);
}

using UnicastTransport = int (*)(CliqueUnicast&, const Payloads&, Payloads*);

/// Runs `metered` and its chunked twin on random payloads of lengths `len`,
/// each on a fresh engine with the same cut; both must charge the same and
/// deliver payload[v][p] to received[p][v].
void expect_unicast_twins(UnicastTransport metered, UnicastTransport chunked,
                          const LengthMatrix& len, int bandwidth, Rng& rng) {
  const int n = static_cast<int>(len.size());
  const Payloads payload = random_payloads(len, rng);
  const std::vector<int> cut = random_cut(n, rng);
  CliqueUnicast net(n, bandwidth), twin(n, bandwidth);
  net.set_cut(cut);
  twin.set_cut(cut);
  Payloads got, twin_got;
  EXPECT_EQ(metered(net, payload, &got), chunked(twin, payload, &twin_got));
  expect_same_stats(net.stats(), twin.stats());
  ASSERT_EQ(got.size(), len.size());
  for (std::size_t p = 0; p < len.size(); ++p) {
    for (std::size_t v = 0; v < len.size(); ++v) {
      EXPECT_EQ(got[p][v], twin_got[p][v]) << "payload " << v << " -> " << p;
      EXPECT_EQ(got[p][v], payload[v][p]) << "payload " << v << " -> " << p;
    }
  }
}

/// Random n x n lengths in four shapes: 0 mixes empty pairs, lengths below
/// n and multi-chunk streams, with every third row all-zero; 1 keeps every
/// length below n (most relay chunks empty); 2 has one hot sender whose
/// payloads are far longer than everyone else's; 3 is one length on every
/// pair, whose remainder chunks the relay rotation spreads.
LengthMatrix random_lengths(int n, int shape, Rng& rng) {
  const std::size_t nn = static_cast<std::size_t>(n);
  const std::uint64_t n64 = static_cast<std::uint64_t>(n);
  LengthMatrix len(nn, std::vector<std::size_t>(nn, 0));
  for (std::size_t v = 0; v < nn; ++v) {
    for (std::size_t p = 0; p < nn; ++p) {
      if (p == v) continue;
      std::uint64_t bits;
      if (shape == 0) {
        const std::uint64_t regime = rng.uniform(3);
        bits = v % 3 == 2 || regime == 0 ? 0 : rng.uniform(regime == 1 ? n64 : 4 * n64);
      } else if (shape == 1) {
        bits = rng.uniform(n64);
      } else if (shape == 2) {
        bits = v == nn / 2 ? 6 * n64 + rng.uniform(3 * n64) : rng.uniform(3);
      } else {
        bits = 2 * n64 + 1;
      }
      len[v][p] = static_cast<std::size_t>(bits);
    }
  }
  return len;
}

TEST(TransportOracle, DirectUnicastMatchesChunkedOnRandomLengths) {
  Rng rng(2301);
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      for (int shape = 0; shape < 4; ++shape) {
        SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b) +
                     " shape=" + std::to_string(shape));
        expect_unicast_twins(&unicast_payloads, &chunked::unicast_payloads,
                             random_lengths(n, shape, rng), b, rng);
      }
    }
  }
}

TEST(TransportOracle, RelayedUnicastMatchesChunkedOnRandomLengths) {
  Rng rng(2302);
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      for (int shape = 0; shape < 4; ++shape) {
        SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b) +
                     " shape=" + std::to_string(shape));
        expect_unicast_twins(&unicast_payloads_relayed, &chunked::unicast_payloads_relayed,
                             random_lengths(n, shape, rng), b, rng);
      }
    }
  }
}

TEST(TransportOracle, RelayedUnicastMatchesChunkedOnMmGeometries) {
  // The block-MM products' two relayed phases, at b = 64 as the MM
  // workloads run them.
  Rng rng(2303);
  for (int n : {8, 27, 64, 125}) {
    const blockmm::BlockGrid g(n);
    for (int w : {1, 61}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " w=" + std::to_string(w));
      expect_unicast_twins(&unicast_payloads_relayed, &chunked::unicast_payloads_relayed,
                           blockmm::distribute_lengths(g, w), 64, rng);
      expect_unicast_twins(&unicast_payloads_relayed, &chunked::unicast_payloads_relayed,
                           blockmm::aggregate_lengths(g, w), 64, rng);
    }
  }
}

TEST(TransportOracle, BroadcastMatchesChunked) {
  // Empty writes, writes below b and, from n = 3 on, one hot writer.
  Rng rng(2304);
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b));
      std::vector<Message> payloads;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t bits = i == 2 ? 5 * static_cast<std::uint64_t>(b) + 3
                                   : i % 3 == 0 ? 0
                                                : rng.uniform(static_cast<std::uint64_t>(b));
        payloads.push_back(random_message(static_cast<std::size_t>(bits), rng));
      }
      const std::vector<int> cut = random_cut(n, rng);
      CliqueBroadcast net(n, b), twin(n, b);
      net.set_cut(cut);
      twin.set_cut(cut);
      int rounds = -1, twin_rounds = -2;
      const std::vector<Message> row = broadcast_payloads(net, payloads, &rounds);
      const std::vector<Message> twin_row =
          chunked::broadcast_payloads(twin, payloads, &twin_rounds);
      EXPECT_EQ(rounds, twin_rounds);
      expect_same_stats(net.stats(), twin.stats());
      EXPECT_EQ(row, twin_row);
      EXPECT_EQ(row, payloads);
    }
  }
}

TEST(TransportOracle, AllGatherMatchesChunkedWithShortAndEmptyMessages) {
  // Every third message is empty and the rest are at most `width` bits, so
  // most rounds carry nothing on most edges; width 0 takes no round at all.
  Rng rng(2305);
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      for (int width : {0, 1, 13, 130}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b) +
                     " width=" + std::to_string(width));
        std::vector<Message> messages;
        for (int i = 0; i < n; ++i) {
          const std::uint64_t bits =
              i % 3 == 0 ? 0 : rng.uniform(static_cast<std::uint64_t>(width) + 1);
          messages.push_back(random_message(static_cast<std::size_t>(bits), rng));
        }
        const GatherFillFn fill = [&](int i, Message& out) {
          out = messages[static_cast<std::size_t>(i)];
        };
        const std::vector<int> cut = random_cut(n, rng);
        CliqueUnicast net(n, b), twin(n, b);
        net.set_cut(cut);
        twin.set_cut(cut);
        const std::vector<Message> row = all_gather(net, width, fill);
        const std::vector<Message> twin_row = chunked::all_gather(twin, width, fill);
        expect_same_stats(net.stats(), twin.stats());
        EXPECT_EQ(row, twin_row);
        EXPECT_EQ(row, messages);
      }
    }
  }
}

TEST(ChargeStream, RejectsAStreamLongerThanItsRoundsAllow) {
  // 17 bits need ceil(17/8) = 3 rounds at b = 8: in 2 rounds some chunk
  // would exceed the bandwidth cap, so nothing commits.
  EngineCore core(3, 8);
  core.set_cut({0, 1, 1});
  const LengthMatrix len = {{0, 17, 0}, {4, 0, 8}, {0, 0, 0}};
  EXPECT_THROW(core.charge_stream(len, 2), ModelViolation);
  EXPECT_THROW(core.charge_board({17, 0, 5}, 2), ModelViolation);
  EngineCore fresh(3, 8);
  EXPECT_EQ(core.stats(), fresh.stats());
  // In 3 rounds it fits, and the closed form charges it.
  core.charge_stream(len, 3);
  const CommStats& s = core.stats();
  EXPECT_EQ(s.rounds, 3);
  EXPECT_EQ(s.total_bits, 29u);
  EXPECT_EQ(s.total_messages, 3u + 1u + 1u);
  EXPECT_EQ(s.max_edge_bits_in_round, 8u);
  EXPECT_EQ(s.cut_bits, 17u + 4u);  // 1 -> 2 stays on side 1
  EXPECT_EQ(s.per_player_sent_bits, (std::vector<std::uint64_t>{17, 12, 0}));
  EXPECT_EQ(s.per_player_recv_bits, (std::vector<std::uint64_t>{4, 17, 8}));
}

TEST(ChargeStream, RejectsRaggedOrSelfAddressedMatrices) {
  EngineCore core(3, 8);
  core.set_cut({0, 1, 0});
  const LengthMatrix ragged = {{0, 1, 2}, {3, 0}, {4, 5, 0}};
  const LengthMatrix too_few_rows = {{0, 1, 2}, {3, 0, 1}};
  const LengthMatrix self = {{0, 1, 2}, {3, 9, 1}, {4, 5, 0}};
  const LengthMatrix square = {{0, 1, 2}, {3, 0, 1}, {4, 5, 0}};
  EXPECT_THROW(core.charge_stream(ragged, 1), PreconditionError);
  EXPECT_THROW(core.charge_stream(too_few_rows, 1), PreconditionError);
  EXPECT_THROW(core.charge_stream(self, 2), PreconditionError);
  EXPECT_THROW(core.charge_stream(square, -1), PreconditionError);
  EXPECT_THROW(core.charge_board({1, 2}, 1), PreconditionError);
  EngineCore fresh(3, 8);
  EXPECT_EQ(core.stats(), fresh.stats());
  EXPECT_NO_THROW(core.charge_stream(square, 1));
}

}  // namespace
}  // namespace cclique
