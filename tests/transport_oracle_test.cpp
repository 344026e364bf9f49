// The transport oracle. The four forwarding transports (unicast_payloads,
// unicast_payloads_relayed, broadcast_payloads, all_gather) charge their
// streams in closed form (EngineCore::charge_stream / charge_board) and hand
// each payload over once. Their chunked twins (chunked_transports.h)
// re-enact every round through round_fill and reassemble the payloads from
// the wire. Run on two engines with the same random cut registered, a
// transport and its twin must agree on every CommStats field and on every
// delivered payload: over random length matrices (all-zero rows, lengths
// below n, one hot sender), the MM distribute and aggregate geometries,
// broadcasts, and all-gathers of short and empty messages.
//
// The relay has two forms: the planned one charges a RelaySchedule that
// relay_cost priced from the length matrix up front, as a block-product
// plan keeps it, and the three-argument one prices its payloads' lengths
// itself. Both run on the same payloads and cut as the chunked twin, and
// each must match it. relay_cost prices in closed form, so every relayed
// case also checks it against the chunk walk (chunked::relay_cost) on
// every hop-load entry, both hops' rounds and the bits, including lengths
// at each edge of the n-way split and count_sparse's profile-dependent
// distribution.
//
// A round_fill round commits through the same meter (charge_stream(len, 1),
// or charge_board(len, 1) on the blackboard), so the twins compare R
// metered rounds against one closed-form charge of R rounds. The RoundTally
// tests close the loop: on all three round engines, every CommStats field
// must equal a per-message tally kept here, apart from the engine. The
// ChargeStream tests pin the closed form's own checks: a rejected charge
// commits nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chunked_transports.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "comm/congest.h"
#include "comm/engine.h"
#include "core/block_mm.h"
#include "core/sparse_mm.h"
#include "graph/generators.h"
#include "linalg/mat61.h"
#include "linalg/sparse.h"
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

using UnicastTransport = std::function<int(CliqueUnicast&, Payloads, Payloads*)>;
using ChunkedTransport = int (*)(CliqueUnicast&, const Payloads&, Payloads*);

/// Runs each `metered` transport and the chunked twin on the same random
/// payloads of lengths `len`, each on a fresh engine with the same cut;
/// every transport must charge what the twin charged and deliver
/// payload[v][p] to received[p][v].
void expect_unicast_twins(const std::vector<UnicastTransport>& metered,
                          ChunkedTransport chunked, const LengthMatrix& len, int bandwidth,
                          Rng& rng) {
  const int n = static_cast<int>(len.size());
  const Payloads payload = random_payloads(len, rng);
  const std::vector<int> cut = random_cut(n, rng);
  CliqueUnicast twin(n, bandwidth);
  twin.set_cut(cut);
  Payloads twin_got;
  const int twin_rounds = chunked(twin, payload, &twin_got);
  for (std::size_t form = 0; form < metered.size(); ++form) {
    SCOPED_TRACE("transport form " + std::to_string(form));
    CliqueUnicast net(n, bandwidth);
    net.set_cut(cut);
    Payloads got;
    EXPECT_EQ(metered[form](net, payload, &got), twin_rounds);
    expect_same_stats(net.stats(), twin.stats());
    ASSERT_EQ(got.size(), len.size());
    for (std::size_t p = 0; p < len.size(); ++p) {
      for (std::size_t v = 0; v < len.size(); ++v) {
        EXPECT_EQ(got[p][v], twin_got[p][v]) << "payload " << v << " -> " << p;
        EXPECT_EQ(got[p][v], payload[v][p]) << "payload " << v << " -> " << p;
      }
    }
  }
}

/// Both forms of the relay for payloads of lengths `len` at bandwidth b:
/// the three-argument form, and the planned form on relay_cost(len, b),
/// priced before any payload exists and checked against the walk.
std::vector<UnicastTransport> relay_forms(const LengthMatrix& len, int b) {
  const auto schedule = std::make_shared<const RelaySchedule>(relay_cost(len, b));
  chunked::expect_same_schedule(*schedule, chunked::relay_cost(len, b));
  return {[](CliqueUnicast& net, Payloads payload, Payloads* received) {
            return unicast_payloads_relayed(net, std::move(payload), received);
          },
          [schedule](CliqueUnicast& net, Payloads payload, Payloads* received) {
            return unicast_payloads_relayed(net, std::move(payload), received, *schedule);
          }};
}

/// Random n x n lengths in five shapes: 0 mixes empty pairs, lengths below
/// n and multi-chunk streams, with every third row all-zero; 1 keeps every
/// length below n (most relay chunks empty); 2 has one hot sender whose
/// payloads are far longer than everyone else's; 3 is one length on every
/// pair, whose remainder chunks the relay rotation spreads; 4 draws every
/// length from the edges of the n-way split, {0, 1, n-1, n, n+1, 2n-1, 2n,
/// 2n+1}, where the base bits and the remainder chunks trade places.
const int kLengthShapes = 5;

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
      } else if (shape == 3) {
        bits = 2 * n64 + 1;
      } else {
        const std::uint64_t edges[] = {0, 1, n64 - 1, n64, n64 + 1, 2 * n64 - 1, 2 * n64,
                                       2 * n64 + 1};
        bits = edges[rng.uniform(8)];
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
      for (int shape = 0; shape < kLengthShapes; ++shape) {
        SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b) +
                     " shape=" + std::to_string(shape));
        expect_unicast_twins({&unicast_payloads}, &chunked::unicast_payloads,
                             random_lengths(n, shape, rng), b, rng);
      }
    }
  }
}

TEST(TransportOracle, RelayedUnicastMatchesChunkedOnRandomLengths) {
  Rng rng(2302);
  const auto expect_relayed = [&](const LengthMatrix& len, int b) {
    expect_unicast_twins(relay_forms(len, b), &chunked::unicast_payloads_relayed, len, b, rng);
  };
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      for (int shape = 0; shape < kLengthShapes; ++shape) {
        SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b) +
                     " shape=" + std::to_string(shape));
        expect_relayed(random_lengths(n, shape, rng), b);
      }
    }
  }
  // At count_sparse's n and b: the split's edge lengths, and count_sparse's
  // own distribution, (index, value) pairs per announced entry of
  // gnp(125, d/125) at average degree d in [3, 8], whose lengths leave a
  // different remainder on almost every pair. The hop tables do not depend
  // on b, and the sizes above run every bandwidth.
  const int n = 125, b = 64;
  SCOPED_TRACE("n=125 b=64");
  expect_relayed(random_lengths(n, 4, rng), b);
  for (double degree : {3.0, 5.5, 8.0}) {
    SCOPED_TRACE("sparse profile, degree " + std::to_string(degree));
    const Csr61 sa = Csr61::from_dense(Mat61::adjacency(gnp(n, degree / n, rng)));
    const SparseMmPlan plan = sparse_mm_plan(n, 61, b, declared_nnz_profile(sa, sa));
    expect_relayed(plan.distribute->len, b);
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
      for (const LengthMatrix& len :
           {blockmm::distribute_lengths(g, w), blockmm::aggregate_lengths(g, w)}) {
        expect_unicast_twins(relay_forms(len, 64), &chunked::unicast_payloads_relayed, len, 64,
                             rng);
      }
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

/// CommStats as a per-message tally: each message adds its own bits to the
/// totals, the edge maximum and both per-player vectors, and to cut_bits
/// when it crosses the cut.
class Tally {
 public:
  explicit Tally(int n) {
    stats_.per_player_sent_bits.assign(static_cast<std::size_t>(n), 0);
    stats_.per_player_recv_bits.assign(static_cast<std::size_t>(n), 0);
  }

  /// One `bits`-bit message from `from`, read by every player in `to`.
  void message(int from, const std::vector<int>& to, std::size_t bits, bool crosses_cut) {
    stats_.total_bits += bits;
    if (bits != 0) ++stats_.total_messages;
    stats_.max_edge_bits_in_round = std::max<std::uint64_t>(stats_.max_edge_bits_in_round, bits);
    if (crosses_cut) stats_.cut_bits += bits;
    stats_.per_player_sent_bits[static_cast<std::size_t>(from)] += bits;
    for (const int r : to) stats_.per_player_recv_bits[static_cast<std::size_t>(r)] += bits;
  }
  void round() { ++stats_.rounds; }

  const CommStats& stats() const { return stats_; }

 private:
  CommStats stats_;
};

/// A random message of 0, 1, b-1 or b bits.
Message random_round_message(int b, Rng& rng) {
  const int choices[] = {0, 1, b - 1, b};
  return random_message(static_cast<std::size_t>(choices[rng.uniform(4)]), rng);
}

const int kTallyRounds = 3;

TEST(RoundTally, UnicastRoundsMatchAPerMessageTally) {
  Rng rng(2306);
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b));
      const std::vector<int> cut = random_cut(n, rng);
      CliqueUnicast net(n, b);
      net.set_cut(cut);
      Tally tally(n);
      for (int round = 0; round < kTallyRounds; ++round) {
        Payloads sent(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) {
            std::vector<Message>& row = sent[static_cast<std::size_t>(i)];
            row.push_back(i == j ? Message() : random_round_message(b, rng));
            tally.message(i, {j}, row.back().size_bits(),
                          cut[static_cast<std::size_t>(i)] != cut[static_cast<std::size_t>(j)]);
          }
        }
        tally.round();
        net.round_fill(
            [&](int i, Message* box) {
              for (int j = 0; j < n; ++j) {
                box[j].append(sent[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
              }
            },
            [&](int r, const std::vector<Message>& inbox) {
              for (int j = 0; j < n; ++j) {
                EXPECT_EQ(inbox[static_cast<std::size_t>(j)],
                          sent[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)])
                    << "message " << j << " -> " << r;
              }
            });
      }
      expect_same_stats(net.stats(), tally.stats());
    }
  }
}

TEST(RoundTally, BroadcastRoundsMatchAPerMessageTally) {
  Rng rng(2307);
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b));
      CliqueBroadcast net(n, b);
      net.set_cut(random_cut(n, rng));  // every written bit crosses a registered cut
      Tally tally(n);
      for (int round = 0; round < kTallyRounds; ++round) {
        std::vector<Message> written;
        for (int i = 0; i < n; ++i) {
          written.push_back(random_round_message(b, rng));
          std::vector<int> readers;
          for (int j = 0; j < n; ++j) {
            if (j != i) readers.push_back(j);
          }
          tally.message(i, readers, written.back().size_bits(), true);
        }
        tally.round();
        const std::vector<Message>& board = net.round_fill(
            [&](int i, Message& out) { out.append(written[static_cast<std::size_t>(i)]); });
        EXPECT_EQ(board, written);
      }
      expect_same_stats(net.stats(), tally.stats());
    }
  }
}

TEST(RoundTally, CongestRoundsMatchAPerMessageTally) {
  Rng rng(2308);
  for (int n : kSizes) {
    for (int b : kBandwidths) {
      SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b));
      const Graph topology = gnp(n, 0.4, rng);
      const std::vector<int> cut = random_cut(n, rng);
      CongestUnicast net(topology, b);
      net.set_cut(cut);
      Tally tally(n);
      for (int round = 0; round < kTallyRounds; ++round) {
        // sent[v][k]: v's message to its k-th neighbor.
        Payloads sent(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) {
          for (const int u : topology.neighbors(v)) {
            sent[static_cast<std::size_t>(v)].push_back(random_round_message(b, rng));
            tally.message(v, {u}, sent[static_cast<std::size_t>(v)].back().size_bits(),
                          cut[static_cast<std::size_t>(v)] != cut[static_cast<std::size_t>(u)]);
          }
        }
        tally.round();
        net.round_fill(
            [&](int v, Message* box) {
              const std::vector<Message>& mine = sent[static_cast<std::size_t>(v)];
              for (std::size_t k = 0; k < mine.size(); ++k) box[k].append(mine[k]);
            },
            [&](int v, const std::vector<Message>& inbox) {
              const auto& nbrs = topology.neighbors(v);
              ASSERT_EQ(inbox.size(), nbrs.size());
              for (std::size_t k = 0; k < nbrs.size(); ++k) {
                const auto& back = topology.neighbors(nbrs[k]);
                const std::size_t slot = static_cast<std::size_t>(
                    std::lower_bound(back.begin(), back.end(), v) - back.begin());
                EXPECT_EQ(inbox[k], sent[static_cast<std::size_t>(nbrs[k])][slot])
                    << "message " << nbrs[k] << " -> " << v;
              }
            });
      }
      expect_same_stats(net.stats(), tally.stats());
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
