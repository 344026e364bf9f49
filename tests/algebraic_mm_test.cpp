// Tests for the distributed algebraic matrix-multiplication protocol
// (core/algebraic_mm) and its transport substrate, the two-hop balanced
// relay (unicast_payloads_relayed, the chunk walk of its test oracle and
// relay_cost, which must price every length matrix exactly): correctness
// over both rings, exact agreement between the measured schedule and the
// data-independent plan, the memo that prices each plan geometry once per
// process (shared by every plan, equal to a fresh pricing, least recently
// used evicted, safe across threads), the O(n^{1/3}) round series at
// perfect cubes, exact triangle / 4-cycle counts against brute force, and
// scheduler-independence of the stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "chunked_transports.h"
#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/apsp.h"
#include "core/block_mm.h"
#include "core/mm_triangle.h"
#include "core/query_service.h"
#include "core/sparse_mm.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "linalg/f2matrix.h"
#include "linalg/mat61.h"
#include "linalg/sparse.h"
#include "scoped_env.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace cclique {
namespace {

using Payloads = std::vector<std::vector<Message>>;

/// The length matrix a payload matrix presents to relay_cost.
LengthMatrix lengths_of(const Payloads& payload) {
  LengthMatrix len(payload.size());
  for (std::size_t v = 0; v < payload.size(); ++v) {
    for (const Message& msg : payload[v]) len[v].push_back(msg.size_bits());
  }
  return len;
}

/// relay_cost must price exactly what one unicast_payloads_relayed call
/// charged `net` (a fresh engine).
void expect_priced_by_relay_cost(const CliqueUnicast& net, const Payloads& payload) {
  const RelaySchedule cost = relay_cost(lengths_of(payload), net.bandwidth());
  EXPECT_EQ(cost.rounds(), net.stats().rounds);
  EXPECT_EQ(cost.bits, net.stats().total_bits);
}

/// True when received[r][v] == payload[v][r] for every pair.
bool delivered_intact(const Payloads& payload, const Payloads& received) {
  for (std::size_t r = 0; r < payload.size(); ++r) {
    for (std::size_t v = 0; v < payload.size(); ++v) {
      if (v != r && received[r][v] != payload[v][r]) return false;
    }
  }
  return true;
}

TEST(RelayedPayloads, RoundTripsSkewedDemand) {
  // A demand matrix with wildly uneven payload sizes (the shape the MM
  // distribution phase produces): everything must arrive intact, and the
  // relay must beat direct chunking on rounds because no single edge
  // carries a whole payload.
  const int n = 13;
  const int bandwidth = 8;
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  Rng rng(5);
  for (int v = 0; v < n; ++v) {
    // Two heavy streams per player (like a block distribution) plus a thin
    // one; lengths are data-independent functions of the pair only.
    for (int d : {1, 5, 7}) {
      const int p = (v + d) % n;
      const int bits = d == 7 ? 9 : 400 + v;
      for (int t = 0; t < bits; ++t) {
        payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)].push_bit(
            rng.coin());
      }
    }
  }
  CliqueUnicast relayed_net(n, bandwidth);
  std::vector<std::vector<Message>> got;
  const int relay_rounds = unicast_payloads_relayed(relayed_net, payload, &got);
  for (int r = 0; r < n; ++r) {
    for (int v = 0; v < n; ++v) {
      if (v == r) continue;
      EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)],
                payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(r)])
          << "payload " << v << " -> " << r;
    }
  }
  EXPECT_EQ(relayed_net.stats().rounds, relay_rounds);
  expect_priced_by_relay_cost(relayed_net, payload);
  CliqueUnicast direct_net(n, bandwidth);
  std::vector<std::vector<Message>> direct_got;
  const int direct_rounds = unicast_payloads(direct_net, payload, &direct_got);
  // Direct chunking pays ceil(max payload / b) >= 51 rounds; the relay
  // spreads each player's ~0.8k total bits over all n links (~9 per hop).
  EXPECT_LT(relay_rounds, direct_rounds);
}

TEST(RelayedPayloads, RejectsSelfPayloads) {
  CliqueUnicast net(4, 8);
  std::vector<std::vector<Message>> payload(4, std::vector<Message>(4));
  payload[2][2].push_bit(true);
  std::vector<std::vector<Message>> got;
  EXPECT_THROW(unicast_payloads_relayed(net, payload, &got), PreconditionError);
}

TEST(RelayedPayloads, RejectsNullReceived) {
  CliqueUnicast net(4, 8);
  Payloads payload(4, std::vector<Message>(4));
  payload[2][1].push_bit(true);
  EXPECT_THROW(unicast_payloads_relayed(net, payload, nullptr), PreconditionError);
  EXPECT_EQ(net.stats(), CliqueUnicast(4, 8).stats());
}

TEST(RelayedPayloads, NonUniformWidthsRoundTrip) {
  // Payload widths spread across the relay's regimes: zero-length (no
  // chunks at all), sub-chunk (len < n, so most relays carry an empty
  // chunk of this payload), exactly n bits (every chunk one bit), and
  // multi-word streams — all mixed in one delivery, including the mixed
  // remainder chunks the (src + dst) rotation exists to spread. Lengths
  // are a pair-only function, as the globally-known-lengths contract
  // requires.
  const int n = 9;
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  Rng rng(23);
  for (int v = 0; v < n; ++v) {
    for (int p = 0; p < n; ++p) {
      if (p == v) continue;
      // Widths 0, 3, 9 (== n), 70, 131, ... per (v, p) residue class.
      const int widths[] = {0, 3, 9, 70, 131, 1};
      const int bits = widths[(v * 2 + p) % 6] + ((v + p) % 2 == 0 ? 0 : v);
      for (int t = 0; t < bits; ++t) {
        payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)].push_bit(
            rng.coin());
      }
    }
  }
  CliqueUnicast net(n, 16);
  std::vector<std::vector<Message>> got;
  const int rounds = unicast_payloads_relayed(net, payload, &got);
  EXPECT_EQ(net.stats().rounds, rounds);
  expect_priced_by_relay_cost(net, payload);
  for (int r = 0; r < n; ++r) {
    for (int v = 0; v < n; ++v) {
      if (v == r) continue;
      EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)],
                payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(r)])
          << "payload " << v << " -> " << r;
    }
  }
}

TEST(RelayedPayloads, TwoPlayerDegenerate) {
  // n = 2: each player is the only possible relay for the other, and half
  // of every payload stays local (the self-relay chunk). The smallest
  // non-trivial instance of the chunk arithmetic must still round-trip.
  const int n = 2;
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  Rng rng(29);
  for (int t = 0; t < 33; ++t) payload[0][1].push_bit(rng.coin());
  for (int t = 0; t < 7; ++t) payload[1][0].push_bit(rng.coin());
  CliqueUnicast net(n, 4);
  std::vector<std::vector<Message>> got;
  unicast_payloads_relayed(net, payload, &got);
  EXPECT_EQ(got[1][0], payload[0][1]);
  EXPECT_EQ(got[0][1], payload[1][0]);
  expect_priced_by_relay_cost(net, payload);
}

TEST(RelayedPayloads, SinglePlayerMovesNothing) {
  CliqueUnicast net(1, 8);
  const Payloads payload(1, std::vector<Message>(1));
  Payloads got;
  EXPECT_EQ(unicast_payloads_relayed(net, payload, &got), 0);
  EXPECT_EQ(net.stats().total_bits, 0u);
  expect_priced_by_relay_cost(net, payload);
}

TEST(RelayedPayloads, RelayCostEqualsMeasuredCostOnRandomLengths) {
  // Random length matrices beyond the MM geometries: every third row is
  // all-zero, and the other pairs mix empty payloads, lengths below n
  // (most chunks empty) and multi-chunk streams.
  Rng rng(31);
  for (int n : {3, 8, 27, 64}) {
    for (int bandwidth : {1, 7, 64}) {
      Payloads payload(static_cast<std::size_t>(n),
                       std::vector<Message>(static_cast<std::size_t>(n)));
      for (int v = 0; v < n; ++v) {
        if (v % 3 == 2) continue;
        for (int p = 0; p < n; ++p) {
          if (p == v) continue;
          const std::uint64_t regime = rng.uniform(3);
          const std::uint64_t bits = regime == 0   ? 0
                                     : regime == 1 ? rng.uniform(static_cast<std::uint64_t>(n))
                                                   : rng.uniform(4 * static_cast<std::uint64_t>(n));
          Message& msg = payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
          for (std::uint64_t i = 0; i < bits; ++i) msg.push_bit(rng.coin());
        }
      }
      CliqueUnicast net(n, bandwidth);
      Payloads got;
      const int rounds = unicast_payloads_relayed(net, payload, &got);
      SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(bandwidth));
      EXPECT_EQ(rounds, net.stats().rounds);
      expect_priced_by_relay_cost(net, payload);
      EXPECT_TRUE(delivered_intact(payload, got));
    }
  }
}

TEST(RelayChunkWalk, ChunksTileEachPayloadAcrossDistinctRelays) {
  // Lengths straddle every regime of the n-way split: 0, 1, below n, n - 1,
  // n, n + 1, and multi-bit chunks with and without a remainder.
  for (int n : {1, 2, 5, 8, 13}) {
    const std::size_t nn = static_cast<std::size_t>(n);
    LengthMatrix len(nn, std::vector<std::size_t>(nn, 0));
    const std::size_t widths[] = {0, 1, 2, nn - 1, nn, nn + 1, 3 * nn, 3 * nn + 2, 7};
    for (std::size_t v = 0; v < nn; ++v) {
      for (std::size_t p = 0; p < nn; ++p) {
        if (p != v) len[v][p] = widths[(v * 5 + p) % 9];
      }
    }
    struct Seen {
      std::size_t end = 0;  // bits tiled so far
      std::size_t min = SIZE_MAX, max = 0, chunks = 0;
      std::vector<int> relay_uses;
    };
    std::vector<Seen> seen(nn * nn);
    std::size_t last_pair = 0;
    chunked::for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t,
                                           std::size_t lo, std::size_t clen) {
      ASSERT_LT(t, nn);
      ASSERT_GT(clen, 0u);
      const std::size_t pair = v * nn + p;
      EXPECT_GE(pair, last_pair) << "pairs must come in (v, p) order";
      last_pair = pair;
      Seen& s = seen[pair];
      if (s.relay_uses.empty()) s.relay_uses.assign(nn, 0);
      EXPECT_EQ(lo, s.end) << "chunks must tile the payload in order";
      if (len[v][p] >= nn) {
        // Chunk c (every chunk is non-empty here) rides relay (c - v - p) mod n.
        EXPECT_EQ(t, (s.chunks + 2 * nn - v - p) % nn);
      }
      s.end = lo + clen;
      s.min = std::min(s.min, clen);
      s.max = std::max(s.max, clen);
      ++s.chunks;
      ++s.relay_uses[t];
    });
    for (std::size_t v = 0; v < nn; ++v) {
      for (std::size_t p = 0; p < nn; ++p) {
        const Seen& s = seen[v * nn + p];
        const std::size_t total = len[v][p];
        SCOPED_TRACE("n=" + std::to_string(n) + " pair " + std::to_string(v) + "->" +
                     std::to_string(p) + " len " + std::to_string(total));
        EXPECT_EQ(s.end, total);
        EXPECT_EQ(s.chunks, std::min(total, nn));
        if (total == 0) continue;
        EXPECT_LE(s.max - s.min, 1u);
        // A relay carries at most one chunk of a payload; exactly one once L >= n.
        for (int uses : s.relay_uses) {
          EXPECT_LE(uses, 1);
          if (total >= nn) {
            EXPECT_EQ(uses, 1);
          }
        }
      }
    }
  }
}

TEST(RelayChunkWalk, RelayCostRejectsWhatTheExecutorRejects) {
  const LengthMatrix square = {{0, 40, 3}, {9, 0, 0}, {1, 2, 0}};
  EXPECT_NO_THROW(relay_cost(square, 8));
  const LengthMatrix ragged = {{0, 40, 3}, {9, 0}, {1, 2, 0}};
  const LengthMatrix wide = {{0, 40, 3}, {9, 0, 0}};  // n = 2 rows of 3
  const LengthMatrix self = {{0, 40, 3}, {9, 5, 0}, {1, 2, 0}};
  EXPECT_THROW(relay_cost(ragged, 8), PreconditionError);
  EXPECT_THROW(relay_cost(wide, 8), PreconditionError);
  EXPECT_THROW(relay_cost(self, 8), PreconditionError);
  EXPECT_THROW(relay_cost(square, 0), PreconditionError);
}

TEST(RelaySchedule, RejectsWhatItWasNotPricedForBeforeAnyBitMoves) {
  // The planned relay charges the tables its schedule kept, so it must
  // refuse payloads the schedule did not price, and a product must refuse a
  // plan without schedules: each throws before any bit moves, leaving the
  // engine's stats a fresh engine's.
  const int n = 8, b = 16;
  const LengthMatrix len = blockmm::distribute_lengths(blockmm::BlockGrid(n), 61);
  const RelaySchedule schedule = relay_cost(len, b);
  const auto zero_payloads = [&] {
    Payloads payload(len.size());
    for (std::size_t v = 0; v < len.size(); ++v) {
      for (const std::size_t bits : len[v]) payload[v].emplace_back(bits);
    }
    return payload;
  };
  ASSERT_GT(len[0][1], 0u);
  const CommStats fresh = CliqueUnicast(n, b).stats();
  CliqueUnicast net(n, b);
  net.set_cut({0, 1, 0, 1, 0, 1, 0, 1});
  Payloads got;
  Payloads longer = zero_payloads(), shorter = zero_payloads(), self = zero_payloads();
  longer[0][1].push_bit(true);
  shorter[0][1] = Message(len[0][1] - 1);
  self[3][3].push_bit(false);
  EXPECT_THROW(unicast_payloads_relayed(net, longer, &got, schedule), PreconditionError);
  EXPECT_THROW(unicast_payloads_relayed(net, shorter, &got, schedule), PreconditionError);
  EXPECT_THROW(unicast_payloads_relayed(net, self, &got, schedule), PreconditionError);
  EXPECT_THROW(unicast_payloads_relayed(net, zero_payloads(), &got, relay_cost(len, b + 1)),
               PreconditionError);
  const LengthMatrix other_n = blockmm::distribute_lengths(blockmm::BlockGrid(n + 1), 61);
  EXPECT_THROW(unicast_payloads_relayed(net, zero_payloads(), &got, relay_cost(other_n, b)),
               PreconditionError);
  EXPECT_THROW(unicast_payloads_relayed(net, zero_payloads(), nullptr, schedule),
               PreconditionError);

  Rng rng(2802);
  const Mat61 a = Mat61::random(n, rng);
  const Csr61 sa = Csr61::from_dense(a);
  Mat61 c;
  EXPECT_THROW(blockmm::run_block_mm<blockmm::M61Ops>(net, a, a, &c, AlgebraicMmPlan{}),
               PreconditionError);
  EXPECT_THROW(run_sparse_mm<blockmm::M61Ops>(net, sa, sa, &c, SparseMmPlan{}),
               PreconditionError);
  // A plan priced for this engine that lost a schedule, or holds one
  // priced for another n or bandwidth, is refused too.
  const AlgebraicMmPlan dense = algebraic_mm_plan(n, 61, b);
  AlgebraicMmPlan lost = dense, wrong_n = dense, wrong_b = dense;
  lost.aggregate.reset();
  wrong_n.distribute = algebraic_mm_plan(n + 1, 61, b).distribute;
  wrong_b.aggregate = algebraic_mm_plan(n, 61, b + 1).aggregate;
  for (const AlgebraicMmPlan* plan : {&lost, &wrong_n, &wrong_b}) {
    EXPECT_THROW(blockmm::run_block_mm<blockmm::M61Ops>(net, a, a, &c, *plan),
                 PreconditionError);
  }
  SparseMmPlan sparse = sparse_mm_plan(n, 61, b, declared_nnz_profile(sa, sa));
  sparse.distribute.reset();
  EXPECT_THROW(run_sparse_mm<blockmm::M61Ops>(net, sa, sa, &c, sparse), PreconditionError);
  sparse.distribute = dense.distribute;
  sparse.aggregate = algebraic_mm_plan(n + 1, 61, b).aggregate;
  EXPECT_THROW(run_sparse_mm<blockmm::M61Ops>(net, sa, sa, &c, sparse), PreconditionError);
  EXPECT_EQ(net.stats(), fresh);

  // The payloads it priced go through and cost exactly the schedule.
  EXPECT_EQ(unicast_payloads_relayed(net, zero_payloads(), &got, schedule), schedule.rounds());
  EXPECT_EQ(net.stats().rounds, schedule.rounds());
  EXPECT_EQ(net.stats().total_bits, schedule.bits);
}

/// One public geometry of the dense product.
struct Geometry {
  int n;
  int w;
  int b;
};

/// `count` geometries no other test prices (bandwidths from 1000 up), small
/// enough to price in microseconds: n in {2, 5} x w in {1, 61} at each
/// bandwidth, so for each of n, w and b some pair of geometries differs in
/// it alone, and a memo that ignored it would hand out another's plan.
std::vector<Geometry> fresh_geometries(std::size_t count, int first_bandwidth) {
  std::vector<Geometry> keys;
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back({i % 2 == 0 ? 2 : 5, i / 2 % 2 == 0 ? 1 : 61,
                    first_bandwidth + static_cast<int>(i / 4)});
  }
  return keys;
}

/// A plan must equal one priced from scratch: both schedules against a
/// fresh relay_cost of the geometry's length matrices, and every field.
void expect_priced_afresh(const AlgebraicMmPlan& plan, const Geometry& k) {
  SCOPED_TRACE("n=" + std::to_string(k.n) + " w=" + std::to_string(k.w) +
               " b=" + std::to_string(k.b));
  const blockmm::BlockGrid g(k.n);
  const RelaySchedule distribute = relay_cost(blockmm::distribute_lengths(g, k.w), k.b);
  const RelaySchedule aggregate = relay_cost(blockmm::aggregate_lengths(g, k.w), k.b);
  ASSERT_TRUE(plan.distribute && plan.aggregate);
  chunked::expect_same_schedule(*plan.distribute, distribute);
  chunked::expect_same_schedule(*plan.aggregate, aggregate);
  std::uint64_t heaviest = 0;
  for (std::size_t v = 0; v < distribute.len.size(); ++v) {
    std::uint64_t send = 0;
    for (std::size_t p = 0; p < distribute.len.size(); ++p) {
      send += distribute.len[v][p] + aggregate.len[v][p];
    }
    heaviest = std::max(heaviest, send);
  }
  EXPECT_EQ(plan.n, k.n);
  EXPECT_EQ(plan.grid, g.m);
  EXPECT_EQ(plan.block, g.bs);
  EXPECT_EQ(plan.word_bits, k.w);
  EXPECT_EQ(plan.bandwidth, k.b);
  EXPECT_EQ(plan.distribute_rounds, distribute.rounds());
  EXPECT_EQ(plan.aggregate_rounds, aggregate.rounds());
  EXPECT_EQ(plan.total_rounds, distribute.rounds() + aggregate.rounds());
  EXPECT_EQ(plan.total_bits, distribute.bits + aggregate.bits);
  EXPECT_EQ(plan.max_player_send_bits, heaviest);
  EXPECT_EQ(plan.series_rounds, 6.0 * static_cast<double>(icbrt(static_cast<std::uint64_t>(k.n))) *
                                    k.w / k.b);
}

AlgebraicMmPlan plan_of(const Geometry& k) { return algebraic_mm_plan(k.n, k.w, k.b); }

TEST(RelayScheduleMemo, EveryPlanOfOneGeometrySharesItsSchedules) {
  // The schedules depend on (n, w, b) alone, so a process prices each
  // geometry once: every plan built on the dense product's geometry, and
  // the sparse plan's aggregation, hold the same two tables.
  const int n = 27, b = 64;
  const AlgebraicMmPlan dense = algebraic_mm_plan(n, 61, b);
  const AlgebraicMmPlan again = algebraic_mm_plan(n, 61, b);
  EXPECT_EQ(again.distribute, dense.distribute);
  EXPECT_EQ(again.aggregate, dense.aggregate);
  Rng rng(2901);
  const Csr61 sa = Csr61::from_dense(Mat61::adjacency(gnp(n, 0.1, rng)));
  EXPECT_EQ(sparse_mm_plan(n, 61, b, declared_nnz_profile(sa, sa)).aggregate, dense.aggregate);
  const ServingPlan serving = serving_plan(n, b, {true, true, true}, {});
  for (const AlgebraicMmPlan& plan :
       {apsp_plan(n, b).product, counting_artifacts_plan(n, b).product, serving.apsp.product,
        serving.counting.product, serving.hops.product}) {
    EXPECT_EQ(plan.distribute, dense.distribute);
    EXPECT_EQ(plan.aggregate, dense.aggregate);
  }
}

TEST(RelayScheduleMemo, MatchesFreshPricingPastItsCapacity) {
  // More geometries than the memo keeps, twice in the same order: the
  // second pass finds each one evicted and prices it again. Every plan,
  // first priced, re-priced or found, equals a fresh pricing.
  const std::vector<Geometry> keys = fresh_geometries(2 * kRelayScheduleMemoCapacity + 3, 1000);
  for (int pass = 0; pass < 2; ++pass) {
    for (const Geometry& k : keys) {
      const AlgebraicMmPlan plan = plan_of(k);
      expect_priced_afresh(plan, k);
      const AlgebraicMmPlan found = plan_of(k);
      EXPECT_EQ(found.distribute, plan.distribute);
      EXPECT_EQ(found.aggregate, plan.aggregate);
      expect_priced_afresh(found, k);
    }
  }
}

TEST(RelayScheduleMemo, EvictsTheLeastRecentlyUsedGeometry) {
  // Fill the memo, touch the oldest geometry, add one more: the second
  // oldest goes, the touched one stays.
  const std::vector<Geometry> keys = fresh_geometries(kRelayScheduleMemoCapacity + 1, 2000);
  std::vector<AlgebraicMmPlan> first;
  for (std::size_t i = 0; i < kRelayScheduleMemoCapacity; ++i) first.push_back(plan_of(keys[i]));
  EXPECT_EQ(plan_of(keys[0]).distribute, first[0].distribute);
  plan_of(keys.back());
  EXPECT_EQ(plan_of(keys[0]).distribute, first[0].distribute);
  const AlgebraicMmPlan repriced = plan_of(keys[1]);
  EXPECT_NE(repriced.distribute, first[1].distribute);
  EXPECT_NE(repriced.aggregate, first[1].aggregate);
  expect_priced_afresh(repriced, keys[1]);
}

TEST(RelayScheduleMemo, RejectedGeometriesCacheNothing) {
  // Hold a geometry as the least recently used of a full memo; a rejected
  // call that cached anything would push it out.
  const std::vector<Geometry> keys = fresh_geometries(kRelayScheduleMemoCapacity, 3000);
  const AlgebraicMmPlan oldest = plan_of(keys[0]);
  for (std::size_t i = 1; i < keys.size(); ++i) plan_of(keys[i]);
  EXPECT_THROW(algebraic_mm_plan(8, 0, 64), PreconditionError);
  EXPECT_THROW(algebraic_mm_plan(8, 65, 64), PreconditionError);
  EXPECT_THROW(algebraic_mm_plan(8, 61, 0), PreconditionError);
  EXPECT_THROW(algebraic_mm_plan(0, 61, 64), PreconditionError);
  const AlgebraicMmPlan found = plan_of(keys[0]);
  EXPECT_EQ(found.distribute, oldest.distribute);
  EXPECT_EQ(found.aggregate, oldest.aggregate);
}

TEST(RelayScheduleMemo, ThreadsPricingInterleavedGeometriesGetEqualSchedules) {
  // Eight threads walk one list of more geometries than the memo keeps,
  // each from its own offset, so hits, misses and evictions interleave;
  // every plan any thread got equals a fresh pricing.
  const std::vector<Geometry> keys = fresh_geometries(2 * kRelayScheduleMemoCapacity, 4000);
  const std::size_t threads = 8, rounds = 3;
  std::vector<std::vector<AlgebraicMmPlan>> got(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < rounds * keys.size(); ++i) {
        got[t].push_back(plan_of(keys[(t + i) % keys.size()]));
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (std::size_t t = 0; t < threads; ++t) {
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      expect_priced_afresh(got[t][i], keys[(t + i) % keys.size()]);
    }
  }
}

class AlgebraicMmSizes : public ::testing::TestWithParam<int> {};

// Sizes cover the degenerate one-triple grid (m=1), non-cubes with idle
// players and ragged last intervals, and perfect cubes.
INSTANTIATE_TEST_SUITE_P(Sizes, AlgebraicMmSizes,
                         ::testing::Values(1, 2, 5, 8, 11, 27, 30));

TEST_P(AlgebraicMmSizes, F2MatchesNaive) {
  const int n = GetParam();
  Rng rng(300 + n);
  const F2Matrix a = F2Matrix::random(n, rng);
  const F2Matrix b = F2Matrix::random(n, rng);
  CliqueUnicast net(n, 16);
  F2Matrix c;
  const AlgebraicMmPlan plan = algebraic_mm_f2(net, a, b, &c);
  EXPECT_EQ(c, f2_multiply_naive(a, b));
  EXPECT_EQ(net.stats().rounds, plan.total_rounds);
  EXPECT_EQ(net.stats().total_bits, plan.total_bits);
}

TEST_P(AlgebraicMmSizes, M61MatchesSchoolbook) {
  const int n = GetParam();
  Rng rng(400 + n);
  const Mat61 a = Mat61::random(n, rng);
  const Mat61 b = Mat61::random(n, rng);
  CliqueUnicast net(n, 64);
  Mat61 c;
  const AlgebraicMmPlan plan = algebraic_mm_m61(net, a, b, &c);
  EXPECT_EQ(c, m61_multiply_schoolbook(a, b));
  EXPECT_EQ(net.stats().rounds, plan.total_rounds);
  EXPECT_EQ(net.stats().total_bits, plan.total_bits);
}

TEST(AlgebraicMm, RoundsFollowCubeRootSeries) {
  // At perfect cubes with bandwidth 64 and 61-bit words the exact schedule
  // collapses to 6 * n^{1/3} rounds: each of the four relay hops carries
  // per-edge loads of 2*n^{1/3}*61 (distribution) and n^{1/3}*61
  // (aggregation) bits. This is the measured-vs-predicted contract of
  // bench_e17 asserted as a hard equality.
  for (int cbrt : {2, 3, 4}) {
    const int n = cbrt * cbrt * cbrt;
    const AlgebraicMmPlan plan = algebraic_mm_plan(n, 61, 64);
    EXPECT_EQ(plan.grid, cbrt);
    EXPECT_EQ(plan.block, n / cbrt);
    EXPECT_EQ(plan.total_rounds, 6 * cbrt) << "n=" << n;
    EXPECT_EQ(plan.distribute_rounds, 4 * cbrt) << "n=" << n;
    EXPECT_EQ(plan.aggregate_rounds, 2 * cbrt) << "n=" << n;
  }
}

TEST(AlgebraicMm, PerPlayerLoadIsBalanced) {
  // The relay schedule's whole point: no player ships more than
  // ~(2 per-player block loads) and no edge more than ~load/n per hop.
  const int n = 27;
  Rng rng(7);
  const Mat61 a = Mat61::random(n, rng);
  const Mat61 b = Mat61::random(n, rng);
  CliqueUnicast net(n, 64);
  Mat61 c;
  const AlgebraicMmPlan plan = algebraic_mm_m61(net, a, b, &c);
  const CommStats& s = net.stats();
  std::uint64_t max_sent = 0, min_sent = UINT64_MAX;
  for (int v = 0; v < n; ++v) {
    max_sent = std::max(max_sent, s.per_player_sent_bits[static_cast<std::size_t>(v)]);
    min_sent = std::min(min_sent, s.per_player_sent_bits[static_cast<std::size_t>(v)]);
  }
  // Relaying equalizes totals: the heaviest sender carries at most ~2x the
  // lightest (perfect-cube grids are symmetric; slack covers chunk floors).
  EXPECT_LT(max_sent, 2 * min_sent);
  // Pre-relay per-player load: 2 m^2 slices of `block` elements out of the
  // distribution phase plus block^2 partials out of aggregation, minus the
  // few self-payload slices a triple player keeps locally.
  const std::uint64_t ideal = static_cast<std::uint64_t>(2 * 9 * 9 + 9 * 9) * 61u;
  EXPECT_LE(plan.max_player_send_bits, ideal);
  EXPECT_GE(plan.max_player_send_bits, ideal - 3 * 9 * 61u);
}

TEST(AlgebraicMm, StatsAreThreadCountInvariant) {
  // The protocol only speaks round_fill through unicast_payloads, so the
  // engine determinism contract must carry over verbatim.
  auto run = [] {
    Rng rng(55);
    const int n = 12;
    const Mat61 a = Mat61::random(n, rng);
    const Mat61 b = Mat61::random(n, rng);
    CliqueUnicast net(n, 32);
    Mat61 c;
    algebraic_mm_m61(net, a, b, &c);
    return net.stats();
  };
  CommStats serial;
  {
    ScopedEnv scoped("CC_THREADS", "1");
    serial = run();
  }
  for (const char* threads : {"2", "5"}) {
    ScopedEnv scoped("CC_THREADS", threads);
    EXPECT_EQ(run(), serial) << "CC_THREADS=" << threads;
  }
}

TEST(CountFourCycles, MatchesEmbeddingCount) {
  // Ground-truth the codegree counter against the generic embedding
  // counter: C4 has 8 automorphisms.
  Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    Graph g = gnp(9, 0.2 + 0.1 * trial, rng);
    EXPECT_EQ(count_four_cycles(g),
              count_subgraph_embeddings(g, cycle_graph(4)) / 8)
        << g.to_string();
  }
}

TEST(CountFourCycles, StructuredGraphs) {
  EXPECT_EQ(count_four_cycles(cycle_graph(4)), 1u);
  EXPECT_EQ(count_four_cycles(cycle_graph(8)), 0u);
  EXPECT_EQ(count_four_cycles(star_graph(10)), 0u);
  EXPECT_EQ(count_four_cycles(complete_bipartite(3, 3)), 9u);  // C(3,2)^2
  EXPECT_EQ(count_four_cycles(complete_graph(6)), 45u);        // 3 * C(6,4)
}

TEST(AlgebraicCounting, TriangleCountMatchesBruteForce) {
  Rng rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 10 + 5 * trial;
    Graph g = gnp(n, 0.25 + 0.1 * trial, rng);
    CliqueUnicast net(n, 64);
    const AlgebraicCountResult r = triangle_count_algebraic(net, g);
    EXPECT_EQ(r.count, count_triangles(g)) << "n=" << n;
    const AlgebraicMmPlan dense = algebraic_mm_plan(n, 61, 64);
    EXPECT_FALSE(r.used_sparse);
    EXPECT_EQ(r.planned_rounds, dense.total_rounds);
    EXPECT_EQ(r.planned_bits, dense.total_bits);
    EXPECT_EQ(r.total_rounds, r.planned_rounds + r.share_rounds);
    EXPECT_EQ(net.stats().rounds, r.total_rounds);
  }
}

TEST(AlgebraicCounting, TriangleCountStructuredGraphs) {
  struct Case {
    Graph g;
    std::uint64_t expect;
  };
  const Case cases[] = {
      {complete_graph(10), 120},        // C(10,3)
      {complete_bipartite(4, 5), 0},    // bipartite: triangle-free
      {cycle_graph(9), 0},
      {star_graph(8), 0},
  };
  for (const Case& c : cases) {
    CliqueUnicast net(c.g.num_vertices(), 64);
    EXPECT_EQ(triangle_count_algebraic(net, c.g).count, c.expect);
  }
}

TEST(AlgebraicCounting, FourCycleCountMatchesBruteForce) {
  Rng rng(41);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 9 + 6 * trial;
    Graph g = gnp(n, 0.2 + 0.1 * trial, rng);
    CliqueUnicast net(n, 64);
    const AlgebraicCountResult r = four_cycle_count_algebraic(net, g);
    EXPECT_EQ(r.count, count_four_cycles(g)) << "n=" << n;
  }
}

TEST(AlgebraicCounting, FourCycleCountStructuredGraphs) {
  struct Case {
    Graph g;
    std::uint64_t expect;
  };
  Rng rng(3);
  const Case cases[] = {
      {cycle_graph(4), 1},
      {complete_bipartite(3, 3), 9},
      {complete_graph(6), 45},
      {random_tree(20, rng), 0},  // acyclic
  };
  for (const Case& c : cases) {
    CliqueUnicast net(c.g.num_vertices(), 64);
    EXPECT_EQ(four_cycle_count_algebraic(net, c.g).count, c.expect);
  }
}

TEST(AlgebraicCounting, WireFormatsArePinned) {
  // The closing exchange ships one 61-bit field per ordered pair for
  // triangles, three for 4-cycles (trace(A^4), deg^2, deg) and four for the
  // combined artifact; the measured bits pin each field count exactly.
  Rng rng(71);
  for (int n : {1, 2, 27, 30}) {
    const Graph g = gnp(n, 0.3, rng);
    const std::uint64_t dense = algebraic_mm_plan(n, 61, 64).total_bits;
    const std::uint64_t pair_field =
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) * 61;

    CliqueUnicast tri_net(n, 64);
    const AlgebraicCountResult tri = triangle_count_algebraic(tri_net, g);
    EXPECT_EQ(tri_net.stats().total_bits, dense + pair_field) << "n=" << n;
    EXPECT_EQ(tri.count, count_triangles(g)) << "n=" << n;

    CliqueUnicast c4_net(n, 64);
    const AlgebraicCountResult c4 =
        four_cycle_count_algebraic(c4_net, g, CountBackend::kDense);
    EXPECT_EQ(c4_net.stats().total_bits, dense + 3 * pair_field) << "n=" << n;
    EXPECT_EQ(c4.count, count_four_cycles(g)) << "n=" << n;

    CliqueUnicast art_net(n, 64);
    const CountingArtifact art = counting_artifacts_run(art_net, g);
    const CountingArtifactPlan plan = counting_artifacts_plan(n, 64);
    EXPECT_EQ(art_net.stats().total_bits, plan.total_bits) << "n=" << n;
    EXPECT_EQ(art_net.stats().rounds, plan.total_rounds) << "n=" << n;
    EXPECT_EQ(plan.total_bits, dense + 4 * pair_field) << "n=" << n;
    EXPECT_EQ(art.triangles, count_triangles(g)) << "n=" << n;
    EXPECT_EQ(art.four_cycles, count_four_cycles(g)) << "n=" << n;
  }
}

TEST(AlgebraicBackend, AgreesWithCircuitBackendAndTruth) {
  Rng rng(61);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 12;
    Graph g = gnp(n, 0.15 + 0.1 * trial, rng);
    const bool truth = count_triangles(g) > 0;
    CliqueUnicast alg_net(n, 64);
    const MmTriangleResult alg =
        mm_triangle_run(alg_net, g, /*reps=*/1, rng, TriangleBackend::kAlgebraic);
    EXPECT_TRUE(alg.exact);
    EXPECT_EQ(alg.detected, truth);
    EXPECT_EQ(alg.triangle_count, count_triangles(g));
    CliqueUnicast circ_net(n, 64);
    const MmTriangleResult circ = mm_triangle_run(circ_net, g, /*reps=*/10, rng,
                                                  TriangleBackend::kCircuitStrassen);
    EXPECT_FALSE(circ.exact);
    // Circuit backend is one-sided; with reps=10 a planted triangle is
    // missed with probability <= (3/4)^10, so equality is overwhelmingly
    // likely — and a false positive would be a hard bug.
    if (!truth) {
      EXPECT_FALSE(circ.detected);
    }
  }
}

}  // namespace
}  // namespace cclique
