// The chunked transports: reference twins of the four forwarding transports
// (unicast_payloads, unicast_payloads_relayed, broadcast_payloads and
// all_gather) that re-enact every round through the engines' round_fill,
// b bits per edge per round, and reassemble each payload from the wire.
//
// The library's transports charge a whole stream in closed form
// (EngineCore::charge_stream / charge_board) and hand each payload over
// once. These twins are the oracle they must match: run both on two fresh
// engines and every CommStats field and every delivered payload must be
// equal (tests/transport_oracle_test.cpp). The relayed twin also re-proves,
// on every call, that for_each_relay_chunk tiles each payload: hop-1
// assembly, relay regrouping and reassembly are three walks of it, and
// both hops are chunked unicast deliveries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "util/check.h"

namespace cclique {
namespace chunked {

using Payloads = std::vector<std::vector<Message>>;

/// unicast_payloads, one chunked round_fill per round.
inline int unicast_payloads(CliqueUnicast& net, const Payloads& payload, Payloads* received) {
  const int n = net.n();
  const std::size_t b = static_cast<std::size_t>(net.bandwidth());
  CC_REQUIRE(static_cast<int>(payload.size()) == n, "payload matrix must be n x n");
  std::size_t max_len = 0;
  for (int i = 0; i < n; ++i) {
    const auto& row = payload[static_cast<std::size_t>(i)];
    CC_REQUIRE(static_cast<int>(row.size()) == n, "payload matrix must be n x n");
    CC_REQUIRE(row[static_cast<std::size_t>(i)].empty(),
               "payloads cannot address the sender itself");
    for (const auto& msg : row) max_len = std::max(max_len, msg.size_bits());
  }
  received->assign(static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  const int rounds = static_cast<int>((max_len + b - 1) / b);
  for (int r = 0; r < rounds; ++r) {
    const std::size_t offset = static_cast<std::size_t>(r) * b;
    net.round_fill(
        [&](int i, Message* box) {
          for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            const Message& full = payload[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
            if (offset >= full.size_bits()) continue;
            const std::size_t take = std::min(b, full.size_bits() - offset);
            box[j].append_slice(full, offset, take);
          }
        },
        [&](int receiver, const std::vector<Message>& inbox) {
          for (int j = 0; j < n; ++j) {
            const Message& chunk = inbox[static_cast<std::size_t>(j)];
            if (!chunk.empty()) {
              (*received)[static_cast<std::size_t>(receiver)][static_cast<std::size_t>(j)]
                  .append(chunk);
            }
          }
        });
  }
  return rounds;
}

/// all_gather, chunked: ceil(width / b) rounds whatever the messages hold;
/// player 0 reassembles the row from the wire.
inline std::vector<Message> all_gather(CliqueUnicast& net, int width, const GatherFillFn& fill) {
  const int n = net.n();
  CC_REQUIRE(width >= 0, "all-gather width must be non-negative");
  std::vector<Message> sent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    locality::PlayerScope scope(i);
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("chunked all_gather fill callback"));
    Message& msg = sent[static_cast<std::size_t>(i)];
    fill(i, msg);
    CC_MODEL(msg.size_bits() <= static_cast<std::size_t>(width),
             "all-gather message exceeds its declared width");
  }
  if (n == 1) return sent;
  const std::size_t b = static_cast<std::size_t>(net.bandwidth());
  const int rounds = all_gather_cost(n, width, net.bandwidth()).rounds;
  std::vector<Message> row(static_cast<std::size_t>(n));
  row[0] = sent[0];  // player 0's own message is self-knowledge
  for (int r = 0; r < rounds; ++r) {
    const std::size_t offset = static_cast<std::size_t>(r) * b;
    net.round_fill(
        [&](int i, Message* box) {
          const Message& full = sent[static_cast<std::size_t>(i)];
          if (offset >= full.size_bits()) return;
          const std::size_t take = std::min(b, full.size_bits() - offset);
          for (int j = 0; j < n; ++j) {
            if (j != i) box[j].append_slice(full, offset, take);
          }
        },
        [&](int receiver, const std::vector<Message>& inbox) {
          if (receiver != 0) return;  // identical decode everywhere; model once
          for (int j = 1; j < n; ++j) {
            row[static_cast<std::size_t>(j)].append(inbox[static_cast<std::size_t>(j)]);
          }
        });
  }
  CC_CHECK(row == sent, "all-gather delivered a corrupted message");
  return row;
}

/// unicast_payloads_relayed: three walks of for_each_relay_chunk around two
/// chunked unicast hops.
inline int unicast_payloads_relayed(CliqueUnicast& net, const Payloads& payload,
                                    Payloads* received) {
  const std::size_t n = static_cast<std::size_t>(net.n());
  CC_REQUIRE(payload.size() == n, "payload matrix must be n x n");
  LengthMatrix len(n, std::vector<std::size_t>(n));
  for (std::size_t v = 0; v < n; ++v) {
    CC_REQUIRE(payload[v].size() == n, "payload matrix must be n x n");
    for (std::size_t p = 0; p < n; ++p) len[v][p] = payload[v][p].size_bits();
  }

  // Hop 1: source v ships relay t its payloads' relay-t chunks in destination
  // order; v is its own relay for the t == v chunks, so the diagonal stays empty.
  Payloads h1(n, std::vector<Message>(n));
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t lo,
                                std::size_t clen) {
    if (t != v) h1[v][t].append_slice(payload[v][p], lo, clen);
  });
  Payloads recv1;
  const int rounds1 = chunked::unicast_payloads(net, h1, &recv1);

  // Relay stage: relay t regroups the chunks it holds by final destination,
  // in source order, reading recv1[t][v] front to back with cursor
  // cur[t*n + v]; hold[t] keeps the chunks addressed to t itself.
  Payloads h2(n, std::vector<Message>(n));
  std::vector<Message> hold(n);
  std::vector<std::size_t> cur(n * n, 0);
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t lo,
                                std::size_t clen) {
    Message& out = p == t ? hold[t] : h2[t][p];
    if (t == v) {
      out.append_slice(payload[v][p], lo, clen);
    } else {
      out.append_slice(recv1[t][v], cur[t * n + v], clen);
      cur[t * n + v] += clen;
    }
  });
  Payloads recv2;
  const int rounds2 = chunked::unicast_payloads(net, h2, &recv2);

  // Reassembly: destination p splices each payload back together in chunk
  // order, consuming relay t's stream (or its hold) with cursor cur[p*n + t].
  received->assign(n, std::vector<Message>(n));
  std::fill(cur.begin(), cur.end(), 0);
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t,
                                std::size_t clen) {
    (*received)[p][v].append_slice(t == p ? hold[p] : recv2[p][t], cur[p * n + t], clen);
    cur[p * n + t] += clen;
  });
  return rounds1 + rounds2;
}

/// broadcast_payloads, one chunked blackboard round per round.
inline std::vector<Message> broadcast_payloads(CliqueBroadcast& net,
                                               const std::vector<Message>& payloads,
                                               int* rounds_used) {
  const int n = net.n();
  const std::size_t b = static_cast<std::size_t>(net.bandwidth());
  CC_REQUIRE(static_cast<int>(payloads.size()) == n, "one payload per player");
  std::size_t max_len = 0;
  for (const auto& p : payloads) max_len = std::max(max_len, p.size_bits());
  const int rounds = static_cast<int>((max_len + b - 1) / b);
  std::vector<Message> assembled(static_cast<std::size_t>(n));
  for (int r = 0; r < rounds; ++r) {
    const std::size_t offset = static_cast<std::size_t>(r) * b;
    const auto& board = net.round_fill([&](int i, Message& chunk) {
      const Message& full = payloads[static_cast<std::size_t>(i)];
      if (offset < full.size_bits()) {
        const std::size_t take = std::min(b, full.size_bits() - offset);
        chunk.append_slice(full, offset, take);
      }
    });
    for (int i = 0; i < n; ++i) {
      assembled[static_cast<std::size_t>(i)].append(board[static_cast<std::size_t>(i)]);
    }
  }
  if (rounds_used != nullptr) *rounds_used = rounds;
  return assembled;
}

}  // namespace chunked
}  // namespace cclique
