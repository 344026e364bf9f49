#include "comm/clique_unicast.h"

#include <algorithm>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"

namespace cclique {

CliqueUnicast::CliqueUnicast(int n, int bandwidth) : core_(n, bandwidth) {}

void CliqueUnicast::round_fill(const FillFn& fill, const RecvFn& recv) {
  const int nn = n();
  if (slots_.empty()) {
    slots_ = core_.borrow_slots(static_cast<std::size_t>(nn) * static_cast<std::size_t>(nn));
  }
  // Fill and validate every outbox before any delivery: a synchronous round
  // means sends are based on pre-round state only. Fill callbacks may run
  // concurrently (see comm/engine.h for the determinism contract).
  core_.send_phase([&](int i, PlayerCharge& charge) {
    locality::PlayerScope scope(i);
    // The callback's outputs become this round's message lengths, so the
    // whole callback is a length sink: payloads must be pre-serialized
    // (comm/model.h), never read here.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("CLIQUE-UCAST fill callback"));
    Message* box = &slots_[static_cast<std::size_t>(i) * static_cast<std::size_t>(nn)];
    for (int j = 0; j < nn; ++j) box[j].clear();
    fill(i, box);
    for (int j = 0; j < nn; ++j) {
      if (j == i) {
        CC_MODEL(box[j].empty(), "players cannot message themselves");
        continue;
      }
      core_.charge_message(i, j, box[j].size_bits(), charge,
                           "per-edge bandwidth exceeded in CLIQUE-UCAST");
    }
  });
  // Zero-copy delivery: receiver r's inbox aliases column r of the outbox
  // matrix. Serial, player order (see comm/engine.h).
  inbox_.resize(static_cast<std::size_t>(nn));
  for (int r = 0; r < nn; ++r) {
    std::uint64_t recv_bits = 0;
    for (int j = 0; j < nn; ++j) {
      const Message& msg =
          slots_[static_cast<std::size_t>(j) * static_cast<std::size_t>(nn) +
                 static_cast<std::size_t>(r)];
      recv_bits += msg.size_bits();
      inbox_[static_cast<std::size_t>(j)] = Message::alias(msg);
    }
    core_.charge_receive(r, recv_bits);
    locality::PlayerScope scope(r);
    recv(r, inbox_);
  }
}

int unicast_payloads(CliqueUnicast& net,
                     const std::vector<std::vector<Message>>& payload,
                     std::vector<std::vector<Message>>* received) {
  const int n = net.n();
  const std::size_t b = static_cast<std::size_t>(net.bandwidth());
  // The whole driver is a chunk-schedule sink: rounds and slice lengths
  // derive from Message *sizes* (already-committed lengths), never from
  // payload values, and the blanket scope makes that machine-checked.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("unicast_payloads chunk schedule"));
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
  // Preallocate the assembly buffers: every received stream's final length
  // is known up front, so the chunk rounds below never reallocate.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      (*received)[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)].reserve_bits(
          payload[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].size_bits());
    }
  }
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

std::vector<Message> all_gather(CliqueUnicast& net, int width, const GatherFillFn& fill) {
  const int n = net.n();
  CC_REQUIRE(width >= 0, "all-gather width must be non-negative");
  // Every message is written before the first chunk moves, each inside its
  // player's scopes — the same contract as an engine fill callback.
  std::vector<Message> sent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    locality::PlayerScope scope(i);
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("all_gather fill callback"));
    Message& msg = sent[static_cast<std::size_t>(i)];
    fill(i, msg);
    CC_MODEL(msg.size_bits() <= static_cast<std::size_t>(width),
             "all-gather message exceeds its declared width");
  }
  if (n == 1) return sent;
  // Chunk schedule: ceil(width / b) rounds whatever the messages hold, so
  // the round count is a function of the declared width alone.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("all_gather chunk schedule"));
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

AllGatherCost all_gather_cost(int n, int width, int bandwidth) {
  CC_REQUIRE(n >= 1 && width >= 0 && bandwidth >= 1, "all-gather parameters out of range");
  if (n < 2) return {};
  const std::uint64_t w = static_cast<std::uint64_t>(width);
  AllGatherCost cost;
  cost.rounds = static_cast<int>((w + static_cast<std::uint64_t>(bandwidth) - 1) /
                                 static_cast<std::uint64_t>(bandwidth));
  cost.sender_bits = static_cast<std::uint64_t>(n - 1) * w;
  cost.bits = static_cast<std::uint64_t>(n) * cost.sender_bits;
  return cost;
}

int unicast_payloads_relayed(CliqueUnicast& net,
                             const std::vector<std::vector<Message>>& payload,
                             std::vector<std::vector<Message>>* received) {
  const int n = net.n();
  oblivious::SinkScope sink(
      CC_OBLIVIOUS_SITE("unicast_payloads_relayed chunk schedule"));
  CC_REQUIRE(static_cast<int>(payload.size()) == n, "payload matrix must be n x n");
  for (int v = 0; v < n; ++v) {
    const auto& row = payload[static_cast<std::size_t>(v)];
    CC_REQUIRE(static_cast<int>(row.size()) == n, "payload matrix must be n x n");
    CC_REQUIRE(row[static_cast<std::size_t>(v)].empty(),
               "relayed payloads cannot address the sender itself");
  }
  auto chunk_len = [n](std::size_t len, int c) {
    return relay_chunk_lo(len, c + 1, n) - relay_chunk_lo(len, c, n);
  };

  // Hop 1: source v ships to relay t its payloads' relay-t chunks (chunk
  // index rotated per pair — see relay_chunk_index), concatenated in
  // destination order. The t == v chunks stay local (v is its own relay),
  // so the diagonal is left empty.
  std::vector<std::vector<Message>> h1(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int v = 0; v < n; ++v) {
    for (int t = 0; t < n; ++t) {
      if (t == v) continue;
      Message& out = h1[static_cast<std::size_t>(v)][static_cast<std::size_t>(t)];
      for (int p = 0; p < n; ++p) {
        if (p == v) continue;
        const Message& full = payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
        const int c = relay_chunk_index(v, p, t, n);
        const std::size_t clen = chunk_len(full.size_bits(), c);
        if (clen != 0) out.append_slice(full, relay_chunk_lo(full.size_bits(), c, n), clen);
      }
    }
  }
  std::vector<std::vector<Message>> recv1;
  const int rounds1 = unicast_payloads(net, h1, &recv1);

  // Relay stage (local): every relay t re-groups the chunks it holds by
  // final destination, again in source order. Chunk positions inside the
  // incoming streams are recomputed from the globally known lengths.
  // hold[t] collects the chunks whose destination is t itself — the
  // "t -> t stream" that never crosses the network.
  std::vector<std::vector<Message>> h2(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  std::vector<Message> hold(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    for (int v = 0; v < n; ++v) {
      if (v == t) {
        // Own chunks: read straight from the source payloads.
        for (int p = 0; p < n; ++p) {
          if (p == t) continue;
          const Message& full = payload[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)];
          const int c = relay_chunk_index(t, p, t, n);
          const std::size_t clen = chunk_len(full.size_bits(), c);
          if (clen != 0) {
            h2[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)].append_slice(
                full, relay_chunk_lo(full.size_bits(), c, n), clen);
          }
        }
        continue;
      }
      const Message& src = recv1[static_cast<std::size_t>(t)][static_cast<std::size_t>(v)];
      std::size_t cur = 0;
      for (int p = 0; p < n; ++p) {
        if (p == v) continue;
        const std::size_t clen = chunk_len(
            payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)].size_bits(),
            relay_chunk_index(v, p, t, n));
        if (clen == 0) continue;
        Message& out = p == t ? hold[static_cast<std::size_t>(t)]
                              : h2[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)];
        out.append_slice(src, cur, clen);
        cur += clen;
      }
    }
  }
  std::vector<std::vector<Message>> recv2;
  const int rounds2 = unicast_payloads(net, h2, &recv2);

  // Reassembly: destination r splices each payload back together in chunk
  // order (chunk c sits at relay t = c - v - r mod n); every relay's stream
  // (and the local hold) is consumed in source order, so one cursor per
  // relay suffices regardless of the per-payload chunk rotation.
  received->assign(static_cast<std::size_t>(n),
                   std::vector<Message>(static_cast<std::size_t>(n)));
  for (int r = 0; r < n; ++r) {
    std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      if (v == r) continue;
      const std::size_t len =
          payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(r)].size_bits();
      Message& out = (*received)[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)];
      out.reserve_bits(len);
      for (int c = 0; c < n; ++c) {
        const std::size_t clen = chunk_len(len, c);
        if (clen == 0) continue;
        const int t = ((c - v - r) % n + n) % n;  // inverse of relay_chunk_index
        const Message& src = t == r ? hold[static_cast<std::size_t>(r)]
                                    : recv2[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
        out.append_slice(src, cur[static_cast<std::size_t>(t)], clen);
        cur[static_cast<std::size_t>(t)] += clen;
      }
    }
  }
  return rounds1 + rounds2;
}

}  // namespace cclique
