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

RelayCost relay_cost(const LengthMatrix& len, int bandwidth) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("relay_cost"));
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  // Per-edge loads hop1[v*n + t] and hop2[t*n + p]; a relay's own chunks stay put.
  const std::size_t n = len.size();
  std::vector<std::uint64_t> hop1(n * n, 0), hop2(n * n, 0);
  std::uint64_t max1 = 0, max2 = 0;
  RelayCost cost;
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t,
                                std::size_t clen) {
    if (t != v) max1 = std::max(max1, hop1[v * n + t] += clen);
    if (t != p) max2 = std::max(max2, hop2[t * n + p] += clen);
    cost.bits += (t != v ? clen : 0) + (t != p ? clen : 0);
  });
  const std::uint64_t b = static_cast<std::uint64_t>(bandwidth);
  cost.rounds = static_cast<int>((max1 + b - 1) / b + (max2 + b - 1) / b);
  return cost;
}

int unicast_payloads_relayed(CliqueUnicast& net,
                             const std::vector<std::vector<Message>>& payload,
                             std::vector<std::vector<Message>>* received) {
  const std::size_t n = static_cast<std::size_t>(net.n());
  oblivious::SinkScope sink(
      CC_OBLIVIOUS_SITE("unicast_payloads_relayed chunk schedule"));
  CC_REQUIRE(payload.size() == n, "payload matrix must be n x n");
  LengthMatrix len(n, std::vector<std::size_t>(n));
  for (std::size_t v = 0; v < n; ++v) {
    CC_REQUIRE(payload[v].size() == n, "payload matrix must be n x n");
    for (std::size_t p = 0; p < n; ++p) len[v][p] = payload[v][p].size_bits();
  }

  // Hop 1: source v ships relay t its payloads' relay-t chunks in destination
  // order; v is its own relay for the t == v chunks, so the diagonal stays empty.
  std::vector<std::vector<Message>> h1(n, std::vector<Message>(n));
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t lo,
                                std::size_t clen) {
    if (t != v) h1[v][t].append_slice(payload[v][p], lo, clen);
  });
  std::vector<std::vector<Message>> recv1;
  const int rounds1 = unicast_payloads(net, h1, &recv1);

  // Relay stage (local): every relay t re-groups the chunks it holds by
  // final destination, in source order, reading each stream recv1[t][v]
  // front to back with cursor cur[t*n + v] (own chunks come straight from
  // its payloads). hold[t] collects the chunks whose destination is t
  // itself — the "t -> t stream" that never crosses the network.
  std::vector<std::vector<Message>> h2(n, std::vector<Message>(n));
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
  std::vector<std::vector<Message>> recv2;
  const int rounds2 = unicast_payloads(net, h2, &recv2);

  // Reassembly: destination p splices each payload back together in chunk
  // order; relay t's stream (or the local hold) is consumed in the source
  // order the relay stage wrote, with cursor cur[p*n + t].
  received->assign(n, std::vector<Message>(n));
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t v = 0; v < n; ++v) (*received)[p][v].reserve_bits(len[v][p]);
  }
  std::fill(cur.begin(), cur.end(), 0);
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t,
                                std::size_t clen) {
    (*received)[p][v].append_slice(t == p ? hold[p] : recv2[p][t], cur[p * n + t], clen);
    cur[p * n + t] += clen;
  });
  return rounds1 + rounds2;
}

}  // namespace cclique
