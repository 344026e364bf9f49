// CLIQUE-UCAST(n, b): the unicast congested clique.
//
// n players over a complete network; in each round every ordered pair (i, j)
// may carry a message of at most b bits from i to j — players may send
// *different* messages on different links (Θ(n^2 b) bits/round total
// capacity). This is the model of Sections 1–2 of the paper.
//
// Built on the shared metered transport core (comm/engine.h): rounds fill
// the engine's reused outboxes (callbacks run serially in player order, and
// a failed round commits nothing) and commit through one charge_stream
// call, and the forwarding transports below charge their streams in closed
// form and hand each payload over once. The relayed transport's schedule
// is a value, RelaySchedule: relay_cost prices it in closed form, a plan
// keeps it, and every run of the plan charges the kept tables after
// checking each payload's length against them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/engine.h"
#include "comm/model.h"

namespace cclique {

struct RelaySchedule;  // below, with the relayed transport

/// Player i's message for an all-gather: append at most `width` bits to
/// `out` (initially empty), or leave it empty.
using GatherFillFn = std::function<void(int player, Message& out)>;

/// Round-synchronous engine for the unicast congested clique.
///
/// Determinism: all accounting (stats()) is a function of the messages
/// alone — see the round contract in comm/engine.h / DESIGN.md §2.1.
/// Cost model: one round_fill() call = exactly one round and at most
/// n(n-1)·b network bits; every bit is charged to stats(), never estimated.
class CliqueUnicast {
 public:
  /// Preconditions: n >= 1 players, per-edge per-round bandwidth
  /// `bandwidth` >= 1 bits (CC_REQUIRE).
  CliqueUnicast(int n, int bandwidth);

  int n() const { return core_.n(); }
  int bandwidth() const { return core_.bandwidth(); }

  /// Outbox-filling callback: `outbox` points at n engine-owned messages
  /// (initially empty); append at most bandwidth() bits to outbox[j] to
  /// address player j. Slot `player` (self) must stay empty. When the
  /// callback returns, a non-empty self slot or a message over bandwidth()
  /// bits throws ModelViolation before the next player runs.
  using FillFn = std::function<void(int player, Message* outbox)>;

  /// Receiver callback: inbox[j] is the message player j sent this round.
  /// The engine swaps the player's column of outboxes into its reused inbox
  /// for the call and back afterwards, so the inbox is valid only for the
  /// duration of the callback — copy what must outlive it.
  using RecvFn = std::function<void(int player, const std::vector<Message>& inbox)>;

  /// Executes one synchronous round: every outbox is filled and checked
  /// against pre-round state, the round is committed with one
  /// charge_stream(len, 1) call, and then it is delivered. Cost: 1 round,
  /// sum-of-message-sizes bits. Fill callbacks run in player order and read
  /// only the player's own pre-round state (locality discipline); receive
  /// callbacks run in player order after every fill. A failed check throws
  /// ModelViolation and the round charges nothing. The outboxes and the
  /// inbox are reused round after round, so a steady-state round performs
  /// no heap allocation (DESIGN.md §2.1).
  void round_fill(const FillFn& fill, const RecvFn& recv);

  /// Registers a 2-party partition (side[i] in {0,1}) so stats().cut_bits
  /// accumulates the bits crossing it — the quantity 2-party reductions pay.
  void set_cut(std::vector<int> side) { core_.set_cut(std::move(side)); }

  const CommStats& stats() const { return core_.stats(); }

  /// Resets accounting (not the cut registration).
  void reset_stats() { core_.reset_stats(); }

 private:
  friend int unicast_payloads(CliqueUnicast&, std::vector<std::vector<Message>>,
                              std::vector<std::vector<Message>>*);
  friend int unicast_payloads_relayed(CliqueUnicast&, std::vector<std::vector<Message>>,
                                      std::vector<std::vector<Message>>*,
                                      const RelaySchedule&);
  friend std::vector<Message> all_gather(CliqueUnicast&, int, const GatherFillFn&);

  EngineCore core_;
  /// Outbox matrix: slot i*n+j is the message i -> j (allocated on the
  /// first round; the engine's geometry is fixed).
  std::vector<Message> slots_;
  std::vector<Message> inbox_;  ///< the reused delivery inbox
  LengthMatrix len_;            ///< the round's message lengths
};

/// Delivers arbitrarily long per-edge payloads as ceil(L/b)-round streams
/// (all edges progress in parallel). payload[i][j] is what player i wants
/// player j to end up holding; on return, received[j][i] holds it (moved
/// in, so pass the matrix with std::move unless the caller keeps it).
/// Returns the number of rounds used.
///
/// Preconditions (CC_REQUIRE, checked before any bit moves): received is
/// non-null and payload is an n x n matrix with an empty diagonal. Cost:
/// exactly ceil(max payload bits / b) rounds and sum-of-payload-bits
/// network bits.
int unicast_payloads(CliqueUnicast& net, std::vector<std::vector<Message>> payload,
                     std::vector<std::vector<Message>>* received);

/// All-gather over unicast: every player's message reaches all n-1 others —
/// one CLIQUE-BCAST round's worth of information, paid n-1 times over on
/// the unicast links. fill(i, out) writes player i's message; it runs inside
/// player i's locality scope and an obliviousness length sink, exactly like
/// an engine fill callback, so it serializes plain per-player values only.
///
/// The schedule depends on `width` alone: ceil(width / b) rounds on n >= 2
/// players, whatever the messages hold (short or empty messages still take
/// every round), and none on a 1-clique. A message longer than `width`
/// throws ModelViolation before any bit moves.
///
/// Returns the common-knowledge row: row[i] is player i's message, which
/// every player now holds.
std::vector<Message> all_gather(CliqueUnicast& net, int width, const GatherFillFn& fill);

/// The schedule of one all_gather of `width`-bit messages at bandwidth `b`.
struct AllGatherCost {
  int rounds = 0;                  ///< ceil(width / b) for n >= 2, else 0
  std::uint64_t sender_bits = 0;   ///< (n-1)·width: one full message to every other player
  std::uint64_t bits = 0;          ///< n·sender_bits: every player sends a full message
};

/// Prices all_gather from (n, width, b) alone. Protocols whose senders are
/// a common-knowledge subset charge sender_bits per sender instead of bits.
/// Preconditions: n >= 1, width >= 0, bandwidth >= 1.
AllGatherCost all_gather_cost(int n, int width, int bandwidth);

/// The relayed delivery's chunk schedule. A len-bit v -> p payload splits
/// n ways, chunk c being bits [len*c/n, len*(c+1)/n): every chunk carries
/// floor(len/n) base bits, and the len mod n chunks c at which
/// (len mod n)*(c+1)/n steps up carry one bit more. Chunk c travels via
/// relay t = (c - v - p) mod n. The (v + p) rotation spreads the
/// one-bit-heavier remainder chunks of equal-length payloads across relays;
/// an identity map piles them up (~4x the ideal hop load in the MM
/// distribution phase).
///
/// RelaySchedule is that schedule priced for one unicast_payloads_relayed
/// call: the payload lengths it prices, each hop's per-edge loads as a
/// stream length matrix ready for EngineCore::charge_stream
/// (hop_load[0][v][t] bits travel v -> relay t, hop_load[1][t][p] bits
/// travel t -> p; a relay's own chunks stay put), each hop's rounds
/// ceil(max load / b), and the bits of both hops. relay_cost builds it; a
/// plan keeps it, so a run charges the tables instead of pricing the
/// lengths again.
struct RelaySchedule {
  int bandwidth = 0;
  LengthMatrix len;
  LengthMatrix hop_load[2];
  int hop_rounds[2] = {0, 0};
  std::uint64_t bits = 0;

  int rounds() const { return hop_rounds[0] + hop_rounds[1]; }
};

/// Prices unicast_payloads_relayed from its length matrix alone, in closed
/// form and O(n^2 + sum of len mod n) work; tests/chunked_transports.h
/// walks the same schedule chunk by chunk as the oracle this must match.
/// Plans (the *_plan functions) call it and keep the result.
/// Preconditions (CC_REQUIRE, checked before any table is built): len is
/// square with an all-zero diagonal, and bandwidth >= 1.
RelaySchedule relay_cost(LengthMatrix len, int bandwidth);

/// Delivers a payload matrix through the deterministic two-hop relay
/// schedule (oblivious Valiant-style balancing; the same idea as the
/// message-level router of DESIGN.md §4a, lifted to bit streams): every
/// chunk of the schedule above travels source -> relay t -> destination.
/// No relay computes on what it holds, so the whole delivery is `schedule`:
/// each hop's table is charged as one stream and payload[v][p] is handed
/// to p once. Per-edge load per hop is ~(per-player total)/n instead of
/// the largest single payload, which is what turns the skewed
/// block-distribution demand of the algebraic MM protocol into its
/// O(n^{1/3}) round bound.
///
/// Contract: the *length* matrix of `payload` must be globally known (a
/// data-independent function of the protocol's parameters, never of input
/// values) — every charge is computed from the lengths, so data-dependent
/// lengths would leak information outside the accounting.
/// Preconditions (CC_REQUIRE, all checked before any bit moves): received
/// is non-null, `schedule` was priced for this engine (n and bandwidth),
/// and payload is n x n with payload[v][p] exactly schedule.len[v][p] bits
/// — so the diagonal is empty and the charged tables are the schedule of
/// these very payloads. On return received[r][v] holds payload[v][r], moved in
/// as in unicast_payloads. Returns schedule.rounds().
///
/// Cost: with per-player total load <= M bits, each hop's per-edge load is
/// <= ceil(M/n) + (payload count) remainder bits, so the delivery takes
/// ~2·ceil(M/(n·b)) rounds versus direct chunking's ceil(max single
/// payload / b) — the skew-flattening the block-MM protocols ride
/// (DESIGN.md §2.2/§2.4).
int unicast_payloads_relayed(CliqueUnicast& net, std::vector<std::vector<Message>> payload,
                             std::vector<std::vector<Message>>* received,
                             const RelaySchedule& schedule);

/// The unplanned form, for callers whose lengths no plan priced (the
/// router): builds relay_cost of the payload lengths at net.bandwidth()
/// and delivers through the form above. Same preconditions and result.
int unicast_payloads_relayed(CliqueUnicast& net, std::vector<std::vector<Message>> payload,
                             std::vector<std::vector<Message>>* received);

}  // namespace cclique
