// CLIQUE-BCAST(n, b): the broadcast congested clique / shared blackboard.
//
// In each round every player writes a single message of at most b bits that
// all other players can read — the classical multiparty number-in-hand
// shared-blackboard model (Section 3 of the paper). Only Θ(nb) unique bits
// cross any cut per round, which is what re-enables the bottleneck lower
// bounds of Section 3.2.
//
// Built on the shared metered transport core (comm/engine.h): rounds write
// the engine's reused slots (callbacks run serially in player order, and a
// failed round commits nothing) and commit through one charge_board call,
// and broadcast_payloads charges its writes in closed form and hands the
// row over once.
#pragma once

#include <functional>
#include <vector>

#include "comm/engine.h"
#include "comm/model.h"
#include "util/check.h"

namespace cclique {

/// Round-synchronous engine for the broadcast congested clique.
///
/// Determinism: accounting is a function of the writes alone (the
/// comm/engine.h round contract). Cost model: one round_fill() call = exactly one
/// round and at most n·b written bits (each charged once — the blackboard
/// is read, not re-sent).
class CliqueBroadcast {
 public:
  /// Preconditions: n >= 1 players, per-broadcast bandwidth >= 1 bits
  /// (CC_REQUIRE).
  CliqueBroadcast(int n, int bandwidth);

  int n() const { return core_.n(); }
  int bandwidth() const { return core_.bandwidth(); }

  /// Broadcast-filling callback: append at most bandwidth() bits of player
  /// i's broadcast into `out` (initially empty). A longer write throws
  /// ModelViolation when the callback returns, before the next player runs.
  using FillFn = std::function<void(int player, Message& out)>;

  /// Executes one round; returns the blackboard row (message of player i at
  /// index i). All players may read the returned row — that is the model.
  /// Cost: 1 round, sum-of-broadcast-sizes bits, committed with one
  /// charge_board(len, 1) call. Fill callbacks run in player order
  /// (locality discipline); a broadcast over bandwidth() bits throws
  /// ModelViolation and the round charges nothing. The row is the engine's
  /// own slots, reused round after round (no per-round heap allocation), so
  /// it is valid until the next round begins.
  const std::vector<Message>& round_fill(const FillFn& fill);

  /// Registers a 2-party partition for cut accounting: a broadcast bit by a
  /// side-0 player costs one bit toward side 1 (and vice versa), because in
  /// a 2-party simulation each written bit must be shipped across once.
  void set_cut(std::vector<int> side) { core_.set_cut(std::move(side)); }

  const CommStats& stats() const { return core_.stats(); }
  void reset_stats() { core_.reset_stats(); }

 private:
  friend std::vector<Message> broadcast_payloads(CliqueBroadcast&, std::vector<Message>, int*);

  EngineCore core_;
  std::vector<Message> slots_;   ///< the blackboard row, returned to callers
  std::vector<std::size_t> len_;  ///< the round's write lengths
};

/// Broadcasts arbitrarily long per-player payloads, b bits per player per
/// round, in ceil(max_len / b) rounds; returns the full payload row
/// (payloads[i] as every player now knows it) and sets *rounds_used.
///
/// Preconditions: payloads.size() == n (CC_REQUIRE). Cost: exactly
/// ceil(max payload bits / b) rounds, sum-of-payload-bits written bits.
/// The returned row is the payloads moved out (pass them with std::move
/// unless the caller keeps them), so it may outlive subsequent rounds.
std::vector<Message> broadcast_payloads(CliqueBroadcast& net, std::vector<Message> payloads,
                                        int* rounds_used);

}  // namespace cclique
