// Shared vocabulary for the communication engines.
//
// A protocol in this library is ordinary C++ driving an engine round by
// round: in each round the engine pulls outgoing messages from per-player
// callbacks, *validates them against the model's bandwidth rules*, accounts
// for every bit, and delivers. The engine is the arbiter of what a round
// and a bit mean, so measured round counts in benches are trustworthy.
//
// Locality discipline: a player's fill callback must compute only from that
// player's local state and previously delivered messages. The protocol
// implementations in src/core and src/lowerbound follow it by construction
// (per-player state structs), and the rule is mechanically enforced by the
// runtime locality guard (analysis/locality_guard.h): every engine opens a
// per-player scope around each callback, player-local state registers via
// locality::PerPlayer, and a cross-player access throws ModelViolation in
// CCLIQUE_LOCALITY=ON builds (zero cost otherwise). tools/check_locality.py
// lints the same rules statically in CI.
// Every engine runs a round's fill callbacks in player order and then its
// receive callbacks in player order (comm/engine.h): a round is
// one synchronous step, so the call order carries no meaning, and a
// callback that reads another player's state breaks the discipline even
// though it would run without a race.
//
// Obliviousness discipline: round counts and message lengths must be
// functions of (n, element width, bandwidth) alone — payload bits are
// serialized *before* a round, so callbacks and plan functions never read
// payload storage. The rule is mechanically enforced by the obliviousness
// guard (analysis/oblivious_guard.h, CCLIQUE_OBLIVIOUS=ON builds) and by
// tools/cc_oblivious.py statically in CI; see DESIGN.md §2.7 for the
// sources/sinks table and the declared-dependence escape hatch.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitvec.h"
#include "util/check.h"

namespace cclique {

/// Message payload; its exact bit length is what gets charged.
using Message = BitVec;

/// Cumulative communication accounting for one protocol execution.
///
/// Determinism contract: every field is a sum or max over per-(player,
/// message) charges, each computed from the message alone, and the
/// transport core commits a round's charges with one call, all or
/// nothing — so stats are bit-identical at every CC_THREADS / CC_KERNEL
/// setting (both knobs reach only the local kernels).
struct CommStats {
  /// Synchronous rounds elapsed.
  int rounds = 0;
  /// Total bits carried by all messages (across all edges and rounds).
  std::uint64_t total_bits = 0;
  /// Total message count (nonempty messages).
  std::uint64_t total_messages = 0;
  /// Bits crossing the registered 2-party cut (see set_cut on the engines).
  std::uint64_t cut_bits = 0;
  /// Maximum bits observed on any single directed edge in a single round.
  std::uint64_t max_edge_bits_in_round = 0;
  /// Bits sent by each player, summed over all rounds (unicast: over its
  /// n-1 out-links; broadcast: its blackboard writes; CONGEST: its incident
  /// edges). Sized n by the engine; sums to total_bits.
  std::vector<std::uint64_t> per_player_sent_bits;
  /// Bits received by each player, summed over all rounds. For broadcast
  /// this counts every other player's writes (each written bit is read by
  /// all n-1 others), so the vector sums to (n-1) * total_bits there.
  std::vector<std::uint64_t> per_player_recv_bits;

  bool operator==(const CommStats& o) const {
    return rounds == o.rounds && total_bits == o.total_bits &&
           total_messages == o.total_messages && cut_bits == o.cut_bits &&
           max_edge_bits_in_round == o.max_edge_bits_in_round &&
           per_player_sent_bits == o.per_player_sent_bits &&
           per_player_recv_bits == o.per_player_recv_bits;
  }
  bool operator!=(const CommStats& o) const { return !(*this == o); }
};

/// The rounds and bits an engine charged since this snapshot of its live
/// stats() — the one measured-versus-plan check every planned protocol
/// ends with. Holds a reference: the engine must outlive the snapshot.
class ChargedSince {
 public:
  explicit ChargedSince(const CommStats& live)
      : live_(live), rounds_(live.rounds), bits_(live.total_bits) {}

  int rounds() const { return live_.rounds - rounds_; }
  std::uint64_t bits() const { return live_.total_bits - bits_; }

  /// CC_CHECKs that exactly the planned rounds and bits were charged;
  /// `what` is the InvariantError message otherwise.
  void check(int planned_rounds, std::uint64_t planned_bits, const char* what) const {
    CC_CHECK(rounds() == planned_rounds, what);
    CC_CHECK(bits() == planned_bits, what);
  }

 private:
  const CommStats& live_;
  int rounds_;
  std::uint64_t bits_;
};

}  // namespace cclique
