// The metered transport core shared by every communication engine.
//
// All four engines (CLIQUE-UCAST, CLIQUE-BCAST, CONGEST, and the two-party /
// NOF meters) used to re-implement the same loop: pull per-player messages,
// validate them against the model's bandwidth rule, account every bit, and
// deliver. EngineCore owns that loop once — bandwidth validation, CommStats
// accounting (including the per-player vectors), cut tracking, a per-round
// payload arena, and the send phase.
//
// Forwarding rule (DESIGN.md §2.1): where no player computes between rounds,
// charge_stream / charge_board commit every round's charges in closed form
// and the transport hands each payload over once.
//
// Round contract (DESIGN.md §2.1): a round is one synchronous step, so
// send_phase runs the fill callbacks serially in player order, each
// accumulating into its own PlayerCharge slot, and commits the slots to
// CommStats in player order only after every callback returned. A throw
// from player i's callback propagates at once: players above i never run,
// nothing is committed, and the failed round does not count. Delivery
// (receive callbacks) is serial in player order too.
#pragma once

#include <functional>
#include <vector>

#include "comm/model.h"
#include "util/arena.h"
#include "util/check.h"

namespace cclique {

/// len[v][p]: the length in bits of the v -> p stream.
using LengthMatrix = std::vector<std::vector<std::size_t>>;

/// Per-player accounting scratch for one send phase. Filled by the owning
/// player's callback, committed once every callback has returned.
struct PlayerCharge {
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
  std::uint64_t cut_bits = 0;
  std::uint64_t max_edge_bits = 0;

  void reset() { *this = PlayerCharge{}; }
};

/// The shared metered-transport state machine. Engines compose one of these
/// and translate their model's round shape onto it.
class EngineCore {
 public:
  /// n >= 1 players, per-message bandwidth cap `bandwidth` >= 1 bits.
  EngineCore(int n, int bandwidth);

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  int n() const { return n_; }
  int bandwidth() const { return bandwidth_; }

  /// Registers a 2-party partition for cut accounting. Preconditions:
  /// side.size() == n and side[i] in {0, 1} (CC_REQUIRE). The registration
  /// survives reset_stats(); only the accumulated cut_bits reset.
  void set_cut(std::vector<int> side);
  bool has_cut() const { return !cut_side_.empty(); }

  const CommStats& stats() const { return stats_; }
  void reset_stats();

  /// Borrows `count` empty message slots from the arena, each with capacity
  /// bandwidth() bits — the outbox geometry of every round_fill path. The
  /// storage lives as long as the engine (the geometry is fixed), so this
  /// is called once per engine.
  std::vector<Message> borrow_slots(std::size_t count) {
    const std::size_t words_per_msg =
        (static_cast<std::size_t>(bandwidth_) + 63) / 64;
    std::uint64_t* base = arena_.alloc_words(count * words_per_msg);
    std::vector<Message> slots;
    slots.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      slots.push_back(Message::borrow(base + s * words_per_msg,
                                      static_cast<std::size_t>(bandwidth_)));
    }
    return slots;
  }

  /// Validates one `bits`-bit message from `sender` to `receiver` against
  /// the bandwidth cap and accumulates it into `c` (and the sender's cut
  /// charge when the registered cut separates the endpoints). `what` names
  /// the violated rule in the ModelViolation message.
  void charge_message(int sender, int receiver, std::size_t bits,
                      PlayerCharge& c, const char* what) const {
    CC_MODEL(bits <= static_cast<std::size_t>(bandwidth_), what);
    c.bits += bits;
    if (bits != 0) ++c.messages;
    if (bits > c.max_edge_bits) c.max_edge_bits = bits;
    if (!cut_side_.empty() &&
        cut_side_[static_cast<std::size_t>(sender)] !=
            cut_side_[static_cast<std::size_t>(receiver)]) {
      c.cut_bits += bits;
    }
  }

  /// Broadcast variant: every written bit crosses the cut once (a 2-party
  /// simulation ships each blackboard bit across exactly once).
  void charge_broadcast(int /*sender*/, std::size_t bits, PlayerCharge& c,
                        const char* what) const {
    CC_MODEL(bits <= static_cast<std::size_t>(bandwidth_), what);
    c.bits += bits;
    if (bits != 0) ++c.messages;
    if (bits > c.max_edge_bits) c.max_edge_bits = bits;
    if (!cut_side_.empty()) c.cut_bits += bits;
  }

  /// The send phase of one round: runs fn(player, charge) for every player
  /// in player order, then commits all charges in player order and
  /// increments stats().rounds. A throw propagates at once and the round
  /// charges nothing (see the round contract above).
  void send_phase(const std::function<void(int, PlayerCharge&)>& fn);

  /// Records bits landing at `receiver`. Must only be called from the
  /// delivery loop (player order) — it writes stats directly, with no
  /// per-player scratch, so a send-phase callback must not call it.
  void charge_receive(int receiver, std::uint64_t bits) {
    stats_.per_player_recv_bits[static_cast<std::size_t>(receiver)] += bits;
  }

  /// Commits what `rounds` round_fill rounds charge for the len[i][j]-bit
  /// i -> j streams in b-bit chunks: per edge, L bits (cut bits if the cut
  /// separates i and j), ceil(L/b) messages, min(L, b) edge bits. Nothing
  /// commits unless len is n x n with an empty diagonal (PreconditionError)
  /// and ceil(L/b) <= rounds (ModelViolation). Only the forwarding
  /// transports reach an engine's core: no protocol charges undelivered bits.
  void charge_stream(const LengthMatrix& len, int rounds);

  /// charge_stream for blackboard writes: player i writes len[i] bits, every
  /// written bit crosses a registered cut and reaches the n-1 others.
  void charge_board(const std::vector<std::size_t>& len, int rounds);

 private:
  int n_;
  int bandwidth_;
  std::vector<int> cut_side_;
  CommStats stats_;
  Arena arena_;
  std::vector<PlayerCharge> charges_;
};

/// Shared meter for the k-party reduction substrates (two-party channel,
/// NOF blackboard): per-party bit counts plus a message tally. These models
/// charge transcripts, not rounds, so they meter directly instead of going
/// through send_phase.
class PartyMeter {
 public:
  explicit PartyMeter(int parties)
      : bits_(static_cast<std::size_t>(parties), 0) {
    CC_REQUIRE(parties >= 1, "need at least one party");
  }

  /// Raw bit charge (bulk accounting; no message tally).
  void charge(int who, std::uint64_t bits) {
    CC_REQUIRE(who >= 0 && who < static_cast<int>(bits_.size()),
               "party id out of range");
    bits_[static_cast<std::size_t>(who)] += bits;
    total_ += bits;
  }

  /// Charges one discrete message of `bits` bits.
  void charge_message(int who, std::uint64_t bits) {
    charge(who, bits);
    ++messages_;
  }

  std::uint64_t bits_by(int who) const {
    CC_REQUIRE(who >= 0 && who < static_cast<int>(bits_.size()),
               "party id out of range");
    return bits_[static_cast<std::size_t>(who)];
  }
  std::uint64_t total_bits() const { return total_; }
  std::uint64_t messages() const { return messages_; }

 private:
  std::vector<std::uint64_t> bits_;
  std::uint64_t total_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace cclique
