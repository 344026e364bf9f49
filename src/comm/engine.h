// The metered transport core shared by every communication engine.
//
// All four engines (CLIQUE-UCAST, CLIQUE-BCAST, CONGEST, and the two-party /
// NOF meters) used to re-implement the same loop: pull per-player messages,
// validate them against the model's bandwidth rule, account every bit, and
// deliver. EngineCore owns the accounting once: CommStats (including the
// per-player vectors) and cut tracking, behind one meter.
//
// One meter (DESIGN.md §2.1): charge_stream / charge_board commit R rounds
// of b-bit chunked streams in closed form. A round_fill round is the R = 1
// case: the engine checks each player's messages against the bandwidth cap
// as that player's fill callback returns and commits the whole round with
// one call. A forwarding transport, where no player computes between
// rounds, commits all of its rounds at once and hands each payload over
// once.
//
// Round contract (DESIGN.md §2.1): a round is one synchronous step, so the
// fill callbacks run serially in player order and the round commits only
// after the last one returned and passed its check. A throw from player i's
// callback or check propagates at once: players above i never run, nothing
// is committed, and the failed round does not count. Delivery (receive
// callbacks) is serial in player order too.
#pragma once

#include <vector>

#include "comm/model.h"
#include "util/check.h"

namespace cclique {

/// len[v][p]: the length in bits of the v -> p stream.
using LengthMatrix = std::vector<std::vector<std::size_t>>;

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

  /// Commits `rounds` synchronous rounds that carry the len[i][j]-bit
  /// i -> j streams in b-bit chunks: per edge, L bits (cut bits if the cut
  /// separates i and j), ceil(L/b) messages, min(L, b) edge bits. One
  /// round_fill round is rounds = 1 with L <= b. Nothing commits unless len
  /// is n x n with an empty diagonal (PreconditionError) and
  /// ceil(L/b) <= rounds (ModelViolation). Only the engines' rounds and the
  /// forwarding transports reach an engine's core: no protocol charges
  /// undelivered bits.
  void charge_stream(const LengthMatrix& len, int rounds);

  /// charge_stream for blackboard writes: player i writes len[i] bits, every
  /// written bit crosses a registered cut and reaches the n-1 others.
  void charge_board(const std::vector<std::size_t>& len, int rounds);

 private:
  int n_;
  int bandwidth_;
  std::vector<int> cut_side_;
  CommStats stats_;
};

/// Shared meter for the k-party reduction substrates (two-party channel,
/// NOF blackboard): per-party bit counts plus a message tally. These models
/// charge transcripts, not rounds, so they meter directly instead of going
/// through charge_stream.
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

  /// Charges one discrete message of `bits` bits sent by `who`.
  void send(int who, std::uint64_t bits) {
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
