#include "comm/clique_broadcast.h"

#include <algorithm>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"

namespace cclique {

CliqueBroadcast::CliqueBroadcast(int n, int bandwidth) : core_(n, bandwidth) {}

const std::vector<Message>& CliqueBroadcast::round_fill(const FillFn& fill) {
  const int nn = n();
  if (slots_.empty()) slots_ = core_.borrow_slots(static_cast<std::size_t>(nn));
  core_.send_phase([&](int i, PlayerCharge& charge) {
    locality::PlayerScope scope(i);
    // The callback's output becomes this round's blackboard write length:
    // a length sink, like every engine fill path (see oblivious_guard.h).
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("CLIQUE-BCAST fill callback"));
    Message& slot = slots_[static_cast<std::size_t>(i)];
    slot.clear();
    fill(i, slot);
    core_.charge_broadcast(i, slot.size_bits(), charge,
                           "per-player bandwidth exceeded in CLIQUE-BCAST");
  });
  // Every written bit is read by the other n-1 players: player i's receive
  // load this round is the board total minus its own write.
  board_.resize(static_cast<std::size_t>(nn));
  std::uint64_t total = 0;
  for (int i = 0; i < nn; ++i) {
    board_[static_cast<std::size_t>(i)] = Message::alias(slots_[static_cast<std::size_t>(i)]);
    total += board_[static_cast<std::size_t>(i)].size_bits();
  }
  for (int i = 0; i < nn; ++i) {
    core_.charge_receive(i, total - board_[static_cast<std::size_t>(i)].size_bits());
  }
  return board_;
}

std::vector<Message> broadcast_payloads(CliqueBroadcast& net,
                                        const std::vector<Message>& payloads,
                                        int* rounds_used) {
  const int n = net.n();
  const std::size_t b = static_cast<std::size_t>(net.bandwidth());
  // Chunk-schedule sink, mirroring unicast_payloads: rounds and slice
  // lengths derive from Message sizes only.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("broadcast_payloads chunk schedule"));
  CC_REQUIRE(static_cast<int>(payloads.size()) == n, "one payload per player");
  std::size_t max_len = 0;
  for (const auto& p : payloads) max_len = std::max(max_len, p.size_bits());
  const int rounds = static_cast<int>((max_len + b - 1) / b);
  std::vector<Message> assembled(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    assembled[static_cast<std::size_t>(i)].reserve_bits(
        payloads[static_cast<std::size_t>(i)].size_bits());
  }
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

}  // namespace cclique
