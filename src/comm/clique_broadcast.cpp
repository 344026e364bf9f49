#include "comm/clique_broadcast.h"

#include <algorithm>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "util/math_util.h"

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
  // Write-length sink, mirroring unicast_payloads: rounds and charges
  // derive from Message sizes only.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("broadcast_payloads write lengths"));
  CC_REQUIRE(static_cast<int>(payloads.size()) == net.n(), "one payload per player");
  std::vector<std::size_t> len;
  for (const Message& p : payloads) len.push_back(p.size_bits());
  const std::size_t max_len = *std::max_element(len.begin(), len.end());  // n >= 1
  const int rounds =
      static_cast<int>(ceil_div(max_len, static_cast<std::uint64_t>(net.bandwidth())));
  net.core_.charge_board(len, rounds);
  if (rounds_used != nullptr) *rounds_used = rounds;
  return payloads;
}

}  // namespace cclique
