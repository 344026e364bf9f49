#include "comm/clique_broadcast.h"

#include <algorithm>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "util/math_util.h"

namespace cclique {

CliqueBroadcast::CliqueBroadcast(int n, int bandwidth) : core_(n, bandwidth) {}

const std::vector<Message>& CliqueBroadcast::round_fill(const FillFn& fill) {
  const std::size_t nn = static_cast<std::size_t>(n());
  const std::size_t b = static_cast<std::size_t>(bandwidth());
  slots_.resize(nn);
  len_.resize(nn);
  for (std::size_t i = 0; i < nn; ++i) {
    locality::PlayerScope scope(static_cast<int>(i));
    // The callback's output becomes this round's blackboard write length:
    // a length sink, like every engine fill path (see oblivious_guard.h).
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("CLIQUE-BCAST fill callback"));
    Message& slot = slots_[i];
    slot.clear();
    fill(static_cast<int>(i), slot);
    CC_MODEL(slot.size_bits() <= b, "per-player bandwidth exceeded in CLIQUE-BCAST");
    len_[i] = slot.size_bits();
  }
  core_.charge_board(len_, 1);
  return slots_;
}

std::vector<Message> broadcast_payloads(CliqueBroadcast& net, std::vector<Message> payloads,
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
