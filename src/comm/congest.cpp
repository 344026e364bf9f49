#include "comm/congest.h"

#include <algorithm>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"

namespace cclique {

CongestUnicast::CongestUnicast(const Graph& topology, int bandwidth)
    : topology_(topology), core_(topology.num_vertices(), bandwidth) {
  const int nv = n();
  reverse_slot_.resize(static_cast<std::size_t>(nv));
  slot_begin_.assign(static_cast<std::size_t>(nv) + 1, 0);
  for (int v = 0; v < nv; ++v) {
    const auto& nbrs = topology_.neighbors(v);
    slot_begin_[static_cast<std::size_t>(v) + 1] =
        slot_begin_[static_cast<std::size_t>(v)] + nbrs.size();
    auto& rev = reverse_slot_[static_cast<std::size_t>(v)];
    rev.resize(nbrs.size());
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const auto& unbrs = topology_.neighbors(nbrs[k]);
      const auto it = std::lower_bound(unbrs.begin(), unbrs.end(), v);
      CC_CHECK(it != unbrs.end() && *it == v, "topology adjacency inconsistent");
      rev[k] = static_cast<std::size_t>(it - unbrs.begin());
    }
  }
}

void CongestUnicast::round_fill(const FillFn& fill, const RecvFn& recv) {
  const int nv = n();
  if (slots_.empty()) slots_ = core_.borrow_slots(slot_begin_.back());
  core_.send_phase([&](int v, PlayerCharge& charge) {
    locality::PlayerScope scope(v);
    // Length sink like the clique engines. The *topology* (neighbor lists)
    // is not a tainted source — in CONGEST the input graph is the network,
    // so sizing an outbox by degree is structural, not payload-dependent.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("CONGEST fill callback"));
    const auto& nbrs = topology_.neighbors(v);
    Message* box = slots_.data() + slot_begin_[static_cast<std::size_t>(v)];
    for (std::size_t k = 0; k < nbrs.size(); ++k) box[k].clear();
    fill(v, box);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      core_.charge_message(v, nbrs[k], box[k].size_bits(), charge,
                           "per-edge bandwidth exceeded in CONGEST");
    }
  });
  for (int v = 0; v < nv; ++v) {
    const auto& nbrs = topology_.neighbors(v);
    inbox_.resize(nbrs.size());
    std::uint64_t recv_bits = 0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      // v's slot in its k-th neighbor's outbox, precomputed in the
      // constructor; the inbox aliases it (zero-copy delivery).
      const Message& msg = slots_[slot_begin_[static_cast<std::size_t>(nbrs[k])] +
                                  reverse_slot_[static_cast<std::size_t>(v)][k]];
      inbox_[k] = Message::alias(msg);
      recv_bits += msg.size_bits();
    }
    core_.charge_receive(v, recv_bits);
    locality::PlayerScope scope(v);
    recv(v, inbox_);
  }
}

}  // namespace cclique
