#include "comm/congest.h"

#include <algorithm>
#include <utility>

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
  const std::size_t b = static_cast<std::size_t>(bandwidth());
  if (len_.empty()) {
    const std::size_t n = static_cast<std::size_t>(nv);
    slots_.resize(slot_begin_.back());
    len_.assign(n, std::vector<std::size_t>(n, 0));
  }
  for (int v = 0; v < nv; ++v) {
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
      CC_MODEL(box[k].size_bits() <= b, "per-edge bandwidth exceeded in CONGEST");
      len_[static_cast<std::size_t>(v)][static_cast<std::size_t>(nbrs[k])] = box[k].size_bits();
    }
  }
  // Pairs that are not edges keep length 0.
  core_.charge_stream(len_, 1);
  for (int v = 0; v < nv; ++v) {
    const auto& nbrs = topology_.neighbors(v);
    inbox_.resize(nbrs.size());
    // v's slot in its k-th neighbor's outbox (precomputed in the
    // constructor) is swapped into the inbox for the callback and back.
    const auto swap_inbox = [&] {
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        std::swap(inbox_[k], slots_[slot_begin_[static_cast<std::size_t>(nbrs[k])] +
                                    reverse_slot_[static_cast<std::size_t>(v)][k]]);
      }
    };
    swap_inbox();
    locality::PlayerScope scope(v);
    recv(v, inbox_);
    swap_inbox();
  }
}

}  // namespace cclique
