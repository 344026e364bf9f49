// Planted obliviousness violations for `tools/cc_oblivious.py --self-test`.
//
// This file is NOT compiled or linked anywhere — it lives outside src/ (the
// lint's default scan root) purely so the self-test can prove the scanner
// still catches each violation class. Keep one planted instance of every
// check; the self-test fails if any class stops being detected.
//
// The runtime twins of the plants below are in
// tests/oblivious_guard_test.cpp: the check-2 shape is
// UnicastSendCallbackCannotSizeMessagesFromPayload / BroadcastCallbackIsASink
// (payload-derived emitted length through a real engine) and the check-3
// shape is UnicastFillCallbackIsASinkToo (branching on an entry inside a
// fill callback) — each seeded bug is caught both statically and
// dynamically.
#include <cstdint>
#include <vector>

#include "analysis/oblivious_guard.h"
#include "comm/clique_unicast.h"
#include "linalg/mat61.h"
#include "linalg/sparse.h"

namespace cclique {

struct ObliviousFixturePlan {
  int rounds = 0;
  std::uint64_t bits = 0;
};

// check 1: a plan function reads matrix payload storage, so the priced
// schedule becomes a function of entry values instead of (n, w, b).
ObliviousFixturePlan fixture_mm_plan(const Mat61& a, int bandwidth) {
  ObliviousFixturePlan plan;
  plan.bits = a.get(0, 0) * static_cast<std::uint64_t>(bandwidth);
  plan.rounds = static_cast<int>(plan.bits) / bandwidth;
  return plan;
}

// check 5: a pricing function shapes its schedule from CSR structure
// (nnz) without declaring the dependence — the legitimate route is the
// declared_nnz_profile choke point (core/sparse_mm.h), whose body holds an
// oblivious::declared_dependence declaration; silently read, the nnz
// dependence bypasses both the runtime guard's accounting and the
// announcement that makes it common knowledge.
ObliviousFixturePlan fixture_sparse_profile(const Csr61& a, int bandwidth) {
  ObliviousFixturePlan plan;
  plan.bits = static_cast<std::uint64_t>(a.nnz()) * 61;
  plan.rounds = static_cast<int>(plan.bits) / bandwidth;
  return plan;
}

void planted_oblivious_violations(CliqueUnicast& net, const Mat61& payload) {
  // check 4: the plan result is bound but no CC_CHECK ever compares the
  // measured rounds/bits against it anywhere in this file.
  const ObliviousFixturePlan plan = fixture_mm_plan(payload, net.bandwidth());
  (void)plan;

  net.round_fill(
      [&](int i, Message* box) {
        // check 3: whether player i sends at all branches on a payload
        // entry — the round's traffic pattern leaks the value.
        if (payload.get(i, 0) > 7) {
          // check 2: the emitted width is derived from a payload entry —
          // the message *length* leaks the value even if the bits do not.
          box[0].push_uint(0, static_cast<int>(payload.get(i, 1) % 61));
        }
        // check 2, bulk form: the run's word count is a payload entry, so
        // the length of the row slice leaks it.
        box[1].push_words(payload.row(i), payload.get(i, 2) % 4, 1);
      },
      [](int, const std::vector<Message>&) {});
}

}  // namespace cclique
