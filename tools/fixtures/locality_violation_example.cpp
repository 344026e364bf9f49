// Planted locality violations for `tools/check_locality.py --self-test`.
//
// This file is NOT compiled or linked anywhere — it lives outside src/ (the
// lint's default scan root) purely so the self-test can prove the scanner
// still catches each violation class. Keep one planted instance of every
// check; the self-test fails if any class stops being detected.
//
// The runtime twin of the check-1 plant below is
// tests/locality_guard_test.cpp (UnicastSendCallbackCannotReadAnotherPlayersState),
// which drives the same cross-player read through a real round_fill callback
// and asserts ModelViolation — one seeded bug, caught both statically and
// dynamically.
#include <cstdint>
#include <vector>

#include "analysis/locality_guard.h"
#include "comm/clique_unicast.h"

namespace cclique {

struct FixturePlan {
  int rounds = 0;
};

FixturePlan fixture_plan(int n) { return FixturePlan{n > 1 ? 2 : 1}; }

void planted_violations(CliqueUnicast& net, int n) {
  locality::PerPlayer<std::uint64_t> secret(
      n, CC_LOCALITY_SITE("planted secret"));
  std::vector<std::uint64_t> shared(static_cast<std::size_t>(n), 0);

  // check 3: a plan is computed but no CC_CHECK compares measured stats
  // against it anywhere in this file.
  const FixturePlan plan = fixture_plan(n);
  (void)plan;

  net.round_fill(
      [&](int i, Message* box) {
        // check 1: player i reads player (i+1)%n's tagged private state.
        const std::uint64_t stolen = secret[(i + 1) % n];
        // check 2: player i writes a reference-captured engine-wide array
        // at a non-self index (another player's slot).
        shared[0] += stolen;
        box[0].push_uint(stolen, 5);  // writing the outbox is fine — not flagged
      },
      [](int, const std::vector<Message>&) {});
}

}  // namespace cclique
