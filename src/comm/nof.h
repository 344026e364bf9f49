// Three-party number-on-forehead (NOF) substrate.
//
// In the 3-NOF model each player sees the other two players' inputs but not
// its own ("on its forehead"). Section 3.6 reduces 3-NOF set disjointness to
// triangle detection in CLIQUE-BCAST: a round lower bound for the latter
// would follow from a strong enough communication lower bound for the
// former. We provide the instance type and a metered blackboard; the actual
// reduction (Theorem 24) lives in src/lowerbound/nof_reduction.*.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "comm/engine.h"
#include "comm/model.h"
#include "util/check.h"
#include "util/rng.h"

namespace cclique {

/// 3-party set-disjointness instance over universe [0, m): is there an
/// element in X_A ∩ X_B ∩ X_C?
struct NofDisjointnessInstance {
  std::vector<bool> xa, xb, xc;

  std::size_t universe_size() const { return xa.size(); }

  bool intersecting() const {
    for (std::size_t i = 0; i < xa.size(); ++i) {
      if (xa[i] && xb[i] && xc[i]) return true;
    }
    return false;
  }
};

/// Each element joins each of the three sets independently w.p. `density`.
NofDisjointnessInstance random_nof_instance(std::size_t m, double density, Rng& rng);

/// Random instance conditioned on empty triple intersection.
NofDisjointnessInstance random_nof_disjoint(std::size_t m, double density, Rng& rng);

/// Random instance with exactly one planted triple-intersection element.
NofDisjointnessInstance random_nof_intersecting(std::size_t m, double density,
                                                Rng& rng);

/// Metered shared blackboard for the NOF simulation; every written bit is
/// charged to the protocol's communication complexity. A thin wrapper over
/// the transport core's PartyMeter (comm/engine.h).
class NofBlackboard {
 public:
  /// Player `who` (0, 1, 2) appends a message to the board. If called from
  /// inside a guarded player scope (a simulated-clique callback driving the
  /// reduction), the write must be attributed to that same player — spending
  /// another party's budget is a model violation.
  /// The write commits the message's length to the metered transcript, so
  /// the charge runs under a sink scope. The meter substrates have no
  /// callback seam like the round engines — a reduction that *computes* a
  /// transcript length opens its own oblivious::SinkScope around that
  /// computation (the repo's reductions inherit the CLIQUE-BCAST callback
  /// sink, because they simulate a broadcast protocol).
  void write(int who, const Message& m) {
    locality::check_actor(who, "NOF blackboard write");
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("NOF blackboard write"));
    meter_.send(who, m.size_bits());
  }

  std::uint64_t total_bits() const { return meter_.total_bits(); }
  std::uint64_t bits_by(int who) const { return meter_.bits_by(who); }

 private:
  PartyMeter meter_{3};
};

}  // namespace cclique
