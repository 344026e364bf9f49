// Two-party communication complexity substrate.
//
// The Section 3.2 lower bounds are reductions from 2-party set disjointness:
// DISJ_N(X, Y) = 1 iff X ∩ Y = ∅ for X, Y ⊆ [N], which requires Ω(N) bits of
// communication (randomized, constant error). This module provides the
// instance type, generators, and a metered transcript so reductions can
// report the exact number of bits the simulated players exchanged.
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

/// A set-disjointness instance over the universe [0, N).
struct DisjointnessInstance {
  std::vector<bool> x;  ///< Alice's set (characteristic vector)
  std::vector<bool> y;  ///< Bob's set

  std::size_t universe_size() const { return x.size(); }

  /// True iff X and Y share no element.
  bool disjoint() const {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] && y[i]) return false;
    }
    return true;
  }
};

/// Uniformly random instance: each element joins each set with probability
/// `density` independently.
DisjointnessInstance random_disjointness(std::size_t n, double density, Rng& rng);

/// Random instance conditioned on being disjoint (elements assigned to
/// Alice / Bob / neither).
DisjointnessInstance random_disjoint_instance(std::size_t n, double density, Rng& rng);

/// Random instance with exactly one planted intersection element.
DisjointnessInstance random_intersecting_instance(std::size_t n, double density,
                                                  Rng& rng);

/// Metered 2-party channel: both players append messages; the meter records
/// who sent how much. Reductions built on top of simulated clique protocols
/// report their cost through this object. A thin wrapper over the transport
/// core's PartyMeter (comm/engine.h).
class TwoPartyChannel {
 public:
  /// Sends commit the message's length to the metered transcript, so the
  /// charges run under a sink scope (see NofBlackboard::write for how the
  /// meter substrates relate to the round engines' callback sinks).
  void send_from_alice(const Message& m) {
    locality::check_actor(0, "two-party send from Alice");
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("two-party send from Alice"));
    meter_.send(0, m.size_bits());
  }
  void send_from_bob(const Message& m) {
    locality::check_actor(1, "two-party send from Bob");
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("two-party send from Bob"));
    meter_.send(1, m.size_bits());
  }
  /// Convenience for raw accounting when a reduction computes cost in bulk.
  void charge_alice(std::uint64_t bits) { meter_.charge(0, bits); }
  void charge_bob(std::uint64_t bits) { meter_.charge(1, bits); }

  std::uint64_t alice_bits() const { return meter_.bits_by(0); }
  std::uint64_t bob_bits() const { return meter_.bits_by(1); }
  std::uint64_t total_bits() const { return meter_.total_bits(); }
  std::uint64_t messages() const { return meter_.messages(); }

 private:
  PartyMeter meter_{2};
};

/// The trivial deterministic upper bound: Alice ships her whole
/// characteristic vector, Bob answers with the verdict bit. Returns the
/// verdict; the channel records N + 1 bits. Used to sanity-check the meter
/// and as a baseline in benches.
bool trivial_disjointness_protocol(const DisjointnessInstance& inst,
                                   TwoPartyChannel* channel);

}  // namespace cclique
