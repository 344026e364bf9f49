// Balanced routing on the unicast congested clique (Lenzen [28] substrate).
//
// The routing task: each player i holds a multiset of (destination, payload)
// messages; a *demand* is c-balanced when every player sends at most c*n
// messages and every player is the destination of at most c*n messages.
// Lenzen's PODC'13 result delivers any O(n)-balanced demand in O(1) rounds
// deterministically. The paper uses it as a black box in Theorem 2 (light
// wires, input rebalancing, operator outputs).
//
// We implement three routers over the same interface:
//  * DirectRouter — sends everything straight to its destination; rounds =
//    max per-edge queue (the naive baseline a congested edge punishes);
//  * TwoPhaseRouter — deterministic relay routing, substituting for
//    Lenzen's sorting-based schedule (DESIGN.md §4a). It runs and charges no
//    announcement: it walks the whole demand pattern in (destination,
//    source) order and gives each message the relay minimizing its two hop
//    loads. Phase 1 scatters, phase 2 delivers. With per-player demand
//    <= M the greedy provably keeps each hop edge at <= ceil(2M/n) records
//    (route_edge_records, core/mst.cpp); bench_e11 measures the lower load
//    it reaches in practice, which no proof covers. Callers whose pattern
//    comes from private input (sorting, MST Lotker, DLP) thus get a
//    schedule no single player could compute.
//  * ValiantRouter — randomized relay choice (ablation baseline; O(c) rounds
//    w.h.p. with slightly worse constants).
//
// Payloads are fixed-width bit strings; a router run reports exact rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "util/rng.h"

namespace cclique {

/// One message in a routing demand.
struct RoutedMessage {
  int source = 0;
  int dest = 0;
  std::uint64_t payload = 0;  ///< payload value, `payload_bits` wide
};

/// A routing demand: messages plus the payload width in bits.
struct RoutingDemand {
  std::vector<RoutedMessage> messages;
  int payload_bits = 0;

  /// Max over players of outgoing message count.
  std::size_t max_out(int n) const;
  /// Max over players of incoming message count.
  std::size_t max_in(int n) const;
};

/// Result of a routing run.
struct RoutingResult {
  int rounds = 0;
  /// delivered[v] lists (source, payload) pairs received by player v, in
  /// arbitrary order.
  std::vector<std::vector<std::pair<int, std::uint64_t>>> delivered;
};

/// Naive direct delivery. Rounds = max number of messages sharing one
/// directed (source, dest) edge, times ceil(width/b).
RoutingResult route_direct(CliqueUnicast& net, const RoutingDemand& demand);

/// Deterministic two-phase relay routing (Lenzen-style; see header comment).
/// Requires every payload to fit `payload_bits` bits. Rounds =
/// O((max_load/n + 1) * ceil((payload_bits + addressing) / b)).
RoutingResult route_two_phase(CliqueUnicast& net, const RoutingDemand& demand);

/// Randomized Valiant-style relay routing: each message picks a uniform
/// relay. With balanced demands the maximum relay congestion is
/// O(c + log n / log log n) w.h.p.
RoutingResult route_valiant(CliqueUnicast& net, const RoutingDemand& demand, Rng& rng);

}  // namespace cclique
