// Balanced routing on the unicast congested clique (Lenzen [28] substrate).
//
// The routing task: each player i holds a multiset of (destination, payload)
// messages; a *demand* is c-balanced when every player sends at most c*n
// messages and every player is the destination of at most c*n messages.
// Lenzen's PODC'13 result delivers any O(n)-balanced demand in O(1) rounds
// deterministically. The paper uses it as a black box in Theorem 2 (light
// wires, input rebalancing, operator outputs).
//
// We implement three routers over the same interface. Each ships one
// positional record stream per (source, destination) pair: that pair's
// payloads in demand order, each max(payload_bits, 1) bits wide. The
// stream names both ends, so records carry no address field, and
// self-messages are delivered locally.
//  * route_direct ships the streams straight to their destinations
//    through unicast_payloads; rounds = the longest stream's chunk count
//    (the naive baseline a congested edge punishes);
//  * route_two_phase ships the same streams through
//    unicast_payloads_relayed, the positional two-hop relay every block
//    product rides, substituting for Lenzen's sorting-based schedule
//    (DESIGN.md §4a). A call costs exactly relay_cost of its record-length
//    matrix len[i][j] = count(i -> j) * max(payload_bits, 1). With at most
//    m w-bit records out of and into every player, a hop edge carries at
//    most ceil(m*w/n) + min(m, n-1) bits, so a c-balanced demand (m = c*n)
//    routes in at most 2*ceil((c*w + n - 1)/b) rounds; bench_e11 measures
//    rounds that track c. The schedule depends on the n x n record-count
//    matrix, which the relay's contract asks to be common knowledge. The
//    circuit simulator's counts are (fixed by the public circuit and owner
//    map), and so are those of sorting's final placement (fixed by its
//    bucket-count all-gather). Sorting's bucket routing, MST Lotker's
//    member -> aggregator -> leader stages and DLP's edge routing derive
//    their counts from private input and do not announce them, so their
//    schedules use knowledge no single player has.
//  * route_valiant picks a uniform relay per message (ablation baseline;
//    O(c) rounds w.h.p. with slightly worse constants): two direct hops, with
//    records (destination | payload) and then (source | payload).
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

/// All three routers check every endpoint against [0, n) and every payload
/// against `payload_bits` before any bit moves (PreconditionError).

/// Naive direct delivery. Rounds = ceil(max records sharing one directed
/// (source, dest) edge * max(payload_bits, 1) / b).
RoutingResult route_direct(CliqueUnicast& net, const RoutingDemand& demand);

/// Deterministic two-phase relay routing (Lenzen-style; see header comment).
/// Costs exactly relay_cost(len, b) with len[i][j] = count(i -> j) *
/// max(payload_bits, 1) for i != j.
RoutingResult route_two_phase(CliqueUnicast& net, const RoutingDemand& demand);

/// Randomized Valiant-style relay routing: each message picks a uniform
/// relay. With balanced demands the maximum relay congestion is
/// O(c + log n / log log n) w.h.p. Precondition (CC_REQUIRE): payload_bits
/// + bits_for(n) <= 64, so an addressed record fits one word.
RoutingResult route_valiant(CliqueUnicast& net, const RoutingDemand& demand, Rng& rng);

}  // namespace cclique
