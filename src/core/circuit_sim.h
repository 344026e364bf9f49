// Theorem 2: simulating bounded-depth circuits of b-separable gates on the
// unicast congested clique in O(depth) rounds.
//
// Given a circuit C with N = n^2 * s wires and an input partition assigning
// at most n(b+s) input wires per player, the compiler:
//
//  1. computes the paper's gate-to-player assignment I: gates of weight
//     w(G) = |in(G)| + |out(G)| >= 2ns are "heavy" and get a dedicated
//     player each (at most n of them); light gates are packed greedily so
//     no player carries more than 4ns light weight;
//  2. routes the input bits from their original owners to their assigned
//     players (Lenzen-style routing — balanced by the input-partition
//     precondition);
//  3. evaluates the circuit layer by layer; each layer costs O(1) routing
//     phases:
//       (a) heavy gates: every player owning some of the gate's in-wires
//           sends the Definition 1 partial aggregate g_j (separability_bits
//           wide) straight to the gate's owner, who applies h;
//       (b) heavy gate outputs feeding light gates are forwarded to the
//           consumer's owner, deduplicated per (gate, receiver) pair over
//           the whole execution (the paper's "unless it has already done
//           so");
//       (c) light-to-light wires form a balanced demand (<= 4ns in/out per
//           player) routed with the two-phase router;
//  4. routes the output gate values to player 0 (Remark 3: operators just
//     spread outputs across players before this step).
//
// Every bit of communication flows through the metered CliqueUnicast
// engine, so the O(D)-round / O(b+s)-bandwidth claim is measured, not
// assumed. The routed phases ride the router's positional record streams
// (route_two_phase: one stream per player pair through the two-hop
// relay), whose schedule depends only on the per-pair record counts; here
// those are fixed by the public circuit and owner map, so every phase's
// schedule is common knowledge. (Bookkeeping overhead relative to the
// paper: wire records still carry explicit gate ids — an O(log #gates)
// factor folded into the bandwidth, since the streams do not yet order
// records by the public wiring as Lenzen's positional scheme would; see
// DESIGN.md §4a.)
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.h"
#include "comm/clique_unicast.h"
#include "util/rng.h"

namespace cclique {

/// Which routing primitive the simulation uses for its balanced-demand
/// phases (input rebalancing, light wires, outputs). kTwoPhase is the
/// Lenzen-style substrate Theorem 2 assumes; the others are ablations
/// (see bench_e16): kDirect exposes hot-pair collapse, kValiant the
/// randomized-relay overhead.
enum class SimRouter { kTwoPhase, kDirect, kValiant };

/// Static analysis of a circuit against Theorem 2's parameters.
struct CircuitSimPlan {
  int n_players = 0;
  /// s = ceil(#wires / n^2), the wire-density parameter of the theorem.
  int s = 0;
  /// Max separability bits over all gates (the "b" of b-separable).
  int gate_b = 0;
  /// Heavy-gate threshold 2*n*s and resulting counts.
  std::size_t heavy_threshold = 0;
  int heavy_gates = 0;
  /// Max total light weight assigned to one player (<= 4*n*s guaranteed).
  std::size_t max_light_weight = 0;
  /// Gate -> player assignment I.
  std::vector<int> owner;
  /// Bandwidth sufficient to run every phase in one engine round per phase:
  /// max(gate_b, light-record width, input-record width).
  int recommended_bandwidth = 0;
};

/// Result of executing the simulation.
struct CircuitSimResult {
  std::vector<bool> outputs;  ///< marked outputs, known to player 0
  CommStats stats;            ///< exact engine accounting
  int layers = 0;             ///< circuit depth + 1 (number of stages)
};

/// How light gates are packed onto players. The paper's proof uses plain
/// first-fit ("assign each gate to some player that does not already own
/// more than 2ns - w(G)"), which can place consecutive chain gates on one
/// player and concentrate light-wire traffic onto single player pairs —
/// that is exactly the hot-pair demand the Lenzen routing substrate
/// absorbs. kRotating additionally advances a cursor after each placement,
/// spreading consecutive gates so hot pairs rarely form in the first place
/// (bench_e16 quantifies the difference).
enum class AssignPolicy { kRotating, kFirstFit };

/// The Theorem 2 compiler+executor.
class CircuitSimulation {
 public:
  /// Plans the simulation of `circuit` on `n_players` players. The circuit
  /// is treated as common knowledge (as in the paper).
  explicit CircuitSimulation(const Circuit& circuit, int n_players,
                             AssignPolicy policy = AssignPolicy::kRotating);

  const CircuitSimPlan& plan() const { return plan_; }

  /// Executes on the given engine. `input_owner[i]` is the player initially
  /// holding circuit input i, and `inputs[i]` its value. Any engine
  /// bandwidth >= 1 works (phases chunk); plan().recommended_bandwidth gives
  /// the O(b+s) figure of the theorem. `router` selects the balanced-demand
  /// primitive (ablation hook); kValiant draws relays from `valiant_rng`
  /// (required for that choice only).
  CircuitSimResult run(CliqueUnicast& net, const std::vector<bool>& inputs,
                       const std::vector<int>& input_owner,
                       SimRouter router = SimRouter::kTwoPhase,
                       Rng* valiant_rng = nullptr) const;

  /// Convenience: inputs dealt round-robin (input i owned by player i mod n),
  /// the "equally partitioned" premise of the paper.
  CircuitSimResult run_round_robin(CliqueUnicast& net,
                                   const std::vector<bool>& inputs) const;

 private:
  const Circuit* circuit_;
  CircuitSimPlan plan_;
};

}  // namespace cclique
