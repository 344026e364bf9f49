// Section 2.1: triangle detection on the unicast clique through matrix-
// multiplication circuits.
//
// Pipeline (exactly the paper's): triangles are nonzero diagonal entries of
// A^3 over the Boolean semiring; Shamir's randomized reduction turns that
// into O(log n) products over F2; subcubic F2 product circuits (here:
// Strassen, O(n^{log2 7}) wires) plug into the Theorem 2 simulation, giving
// a CLIQUE-UCAST protocol whose round count scales like the circuit's
// wire count divided by n^2 — i.e. n^{omega-2} up to log factors. Under the
// conjectured omega = 2 + eps this is the paper's O(n^eps) round bound; with
// Strassen it is ~n^{0.81}, and the bench fits the measured exponent.
//
// The mask bits baked into the circuit play the role of shared randomness
// (all players know the circuit, as in the paper's model).
#pragma once

#include "comm/clique_unicast.h"
#include "core/circuit_sim.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace cclique {

/// How the matrix product behind triangle detection is carried out.
enum class TriangleBackend {
  kCircuitStrassen,  ///< Theorem 2 compiler over the Strassen circuit (randomized, one-sided)
  kCircuitNaive,     ///< same compiler over the Θ(n³)-wire circuit (ablation)
  kAlgebraic,        ///< distributed algebraic protocol (core/algebraic_mm): deterministic, exact count
};

/// Outcome of the MM-based triangle-detection protocol.
struct MmTriangleResult {
  bool detected = false;   ///< protocol verdict (circuit backends are one-sided: never false-positive)
  CommStats stats;         ///< engine accounting
  std::size_t circuit_wires = 0;     ///< circuit backends only
  int circuit_depth = 0;             ///< circuit backends only
  int recommended_bandwidth = 0;
  std::uint64_t triangle_count = 0;  ///< algebraic backend only (exact)
  bool exact = false;                ///< true iff the backend counts exactly (algebraic)
};

/// Runs triangle detection on `g` (player i holds row i of the adjacency
/// matrix) over the given engine. `reps` repetitions of the Shamir masking
/// give miss probability <= (3/4)^reps for graphs with a triangle.
/// use_strassen=false swaps in the naive Theta(n^3)-wire circuit (ablation).
/// Both circuit backends build triangle_witness_circuit, so they need
/// n >= 3 (CC_REQUIRE).
MmTriangleResult mm_triangle_detect(CliqueUnicast& net, const Graph& g, int reps,
                                    Rng& rng, bool use_strassen = true);

/// Backend-selecting variant. The algebraic backend ignores `reps` and
/// `rng` (it is deterministic), answers with the exact triangle count, and
/// runs in O(n^{1/3} · w / b) rounds instead of the compiler's
/// wires/n²-driven schedule — the protocol-vs-circuit tradeoff bench_e17
/// measures.
MmTriangleResult mm_triangle_run(CliqueUnicast& net, const Graph& g, int reps,
                                 Rng& rng, TriangleBackend backend);

}  // namespace cclique
