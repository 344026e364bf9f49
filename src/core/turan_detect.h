// Theorem 7: H-subgraph detection on the broadcast clique in
// O(ex(n,H)/n * log(n)/b) rounds.
//
// The protocol: every node knows H and n, hence the Claim 6 degeneracy cap
// k = 4*ex(n,H)/n (via the Turán upper bounds of graph/turan.h). Each node
// broadcasts its Becker-et-al. sketch with parameter k, chunked into b-bit
// blackboard messages — O(k log n / b) rounds. Every node then runs the
// referee reconstruction:
//   * success  -> the full topology is known; search for H exactly;
//   * failure  -> degeneracy(G) > k >= 4 ex(n,H)/n, so by (the
//                 contrapositive of) Claim 6, G *must* contain H.
// Either way the verdict is exact and common to all nodes.
#pragma once

#include <optional>

#include "comm/clique_broadcast.h"
#include "graph/graph.h"
#include "sketch/sketch.h"

namespace cclique {

/// Result of the Turán-bound detection protocol.
struct TuranDetectResult {
  bool contains_h = false;
  /// The embedding (H-vertex -> G-vertex) when reconstruction succeeded and
  /// H was found; empty when the verdict came from the degeneracy cap.
  std::optional<std::vector<int>> embedding;
  /// Sketch parameter used (the Claim 6 cap).
  int degeneracy_cap = 0;
  /// True iff the one-round reconstruction succeeded (degeneracy <= cap).
  bool reconstructed = false;
  CommStats stats;
};

/// One invocation of [2]'s algorithm A(g, k): every node broadcasts its
/// sketch with parameter k, chunked at b bits, and every node then runs the
/// referee reconstruction on the blackboard. Theorem 7 runs it once;
/// Theorem 9 (core/adaptive_detect) runs it per level and guess.
ReconstructionResult run_algorithm_a(CliqueBroadcast& net, const Graph& g, int k);

/// Runs Theorem 7's protocol for pattern `h` on input graph `g` (node i of
/// the broadcast clique holds the edges incident to vertex i).
TuranDetectResult turan_subgraph_detect(CliqueBroadcast& net, const Graph& g,
                                        const Graph& h);

/// The trivial chi(H) >= 3 fallback the paper mentions: every node
/// broadcasts its full neighborhood (n bits, chunked); all nodes learn G and
/// search exactly. O(n/b) rounds; used as a baseline and by the NOF
/// reduction.
TuranDetectResult full_broadcast_detect(CliqueBroadcast& net, const Graph& g,
                                        const Graph& h);

}  // namespace cclique
