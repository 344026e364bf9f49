// General fixed-subgraph detection on CLIQUE-UCAST — the Õ(n^{(d-2)/d})
// algorithm of Dolev, Lenzen & Peled [8] for d-vertex patterns, which the
// paper quotes as the unicast-side state of the art (Section 1, Related
// work; Section 3 contrasts the broadcast bounds against it).
//
// Scheme: split V into t groups with C(t+d-1, d) <= n so that every
// multiset of d groups has a dedicated player; route every present edge to
// every player whose multiset contains both endpoint groups; each player
// runs an exact local search on its piece. Every copy of H has *some*
// group multiset, so exactly its assigned player sees all of its edges.
// Per-player load: C(d,2) * (n/t)^2 * O(log n) bits over n links —
// Õ(n^{(d-2)/d}/b) rounds.
#pragma once

#include <vector>

#include "comm/clique_unicast.h"
#include "graph/graph.h"

namespace cclique {

/// Result of the general detection protocol.
struct DlpSubgraphResult {
  bool detected = false;
  CommStats stats;
  int groups = 0;  ///< t
};

/// Detects a (not necessarily induced) copy of `h` in `g`; exact.
/// Requires 2 <= |V(h)|; one player per vertex of g.
DlpSubgraphResult dlp_subgraph_detect(CliqueUnicast& net, const Graph& g,
                                      const Graph& h);

/// The steps shared with the triangle detectors (core/dlp_triangle).
namespace dlp {

/// Every multiset of d groups over [t], as non-decreasing tuples in
/// lexicographic order — player p is assigned the p-th.
std::vector<std::vector<int>> group_multisets(int t, int d);

/// Vertex v sits in group v % t. Routes every edge of g (sent by its lower
/// endpoint, through the two-phase router) to each player p whose group
/// multiset multisets[p] contains the edge's group pair; players past
/// multisets.size() receive nothing. Returns each player's received edges.
std::vector<std::vector<Edge>> route_group_pair_edges(
    CliqueUnicast& net, const Graph& g, int t,
    const std::vector<std::vector<int>>& multisets);

/// One round: every player sends its one-bit local verdict to player 0,
/// which returns their OR.
bool gather_verdicts(CliqueUnicast& net, const std::vector<bool>& found);

}  // namespace dlp

}  // namespace cclique
