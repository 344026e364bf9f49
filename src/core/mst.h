// Minimum spanning tree on the congested clique (extension module).
//
// MST is the problem that started the congested-clique literature the
// paper builds on: Lotker, Pavlov, Patt-Shamir and Peleg [30] gave an
// O(log log n)-round algorithm. This module implements two schedules over
// the same fragment phase-engine on CLIQUE-UCAST:
//
//  * MstAlgorithm::kBoruvka — the classical baseline: O(log n) phases of
//    exactly 3 rounds each (fragment announcement; lightest outgoing edge
//    per node to its fragment leader; leaders announce merge edges and all
//    nodes merge locally and consistently).
//
//  * MstAlgorithm::kLotker — the [30]-style schedule: in a phase with F
//    live fragments every fragment computes its minimum outgoing edge to
//    *each* other fragment (not just one). The per-target minima are
//    aggregated inside the fragment (members -> rank-sliced aggregators ->
//    leader, both stages as positional record streams through the two-hop
//    relay of route_two_phase; the demand is balanced: <= F-1 records per
//    fragment and <= F + n per receiver),
//    each leader submits its k = max(1, n/F) lightest minima (announced
//    counts make the submission layout common knowledge, so a perfectly
//    balanced scatter + all_gather delivers all <= n submitted records
//    to every player in O(1) rounds), and every player runs the same
//    deterministic capped merge of the resulting fragment graph: clusters
//    of at most k fragments repeatedly merge along their true minimum
//    outgoing edge (recoverable from the k-lightest submissions — the cut
//    property makes every merge edge an MST edge). Every surviving live
//    cluster therefore holds more than k fragments, so minimum fragment
//    size grows from s to at least s*(s+1) per phase — doubly
//    exponentially — and the phase count is O(log log n) versus Borůvka's
//    O(log n). See DESIGN.md §2.3.
//
// Per-phase accounting contract: before each phase both schedules compute
// a round/bit cap from (n, F, b) alone (mst_phase_plan) — never from edge
// data — and CC_CHECK the measured per-phase cost against it, the same way
// core/algebraic_mm checks its plan. Borůvka's round cost is exact (== 3);
// the Lotker stages route data-dependent demands through data-independent
// balance bounds, so its caps are checked as upper bounds: a relay hop
// edge carries at most ceil(m*w/n) + min(m, n-1) bits when every player
// sends and receives at most m w-bit records.
//
// Edge weights must be distinct (ties are broken by endpoint ids
// internally, so any weights work; the returned MST is unique under the
// tie-broken order).
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "graph/graph.h"

namespace cclique {

/// A weighted edge of the input graph.
struct WeightedEdge {
  int u = 0;
  int v = 0;
  std::uint32_t weight = 0;
};

/// Which fragment-merge schedule clique_mst runs.
enum class MstAlgorithm {
  kBoruvka,  ///< one merge edge per fragment; O(log n) phases of 3 rounds
  kLotker,   ///< capped pairwise minima per fragment; O(log log n) phases
};

/// Data-independent cost cap for one phase, computed from (n, F, b) alone
/// before the phase runs. The protocol CC_CHECKs the measured phase cost
/// against it on every run (Borůvka rounds are checked for equality).
struct MstPhasePlan {
  int fragments = 0;   ///< live fragment count F the cap was computed for
  int submit_cap = 0;  ///< k: per-fragment submitted-minima cap (1 for Borůvka)
  int max_rounds = 0;  ///< round cap (exact for Borůvka: 3 on n >= 2)
  std::uint64_t max_bits = 0;  ///< bit cap across the phase's rounds
};

/// Computes the phase cap for `algorithm` at n players, `live_fragments`
/// incomplete fragments and per-edge bandwidth `bandwidth`.
MstPhasePlan mst_phase_plan(MstAlgorithm algorithm, int n, int live_fragments,
                            int bandwidth);

/// Worst-case kLotker phase count: iterations of s -> s*(s+1) (the
/// doubly-exponential fragment-size growth guarantee) until a single live
/// fragment must remain. O(log log n); the tests and the E15 bench assert
/// measured phases against it.
int mst_lotker_phase_bound(int n);

/// Measured cost of one executed phase, paired with the cap it was
/// CC_CHECKed against.
struct MstPhaseCost {
  int fragments = 0;  ///< live fragments at phase start
  int rounds = 0;     ///< measured engine rounds spent in this phase
  std::uint64_t bits = 0;  ///< measured bits moved in this phase
  MstPhasePlan plan;
};

/// Result of the distributed MST computation.
struct MstResult {
  std::vector<WeightedEdge> tree;  ///< MST/forest edges, known to all nodes
  std::uint64_t total_weight = 0;
  MstAlgorithm algorithm = MstAlgorithm::kBoruvka;
  /// Phases executed. Borůvka: <= ceil(log2 n); Lotker: <=
  /// mst_lotker_phase_bound(n). A phase in which nothing can merge is never
  /// executed: completed fragments are detected from the phase traffic
  /// itself (a live fragment that announces/submits no candidate has no
  /// outgoing edge), so a connected graph never burns a merge-free phase.
  int phases = 0;
  std::vector<MstPhaseCost> phase_costs;  ///< one entry per executed phase
  CommStats stats;
};

/// Runs the selected MST schedule over the clique. Node i initially knows
/// the weights of the edges of `g` incident to vertex i (weights[e] indexed
/// by g.edges() order). Returns the minimum spanning forest (both schedules
/// return the identical tie-broken MSF). Requires bandwidth >=
/// 2*bits_for(n) + 32 (one edge record per message).
MstResult clique_mst(CliqueUnicast& net, const Graph& g,
                     const std::vector<std::uint32_t>& weights,
                     MstAlgorithm algorithm);

/// Back-compatible entry point: the Borůvka baseline.
MstResult clique_mst(CliqueUnicast& net, const Graph& g,
                     const std::vector<std::uint32_t>& weights);

/// Reference single-machine Kruskal for verification (same tie-breaking).
std::vector<WeightedEdge> kruskal_reference(const Graph& g,
                                            const std::vector<std::uint32_t>& weights);

}  // namespace cclique
