// Exact all-pairs shortest paths on the unicast clique via distributed
// min-plus (distance) products.
//
// The paper's central message — the congested clique can run powerful
// centralized algebraic algorithms in few rounds — extends beyond rings:
// Censor-Hillel et al., *Algebraic Methods in the Congested Clique*
// (PODC'15) §4, and Le Gall (DISC'16) show the same block-decomposed
// distributed matrix product computes *semiring* products, and min-plus
// products give APSP. This module runs exactly the PR 3 machinery
// (core/block_mm.h: [m]^3 decomposition + two-hop balanced relay) over the
// tropical semiring (linalg/tropical):
//
//  * one distance product C_ij = min_k (A_ik + B_kj) costs the identical
//    data-independent schedule as the F_{2^61-1} product — elements are
//    61-bit words (kTropicalInf = all-ones encodes +infinity), so
//    O(n^{1/3} · w / b) rounds, exactly 6·n^{1/3} at perfect cubes with
//    b = 64;
//  * exact APSP is ⌈log2(n-1)⌉ repeated squarings of the one-step weight
//    matrix W (0 diagonal): W^{⊗ 2^s} is the shortest-path distance using
//    ≤ 2^s edges, and simple shortest paths have ≤ n-1 edges. Squaring
//    preserves the data-independent plan because every squaring moves the
//    *same* globally-known length matrix — payload sizes depend on (n, w)
//    only, never on weights — so apsp_plan is just `squarings` copies of
//    the product schedule plus one eccentricity exchange;
//  * derived queries: per-vertex eccentricities (a 61-bit all_gather, like
//    the counting protocols' partial-sum share),
//    and from them diameter and radius, all exact and +infinity-aware
//    (disconnected inputs yield infinite eccentricities).
//
// The dense run CC_CHECKs measured rounds and bits against apsp_plan on
// every run, the same contract as algebraic_mm_plan / mst_phase_plan; the
// adaptive backends check against their declared per-squaring plans.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "graph/graph.h"
#include "linalg/tropical.h"

namespace cclique {

/// The data-independent cost schedule of one APSP run: `squarings` distance
/// products (each with the shared block-MM schedule) plus the final
/// eccentricity exchange. A function of (n, bandwidth) alone — never of
/// edge weights — so every run can be checked against it.
struct ApspPlan {
  int n = 0;
  int squarings = 0;      ///< ⌈log2(n-1)⌉ for n >= 2, else 0
  AlgebraicMmPlan product;  ///< per-squaring schedule (word_bits = 61)
  int ecc_rounds = 0;     ///< final 61-bit eccentricity all_gather
  std::uint64_t ecc_bits = 0;  ///< all_gather_cost(n, 61, b).bits = n(n-1) · 61
  int total_rounds = 0;   ///< squarings * product.total_rounds + ecc_rounds
  std::uint64_t total_bits = 0;
  /// Asymptotic reference the measured series is printed against:
  /// 6 · n^{1/3} · w / b · ⌈log2 n⌉ (one product per squaring).
  double series_rounds = 0;
};

/// Computes the exact round/bit schedule of apsp_run for n players at
/// per-edge bandwidth `bandwidth` bits. Preconditions: n >= 1,
/// bandwidth >= 1.
ApspPlan apsp_plan(int n, int bandwidth);

/// Distributed distance product C = A ⊗ B over (min, +): player v holds
/// row v of A and B and ends holding row v of C; `*c` assembles all rows.
/// Runs the identical [m]^3 relay schedule as algebraic_mm_m61 (61-bit
/// words) and returns the plan it was CC_CHECKed against. The local block
/// kernel is the CC_KERNEL / CC_THREADS dispatch (linalg/kernels.h), which
/// never changes values or CommStats. Throws ModelViolation/InvariantError
/// if the run leaves the planned schedule.
AlgebraicMmPlan min_plus_mm(CliqueUnicast& net, const TropicalMat& a,
                            const TropicalMat& b, TropicalMat* c);

/// Retained intermediate state of one APSP run — the squaring chain the
/// serving layer (core/query_service) caches so hop-bounded queries are
/// answered from local reads long after the protocol finished. powers[0] is
/// the one-step matrix W and powers[s] the matrix after s squarings: the
/// exact shortest-path distance restricted to walks of <= 2^s edges (so
/// powers.back() equals the result's dist). Retention is pure local
/// copying — requesting artifacts never changes the metered schedule.
struct ApspArtifacts {
  std::vector<TropicalMat> powers;  ///< squarings + 1 matrices
};

/// Outcome of the APSP protocol.
struct ApspResult {
  /// The oblivious dense schedule. A kDense run follows it exactly; the
  /// adaptive backends follow their per-step plans instead.
  ApspPlan plan;
  /// Exact shortest-path distances: dist.get(u, v) = d_w(u, v),
  /// kTropicalInf iff v is unreachable from u. Row v is what player v holds.
  TropicalMat dist;
  /// One entry per squaring D_{s+1} = D_s ⊗ D_s; declared_nnz counts the
  /// finite entries of D_s.
  std::vector<ProductStep> steps;
  /// ecc[v] = max_u d(v, u); kTropicalInf iff the graph is disconnected.
  std::vector<std::uint64_t> eccentricity;
  std::uint64_t diameter = 0;  ///< max eccentricity (kTropicalInf if disconnected)
  std::uint64_t radius = 0;    ///< min eccentricity
  int total_rounds = 0;   ///< measured; steps' planned rounds + plan.ecc_rounds
  std::uint64_t total_bits = 0;  ///< measured; steps' planned bits + plan.ecc_bits
};

/// Runs exact APSP over the clique: player v initially holds row v of the
/// one-step weight matrix (the weights of edges incident to vertex v;
/// weights[e] indexed by g.edges() order, the core/mst convention) and ends
/// holding row v of the distance matrix plus the clique-wide eccentricity
/// spectrum. Weights are non-negative 32-bit values, so no finite distance
/// can saturate (see linalg/tropical.h).
///
/// `backend` picks the schedule of every squaring, as for the counting
/// protocols: kDense runs the oblivious product and declares nothing, so
/// the run follows apsp_plan(n, net.bandwidth()) exactly. kSparse and
/// kAuto declare and price the current matrix's nnz profile once per
/// squaring (core/sparse_mm.h); kSparse always takes the sparse schedule, kAuto
/// whichever the crossover rule prices cheaper — distance matrices
/// *densify* under squaring, so a sparse input typically starts sparse and
/// crosses to dense. Every backend ends with the same eccentricity
/// exchange, and the whole run's measured rounds/bits are CC_CHECKed
/// against the sum of the step plans plus that exchange.
///
/// When `artifacts` is non-null the full squaring chain is retained in it
/// (local copies only — the schedule and every CommStats counter are
/// identical with or without retention).
ApspResult apsp_run(CliqueUnicast& net, const Graph& g,
                    const std::vector<std::uint32_t>& weights,
                    CountBackend backend = CountBackend::kDense,
                    ApspArtifacts* artifacts = nullptr);

/// Reference single-machine APSP: one Dijkstra per source over an
/// adjacency-indexed weight table (non-negative weights; zero-weight edges
/// allowed). Returns the full distance matrix, kTropicalInf for unreachable
/// pairs — the ground truth apsp_run is tested against.
TropicalMat apsp_dijkstra_reference(const Graph& g,
                                    const std::vector<std::uint32_t>& weights);

}  // namespace cclique
