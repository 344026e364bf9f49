// Distributed algebraic matrix multiplication on the unicast clique.
//
// The paper's Section 2 upper bounds ride on matrix multiplication through
// the Theorem 2 circuit compiler; Censor-Hillel et al., *Algebraic Methods
// in the Congested Clique* (PODC'15), and Le Gall (DISC'16) run the same
// machinery as a *protocol*. This module implements the semiring
// decomposition of their §2: with m = ⌊n^{1/3}⌋ and the index set [n] cut
// into m intervals of ⌈n/m⌉ rows, the product C = A·B splits into m³ block
// products C_ij += A_ik · B_kj, one per player. Player p responsible for
// triple (i,j,k) receives blocks A_ik and B_kj from the natural row owners
// (player v holds row v of A and B), multiplies locally, and ships its
// partial rows back to the output owners, who sum them.
//
// Both transfer phases move Θ(n^{4/3} · w) bits per player (w = element
// width), but the demand is skewed — each source addresses only the m²
// players sharing its row block. The two-hop balanced relay
// (unicast_payloads_relayed) turns that into a per-edge load of
// Θ(n^{1/3} · w) bits per hop, i.e. O(n^{1/3} · w / b) rounds at per-edge
// bandwidth b — the O(n^{1/3}) round bound for constant-size words. The
// round schedule is data-independent, so algebraic_mm_plan() predicts it
// exactly; the protocol CC_CHECKs its measured rounds and bits against the
// plan on every run.
//
// The decomposition itself is algebra-agnostic and lives in the shared
// driver core/block_mm.h; this module instantiates it for the two rings
// (GF(2), F_{2^61-1}), and core/apsp instantiates the same driver — and
// the same plan below — for the tropical (min, +) semiring. Every product
// returns the plan it was checked against.
//
// On top of the product: exact triangle and 4-cycle counting over
// F_{2^61-1} (linalg/mat61). One distributed product A² suffices for both —
// trace(A³) = Σ_v ⟨row_v(A²), row_v(A)⟩ = 6·(#triangles) and
// trace(A⁴) = Σ_v ‖row_v(A²)‖² = 8·(#C₄) + 2·Σdeg² − 2|E| — followed by an
// all_gather of 61-bit partial sums. Field arithmetic is exact integer
// arithmetic as long as the traces stay below p = 2^61 − 1.
#pragma once

#include <cstdint>
#include <memory>

#include "comm/clique_unicast.h"
#include "graph/graph.h"
#include "linalg/f2matrix.h"
#include "linalg/mat61.h"

namespace cclique {

/// The data-independent cost schedule of one distributed product — a pure
/// function of (n, word_bits, bandwidth), shared by every semiring the
/// block driver runs (the min-plus product of core/apsp reuses this struct
/// verbatim at word_bits = 61). It keeps the two relay schedules it priced,
/// which every run of the plan charges without walking them again; they
/// are shared, so copying a plan (into an ApspPlan, a CountingArtifactPlan
/// or a ServingPlan) copies no tables.
struct AlgebraicMmPlan {
  int n = 0;
  int grid = 0;        ///< m: block grid dimension; one triple of [m]^3 per player
  int block = 0;       ///< ⌈n/m⌉ rows per interval
  int word_bits = 0;   ///< serialized bits per element (1 for F2, 61 for F_{2^61-1})
  int bandwidth = 0;   ///< per-edge per-round budget the schedule was planned for
  int distribute_rounds = 0;  ///< input-block delivery (two relay hops)
  int aggregate_rounds = 0;   ///< partial-sum delivery (two relay hops)
  int total_rounds = 0;
  std::uint64_t total_bits = 0;           ///< exact network bits, both phases
  std::uint64_t max_player_send_bits = 0; ///< heaviest per-player payload load (pre-relay)
  /// Asymptotic reference the measured series is printed against:
  /// 6 · n^{1/3} · w / b (three per-player loads of ~2n^{4/3}w bits, each
  /// spread over n links and two hops).
  double series_rounds = 0;
  std::shared_ptr<const RelaySchedule> distribute;  ///< the slices' relay (relay_cost)
  std::shared_ptr<const RelaySchedule> aggregate;   ///< the partial rows' relay
};

/// Computes the exact round/bit schedule for an n x n product with
/// word_bits-bit elements at the given per-edge bandwidth.
AlgebraicMmPlan algebraic_mm_plan(int n, int word_bits, int bandwidth);

/// Distributed C = A·B over GF(2) (word-packed F2Matrix; 1 bit/element).
/// Player v holds row v of A and B and ends holding row v of C; `*c`
/// assembles all rows. Returns the plan the run was CC_CHECKed against
/// (the measured CommStats delta equals its rounds and bits); throws
/// ModelViolation/InvariantError if the run leaves it.
AlgebraicMmPlan algebraic_mm_f2(CliqueUnicast& net, const F2Matrix& a,
                                const F2Matrix& b, F2Matrix* c);

/// Distributed C = A·B over F_{2^61-1} (61 bits/element).
AlgebraicMmPlan algebraic_mm_m61(CliqueUnicast& net, const Mat61& a,
                                 const Mat61& b, Mat61* c);

/// Which distributed-product backend a protocol runs its squarings through
/// (the counting protocols' A·A product, apsp_run's distance squarings).
enum class CountBackend {
  kDense,   ///< the oblivious dense schedule, unconditionally (the PR 3
            ///< behavior — and the one every committed baseline measures)
  kSparse,  ///< the nnz-declared sparse schedule, unconditionally
  kAuto,    ///< announce the nnz profile, then take whichever branch the
            ///< crossover rule (sparse_backend_preferred) prices cheaper
};

/// One routed product (run_routed_square, core/sparse_mm.h) — an APSP
/// squaring or a counting protocol's A·A: which schedule carried it and
/// what that schedule was planned to cost.
struct ProductStep {
  bool used_sparse = false;  ///< the sparse schedule carried this product
  /// Explicit entries of the operand as declared to the sparse planner (the
  /// profile's a_nnz); 0 on kDense, which declares nothing.
  std::uint64_t declared_nnz = 0;
  int planned_rounds = 0;          ///< chosen branch's plan, announcement included
  std::uint64_t planned_bits = 0;  ///< chosen branch's plan, announcement included
};

/// Outcome of an exact counting protocol (triangles or 4-cycles): the A·A
/// product's step record — branch, declared nnz, the product's planned
/// rounds/bits — plus the closing partial-sum exchange. The run's CommStats
/// delta is CC_CHECKed to equal the product's plan plus the exchange.
struct AlgebraicCountResult : ProductStep {
  std::uint64_t count = 0;
  int share_rounds = 0;   ///< final 61-bit partial-sum exchange
  int total_rounds = 0;   ///< planned_rounds + share_rounds
};

/// Exact number of triangles of g via diag(A³) over F_{2^61-1}:
/// one distributed A² product, then every player v computes
/// (A³)_vv = ⟨row_v(A²), row_v(A)⟩ locally and the partials are exchanged.
/// Requires n <= 2^15 so trace values stay below p (exactness).
AlgebraicCountResult triangle_count_algebraic(CliqueUnicast& net, const Graph& g);

/// Exact number of 4-cycles of g via trace(A⁴) = Σ_v ‖row_v(A²)‖² and the
/// degree statistics: #C₄ = (trace(A⁴) − 2·Σ_v deg(v)² + 2|E|) / 8.
/// Requires n <= 2^15 (trace(A⁴) <= n^4 < p). The count is
/// backend-independent; kDense (the default) reproduces the committed
/// baseline schedule bit-for-bit, kAuto routes the product through the
/// sparse schedule when the graph's density is below the crossover
/// (core/sparse_mm.h), declaring and pricing the profile once.
AlgebraicCountResult four_cycle_count_algebraic(
    CliqueUnicast& net, const Graph& g,
    CountBackend backend = CountBackend::kDense);

/// The data-independent cost schedule of one counting-artifact run
/// (counting_artifacts_run below): one dense A·A product plus a single
/// combined partial-sum exchange carrying all four counting fields
/// (trace(A³) diagonal share, trace(A⁴) walk share, deg², deg) in one
/// 4·61-bit all_gather. A function of (n, bandwidth) alone.
struct CountingArtifactPlan {
  int n = 0;
  AlgebraicMmPlan product;  ///< the A·A schedule (word_bits = 61)
  int share_rounds = 0;     ///< ceil(4·61 / b); 0 on a 1-clique
  int total_rounds = 0;
  std::uint64_t total_bits = 0;
};

/// Computes the exact round/bit schedule of counting_artifacts_run for n
/// players at per-edge bandwidth `bandwidth`. Preconditions: n >= 1,
/// bandwidth >= 1.
CountingArtifactPlan counting_artifacts_plan(int n, int bandwidth);

/// The counting artifact the serving layer (core/query_service) caches:
/// A² over F_{2^61-1} plus both exact counts from one protocol run —
/// triangle and 4-cycle queries then cost zero additional rounds. Compared
/// with running triangle_count_algebraic and four_cycle_count_algebraic
/// separately this saves a full A·A product and folds the two partial-sum
/// exchanges into one.
struct CountingArtifact {
  CountingArtifactPlan plan;       ///< what the run was CC_CHECKed against
  Mat61 a2;                        ///< the distributed A·A product
  std::uint64_t triangles = 0;     ///< trace(A³) / 6
  std::uint64_t four_cycles = 0;   ///< (trace(A⁴) − 2Σdeg² + 2|E|) / 8
};

/// Runs one A·A product and the combined 4-field share, returning the
/// artifact above. Counts are identical to the standalone protocols'.
/// Requires n <= 2^15 (trace(A⁴) <= n^4 < p, exactness). The run's
/// CommStats delta is CC_CHECKed against counting_artifacts_plan.
CountingArtifact counting_artifacts_run(CliqueUnicast& net, const Graph& g);

}  // namespace cclique
