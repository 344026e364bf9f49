// Dense matrices over the tropical (min, +) semiring on saturating 61-bit
// distances.
//
// The algebraic congested-clique line of work (Censor-Hillel et al.,
// PODC'15; Le Gall, DISC'16) extends the block-decomposed distributed
// matrix product from rings to *semirings*: the same [m]^3 schedule that
// multiplies over F_{2^61-1} computes the distance product
// C_ij = min_k (A_ik + B_kj), and ⌈log2(n-1)⌉ repeated squarings of the
// weight matrix solve exact all-pairs shortest paths. This module is the
// local numeric substrate of core/apsp, deliberately mirroring linalg/mat61
// so the two semirings share one wire format and one relay schedule:
//
//  * elements are 61-bit values; the all-ones word kInf = 2^61 - 1 encodes
//    +infinity ("no path"), so every element serializes in exactly 61 bits —
//    the same word width as a reduced F_{2^61-1} element, which is why
//    apsp_plan and algebraic_mm_plan produce identical per-product schedules;
//  * addition saturates at kInf (a sum that would reach or exceed kInf is
//    +infinity), so arithmetic never wraps and "unreachable" is absorbing;
//  * the semiring zero is +infinity and the semiring one is 0 — a
//    default-constructed TropicalMat(n) is the all-kInf (semiring-zero)
//    matrix, which is what lets the distributed protocol pad partial blocks
//    without changing any entry of the product.
//
// Exactness contract: with edge weights < 2^32 and n < 2^29 no finite
// shortest-path distance can reach kInf, so saturation only ever fires on
// genuinely unreachable pairs.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/oblivious_guard.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/rng.h"

namespace cclique {

/// +infinity of the tropical semiring: the all-ones 61-bit word. Finite
/// distances live in [0, kTropicalInf).
inline constexpr std::uint64_t kTropicalInf = (1ULL << 61) - 1;

/// a + b in the tropical semiring's additive carrier: saturates at
/// kTropicalInf (inf + anything = inf; finite sums that reach the infinity
/// encoding are treated as overflow and saturate). Requires a, b <=
/// kTropicalInf; never wraps (2 * kTropicalInf < 2^64).
inline std::uint64_t tropical_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s >= kTropicalInf ? kTropicalInf : s;
}

/// Dense n x n matrix over the (min, +) semiring, row-major, entries in
/// [0, kTropicalInf]. A freshly constructed matrix is all +infinity — the
/// semiring-zero matrix (the identity of entrywise min).
class TropicalMat {
 public:
  TropicalMat() = default;

  /// The n x n semiring-zero matrix: every entry kTropicalInf.
  explicit TropicalMat(int n);

  int n() const { return n_; }

  /// Entry (i, j); kTropicalInf means "no path". Preconditions: indices in
  /// range (CC_REQUIRE).
  std::uint64_t get(int i, int j) const {
    check(i, j);
    // Distances are payload: reading them while a length/round decision is
    // being made (an oblivious::SinkScope) is a model violation.
    oblivious::source_touch(CC_OBLIVIOUS_SITE("TropicalMat::get"));
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(j)];
  }

  /// Stores v. Preconditions: indices in range, v <= kTropicalInf.
  void set(int i, int j, std::uint64_t v) {
    check(i, j);
    CC_REQUIRE(v <= kTropicalInf, "tropical entry exceeds the 61-bit carrier");
    data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
          static_cast<std::size_t>(j)] = v;
  }

  /// Entry (i, j) = min(entry, v): the ⊕-accumulation of one entry.
  void min_at(int i, int j, std::uint64_t v) {
    check(i, j);
    CC_REQUIRE(v <= kTropicalInf, "tropical entry exceeds the 61-bit carrier");
    std::uint64_t& e =
        data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
    if (v < e) e = v;
  }

  bool operator==(const TropicalMat& o) const { return n_ == o.n_ && data_ == o.data_; }
  bool operator!=(const TropicalMat& o) const { return !(*this == o); }

  /// The semiring identity: 0 on the diagonal, +infinity elsewhere
  /// (I ⊗ A = A ⊗ I = A under the distance product).
  static TropicalMat identity(int n);

  /// Uniformly random finite entries in [0, bound), each independently
  /// replaced by +infinity with probability inf_prob — the fixture shape the
  /// kernel tests sweep (inf-free, inf-heavy, and all-inf at inf_prob = 1).
  static TropicalMat random(int n, Rng& rng, std::uint64_t bound = kTropicalInf,
                            double inf_prob = 0.0);

  /// The one-step distance matrix of a weighted graph: 0 on the diagonal,
  /// weights[e] on the edge slots (both directions; indexed by g.edges()
  /// order, the same convention as core/mst), +infinity elsewhere.
  /// Preconditions: weights.size() == g.num_edges().
  static TropicalMat from_weighted_graph(const Graph& g,
                                         const std::vector<std::uint32_t>& weights);

  /// Contiguous row i (n elements).
  const std::uint64_t* row(int i) const {
    CC_REQUIRE(i >= 0 && i < n_, "row out of range");
    oblivious::source_touch(CC_OBLIVIOUS_SITE("TropicalMat::row"));
    return data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(n_);
  }

  /// Raw row-major storage (n*n words) — the view the linalg/kernels layer
  /// operates on. Writers must keep every entry <= kTropicalInf.
  const std::uint64_t* data() const {
    oblivious::source_touch(CC_OBLIVIOUS_SITE("TropicalMat::data"));
    return data_.data();
  }
  std::uint64_t* mutable_data() { return data_.data(); }

  /// Words of row-major storage backing this matrix (n*n) — the unit the
  /// serving layer's artifact cache (core/query_service) accounts its
  /// residency capacity in. Not a tainted read: the footprint is a function
  /// of the public dimension alone, never of entry values.
  std::size_t footprint_words() const { return data_.size(); }

 private:
  void check(int i, int j) const {
    CC_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  }
  int n_ = 0;
  std::vector<std::uint64_t> data_;
};

/// Schoolbook distance product C_ij = min_k (A_ik + B_kj) with one explicit
/// saturating add + min per elementary step — the reference the local
/// kernels (linalg/kernels.h) are tested against. O(n^3) time,
/// cache-oblivious per-entry order.
TropicalMat tropical_multiply_schoolbook(const TropicalMat& a, const TropicalMat& b);

}  // namespace cclique
