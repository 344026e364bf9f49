// Dense matrices over F_p for the Mersenne prime p = 2^61 - 1.
//
// The algebraic congested-clique protocols (Censor-Hillel et al., PODC'15;
// Le Gall, DISC'16) run matrix multiplication over a ring instead of
// compiling it to a circuit; counting workloads (triangles via diag(A^3),
// 4-cycles via trace(A^4)) then need exact small-integer arithmetic, which
// F_{2^61-1} provides for free as long as the true values stay below p.
// This module is the local numeric substrate of core/algebraic_mm: a
// row-major dense matrix of reduced field elements plus a per-entry
// schoolbook reference product. The local kernels the protocol calls live in
// linalg/kernels.h.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/oblivious_guard.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/field.h"
#include "util/rng.h"

namespace cclique {

/// Dense n x n matrix over F_{2^61-1}, row-major, entries kept in [0, p).
/// All accessors CC_REQUIRE their indices in range; a default-constructed
/// or Mat61(n) matrix is all-zero — the ring's additive identity, which is
/// what lets the distributed block protocol pad partial blocks freely.
class Mat61 {
 public:
  Mat61() = default;

  /// The n x n zero matrix. Preconditions: n >= 0 (CC_REQUIRE).
  explicit Mat61(int n);

  int n() const { return n_; }

  std::uint64_t get(int i, int j) const {
    check(i, j);
    // Entry values are payload: reading them while a length/round decision
    // is being made (an oblivious::SinkScope) is a model violation.
    oblivious::source_touch(CC_OBLIVIOUS_SITE("Mat61::get"));
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(j)];
  }

  /// Stores v reduced into [0, p).
  void set(int i, int j, std::uint64_t v) {
    check(i, j);
    data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
          static_cast<std::size_t>(j)] = Mersenne61::reduce(v);
  }

  bool operator==(const Mat61& o) const { return n_ == o.n_ && data_ == o.data_; }
  bool operator!=(const Mat61& o) const { return !(*this == o); }

  /// A + B entrywise (mod p).
  Mat61 operator+(const Mat61& o) const;

  static Mat61 identity(int n);

  /// Uniformly random entries in [0, p) (unbiased via Rng::uniform).
  static Mat61 random(int n, Rng& rng);

  /// 0/1 adjacency matrix of a graph (zero diagonal, symmetric).
  static Mat61 adjacency(const Graph& g);

  /// Contiguous row i (n elements).
  const std::uint64_t* row(int i) const {
    CC_REQUIRE(i >= 0 && i < n_, "row out of range");
    oblivious::source_touch(CC_OBLIVIOUS_SITE("Mat61::row"));
    return data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(n_);
  }

  /// Raw row-major storage (n*n words) — the view the linalg/kernels layer
  /// operates on. Writers must keep every entry reduced in [0, p).
  const std::uint64_t* data() const {
    oblivious::source_touch(CC_OBLIVIOUS_SITE("Mat61::data"));
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

/// Schoolbook product with one modular reduction per elementary product —
/// the reference the local kernels (linalg/kernels.h) are tested against.
/// O(n^3) reductions.
Mat61 m61_multiply_schoolbook(const Mat61& a, const Mat61& b);

}  // namespace cclique
