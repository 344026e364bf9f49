// GF(2) matrix-multiplication circuits (Section 2.1).
//
// The paper's conditional O(n^ε) triangle-detection result plugs arithmetic
// circuits for matrix multiplication into the Theorem 2 simulation. We build
// the two unconditional circuit families:
//   * naive       — Θ(n^3) wires, depth O(log n) (XOR trees over ANDs);
//   * Strassen    — O(n^{log2 7}) ≈ O(n^{2.81}) wires, depth O(log n),
//                   block-recursive (all signs vanish in characteristic 2).
// plus the Shamir-style randomized triangle-witness circuit: with random
// diagonal masks r, r' baked in as constants,
//   diag((A·diag(r)) · (A·diag(r')) · A)_i = Σ_{j,k} r_j r'_k a_ij a_jk a_ki
// is 0 for all i when G is triangle-free and nonzero with probability >= 1/4
// per repetition otherwise (Schwartz–Zippel over F_2).
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "util/rng.h"

namespace cclique {

/// Wire ids of an n x n matrix, row-major.
struct MatrixWires {
  int n = 0;
  std::vector<int> w;
  int at(int i, int j) const { return w[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) + static_cast<std::size_t>(j)]; }
};

/// Emits the naive product C = A * B over F2 into `c`. A and B must already
/// be wires of `c`.
MatrixWires add_f2_matmul_naive(Circuit& c, const MatrixWires& a, const MatrixWires& b);

/// Emits a Strassen product over F2; recursion switches to the naive product
/// at blocks of size <= `cutoff` (>= 1). Handles odd sizes by dynamic
/// peeling (even core + O(n^2) rank-1/border gates), so wire counts grow
/// smoothly in n instead of jumping at powers of two.
MatrixWires add_f2_matmul_strassen(Circuit& c, const MatrixWires& a,
                                   const MatrixWires& b, int cutoff);

/// Standalone product circuit: inputs are A then B (row-major), outputs C.
Circuit f2_matmul_circuit(int n, bool use_strassen, int cutoff = 2);

/// The §2.1 triangle-witness circuit over an n-vertex graph's adjacency
/// matrix (n^2 inputs, row-major; the diagonal must be fed zeros — simple
/// graph). Output: a single bit that is 0 whenever the graph is
/// triangle-free and, with probability at least 1 - (3/4)^reps over the
/// baked-in masks, 1 when it has a triangle. Uses Strassen products down
/// to blocks of size <= cutoff, which multiply naively; cutoff >= n gives
/// the naive Theta(n^3)-wire circuit from the same mask draws.
Circuit triangle_witness_circuit(int n, int reps, Rng& rng, int cutoff = 2);

}  // namespace cclique
