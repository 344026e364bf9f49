// Shared [m]^3 block-decomposition machinery for distributed semiring
// matrix products on CLIQUE-UCAST (internal to core/).
//
// PR 3 built the machinery for ring products (core/algebraic_mm): with
// m = ⌊n^{1/3}⌋ and the index set [n] cut into m row intervals, C = A·B
// splits into m³ block products C_ij ⊕= A_ik ⊗ B_kj, one triple per player,
// shipped through the two-hop balanced relay (unicast_payloads_relayed).
// Nothing in the decomposition, the relay schedule, or the plan accounting
// depends on the *algebra* — only on (n, element width w, bandwidth b). This
// header holds the geometry (BlockGrid), the data-independent length
// matrices (relay_cost prices them), the generic protocol driver
// (run_block_mm), and the one Ops adapter per carrier, so the ring products
// (core/algebraic_mm), the min-plus/APSP workload (core/apsp) and the sparse
// driver (core/sparse_mm.h) run the identical schedule. Ownership is
// whole-row throughout: player v holds row v of A, B and C.
//
// The Ops concept the drivers consume:
//
//   struct Ops {
//     using Matrix = ...;               // Matrix(int n) = the semiring-zero
//                                       // matrix (additive identity entries:
//                                       // 0 for rings, +inf for min-plus)
//     static constexpr int kWordBits;   // serialized bits per element
//     static std::uint64_t get(const Matrix&, int i, int j);   // < 2^kWordBits
//     static void set(Matrix&, int i, int j, std::uint64_t v);
//     static void accumulate(Matrix&, int i, int j, std::uint64_t v);  // ⊕=
//     static Matrix multiply(const Matrix&, const Matrix&);    // local ⊗
//     // Sparse carriers only (run_sparse_mm, run_routed_square):
//     static constexpr SparseRing kRing;                       // CSR ring
//     static Matrix spmm(const Csr61& a_blk, const Matrix& b_blk);
//   };
//
// Block padding relies on Matrix(n) being the semiring zero so padding rows
// and columns contribute nothing to any block product. The local kernels are
// the CC_KERNEL / CC_THREADS dispatch (linalg/kernels.h): local compute
// between metered phases, which changes wall-clock only, never the product
// values or any CommStats counter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "linalg/f2matrix.h"
#include "linalg/kernels.h"
#include "linalg/sparse.h"
#include "linalg/tropical.h"
#include "util/check.h"
#include "util/math_util.h"

namespace cclique {
namespace blockmm {

/// GF(2): one bit per element, XOR accumulation.
struct F2Ops {
  using Matrix = F2Matrix;
  static constexpr int kWordBits = 1;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j) ? 1 : 0; }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, (v & 1ULL) != 0); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) {
    if ((v & 1ULL) != 0) m.set(i, j, !m.get(i, j));
  }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return f2_multiply_naive(a, b);
  }
};

/// F_{2^61-1}: 61-bit words, field addition.
struct M61Ops {
  using Matrix = Mat61;
  static constexpr int kWordBits = 61;
  static constexpr SparseRing kRing = SparseRing::kM61;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.add_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return m61_multiply_dispatch(a, b);
  }
  static Matrix spmm(const Csr61& a, const Matrix& b) { return m61_spmm_dispatch(a, b); }
};

/// (min, +): 61-bit words (kTropicalInf = all-ones round-trips through
/// push_uint/read_uint unchanged), min accumulation.
struct TropicalOps {
  using Matrix = TropicalMat;
  static constexpr int kWordBits = 61;
  static constexpr SparseRing kRing = SparseRing::kTropical;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.min_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return tropical_multiply_dispatch(a, b);
  }
  static Matrix spmm(const Csr61& a, const Matrix& b) {
    return tropical_spmm_dispatch(a, b);
  }
};

/// The [m]^3 block grid: interval t covers rows [lo(t), hi(t)), triple
/// (i, j, k) lives at player (i*m + j)*m + k. All of it is a function of n
/// alone, so every player derives the same geometry.
struct BlockGrid {
  int n = 0;
  int m = 0;
  int bs = 0;

  explicit BlockGrid(int n_in) : n(n_in) {
    CC_REQUIRE(n >= 1, "need at least one player");
    m = static_cast<int>(icbrt(static_cast<std::uint64_t>(n)));
    if (m < 1) m = 1;
    bs = static_cast<int>(ceil_div(static_cast<std::uint64_t>(n),
                                   static_cast<std::uint64_t>(m)));
    // (m-1)^2 < n guarantees every interval is non-empty (m <= n^{1/3}).
    CC_CHECK((m - 1) * bs < n, "degenerate block interval");
  }

  int triples() const { return m * m * m; }
  int lo(int t) const { return t * bs; }
  int hi(int t) const { return std::min(n, (t + 1) * bs); }
  int len(int t) const { return hi(t) - lo(t); }
  int ti(int p) const { return p / (m * m); }
  int tj(int p) const { return (p / m) % m; }
  int tk(int p) const { return p % m; }
};

using LengthMatrix = ::cclique::LengthMatrix;  // comm/engine.h

/// Distribution-phase payload lengths in bits under whole-row ownership
/// (player v holds row v of A, B and C): for each triple player p =
/// (i, j, k), row owner v in I_i ships its |K_k|-wide slice of A and row
/// owner v in K_k its |J_j|-wide slice of B — except p's own rows, which it
/// reads directly.
inline LengthMatrix distribute_lengths(const BlockGrid& g, int w) {
  // Length computation is a sink: the matrix must be a function of the grid
  // geometry and the element width alone, never of matrix entries.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("distribute_lengths"));
  LengthMatrix len(static_cast<std::size_t>(g.n),
                   std::vector<std::size_t>(static_cast<std::size_t>(g.n), 0));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    for (int v = g.lo(i); v < g.hi(i); ++v) {
      if (v == p) continue;
      len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)] +=
          static_cast<std::size_t>(g.len(k)) * static_cast<std::size_t>(w);
    }
    for (int v = g.lo(k); v < g.hi(k); ++v) {
      if (v == p) continue;
      len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)] +=
          static_cast<std::size_t>(g.len(j)) * static_cast<std::size_t>(w);
    }
  }
  return len;
}

/// Aggregation-phase payload lengths: triple (i, j, k) ships one
/// |J_j|-wide partial row slice to each output row owner in I_i.
inline LengthMatrix aggregate_lengths(const BlockGrid& g, int w) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("aggregate_lengths"));
  LengthMatrix len(static_cast<std::size_t>(g.n),
                   std::vector<std::size_t>(static_cast<std::size_t>(g.n), 0));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p);
    for (int v = g.lo(i); v < g.hi(i); ++v) {
      if (v == p) continue;
      len[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)] +=
          static_cast<std::size_t>(g.len(j)) * static_cast<std::size_t>(w);
    }
  }
  return len;
}

/// The aggregation phase both product drivers end with (run_block_mm here,
/// run_sparse_mm in core/sparse_mm.h): triple (i, j, k) ships each row
/// slice of its partial block C_ij to the row's owner, who ⊕-combines the
/// m contributions (one per k) into `*c`. Returns the relay rounds used;
/// the payload lengths are exactly aggregate_lengths(g, Ops::kWordBits).
template <typename Ops>
int aggregate_partials(CliqueUnicast& net, const BlockGrid& g,
                       const locality::PerPlayer<typename Ops::Matrix>& partial,
                       typename Ops::Matrix* c) {
  constexpr int w = Ops::kWordBits;
  const int n = g.n;
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      if (r == p) continue;  // the triple player keeps its own row slice
      Message& msg = payload[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)];
      for (int t = 0; t < g.len(j); ++t) {
        msg.push_uint(Ops::get(partial[p], r - g.lo(i), t), w);
      }
    }
  }
  std::vector<std::vector<Message>> recv;
  const int rounds = unicast_payloads_relayed(net, std::move(payload), &recv);

  *c = typename Ops::Matrix(n);
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      for (int t = 0; t < g.len(j); ++t) {
        std::uint64_t v;
        if (r == p) {
          v = Ops::get(partial[p], r - g.lo(i), t);
        } else {
          const Message& src =
              recv[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)];
          v = src.read_uint(static_cast<std::size_t>(t) * static_cast<std::size_t>(w), w);
        }
        Ops::accumulate(*c, r, g.lo(j) + t, v);
      }
    }
  }
  return rounds;
}

/// One distributed semiring product C = A ⊗ B over the grid: distribution
/// (row owners ship block row slices to triple players through the relay),
/// local block products, aggregation (partial row slices back to the
/// output row owners, ⊕-accumulated). Player v holds row v of A, B and C.
/// Per (owner, triple) pair the payload carries the A slices, then the B
/// slices — the decode order. `plan` must be algebraic_mm_plan(n,
/// Ops::kWordBits, net.bandwidth()) (PreconditionError before any bit moves
/// otherwise); each phase's rounds and the total rounds/bits are CC_CHECKed
/// against it on every run.
template <typename Ops>
void run_block_mm(CliqueUnicast& net, const typename Ops::Matrix& a,
                  const typename Ops::Matrix& b, typename Ops::Matrix* c,
                  const AlgebraicMmPlan& plan) {
  using Matrix = typename Ops::Matrix;
  constexpr int w = Ops::kWordBits;
  const int n = a.n();
  CC_REQUIRE(net.n() == n, "one player per matrix row");
  CC_REQUIRE(b.n() == n, "size mismatch");
  CC_REQUIRE(c != nullptr, "output matrix required");
  CC_REQUIRE(plan.n == n && plan.bandwidth == net.bandwidth() && plan.word_bits == w,
             "plan priced for another engine or carrier");
  const BlockGrid g(n);
  const ChargedSince charged(net.stats());

  // ---- Distribution: row owners ship block row slices to triple players.
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      if (r == p) continue;  // the triple player reads its own rows directly
      Message& msg = payload[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)];
      for (int col = g.lo(k); col < g.hi(k); ++col) msg.push_uint(Ops::get(a, r, col), w);
    }
    for (int r = g.lo(k); r < g.hi(k); ++r) {
      if (r == p) continue;
      Message& msg = payload[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)];
      for (int col = g.lo(j); col < g.hi(j); ++col) msg.push_uint(Ops::get(b, r, col), w);
    }
  }
  std::vector<std::vector<Message>> recv;
  const int distribute_rounds = unicast_payloads_relayed(net, std::move(payload), &recv);
  CC_CHECK(distribute_rounds == plan.distribute_rounds,
           "block MM distribution left the planned schedule");

  // ---- Local block products (blocks padded to bs x bs with the semiring
  // zero — Matrix(n)'s fill — so padding rows/columns contribute nothing).
  // Each triple player's block product is its private state until the
  // aggregation hop ships the partial entries out (ownership-tagged).
  // Decode mirrors the build exactly: same (triple, row) iteration order,
  // one sequential cursor per source row owner.
  locality::PerPlayer<Matrix> partial(
      g.triples(), CC_LOCALITY_SITE("triple player's block product"));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    Matrix ablk(g.bs), bblk(g.bs);
    std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
    auto load = [&](const Matrix& src_mat, Matrix* blk, int row_t, int col_t) {
      for (int r = g.lo(row_t); r < g.hi(row_t); ++r) {
        const Message& src = recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)];
        std::size_t& off = cur[static_cast<std::size_t>(r)];
        for (int t = 0; t < g.len(col_t); ++t) {
          std::uint64_t v;
          if (r == p) {
            v = Ops::get(src_mat, r, g.lo(col_t) + t);
          } else {
            v = src.read_uint(off, w);
            off += static_cast<std::size_t>(w);
          }
          Ops::set(*blk, r - g.lo(row_t), t, v);
        }
      }
    };
    load(a, &ablk, i, k);
    load(b, &bblk, k, j);
    partial[p] = Ops::multiply(ablk, bblk);
  }

  // ---- Aggregation: partial row slices travel to the output row owners.
  const int aggregate_rounds = aggregate_partials<Ops>(net, g, partial, c);
  CC_CHECK(aggregate_rounds == plan.aggregate_rounds,
           "block MM aggregation left the planned schedule");
  charged.check(plan.total_rounds, plan.total_bits, "block MM left the planned schedule");
}

}  // namespace blockmm
}  // namespace cclique
