// Shared [m]^3 block-decomposition machinery for distributed semiring
// matrix products on CLIQUE-UCAST (internal to core/).
//
// With m = ⌊n^{1/3}⌋ and [n] cut into m row intervals, C = A·B splits into
// m³ block products C_ij ⊕= A_ik ⊗ B_kj, one triple per player, shipped
// through the two-hop balanced relay (unicast_payloads_relayed). Player v
// holds row v of A, B and C. The layout is written once, as two walks over
// a triple's row slices (for_each_slice, for_each_partial_row). The length
// matrices that relay_cost prices and the one product loop,
// run_block_product, both follow them. The dense schedule (run_block_mm)
// and the sparse one (run_sparse_mm, core/sparse_mm.h) differ only in the
// slice codec run_block_product takes:
//
//   struct Codec {
//     using Ops = ...;                                  // the carrier, below
//     void encode(const Slice& s, Message* out) const;  // appends slice s
//     // Reads slice s at *cursor into row s.block_row of *block (a bs x bs
//     // semiring-zero matrix) and moves *cursor past it.
//     void decode(const Slice& s, const Message& in, std::size_t* cursor,
//                 Ops::Matrix* block) const;
//     Ops::Matrix multiply(const Ops::Matrix& a_blk, const Ops::Matrix& b_blk) const;
//   };
//
// A triple player's own rows go through the codec too, just without the
// network (relay_phase). Aggregation ships every partial entry at
// Ops::kWordBits in both schedules. Each phase relays through the schedule
// its plan kept (RelaySchedule, comm/clique_unicast.h), and every payload
// is presized from that schedule's lengths before the first slice lands.
// The length matrices below depend on the grid, w and (for the sparse
// distribution) the announced counts alone, so algebraic_mm_plan prices
// the dense pair once per (n, w, b) and every plan shares it.
//
// The Ops concept, one adapter per carrier. The two row hooks move entries
// [col, col + cols) of row i as consecutive kWordBits-bit words (the wire
// format of one row slice) after one bounds check per row. A decoder
// stores a slice by ⊕-accumulating it into a semiring-zero row, since
// zero ⊕ v = v:
//
//   struct Ops {
//     using Matrix = ...;               // Matrix(int n) = the semiring-zero
//                                       // matrix (additive identity entries:
//                                       // 0 for rings, +inf for min-plus)
//     static constexpr int kWordBits;   // serialized bits per element
//     static void push_row(const Matrix&, int i, int col, int cols, Message* out);
//     static void accumulate_row(const Message& in, std::size_t pos, int i,
//                                int col, int cols, Matrix* m);  // ⊕=
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
#include <memory>
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

/// Checks that columns [col, col + cols) of a row lie inside an n-column
/// matrix: the one bounds check of a row hook.
inline void require_row_span(int n, int i, int col, int cols) {
  CC_REQUIRE(i >= 0 && i < n && col >= 0 && cols >= 0 && col <= n - cols,
             "row slice out of range");
}

/// Entries [col, col + cols) of row i of a row-major matrix, writable.
template <typename Matrix>
std::uint64_t* mutable_row_span(Matrix* m, int i, int col, int cols) {
  require_row_span(m->n(), i, col, cols);
  return m->mutable_data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(m->n()) +
         static_cast<std::size_t>(col);
}

/// GF(2): one bit per element, XOR accumulation. A row slice is read out of
/// the packed row up to 64 columns at a time.
struct F2Ops {
  using Matrix = F2Matrix;
  static constexpr int kWordBits = 1;
  static void push_row(const Matrix& m, int i, int col, int cols, Message* out) {
    require_row_span(m.n(), i, col, cols);
    const std::vector<std::uint64_t>& row = m.row(i);
    for (int t = 0; t < cols; t += 64) {
      const int at = col + t, off = at & 63, take = std::min(64, cols - t);
      std::uint64_t bits = row[static_cast<std::size_t>(at >> 6)] >> off;
      if (off + take > 64) bits |= row[static_cast<std::size_t>(at >> 6) + 1] << (64 - off);
      out->push_uint(bits, take);
    }
  }
  static void accumulate_row(const Message& in, std::size_t pos, int i, int col, int cols,
                             Matrix* m) {
    require_row_span(m->n(), i, col, cols);
    std::vector<std::uint64_t>& row = m->mutable_row(i);
    in.read_words(pos, static_cast<std::size_t>(cols), kWordBits, [&](std::uint64_t bit) {
      row[static_cast<std::size_t>(col >> 6)] ^= bit << (col & 63);
      ++col;
    });
  }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return f2_multiply_naive(a, b);
  }
};

/// F_{2^61-1}: 61-bit words, field addition. A received word is reduced
/// before it is added, as Mat61::set reduces what it stores.
struct M61Ops {
  using Matrix = Mat61;
  static constexpr int kWordBits = 61;
  static constexpr SparseRing kRing = SparseRing::kM61;
  static void push_row(const Matrix& m, int i, int col, int cols, Message* out) {
    require_row_span(m.n(), i, col, cols);
    out->push_words(m.row(i) + col, static_cast<std::size_t>(cols), kWordBits);
  }
  static void accumulate_row(const Message& in, std::size_t pos, int i, int col, int cols,
                             Matrix* m) {
    std::uint64_t* e = mutable_row_span(m, i, col, cols);
    in.read_words(pos, static_cast<std::size_t>(cols), kWordBits, [&](std::uint64_t v) {
      *e = Mersenne61::add(*e, Mersenne61::reduce(v));
      ++e;
    });
  }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return m61_multiply_dispatch(a, b);
  }
  static Matrix spmm(const Csr61& a, const Matrix& b) { return m61_spmm_dispatch(a, b); }
};

/// (min, +): 61-bit words (kTropicalInf = all-ones round-trips through the
/// wire unchanged), min accumulation. A received word is checked against
/// kTropicalInf, as TropicalMat::set checks what it stores.
struct TropicalOps {
  using Matrix = TropicalMat;
  static constexpr int kWordBits = 61;
  static constexpr SparseRing kRing = SparseRing::kTropical;
  static void push_row(const Matrix& m, int i, int col, int cols, Message* out) {
    require_row_span(m.n(), i, col, cols);
    out->push_words(m.row(i) + col, static_cast<std::size_t>(cols), kWordBits);
  }
  static void accumulate_row(const Message& in, std::size_t pos, int i, int col, int cols,
                             Matrix* m) {
    std::uint64_t* e = mutable_row_span(m, i, col, cols);
    in.read_words(pos, static_cast<std::size_t>(cols), kWordBits, [&](std::uint64_t v) {
      CC_REQUIRE(v <= kTropicalInf, "tropical entry exceeds the 61-bit carrier");
      if (v < *e) *e = v;
      ++e;
    });
  }
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

/// One row slice of the block schedule: row `row` of operand `operand`
/// (0 = A, 1 = B, 2 = a triple's partial block) over column interval
/// `col_block`, i.e. columns [col_lo, col_lo + cols). It is row `block_row`
/// of the triple player's block. Player `row` owns the row: it ships its A
/// and B slices to the triple player and receives the partial slice back.
struct Slice {
  int operand;
  int row;
  int block_row;
  int col_block;
  int col_lo;
  int cols;
};

/// Walks triple p = (i, j, k)'s distribution slices in wire order: the K_k
/// slice of each A row in I_i, then the J_j slice of each B row in K_k.
template <typename Fn>
void for_each_slice(const BlockGrid& g, int p, Fn&& fn) {
  const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
  for (int r = g.lo(i); r < g.hi(i); ++r) fn(Slice{0, r, r - g.lo(i), k, g.lo(k), g.len(k)});
  for (int r = g.lo(k); r < g.hi(k); ++r) fn(Slice{1, r, r - g.lo(k), j, g.lo(j), g.len(j)});
}

/// Walks triple p = (i, j, k)'s aggregation rows: the J_j-wide row of its
/// partial block C_ij for each output row in I_i.
template <typename Fn>
void for_each_partial_row(const BlockGrid& g, int p, Fn&& fn) {
  const int i = g.ti(p), j = g.tj(p);
  for (int r = g.lo(i); r < g.hi(i); ++r) fn(Slice{2, r, r - g.lo(i), j, g.lo(j), g.len(j)});
}

/// Distribution-phase payload lengths in bits: row owner v ships triple
/// player p the sum of bits(s) over p's slices s of row v, except p's own
/// rows, which never touch the network.
template <typename Bits>
LengthMatrix slice_lengths(const BlockGrid& g, const Bits& bits) {
  // Length computation is a sink: the matrix must be a function of the grid
  // geometry and of what `bits` prices (the element width or the announced
  // counts), never of matrix entries.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("slice_lengths"));
  LengthMatrix len(static_cast<std::size_t>(g.n),
                   std::vector<std::size_t>(static_cast<std::size_t>(g.n), 0));
  for (int p = 0; p < g.triples(); ++p) {
    for_each_slice(g, p, [&](const Slice& s) {
      if (s.row != p) len[static_cast<std::size_t>(s.row)][static_cast<std::size_t>(p)] += bits(s);
    });
  }
  return len;
}

/// The dense schedule's distribution lengths: every slice at w bits per entry.
inline LengthMatrix distribute_lengths(const BlockGrid& g, int w) {
  return slice_lengths(g, [w](const Slice& s) {
    return static_cast<std::size_t>(s.cols) * static_cast<std::size_t>(w);
  });
}

/// Aggregation-phase payload lengths: triple player p ships each partial
/// row at w bits per entry to the row's owner.
inline LengthMatrix aggregate_lengths(const BlockGrid& g, int w) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("aggregate_lengths"));
  LengthMatrix len(static_cast<std::size_t>(g.n),
                   std::vector<std::size_t>(static_cast<std::size_t>(g.n), 0));
  for (int p = 0; p < g.triples(); ++p) {
    for_each_partial_row(g, p, [&](const Slice& s) {
      if (s.row != p) {
        len[static_cast<std::size_t>(p)][static_cast<std::size_t>(s.row)] +=
            static_cast<std::size_t>(s.cols) * static_cast<std::size_t>(w);
      }
    });
  }
  return len;
}

/// The dense slice codec: a slice travels as its `cols` entries at
/// Ops::kWordBits each, moved by the row hooks.
template <typename OpsT>
struct DenseSlices {
  using Ops = OpsT;
  using Matrix = typename Ops::Matrix;
  const Matrix* operand[2];  ///< A, B

  void encode(const Slice& s, Message* out) const {
    Ops::push_row(*operand[s.operand], s.row, s.col_lo, s.cols, out);
  }
  void decode(const Slice& s, const Message& in, std::size_t* cursor, Matrix* block) const {
    Ops::accumulate_row(in, *cursor, s.block_row, 0, s.cols, block);
    *cursor += static_cast<std::size_t>(s.cols) * Ops::kWordBits;
  }
  Matrix multiply(const Matrix& a_blk, const Matrix& b_blk) const {
    return Ops::multiply(a_blk, b_blk);
  }
};

/// Whether `schedule` exists and was priced (relay_cost) for `net`'s n and
/// bandwidth — what a product needs before it sizes any payload from it.
inline bool priced_for(const std::shared_ptr<const RelaySchedule>& schedule,
                       const CliqueUnicast& net) {
  return schedule && schedule->len.size() == static_cast<std::size_t>(net.n()) &&
         schedule->bandwidth == net.bandwidth();
}

/// Relays one phase's payloads through the schedule its plan kept. What a
/// player addresses to itself (payload[v][v]) never touches the network:
/// it waits in received[v][v], where the decoder reads it like any
/// received payload.
inline void relay_phase(CliqueUnicast& net, std::vector<std::vector<Message>> payload,
                        std::vector<std::vector<Message>>* received,
                        const RelaySchedule& schedule) {
  std::vector<Message> own(payload.size());
  for (std::size_t v = 0; v < own.size(); ++v) own[v] = std::move(payload[v][v]);
  unicast_payloads_relayed(net, std::move(payload), received, schedule);
  for (std::size_t v = 0; v < own.size(); ++v) (*received)[v][v] = std::move(own[v]);
}

/// An n x n matrix of empty payloads, each with room for the bits
/// `schedule` prices on its pair.
inline std::vector<std::vector<Message>> presized_payloads(const RelaySchedule& schedule) {
  const std::size_t n = schedule.len.size();
  std::vector<std::vector<Message>> payload(n, std::vector<Message>(n));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t p = 0; p < n; ++p) payload[v][p].reserve_bits(schedule.len[v][p]);
  }
  return payload;
}

/// One distributed product C = A ⊗ B over the grid through `codec` (the
/// slice codec contract above): distribution (every slice from its row
/// owner to its triple player), local block products (blocks padded to
/// bs x bs with the semiring zero), and aggregation (every partial row back
/// to its owner, ⊕-accumulated into *c). Each phase relays through the
/// schedule `plan` kept (plan.distribute, plan.aggregate), whose length
/// check certifies the phase; the caller checks the total.
template <typename Codec, typename Plan>
void run_block_product(CliqueUnicast& net, const BlockGrid& g, const Codec& codec,
                       const Plan& plan, typename Codec::Ops::Matrix* c) {
  using Ops = typename Codec::Ops;
  using Matrix = typename Ops::Matrix;
  const std::size_t n = static_cast<std::size_t>(g.n);

  // ---- Distribution: row owners ship their slices to the triple players.
  std::vector<std::vector<Message>> payload = presized_payloads(*plan.distribute), recv;
  for (int p = 0; p < g.triples(); ++p) {
    for_each_slice(g, p, [&](const Slice& s) { codec.encode(s, &payload[s.row][p]); });
  }
  relay_phase(net, std::move(payload), &recv, *plan.distribute);

  // ---- Local block products. Each triple player's partial block is its
  // private state until the aggregation ships it out (ownership-tagged).
  locality::PerPlayer<Matrix> partial(g.triples(),
                                      CC_LOCALITY_SITE("triple player's block product"));
  for (int p = 0; p < g.triples(); ++p) {
    Matrix block[2] = {Matrix(g.bs), Matrix(g.bs)};
    std::vector<std::size_t> cursor(n, 0);
    for_each_slice(g, p, [&](const Slice& s) {
      codec.decode(s, recv[p][s.row], &cursor[s.row], &block[s.operand]);
    });
    partial[p] = codec.multiply(block[0], block[1]);
  }

  // ---- Aggregation: partial rows travel to their output row owners, one
  // row per (triple, owner) pair.
  payload = presized_payloads(*plan.aggregate);
  for (int p = 0; p < g.triples(); ++p) {
    for_each_partial_row(g, p, [&](const Slice& s) {
      Ops::push_row(partial[p], s.block_row, 0, s.cols, &payload[p][s.row]);
    });
  }
  relay_phase(net, std::move(payload), &recv, *plan.aggregate);
  *c = Matrix(g.n);
  for (int p = 0; p < g.triples(); ++p) {
    for_each_partial_row(g, p, [&](const Slice& s) {
      Ops::accumulate_row(recv[s.row][p], 0, s.row, s.col_lo, s.cols, c);
    });
  }
}

/// One dense distributed semiring product C = A ⊗ B: every slice ships at
/// Ops::kWordBits per entry. Player v holds row v of A, B and C. `plan` must
/// be algebraic_mm_plan(n, Ops::kWordBits, net.bandwidth()), schedules
/// included (PreconditionError before any bit moves otherwise); each phase
/// relays through the plan's schedule and the total rounds/bits are
/// CC_CHECKed against it on every run.
template <typename Ops>
void run_block_mm(CliqueUnicast& net, const typename Ops::Matrix& a,
                  const typename Ops::Matrix& b, typename Ops::Matrix* c,
                  const AlgebraicMmPlan& plan) {
  const int n = a.n();
  CC_REQUIRE(net.n() == n, "one player per matrix row");
  CC_REQUIRE(b.n() == n, "size mismatch");
  CC_REQUIRE(c != nullptr, "output matrix required");
  CC_REQUIRE(plan.n == n && plan.bandwidth == net.bandwidth() &&
                 plan.word_bits == Ops::kWordBits,
             "plan priced for another engine or carrier");
  CC_REQUIRE(priced_for(plan.distribute, net) && priced_for(plan.aggregate, net),
             "plan carries no relay schedules for this engine");
  const ChargedSince charged(net.stats());
  run_block_product(net, BlockGrid(n), DenseSlices<Ops>{{&a, &b}}, plan, c);
  charged.check(plan.total_rounds, plan.total_bits, "block MM left the planned schedule");
}

}  // namespace blockmm
}  // namespace cclique
