// Sparse distributed matrix products: the nnz-dependent block-MM schedule.
//
// The dense schedule (core/algebraic_mm, core/block_mm.h) ships every block
// entry at full width — Θ(n^{4/3} · w) bits per player regardless of the
// input. On sparse operands almost all of that traffic carries the implicit
// zero. This module runs the same [m]^3 decomposition through the same
// product loop (blockmm::run_block_product) with another slice codec,
// SparseSlices: each row owner ships only its *explicit* entries as
// (local-index, value) pairs, so per-block payload lengths are proportional
// to the declared nnz counts instead of the dense block widths.
//
// That makes the schedule *data-dependent* — exactly what the oblivious
// guard exists to police. The contract (DESIGN.md §2.7–2.8, following the
// mst_phase_plan precedent for common-knowledge aggregates):
//
//  1. The dependence is *declared*: declared_nnz_profile() is the single
//     choke point where tainted sparsity structure (Csr61 row_ptr/cols
//     reads) becomes a plain-integer SparseNnzProfile, under an explicit
//     oblivious::declared_dependence scope. No other plan-side code reads
//     CSR structure; the static analyzer (tools/cc_oblivious.py, check 5)
//     enforces that any *_plan/*_profile body reading nnz structure names a
//     declared dependence.
//  2. The dependence is *announced*: the protocol's first phase all-gathers
//     every player's 2m per-block counts (count_bits each), so the relay's
//     required globally-known length matrix really is common knowledge
//     before any nnz-dependent payload moves — the profile is the protocol
//     input, not a hidden oracle.
//  3. The run is *checked*: sparse_mm_plan() prices all three phases
//     (announce, distribute, aggregate) from (n, w, b) plus the declared
//     profile and keeps both relay schedules. run_sparse_mm
//     CC_CHECKs the announcement's rounds and the total rounds and bits
//     against it on every run, like every other plan in the repo, and each
//     relayed phase charges its kept schedule only after every payload's
//     length matched it (unicast_payloads_relayed).
//
// Aggregation stays dense-width: the output's sparsity is fill-in dependent
// (a product of sparse blocks need not be sparse, and pricing it would need
// a second declared announcement of *output* structure), so
// run_block_product ships partial blocks at w bits per entry in both
// schedules. The sparse win is the distribution phase plus nothing else —
// which is why the crossover (sparse_backend_preferred) is a genuine
// tradeoff and not a foregone conclusion. run_routed_square is the one place
// that rule is applied: counting and APSP route every product through it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/oblivious_guard.h"
#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/block_mm.h"
#include "linalg/sparse.h"
#include "util/check.h"
#include "util/math_util.h"

namespace cclique {

/// Common-knowledge sparsity profile of one product's operands: for each
/// (row v, column block t) of the [m]-interval grid, how many explicit
/// entries the row owner will ship. Plain integers — constructing one from
/// CSR operands is the declared tainted->plain boundary
/// (declared_nnz_profile); everything downstream (sparse_mm_plan,
/// run_sparse_mm's decode loops) reads only this struct.
struct SparseNnzProfile {
  int n = 0;
  int grid = 0;  ///< m, matching blockmm::BlockGrid(n).m
  /// a_block_nnz[v * grid + k]: explicit entries of A in row v with column
  /// in interval K_k. Likewise b_block_nnz[v * grid + j] for B over J_j.
  std::vector<std::size_t> a_block_nnz;
  std::vector<std::size_t> b_block_nnz;
  std::uint64_t a_nnz = 0;  ///< total explicit entries of A
  std::uint64_t b_nnz = 0;  ///< total explicit entries of B
};

/// The explicit entries of `x` per (row v, column interval t) of grid g, at
/// index v * g.m + t. Requires x.n() == g.n.
std::vector<std::size_t> block_nnz_counts(const Csr61& x, const blockmm::BlockGrid& g);

/// Buckets both operands' explicit entries by (row, column block) under an
/// explicit oblivious::declared_dependence — the one sanctioned reading of
/// sparsity structure for scheduling purposes (DESIGN.md §2.8). Requires
/// a.n() == b.n().
SparseNnzProfile declared_nnz_profile(const Csr61& a, const Csr61& b);

/// The nnz-dependent cost schedule of one sparse product: a pure function
/// of (n, word_bits, bandwidth) and the declared profile, which it keeps,
/// together with its two relay schedules (shared, so copying a plan copies
/// no tables).
struct SparseMmPlan {
  int n = 0;
  int grid = 0;        ///< m: block grid dimension
  int block = 0;       ///< ⌈n/m⌉ rows per interval
  int word_bits = 0;   ///< serialized bits per value
  int index_bits = 0;  ///< bits per local column index (bits_for(block))
  int count_bits = 0;  ///< bits per announced per-block count (bits_for(block+1))
  int bandwidth = 0;
  SparseNnzProfile profile;   ///< the declared profile this plan prices
  int announce_rounds = 0;    ///< per-player 2m-count broadcast
  int distribute_rounds = 0;  ///< (index, value)-pair delivery (two relay hops)
  int aggregate_rounds = 0;   ///< dense-width partial delivery (two relay hops)
  int total_rounds = 0;
  std::uint64_t announce_bits = 0;
  std::uint64_t total_bits = 0;  ///< all three phases
  std::shared_ptr<const RelaySchedule> distribute;  ///< the pairs' relay (relay_cost)
  std::shared_ptr<const RelaySchedule> aggregate;   ///< algebraic_mm_plan's aggregate
};

/// Prices the three-phase sparse schedule for the declared profile and
/// keeps the profile in the plan. Only the distribution depends on the
/// profile, so only it is priced here (relay_cost); the aggregation
/// schedule comes from algebraic_mm_plan(n, word_bits, bandwidth).
/// Preconditions: profile matches (n, BlockGrid(n).m); word_bits in
/// [1, 64]; bandwidth >= 1.
SparseMmPlan sparse_mm_plan(int n, int word_bits, int bandwidth, SparseNnzProfile profile);

/// The adaptive-protocol crossover rule (DESIGN.md §2.8): both branches of
/// an adaptive protocol must pay the announcement before choosing, so
/// sparse wins iff its full cost beats announcement + the dense schedule.
/// `dense` is the caller's algebraic_mm_plan for the same (n, w, b).
inline bool sparse_backend_preferred(const SparseMmPlan& sparse,
                                     const AlgebraicMmPlan& dense) {
  CC_REQUIRE(sparse.n == dense.n && sparse.word_bits == dense.word_bits &&
                 sparse.bandwidth == dense.bandwidth,
             "plans priced for different products");
  return sparse.total_bits <= sparse.announce_bits + dense.total_bits;
}

/// The announcement phase on its own: every player all-gathers its 2m
/// per-block counts (count_bits each, A counts then B counts) so the
/// profile becomes common knowledge. Returns the rounds used —
/// ceil(2m * count_bits / b) for n >= 2. Adaptive protocols that *reject*
/// the sparse branch still run this (the decision needs the profile), then
/// fall through to the dense schedule. Preconditions (CC_REQUIRE, before any
/// bit moves): net.n() == profile.n, both tables hold n·m counts, and each
/// count fits count_bits in [1, 64].
int run_nnz_announcement(CliqueUnicast& net, const SparseNnzProfile& profile,
                         int count_bits);

/// The announced entry count of distribution slice s: how many pairs its
/// row owner ships for it.
inline std::size_t slice_nnz(const SparseNnzProfile& profile, const blockmm::Slice& s) {
  const std::vector<std::size_t>& counts = s.operand == 0 ? profile.a_block_nnz
                                                          : profile.b_block_nnz;
  return counts[static_cast<std::size_t>(s.row) * static_cast<std::size_t>(profile.grid) +
                static_cast<std::size_t>(s.col_block)];
}

/// The sparse slice codec (the contract is in core/block_mm.h): a slice
/// travels as its explicit entries, one (local column index, value) pair
/// each in CSR column order. The announced count bounds every read, and the
/// decoder fills the A block like the B block, so the local product hands
/// Csr61::from_dense of the A block to Ops::spmm. That CSR is the one the
/// pairs describe, because an explicit entry never equals the implicit zero.
template <typename OpsT>
struct SparseSlices {
  using Ops = OpsT;
  using Matrix = typename Ops::Matrix;
  const Csr61* operand[2];  ///< A, B
  const SparseMmPlan* plan;

  // Executor-side CSR reads are sanctioned: source_touch is free outside
  // sinks; only *planning* on structure needs the declared dependence.
  void encode(const blockmm::Slice& s, Message* out) const {
    const Csr61& x = *operand[s.operand];
    for (std::size_t e = x.row_ptr()[s.row]; e < x.row_ptr()[s.row + 1]; ++e) {
      const int col = x.cols()[e] - s.col_lo;
      if (col < 0 || col >= s.cols) continue;
      out->push_uint(static_cast<std::uint64_t>(col), plan->index_bits);
      out->push_uint(x.vals()[e], Ops::kWordBits);
    }
  }
  void decode(const blockmm::Slice& s, const Message& in, std::size_t* cursor,
              Matrix* block) const {
    for (std::size_t t = slice_nnz(plan->profile, s); t > 0; --t) {
      const int col = static_cast<int>(in.read_uint(*cursor, plan->index_bits));
      *cursor += static_cast<std::size_t>(plan->index_bits);
      block->set(s.block_row, col, in.read_uint(*cursor, Ops::kWordBits));
      *cursor += Ops::kWordBits;
    }
  }
  Matrix multiply(const Matrix& a_blk, const Matrix& b_blk) const {
    return Ops::spmm(Csr61::from_dense(a_blk), b_blk);
  }
};

/// One sparse distributed product C = A ⊗ B over a sparse carrier's Ops
/// (core/block_mm.h: kRing and spmm included). Phases: announce the counts
/// (run_nnz_announcement); then run_block_product through SparseSlices, which
/// relays each owner's explicit pairs per slice, runs the local sparse·dense
/// block products and aggregates the partial rows at dense width like
/// run_block_mm. `plan` must be sparse_mm_plan(n, Ops::kWordBits,
/// net.bandwidth(), profile), schedules included, of a profile that
/// describes the operands (block_nnz_counts, row by row), else
/// PreconditionError before any bit moves; the announcement's rounds and
/// the total rounds/bits are CC_CHECKed against it, and each relayed phase
/// runs on the plan's schedule.
template <typename Ops>
void run_sparse_mm(CliqueUnicast& net, const Csr61& a, const Csr61& b,
                   typename Ops::Matrix* c, const SparseMmPlan& plan) {
  const int n = a.n();
  CC_REQUIRE(net.n() == n, "one player per matrix row");
  CC_REQUIRE(b.n() == n, "size mismatch");
  CC_REQUIRE(c != nullptr, "output matrix required");
  CC_REQUIRE(a.ring() == Ops::kRing && b.ring() == Ops::kRing,
             "CSR ring does not match the Ops carrier");
  CC_REQUIRE(plan.n == n && plan.bandwidth == net.bandwidth() &&
                 plan.word_bits == Ops::kWordBits,
             "plan priced for another engine or carrier");
  CC_REQUIRE(blockmm::priced_for(plan.distribute, net) && blockmm::priced_for(plan.aggregate, net),
             "plan carries no relay schedules for this engine");
  const blockmm::BlockGrid g(n);
  // Each row owner checks its rows against the profile it will announce, so
  // a plan priced for other operands fails here instead of mid-product.
  CC_REQUIRE(plan.profile.n == n && plan.profile.grid == g.m &&
                 block_nnz_counts(a, g) == plan.profile.a_block_nnz &&
                 block_nnz_counts(b, g) == plan.profile.b_block_nnz,
             "profile does not describe the operands");
  const ChargedSince charged(net.stats());
  const int announce_rounds = run_nnz_announcement(net, plan.profile, plan.count_bits);
  CC_CHECK(announce_rounds == plan.announce_rounds,
           "announcement left the planned schedule");
  blockmm::run_block_product(net, g, SparseSlices<Ops>{{&a, &b}, &plan}, plan, c);
  charged.check(plan.total_rounds, plan.total_bits, "sparse MM left the planned schedule");
}

/// The one routed product: *c = A ⊗ A on `backend`'s schedule, against the
/// caller's dense plan `dense` (algebraic_mm_plan(n, Ops::kWordBits,
/// net.bandwidth()), priced once by the caller). kDense runs run_block_mm
/// and declares nothing. kSparse and kAuto build A's CSR once, declare and
/// price its profile once, and then either hand that plan to run_sparse_mm
/// or — kAuto above the crossover — pay the announcement the decision
/// needed and run the dense product. Returns the branch taken and
/// its planned cost; the executors CC_CHECK the products against their
/// plans, and callers check whole runs against the sum of step plans.
template <typename Ops>
ProductStep run_routed_square(CliqueUnicast& net, const typename Ops::Matrix& a,
                              typename Ops::Matrix* c, CountBackend backend,
                              const AlgebraicMmPlan& dense) {
  ProductStep step;
  step.planned_rounds = dense.total_rounds;
  step.planned_bits = dense.total_bits;
  if (backend != CountBackend::kDense) {
    const Csr61 sa = Csr61::from_dense(a);
    const SparseMmPlan plan =
        sparse_mm_plan(a.n(), Ops::kWordBits, net.bandwidth(), declared_nnz_profile(sa, sa));
    step.declared_nnz = plan.profile.a_nnz;
    step.used_sparse =
        backend == CountBackend::kSparse || sparse_backend_preferred(plan, dense);
    if (step.used_sparse) {
      run_sparse_mm<Ops>(net, sa, sa, c, plan);
      step.planned_rounds = plan.total_rounds;
      step.planned_bits = plan.total_bits;
      return step;
    }
    run_nnz_announcement(net, plan.profile, plan.count_bits);
    step.planned_rounds += plan.announce_rounds;
    step.planned_bits += plan.announce_bits;
  }
  blockmm::run_block_mm<Ops>(net, a, a, c, dense);
  return step;
}

/// Sparse distributed C = A·B over F_{2^61-1}: declares the profile, prices
/// the plan at net.bandwidth(), runs the three-phase schedule, and returns
/// the plan it was checked against. Preconditions: both operands kM61,
/// a.n() == b.n() == net.n().
SparseMmPlan sparse_mm_m61(CliqueUnicast& net, const Csr61& a, const Csr61& b,
                           Mat61* c);

/// Sparse distributed distance product over (min, +); both operands
/// kTropical. The sparse twin of min_plus_mm.
SparseMmPlan sparse_min_plus_mm(CliqueUnicast& net, const Csr61& a,
                                const Csr61& b, TropicalMat* c);

}  // namespace cclique
