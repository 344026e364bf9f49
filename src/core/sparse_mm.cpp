#include "core/sparse_mm.h"

#include <utility>
#include <vector>

namespace cclique {

std::vector<std::size_t> block_nnz_counts(const Csr61& x, const blockmm::BlockGrid& g) {
  CC_REQUIRE(x.n() == g.n, "grid built for another n");
  std::vector<std::size_t> counts(static_cast<std::size_t>(g.n * g.m), 0);
  const std::size_t* rp = x.row_ptr();
  const int* cols = x.cols();
  for (int v = 0; v < g.n; ++v) {
    for (std::size_t e = rp[v]; e < rp[v + 1]; ++e) {
      ++counts[static_cast<std::size_t>(v * g.m + cols[e] / g.bs)];
    }
  }
  return counts;
}

SparseNnzProfile declared_nnz_profile(const Csr61& a, const Csr61& b) {
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  const blockmm::BlockGrid g(a.n());
  // This is the sanctioned tainted->plain boundary (DESIGN.md §2.8): the
  // sparse schedule legitimately depends on the operands' sparsity
  // structure, so the structure reads happen under an explicit declaration
  // — the guard counts them (declared_use_count) instead of throwing, and
  // the announcement phase makes the resulting profile common knowledge
  // before any nnz-dependent payload moves.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("declared_nnz_profile"));
  [[maybe_unused]] auto dd = oblivious::declared_dependence(
      CC_OBLIVIOUS_SITE("sparse schedule depends on announced nnz counts"));
  return {g.n, g.m, block_nnz_counts(a, g), block_nnz_counts(b, g),
          static_cast<std::uint64_t>(a.nnz()), static_cast<std::uint64_t>(b.nnz())};
}

SparseMmPlan sparse_mm_plan(int n, int word_bits, int bandwidth, SparseNnzProfile profile) {
  // Plan-function sink: the schedule is a function of (n, w, b) and the
  // *declared* profile alone — plain integers, no CSR structure reads here.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("sparse_mm_plan"));
  CC_REQUIRE(word_bits >= 1 && word_bits <= 64, "word width out of range");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  const blockmm::BlockGrid g(n);
  const int m = g.m;
  CC_REQUIRE(profile.n == n && profile.grid == m,
             "profile built for another grid");
  CC_REQUIRE(profile.a_block_nnz.size() ==
                     static_cast<std::size_t>(n) * static_cast<std::size_t>(m) &&
                 profile.b_block_nnz.size() == profile.a_block_nnz.size(),
             "profile table size mismatch");
  SparseMmPlan plan;
  plan.n = n;
  plan.grid = m;
  plan.block = g.bs;
  plan.word_bits = word_bits;
  plan.index_bits = static_cast<int>(bits_for(static_cast<std::uint64_t>(g.bs)));
  plan.count_bits =
      static_cast<int>(bits_for(static_cast<std::uint64_t>(g.bs) + 1));
  plan.bandwidth = bandwidth;

  // Announcement: every player all-gathers its 2m counts.
  const AllGatherCost announce = all_gather_cost(n, 2 * m * plan.count_bits, bandwidth);
  plan.announce_rounds = announce.rounds;
  plan.announce_bits = announce.bits;

  // Distribution: each slice ships its declared count of (index, value)
  // pairs, index_bits + w bits each.
  const std::size_t pair_bits = static_cast<std::size_t>(plan.index_bits + word_bits);
  plan.distribute = std::make_shared<const RelaySchedule>(relay_cost(
      blockmm::slice_lengths(
          g, [&](const blockmm::Slice& s) { return slice_nnz(profile, s) * pair_bits; }),
      bandwidth));

  // Aggregation: dense widths (fill-in makes output structure unpriceable
  // without a second announcement; see sparse_mm.h).
  plan.aggregate = std::make_shared<const RelaySchedule>(
      relay_cost(blockmm::aggregate_lengths(g, word_bits), bandwidth));

  plan.distribute_rounds = plan.distribute->rounds();
  plan.aggregate_rounds = plan.aggregate->rounds();
  plan.total_rounds = plan.announce_rounds + plan.distribute_rounds + plan.aggregate_rounds;
  plan.total_bits = plan.announce_bits + plan.distribute->bits + plan.aggregate->bits;
  plan.profile = std::move(profile);
  return plan;
}

int run_nnz_announcement(CliqueUnicast& net, const SparseNnzProfile& profile,
                         int count_bits) {
  const int n = profile.n;
  CC_REQUIRE(net.n() == n, "one player per matrix row");
  const int m = profile.grid;
  CC_REQUIRE(count_bits >= 1 && count_bits <= 64, "count width out of range");
  for (const std::vector<std::size_t>* counts : {&profile.a_block_nnz, &profile.b_block_nnz}) {
    CC_REQUIRE(counts->size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(m),
               "profile table size mismatch");
    for (const std::size_t c : *counts) {  // push_uint would keep only the low bits
      CC_REQUIRE(count_bits == 64 || c >> count_bits == 0, "block count overflows count_bits");
    }
  }
  const ChargedSince charged(net.stats());
  all_gather(net, 2 * m * count_bits, [&](int v, Message& out) {
    const std::size_t row = static_cast<std::size_t>(v) * static_cast<std::size_t>(m);
    for (int t = 0; t < m; ++t) {
      out.push_uint(profile.a_block_nnz[row + static_cast<std::size_t>(t)], count_bits);
    }
    for (int t = 0; t < m; ++t) {
      out.push_uint(profile.b_block_nnz[row + static_cast<std::size_t>(t)], count_bits);
    }
  });
  return charged.rounds();
}

SparseMmPlan sparse_mm_m61(CliqueUnicast& net, const Csr61& a, const Csr61& b,
                           Mat61* c) {
  const SparseMmPlan plan = sparse_mm_plan(a.n(), blockmm::M61Ops::kWordBits, net.bandwidth(),
                                           declared_nnz_profile(a, b));
  run_sparse_mm<blockmm::M61Ops>(net, a, b, c, plan);
  return plan;
}

SparseMmPlan sparse_min_plus_mm(CliqueUnicast& net, const Csr61& a,
                                const Csr61& b, TropicalMat* c) {
  const SparseMmPlan plan = sparse_mm_plan(a.n(), blockmm::TropicalOps::kWordBits,
                                           net.bandwidth(), declared_nnz_profile(a, b));
  run_sparse_mm<blockmm::TropicalOps>(net, a, b, c, plan);
  return plan;
}

}  // namespace cclique
