#include "layers.h"

#include <cstdint>
#include <utility>

#include "core/algebraic_mm.h"
#include "core/apsp.h"
#include "core/sparse_mm.h"
#include "linalg/kernels.h"
#include "linalg/sparse.h"

namespace perfbench {

using namespace cclique;

namespace {

constexpr int kWordBits = 61;  // every product the workloads run ships 61-bit words

/// Runs f once inside a span and returns its time multiplied by `scale`.
template <typename F>
double timed(SpanLog* log, const char* name, const char* layer, int op, double scale, F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  const Clock::time_point t1 = Clock::now();
  log->add(name, layer, t0, t1, op, scale);
  return ms_between(t0, t1) * scale;
}

/// Distribution lengths of the sparse schedule (run_sparse_mm): each row
/// owner ships its declared (index, value) pairs of every block a triple
/// needs, A pairs and B pairs alike.
blockmm::LengthMatrix sparse_distribute_lengths(const blockmm::BlockGrid& g,
                                                const SparseNnzProfile& prof,
                                                std::size_t pair_bits) {
  const std::size_t n = static_cast<std::size_t>(g.n);
  const std::size_t m = static_cast<std::size_t>(g.m);
  blockmm::LengthMatrix len(n, std::vector<std::size_t>(n, 0));
  for (int p = 0; p < g.triples(); ++p) {
    const std::size_t pp = static_cast<std::size_t>(p);
    const std::size_t j = static_cast<std::size_t>(g.tj(p));
    const std::size_t k = static_cast<std::size_t>(g.tk(p));
    for (int v = g.lo(g.ti(p)); v < g.hi(g.ti(p)); ++v) {
      if (v == p) continue;
      const std::size_t vv = static_cast<std::size_t>(v);
      len[vv][pp] += prof.a_block_nnz[vv * m + k] * pair_bits;
    }
    for (int v = g.lo(g.tk(p)); v < g.hi(g.tk(p)); ++v) {
      if (v == p) continue;
      const std::size_t vv = static_cast<std::size_t>(v);
      len[vv][pp] += prof.b_block_nnz[vv * m + j] * pair_bits;
    }
  }
  return len;
}

/// Copies the (row interval r, column interval c) block of `m` into a
/// bs x bs matrix padded with the semiring zero (Matrix(bs)'s fill).
template <typename Matrix>
Matrix block_of(const Matrix& m, const blockmm::BlockGrid& g, int r, int c) {
  Matrix out(g.bs);
  for (int i = 0; i < g.len(r); ++i) {
    for (int j = 0; j < g.len(c); ++j) out.set(i, j, m.get(g.lo(r) + i, g.lo(c) + j));
  }
  return out;
}

/// The A_ik block of `a` as a bs x bs CSR (rows past the interval empty).
Csr61 csr_block_of(const Mat61& a, const blockmm::BlockGrid& g, int r, int c) {
  std::vector<std::size_t> row_ptr(static_cast<std::size_t>(g.bs) + 1, 0);
  std::vector<int> cols;
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < g.bs; ++i) {
    for (int j = 0; i < g.len(r) && j < g.len(c); ++j) {
      const std::uint64_t v = a.get(g.lo(r) + i, g.lo(c) + j);
      if (v == 0) continue;
      cols.push_back(j);
      vals.push_back(v);
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = cols.size();
  }
  return Csr61(g.bs, SparseRing::kM61, std::move(row_ptr), std::move(cols), std::move(vals));
}

/// Times all m^3 block products of one squaring with `multiply` and books
/// them `scale` times: 2·bs³ semiring operations and three bs x bs operands
/// of traffic per call (computed from the shapes, not counted).
template <typename Matrix, typename Multiply>
void time_dense_blocks(SpanLog* log, const char* name, int op, const Matrix& m,
                       const blockmm::BlockGrid& g, double scale, Multiply multiply,
                       LayerTotals* t) {
  std::vector<std::pair<Matrix, Matrix>> blocks;
  blocks.reserve(static_cast<std::size_t>(g.triples()));
  for (int p = 0; p < g.triples(); ++p) {
    blocks.emplace_back(block_of(m, g, g.ti(p), g.tk(p)), block_of(m, g, g.tk(p), g.tj(p)));
  }
  t->kernel_ms += timed(log, name, "linalg.kernels", op, scale, [&] {
    for (const auto& ab : blocks) multiply(ab.first, ab.second);
  });
  const double bs = static_cast<double>(g.bs);
  const double calls = static_cast<double>(blocks.size()) * scale;
  t->kernel_calls += calls;
  t->kernel_ops += calls * 2.0 * bs * bs * bs;
  t->kernel_bytes += calls * 3.0 * bs * bs * 8.0;
}

}  // namespace

LayerProbe::LayerProbe(int n, int bandwidth, SpanLog* log)
    : n_(n), bandwidth_(bandwidth), grid_(n), net_(n, bandwidth), log_(log) {}

void LayerProbe::relay(int op, const blockmm::LengthMatrix& len, double scale,
                       LayerTotals* t) {
  const std::size_t n = static_cast<std::size_t>(n_);
  std::vector<std::vector<Message>> payload(n, std::vector<Message>(n));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t p = 0; p < n; ++p) payload[v][p] = Message(len[v][p]);
  }
  std::vector<std::vector<Message>> recv;
  const std::uint64_t bits_before = net_.stats().total_bits;
  t->relay_ms += timed(log_, "unicast_payloads_relayed", "comm", op, scale,
                       [&] { unicast_payloads_relayed(net_, payload, &recv); });
  t->relay_calls += scale;
  t->relay_bits += static_cast<double>(net_.stats().total_bits - bits_before) * scale;
}

void LayerProbe::tropical_blocks(int op, const TropicalMat& m, double scale,
                                 LayerTotals* t) {
  time_dense_blocks(log_, "tropical_multiply_dispatch", op, m, grid_, scale,
                    [](const TropicalMat& a, const TropicalMat& b) {
                      return tropical_multiply_dispatch(a, b);
                    },
                    t);
}

void LayerProbe::m61_blocks(int op, const Mat61& m, double scale, LayerTotals* t) {
  time_dense_blocks(log_, "m61_multiply_dispatch", op, m, grid_, scale,
                    [](const Mat61& a, const Mat61& b) { return m61_multiply_dispatch(a, b); },
                    t);
}

void LayerProbe::apsp_plan(int op, double scale, LayerTotals* t) {
  t->plan_ms += timed(log_, "apsp_plan", "core.plan", op, scale,
                      [&] { cclique::apsp_plan(n_, bandwidth_); });
  t->plan_calls += scale;
}

void LayerProbe::apsp_op(int op, const Graph& g, const std::vector<std::uint32_t>& w,
                         const TropicalMat& dist, LayerTotals* t) {
  const int squarings = cclique::apsp_plan(n_, bandwidth_).squarings;
  apsp_plan(op, 1, t);
  relay(op, blockmm::distribute_lengths(grid_, kWordBits), squarings, t);
  relay(op, blockmm::aggregate_lengths(grid_, kWordBits), squarings, t);
  tropical_blocks(op, TropicalMat::from_weighted_graph(g, w), 1, t);
  tropical_blocks(op, dist, squarings - 1, t);
}

void LayerProbe::count_op(int op, const Graph& g, bool used_sparse, LayerTotals* t) {
  const Mat61 a = Mat61::adjacency(g);
  const Csr61 sa = Csr61::from_dense(a);
  // kAuto declares and prices the profile once to decide; sparse_mm_m61
  // declares and prices it again.
  const double repeats = used_sparse ? 2 : 1;
  SparseNnzProfile prof;
  const double profile_ms =
      timed(log_, "declared_nnz_profile", "core.sparse_mm", op, repeats,
            [&] { prof = declared_nnz_profile(sa, sa); });
  t->profile_ms += profile_ms;
  t->sparse_ms += profile_ms;
  SparseMmPlan splan;
  t->plan_ms += timed(log_, "sparse_mm_plan", "core.plan", op, repeats,
                      [&] { splan = sparse_mm_plan(n_, kWordBits, bandwidth_, prof); });
  t->plan_calls += repeats;
  t->sparse_ms += timed(log_, "run_nnz_announcement", "core.sparse_mm", op, 1,
                        [&] { run_nnz_announcement(net_, prof, splan.count_bits); });
  t->announce_rounds += splan.announce_rounds;
  t->sparse_attempts += 1;
  t->sparse_taken += used_sparse ? 1 : 0;

  if (!used_sparse) {
    t->plan_ms += timed(log_, "algebraic_mm_plan", "core.plan", op, 1,
                        [&] { algebraic_mm_plan(n_, kWordBits, bandwidth_); });
    t->plan_calls += 1;
    relay(op, blockmm::distribute_lengths(grid_, kWordBits), 1, t);
    relay(op, blockmm::aggregate_lengths(grid_, kWordBits), 1, t);
    m61_blocks(op, a, 1, t);
    return;
  }
  relay(op,
        sparse_distribute_lengths(grid_, prof,
                                  static_cast<std::size_t>(splan.index_bits + kWordBits)),
        1, t);
  relay(op, blockmm::aggregate_lengths(grid_, kWordBits), 1, t);

  // Sparse-dense block products: A_ik as a CSR block, B_kj dense.
  std::vector<std::pair<Csr61, Mat61>> blocks;
  double nnz = 0;
  for (int p = 0; p < grid_.triples(); ++p) {
    blocks.emplace_back(csr_block_of(a, grid_, grid_.ti(p), grid_.tk(p)),
                        block_of(a, grid_, grid_.tk(p), grid_.tj(p)));
    nnz += static_cast<double>(blocks.back().first.nnz());
  }
  t->kernel_ms += timed(log_, "m61_spmm_dispatch", "linalg.kernels", op, 1, [&] {
    for (const auto& ab : blocks) m61_spmm_dispatch(ab.first, ab.second);
  });
  // Per call: 2 ops per stored entry per output column; the CSR block
  // (12 bytes per entry plus row pointers), the dense B block and C.
  const double bs = static_cast<double>(grid_.bs);
  const double calls = static_cast<double>(blocks.size());
  t->kernel_calls += calls;
  t->kernel_ops += 2.0 * nnz * bs;
  t->kernel_bytes += nnz * 12.0 + calls * ((bs + 1) * 8.0 + 2.0 * bs * bs * 8.0);
}

void LayerProbe::serve_miss(int op, const Graph& g, const std::vector<std::uint32_t>& w,
                            const TropicalMat& dist, LayerTotals* t) {
  // serving_plan prices both APSP runs and the counting pack, then every
  // run prices its own schedule again.
  const int squarings = cclique::apsp_plan(n_, bandwidth_).squarings;
  apsp_plan(op, 4, t);
  t->plan_ms += timed(log_, "counting_artifacts_plan", "core.plan", op, 2,
                      [&] { counting_artifacts_plan(n_, bandwidth_); });
  t->plan_calls += 2;
  // Two APSP runs (weighted closure + unit hop chain) and one A·A product.
  const double products = 2.0 * squarings + 1.0;
  relay(op, blockmm::distribute_lengths(grid_, kWordBits), products, t);
  relay(op, blockmm::aggregate_lengths(grid_, kWordBits), products, t);
  tropical_blocks(op, TropicalMat::from_weighted_graph(g, w), 2, t);
  tropical_blocks(op, dist, 2.0 * (squarings - 1), t);
  m61_blocks(op, Mat61::adjacency(g), 1, t);
}

}  // namespace perfbench
