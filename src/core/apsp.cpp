#include "core/apsp.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "core/block_mm.h"
#include "core/sparse_mm.h"
#include "linalg/kernels.h"
#include "util/math_util.h"

namespace cclique {

namespace {

/// Tropical-semiring adapter for the shared block-MM driver. Elements
/// serialize as 61-bit words (kTropicalInf = all-ones round-trips through
/// push_uint/read_uint unchanged) and blocks pad with TropicalMat(n)'s
/// all-+inf fill — the semiring zero, so padding never changes a product
/// entry.
struct TropicalOps {
  using Matrix = TropicalMat;
  static constexpr int kWordBits = 61;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.min_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    // Local compute between metered phases: the kernel/thread choice (the
    // CC_KERNEL / CC_THREADS knobs) changes wall-clock only, never the
    // product values or any CommStats counter.
    return tropical_multiply_dispatch(a, b);
  }
};

}  // namespace

ApspPlan apsp_plan(int n, int bandwidth) {
  // Plan-function sink: the full squaring schedule is priced from (n, b)
  // alone — edge weights never enter (see DESIGN.md, obliviousness contract).
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("apsp_plan"));
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  ApspPlan plan;
  plan.n = n;
  plan.squarings = n >= 2 ? ceil_log2(static_cast<std::uint64_t>(n) - 1) : 0;
  plan.product = algebraic_mm_plan(n, /*word_bits=*/61, bandwidth);
  // The eccentricity exchange ships one 61-bit value per ordered pair in
  // ceil(61 / b) chunked rounds (nothing to exchange on a 1-clique).
  plan.ecc_rounds =
      n >= 2 ? static_cast<int>(ceil_div(61, static_cast<std::uint64_t>(bandwidth))) : 0;
  plan.ecc_bits = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) * 61u;
  plan.total_rounds = plan.squarings * plan.product.total_rounds + plan.ecc_rounds;
  plan.total_bits =
      static_cast<std::uint64_t>(plan.squarings) * plan.product.total_bits + plan.ecc_bits;
  plan.series_rounds =
      plan.product.series_rounds * static_cast<double>(ceil_log2(static_cast<std::uint64_t>(n)));
  return plan;
}

MinPlusResult min_plus_mm(CliqueUnicast& net, const TropicalMat& a,
                          const TropicalMat& b, TropicalMat* c) {
  const AlgebraicMmPlan plan = algebraic_mm_plan(a.n(), /*word_bits=*/61, net.bandwidth());
  return blockmm::run_block_mm<TropicalOps, MinPlusResult>(net, a, b, c, plan);
}

namespace {

/// One squaring *next = d ⊗ d on `backend`'s schedule. The dense product
/// runs against `dense` (priced once per run by apsp_plan); the adaptive
/// backends declare d's nnz profile first, and kAuto pays the announcement
/// even when the crossover sends it back to the dense schedule.
ApspStep square(CliqueUnicast& net, const TropicalMat& d, TropicalMat* next,
                CountBackend backend, const AlgebraicMmPlan& dense) {
  ApspStep step;
  step.planned_rounds = dense.total_rounds;
  step.planned_bits = dense.total_bits;
  if (backend != CountBackend::kDense) {
    // D_s's finite entries are this squaring's explicit structure, so the
    // crossover is priced against the *current* fill, not the input graph's.
    const Csr61 cur = Csr61::from_dense(d);
    const SparseNnzProfile profile = declared_nnz_profile(cur, cur);
    const SparseMmPlan plan =
        sparse_mm_plan(d.n(), /*word_bits=*/61, net.bandwidth(), profile);
    step.declared_nnz = plan.a_nnz;
    step.used_sparse =
        backend == CountBackend::kSparse || sparse_backend_preferred(plan);
    if (step.used_sparse) {
      sparse_min_plus_mm(net, cur, cur, next);
      step.planned_rounds = plan.total_rounds;
      step.planned_bits = plan.total_bits;
      return step;
    }
    run_nnz_announcement(net, profile, plan.count_bits);
    step.planned_rounds += plan.announce_rounds;
    step.planned_bits += plan.announce_bits;
  }
  blockmm::run_block_mm<TropicalOps, MinPlusResult>(net, d, d, next, dense);
  return step;
}

}  // namespace

ApspResult apsp_run(CliqueUnicast& net, const Graph& g,
                    const std::vector<std::uint32_t>& weights,
                    CountBackend backend, ApspArtifacts* artifacts) {
  const int n = g.num_vertices();
  CC_REQUIRE(n >= 1, "need at least one vertex");
  CC_REQUIRE(net.n() == n, "one player per vertex");

  ApspResult out;
  out.plan = apsp_plan(n, net.bandwidth());
  const int rounds_before = net.stats().rounds;
  const std::uint64_t bits_before = net.stats().total_bits;

  // ---- Repeated squaring: D_0 = W (0 diagonal), D_{s+1} = D_s ⊗ D_s.
  // D_s is the exact shortest-path distance over walks of <= 2^s edges, and
  // simple shortest paths have <= n-1 edges, so ⌈log2(n-1)⌉ squarings reach
  // the closure. On kDense every squaring is one full distributed product
  // of the globally-known geometry — weights only change entry *values*,
  // never a payload length — which keeps the run on the data-independent
  // apsp_plan.
  out.dist = TropicalMat::from_weighted_graph(g, weights);
  if (artifacts != nullptr) {
    // Artifact retention is a local copy per squaring: the power chain is
    // exactly what the protocol computes anyway, so keeping it cannot touch
    // the metered schedule.
    artifacts->powers.clear();
    artifacts->powers.reserve(static_cast<std::size_t>(out.plan.squarings) + 1);
    artifacts->powers.push_back(out.dist);
  }
  out.steps.reserve(static_cast<std::size_t>(out.plan.squarings));
  int planned_rounds = out.plan.ecc_rounds;
  std::uint64_t planned_bits = out.plan.ecc_bits;
  for (int s = 0; s < out.plan.squarings; ++s) {
    TropicalMat next;
    out.steps.push_back(square(net, out.dist, &next, backend, out.plan.product));
    planned_rounds += out.steps.back().planned_rounds;
    planned_bits += out.steps.back().planned_bits;
    out.dist = std::move(next);
    if (artifacts != nullptr) artifacts->powers.push_back(out.dist);
  }

  // ---- Eccentricity spectrum: player v derives ecc[v] = max_u d(v, u)
  // from its own distance row, then a one-shot 61-bit all-to-all exchange
  // makes the spectrum (hence diameter and radius) common knowledge — the
  // same closing shape as the counting protocols' partial-sum share.
  // Each value is player-private (ownership-tagged) until the exchange
  // below hands it off into the common-knowledge result struct.
  locality::PerPlayer<std::uint64_t> ecc(
      n, CC_LOCALITY_SITE("per-player eccentricity"));
  for (int v = 0; v < n; ++v) {
    std::uint64_t e = 0;
    for (int u = 0; u < n; ++u) e = std::max(e, out.dist.get(v, u));
    ecc[v] = e;
  }
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int v = 0; v < n; ++v) {
    for (int j = 0; j < n; ++j) {
      if (j == v) continue;
      payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(j)].push_uint(ecc[v], 61);
    }
  }
  std::vector<std::vector<Message>> recv;
  out.ecc_rounds = unicast_payloads(net, payload, &recv);
  out.eccentricity = ecc.take();
  if (n > 1) {
    // Player 0's inbox must reproduce the spectrum (cheap representative of
    // the clique-wide agreement, as in share_partials).
    for (int v = 1; v < n; ++v) {
      CC_CHECK(recv[0][static_cast<std::size_t>(v)].read_uint(0, 61) ==
                   out.eccentricity[static_cast<std::size_t>(v)],
               "eccentricity exchange corrupted a value");
    }
  }
  out.diameter = *std::max_element(out.eccentricity.begin(), out.eccentricity.end());
  out.radius = *std::min_element(out.eccentricity.begin(), out.eccentricity.end());

  // ---- One whole-run check for every backend: the measured totals equal
  // the per-squaring plans plus the exchange (on kDense that sum is
  // apsp_plan's total by construction).
  out.total_rounds = net.stats().rounds - rounds_before;
  out.total_bits = net.stats().total_bits - bits_before;
  CC_CHECK(out.ecc_rounds == out.plan.ecc_rounds,
           "eccentricity exchange left the planned schedule");
  CC_CHECK(out.total_rounds == planned_rounds,
           "APSP rounds diverged from the planned schedule");
  CC_CHECK(out.total_bits == planned_bits,
           "APSP bits diverged from the planned schedule");
  return out;
}

TropicalMat apsp_dijkstra_reference(const Graph& g,
                                    const std::vector<std::uint32_t>& weights) {
  const int n = g.num_vertices();
  const std::vector<Edge> edges = g.edges();
  CC_REQUIRE(weights.size() == edges.size(), "one weight per edge");
  // Adjacency-indexed weight table (the core/mst convention): adj[v] lists
  // (neighbor, weight) pairs.
  std::vector<std::vector<std::pair<int, std::uint32_t>>> adj(
      static_cast<std::size_t>(n));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adj[static_cast<std::size_t>(edges[e].u)].push_back({edges[e].v, weights[e]});
    adj[static_cast<std::size_t>(edges[e].v)].push_back({edges[e].u, weights[e]});
  }
  TropicalMat dist(n);
  using Item = std::pair<std::uint64_t, int>;  // (distance, vertex)
  for (int s = 0; s < n; ++s) {
    std::vector<std::uint64_t> d(static_cast<std::size_t>(n), kTropicalInf);
    d[static_cast<std::size_t>(s)] = 0;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    pq.push({0, s});
    while (!pq.empty()) {
      const auto [du, u] = pq.top();
      pq.pop();
      if (du != d[static_cast<std::size_t>(u)]) continue;  // stale entry
      for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
        const std::uint64_t cand = du + w;  // < kInf: n * 2^32 distances can't saturate
        if (cand < d[static_cast<std::size_t>(v)]) {
          d[static_cast<std::size_t>(v)] = cand;
          pq.push({cand, v});
        }
      }
    }
    for (int v = 0; v < n; ++v) dist.set(s, v, d[static_cast<std::size_t>(v)]);
  }
  return dist;
}

}  // namespace cclique
