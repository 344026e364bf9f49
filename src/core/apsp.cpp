#include "core/apsp.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "core/block_mm.h"
#include "core/sparse_mm.h"
#include "util/math_util.h"

namespace cclique {

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
  // The eccentricity exchange all-gathers one 61-bit value per player.
  const AllGatherCost ecc = all_gather_cost(n, 61, bandwidth);
  plan.ecc_rounds = ecc.rounds;
  plan.ecc_bits = ecc.bits;
  plan.total_rounds = plan.squarings * plan.product.total_rounds + plan.ecc_rounds;
  plan.total_bits =
      static_cast<std::uint64_t>(plan.squarings) * plan.product.total_bits + plan.ecc_bits;
  plan.series_rounds =
      plan.product.series_rounds * static_cast<double>(ceil_log2(static_cast<std::uint64_t>(n)));
  return plan;
}

AlgebraicMmPlan min_plus_mm(CliqueUnicast& net, const TropicalMat& a,
                            const TropicalMat& b, TropicalMat* c) {
  const AlgebraicMmPlan plan =
      algebraic_mm_plan(a.n(), blockmm::TropicalOps::kWordBits, net.bandwidth());
  blockmm::run_block_mm<blockmm::TropicalOps>(net, a, b, c, plan);
  return plan;
}

ApspResult apsp_run(CliqueUnicast& net, const Graph& g,
                    const std::vector<std::uint32_t>& weights,
                    CountBackend backend, ApspArtifacts* artifacts) {
  const int n = g.num_vertices();
  CC_REQUIRE(n >= 1, "need at least one vertex");
  CC_REQUIRE(net.n() == n, "one player per vertex");

  ApspResult out;
  out.plan = apsp_plan(n, net.bandwidth());
  const ChargedSince charged(net.stats());

  // ---- Repeated squaring: D_0 = W (0 diagonal), D_{s+1} = D_s ⊗ D_s.
  // D_s is the exact shortest-path distance over walks of <= 2^s edges, and
  // simple shortest paths have <= n-1 edges, so ⌈log2(n-1)⌉ squarings reach
  // the closure. On kDense every squaring is one full distributed product
  // of the globally-known geometry — weights only change entry *values*,
  // never a payload length — which keeps the run on the data-independent
  // apsp_plan. The adaptive backends declare and price D_s's profile once
  // per squaring, since the crossover depends on the *current* fill.
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
    out.steps.push_back(run_routed_square<blockmm::TropicalOps>(
        net, out.dist, &next, backend, out.plan.product));
    planned_rounds += out.steps.back().planned_rounds;
    planned_bits += out.steps.back().planned_bits;
    out.dist = std::move(next);
    if (artifacts != nullptr) artifacts->powers.push_back(out.dist);
  }

  // ---- Eccentricity spectrum: player v derives ecc[v] = max_u d(v, u)
  // from its own distance row, then a 61-bit all-gather makes the spectrum
  // (hence diameter and radius) common knowledge — the same closing shape
  // as the counting protocols' partial-sum share. Each value is
  // player-private (ownership-tagged) until the all-gather ships it.
  locality::PerPlayer<std::uint64_t> ecc(
      n, CC_LOCALITY_SITE("per-player eccentricity"));
  for (int v = 0; v < n; ++v) {
    std::uint64_t e = 0;
    for (int u = 0; u < n; ++u) e = std::max(e, out.dist.get(v, u));
    ecc[v] = e;
  }
  const std::vector<Message> row =
      all_gather(net, 61, [&](int v, Message& msg) { msg.push_uint(ecc[v], 61); });
  out.eccentricity.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    out.eccentricity[static_cast<std::size_t>(v)] =
        row[static_cast<std::size_t>(v)].read_uint(0, 61);
  }
  out.diameter = *std::max_element(out.eccentricity.begin(), out.eccentricity.end());
  out.radius = *std::min_element(out.eccentricity.begin(), out.eccentricity.end());

  // ---- One whole-run check for every backend: the measured totals equal
  // the per-squaring plans plus the exchange (on kDense that sum is
  // apsp_plan's total by construction).
  out.total_rounds = charged.rounds();
  out.total_bits = charged.bits();
  charged.check(planned_rounds, planned_bits, "APSP left the planned schedule");
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
