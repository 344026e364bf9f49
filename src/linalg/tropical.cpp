#include "linalg/tropical.h"

namespace cclique {

TropicalMat::TropicalMat(int n) : n_(n) {
  CC_REQUIRE(n >= 0, "matrix size must be non-negative");
  data_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
               kTropicalInf);
}

TropicalMat TropicalMat::identity(int n) {
  TropicalMat m(n);
  for (int i = 0; i < n; ++i) m.set(i, i, 0);
  return m;
}

TropicalMat TropicalMat::random(int n, Rng& rng, std::uint64_t bound,
                                double inf_prob) {
  CC_REQUIRE(bound >= 1 && bound <= kTropicalInf, "bound outside the carrier");
  TropicalMat m(n);
  for (auto& e : m.data_) {
    e = rng.bernoulli(inf_prob) ? kTropicalInf : rng.uniform(bound);
  }
  return m;
}

TropicalMat TropicalMat::from_weighted_graph(
    const Graph& g, const std::vector<std::uint32_t>& weights) {
  // Edge weights are payload: tag the ingestion like the MST path does, so
  // a schedule computed inside an oblivious::SinkScope can never read them.
  oblivious::source_touch(CC_OBLIVIOUS_SITE("APSP edge-weight ingestion"));
  const std::vector<Edge> edges = g.edges();
  CC_REQUIRE(weights.size() == edges.size(), "one weight per edge");
  TropicalMat m(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) m.set(v, v, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::uint64_t w = weights[e];
    // Parallel representations of one undirected edge: keep the minimum
    // (edges() is duplicate-free, so this is just the symmetric store).
    m.min_at(edges[e].u, edges[e].v, w);
    m.min_at(edges[e].v, edges[e].u, w);
  }
  return m;
}

TropicalMat tropical_multiply_schoolbook(const TropicalMat& a, const TropicalMat& b) {
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  const int n = a.n();
  TropicalMat out(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::uint64_t best = kTropicalInf;
      for (int k = 0; k < n; ++k) {
        const std::uint64_t cand = tropical_add(a.get(i, k), b.get(k, j));
        if (cand < best) best = cand;
      }
      out.set(i, j, best);
    }
  }
  return out;
}

}  // namespace cclique
