#include "core/adaptive_detect.h"

#include "core/turan_detect.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "sketch/sketch.h"
#include "util/math_util.h"

namespace cclique {

AdaptiveDetectResult adaptive_subgraph_detect(CliqueBroadcast& net, const Graph& g,
                                              const Graph& h, Rng& rng) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one node per vertex");
  AdaptiveDetectResult result;

  // Phase 1: broadcast the sampling values X_v (log N bits each, chunked);
  // afterwards every node can classify each of its incident edges into the
  // hierarchy levels. We materialize the hierarchy centrally — the same
  // deterministic function of the blackboard every node computes.
  const std::vector<std::uint64_t> x = draw_sampling_values(n, rng);
  {
    const int xbits = bits_for(1ULL << floor_log2(static_cast<std::uint64_t>(n)));
    std::vector<Message> payloads(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      Message m;
      m.push_uint(x[static_cast<std::size_t>(v)], xbits);
      payloads[static_cast<std::size_t>(v)] = std::move(m);
    }
    int rounds_used = 0;
    broadcast_payloads(net, std::move(payloads), &rounds_used);
  }
  const int l = floor_log2(static_cast<std::uint64_t>(n));

  // Phase 2: doubling guesses; A(G_j, k_i) per level.
  for (int i = 1;; ++i) {
    const int k_i = 1 << i;
    for (int j = 0; j <= l; ++j) {
      const Graph gj = mod_sampled_subgraph(g, x, j);
      ReconstructionResult rec = run_algorithm_a(net, gj, k_i);
      ++result.reconstruction_runs;
      if (!rec.success) continue;
      auto found = find_subgraph(rec.graph, h);
      if (found.has_value()) {
        result.contains_h = true;
        result.embedding = std::move(found);
        result.final_guess = k_i;
        result.final_level = j;
        result.stats = net.stats();
        return result;
      }
      if (j == 0) {
        // Full graph reconstructed with no copy of H: definitive.
        result.contains_h = false;
        result.final_guess = k_i;
        result.final_level = 0;
        result.stats = net.stats();
        return result;
      }
      // Sparse level reconstructed but H-free there: inconclusive for G.
      // Every higher level is a subgraph of this one, so it is H-free too —
      // skip straight to the next guess.
      break;
    }
    CC_CHECK(k_i < 2 * n, "adaptive loop failed to terminate by k_i >= n");
  }
}

}  // namespace cclique
