#include "core/turan_detect.h"

#include "graph/subgraph.h"
#include "graph/turan.h"
#include "sketch/sketch.h"
#include "util/math_util.h"

namespace cclique {

ReconstructionResult run_algorithm_a(CliqueBroadcast& net, const Graph& g, int k) {
  const int n = g.num_vertices();
  std::vector<Message> payloads(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    payloads[static_cast<std::size_t>(v)] = serialize_sketch(make_sketch(g, v, k), n);
  }
  int rounds_used = 0;
  const std::vector<Message> board = broadcast_payloads(net, std::move(payloads), &rounds_used);
  std::vector<NodeSketch> sketches;
  sketches.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    sketches.push_back(deserialize_sketch(board[static_cast<std::size_t>(v)], k, n));
  }
  return reconstruct_from_sketches(std::move(sketches), k, n);
}

TuranDetectResult turan_subgraph_detect(CliqueBroadcast& net, const Graph& g,
                                        const Graph& h) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one node per vertex");
  TuranDetectResult result;
  result.degeneracy_cap = degeneracy_cap_if_h_free(static_cast<std::uint64_t>(n), h);
  const int k = result.degeneracy_cap;

  ReconstructionResult rec = run_algorithm_a(net, g, k);
  result.reconstructed = rec.success;
  if (rec.success) {
    result.embedding = find_subgraph(rec.graph, h);
    result.contains_h = result.embedding.has_value();
    if (!result.contains_h) result.embedding.reset();
  } else {
    // Claim 6 contrapositive: degeneracy > 4 ex(n,H)/n forces a copy of H.
    result.contains_h = true;
  }
  result.stats = net.stats();
  return result;
}

TuranDetectResult full_broadcast_detect(CliqueBroadcast& net, const Graph& g,
                                        const Graph& h) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one node per vertex");
  // Node v broadcasts its adjacency row restricted to higher ids (each edge
  // announced once: n(n-1)/2 total bits of blackboard traffic).
  std::vector<Message> payloads(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    Message m;
    for (int u = v + 1; u < n; ++u) m.push_bit(g.has_edge(v, u));
    payloads[static_cast<std::size_t>(v)] = std::move(m);
  }
  int rounds_used = 0;
  const std::vector<Message> board = broadcast_payloads(net, std::move(payloads), &rounds_used);

  Graph rec(n);
  for (int v = 0; v < n; ++v) {
    const Message& m = board[static_cast<std::size_t>(v)];
    for (int u = v + 1; u < n; ++u) {
      if (m.get(static_cast<std::size_t>(u - v - 1))) rec.add_edge(v, u);
    }
  }
  TuranDetectResult result;
  result.reconstructed = true;
  result.embedding = find_subgraph(rec, h);
  result.contains_h = result.embedding.has_value();
  if (!result.contains_h) result.embedding.reset();
  result.stats = net.stats();
  return result;
}

}  // namespace cclique
