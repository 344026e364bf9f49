#include "core/dlp_triangle.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/dlp_subgraph.h"
#include "graph/subgraph.h"
#include "util/math_util.h"

namespace cclique {

namespace {

// Is there a triangle among this edge list?
bool local_triangle(const std::vector<Edge>& edges, int n) {
  Graph h(n);
  for (const Edge& e : edges) h.add_edge(e.u, e.v);
  return count_triangles(h) > 0;
}

// Each player checks its routed piece; the verdicts meet at player 0.
bool detect_in_pieces(CliqueUnicast& net, const std::vector<std::vector<Edge>>& local) {
  const int n = net.n();
  std::vector<bool> found(static_cast<std::size_t>(n), false);
  for (int p = 0; p < n; ++p) {
    found[static_cast<std::size_t>(p)] = local_triangle(local[static_cast<std::size_t>(p)], n);
  }
  return dlp::gather_verdicts(net, found);
}

}  // namespace

DlpResult dlp_triangle_detect(CliqueUnicast& net, const Graph& g) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  // Largest t whose multiset count fits the player budget.
  int t = 1;
  while (static_cast<std::uint64_t>(t + 1) * static_cast<std::uint64_t>(t + 2) *
             static_cast<std::uint64_t>(t + 3) / 6 <= static_cast<std::uint64_t>(n)) {
    ++t;
  }
  const auto multisets = dlp::group_multisets(t, 3);
  CC_CHECK(static_cast<int>(multisets.size()) <= n, "multiset assignment overflow");

  DlpResult result;
  result.detected = detect_in_pieces(net, dlp::route_group_pair_edges(net, g, t, multisets));
  result.groups = t;
  result.stats = net.stats();
  return result;
}

DlpResult dlp_triangle_detect_promised(CliqueUnicast& net, const Graph& g,
                                       std::uint64_t promised_triangles, int runs,
                                       Rng& rng) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(promised_triangles >= 1, "promise must be at least one triangle");
  CC_REQUIRE(runs >= 1, "need at least one run");

  // t = ((n * T)^{1/3}) groups: per-player load n^2/t^2 edges, coverage of a
  // fixed triangle by n random triples ~ n/t^3 >= 1/T.
  const double cube = std::cbrt(static_cast<double>(n) * static_cast<double>(promised_triangles));
  int t = std::max(1, static_cast<int>(cube));
  t = std::min(t, n);

  const int taddr = bits_for(static_cast<std::uint64_t>(t));

  DlpResult result;
  result.groups = t;
  bool detected = false;

  for (int run = 0; run < runs && !detected; ++run) {
    // Each player draws a private random group triple...
    std::vector<std::array<int, 3>> triple(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      std::array<int, 3> tr{static_cast<int>(rng.uniform(static_cast<std::uint64_t>(t))),
                            static_cast<int>(rng.uniform(static_cast<std::uint64_t>(t))),
                            static_cast<int>(rng.uniform(static_cast<std::uint64_t>(t)))};
      std::sort(tr.begin(), tr.end());
      triple[static_cast<std::size_t>(p)] = tr;
    }
    // ...and announces it to everyone (3 log t bits, chunked at b).
    const ChargedSince announce(net.stats());
    const std::vector<Message> row = all_gather(net, 3 * taddr, [&](int i, Message& out) {
      for (int x : triple[static_cast<std::size_t>(i)]) {
        out.push_uint(static_cast<std::uint64_t>(x), taddr);
      }
    });
    result.announce_rounds += announce.rounds();
    // Everyone now knows all triples and routes the matching edges.
    std::vector<std::vector<int>> announced(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      BitReader r(row[static_cast<std::size_t>(p)]);
      for (int k = 0; k < 3; ++k) {
        announced[static_cast<std::size_t>(p)].push_back(static_cast<int>(r.read_uint(taddr)));
      }
    }
    detected = detect_in_pieces(net, dlp::route_group_pair_edges(net, g, t, announced));
  }
  result.detected = detected;
  result.stats = net.stats();
  return result;
}

}  // namespace cclique
