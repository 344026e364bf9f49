#include "core/dlp_subgraph.h"

#include <algorithm>

#include "graph/subgraph.h"
#include "routing/router.h"
#include "util/math_util.h"

namespace cclique {

namespace {

// Number of multisets of size d over t groups: C(t+d-1, d), saturating.
std::uint64_t multiset_count(int t, int d) {
  __uint128_t num = 1;
  for (int i = 0; i < d; ++i) num *= static_cast<unsigned>(t + i);
  __uint128_t den = 1;
  for (int i = 1; i <= d; ++i) den *= static_cast<unsigned>(i);
  const __uint128_t c = num / den;
  return c > ~0ULL ? ~0ULL : static_cast<std::uint64_t>(c);
}

// Enumerates all non-decreasing d-tuples over [t].
void enumerate_multisets(int t, int d, std::vector<int>& cur,
                         std::vector<std::vector<int>>& out) {
  if (static_cast<int>(cur.size()) == d) {
    out.push_back(cur);
    return;
  }
  const int start = cur.empty() ? 0 : cur.back();
  for (int g = start; g < t; ++g) {
    cur.push_back(g);
    enumerate_multisets(t, d, cur, out);
    cur.pop_back();
  }
}

// Does multiset m contain the pair multiset {x,y}?
bool multiset_contains_pair(const std::vector<int>& m, int x, int y) {
  if (x == y) {
    int count = 0;
    for (int v : m) count += (v == x) ? 1 : 0;
    return count >= 2;
  }
  bool has_x = false, has_y = false;
  for (int v : m) {
    if (v == x) has_x = true;
    if (v == y) has_y = true;
  }
  return has_x && has_y;
}

}  // namespace

namespace dlp {

std::vector<std::vector<int>> group_multisets(int t, int d) {
  std::vector<std::vector<int>> out;
  std::vector<int> cur;
  enumerate_multisets(t, d, cur, out);
  return out;
}

std::vector<std::vector<Edge>> route_group_pair_edges(
    CliqueUnicast& net, const Graph& g, int t,
    const std::vector<std::vector<int>>& multisets) {
  const int n = g.num_vertices();
  // pair (lo, hi) -> players wanting those edges.
  std::vector<std::vector<int>> players_for_pair(static_cast<std::size_t>(t) *
                                                 static_cast<std::size_t>(t));
  for (std::size_t p = 0; p < multisets.size(); ++p) {
    for (int lo = 0; lo < t; ++lo) {
      for (int hi = lo; hi < t; ++hi) {
        if (multiset_contains_pair(multisets[p], lo, hi)) {
          players_for_pair[static_cast<std::size_t>(lo) * static_cast<std::size_t>(t) +
                           static_cast<std::size_t>(hi)]
              .push_back(static_cast<int>(p));
        }
      }
    }
  }
  const int addr = bits_for(static_cast<std::uint64_t>(n));
  RoutingDemand demand;
  demand.payload_bits = 2 * addr;
  for (const Edge& e : g.edges()) {
    const int gu = e.u % t;
    const int gv = e.v % t;
    const int lo = std::min(gu, gv), hi = std::max(gu, gv);
    const std::uint64_t payload =
        (static_cast<std::uint64_t>(e.u) << addr) | static_cast<std::uint64_t>(e.v);
    for (int p : players_for_pair[static_cast<std::size_t>(lo) * static_cast<std::size_t>(t) +
                                  static_cast<std::size_t>(hi)]) {
      demand.messages.push_back(RoutedMessage{e.u, p, payload});
    }
  }
  RoutingResult routed = route_two_phase(net, demand);
  std::vector<std::vector<Edge>> local(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    for (const auto& [src, payload] : routed.delivered[static_cast<std::size_t>(p)]) {
      (void)src;
      const int u = static_cast<int>(payload >> addr);
      const int v = static_cast<int>(payload & ((1ULL << addr) - 1));
      local[static_cast<std::size_t>(p)].push_back(Edge(u, v));
    }
  }
  return local;
}

bool gather_verdicts(CliqueUnicast& net, const std::vector<bool>& found) {
  const int n = net.n();
  bool global = found[0];
  net.round_fill(
      [&](int i, Message* box) {
        if (i != 0) box[0].push_bit(found[static_cast<std::size_t>(i)]);
      },
      [&](int receiver, const std::vector<Message>& inbox) {
        if (receiver != 0) return;
        for (int j = 1; j < n; ++j) {
          if (inbox[static_cast<std::size_t>(j)].get(0)) global = true;
        }
      });
  return global;
}

}  // namespace dlp

DlpSubgraphResult dlp_subgraph_detect(CliqueUnicast& net, const Graph& g,
                                      const Graph& h) {
  const int n = g.num_vertices();
  const int d = h.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(d >= 2, "pattern needs at least two vertices");

  // Largest t with C(t+d-1, d) <= n (at least 1).
  int t = 1;
  while (multiset_count(t + 1, d) <= static_cast<std::uint64_t>(n)) ++t;
  const std::vector<std::vector<int>> multisets = dlp::group_multisets(t, d);
  CC_CHECK(multisets.size() <= static_cast<std::size_t>(n),
           "multiset assignment overflow");

  const auto local = dlp::route_group_pair_edges(net, g, t, multisets);
  std::vector<bool> found(static_cast<std::size_t>(n), false);
  for (int p = 0; p < n; ++p) {
    if (local[static_cast<std::size_t>(p)].empty()) continue;
    Graph piece(n);
    for (const Edge& e : local[static_cast<std::size_t>(p)]) piece.add_edge(e.u, e.v);
    found[static_cast<std::size_t>(p)] = contains_subgraph(piece, h);
  }

  DlpSubgraphResult result;
  result.detected = dlp::gather_verdicts(net, found);
  result.groups = t;
  result.stats = net.stats();
  return result;
}

}  // namespace cclique
