#include "core/mst.h"

#include <algorithm>
#include <numeric>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "routing/router.h"
#include "util/math_util.h"

namespace cclique {

namespace {

// Tie-broken comparison key: (weight, min endpoint, max endpoint).
std::uint64_t edge_key(int u, int v, std::uint32_t w) {
  const std::uint64_t lo = static_cast<std::uint64_t>(std::min(u, v));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::max(u, v));
  return (static_cast<std::uint64_t>(w) << 26) | (lo << 13) | hi;
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    // Deterministic: smaller root wins, so every node computes the same
    // forest.
    if (a > b) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;
    return true;
  }
};

/// One inter-fragment candidate edge; u lies on the submitting side.
struct EdgeRecord {
  bool valid = false;
  int u = 0, v = 0;
  std::uint32_t w = 0;
};

bool record_less(const EdgeRecord& a, const EdgeRecord& b) {
  return edge_key(a.u, a.v, a.w) < edge_key(b.u, b.v, b.w);
}

std::uint64_t pack_record(const EdgeRecord& r, int addr) {
  return (static_cast<std::uint64_t>(r.u) << (addr + 32)) |
         (static_cast<std::uint64_t>(r.v) << 32) | r.w;
}

EdgeRecord unpack_record(std::uint64_t bits, int addr) {
  EdgeRecord r;
  r.valid = true;
  r.u = static_cast<int>(bits >> (addr + 32));
  r.v = static_cast<int>((bits >> 32) & ((1ULL << addr) - 1));
  r.w = static_cast<std::uint32_t>(bits & 0xFFFFFFFFULL);
  return r;
}

/// Adjacency-indexed incident weights: weight_at[v][i] is the weight of
/// edge {v, g.neighbors(v)[i]}. One O(m log d) build replaces the former
/// std::map lookup per neighbor per phase (O(m log m) local work per phase).
std::vector<std::vector<std::uint32_t>> build_incident_weights(
    const Graph& g, const std::vector<std::uint32_t>& weights) {
  // Edge weights are payload (they decide which edges win, never how many
  // bits a round ships): register the ingestion as a tainted source so a
  // schedule computed inside a sink can never consume them.
  oblivious::source_touch(CC_OBLIVIOUS_SITE("MST edge-weight ingestion"));
  const int n = g.num_vertices();
  std::vector<std::vector<std::uint32_t>> weight_at(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    weight_at[static_cast<std::size_t>(v)].resize(g.neighbors(v).size());
  }
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const int u = edges[e].u;
    const int v = edges[e].v;
    const auto& au = g.neighbors(u);
    const auto& av = g.neighbors(v);
    weight_at[static_cast<std::size_t>(u)][static_cast<std::size_t>(
        std::lower_bound(au.begin(), au.end(), v) - au.begin())] = weights[e];
    weight_at[static_cast<std::size_t>(v)][static_cast<std::size_t>(
        std::lower_bound(av.begin(), av.end(), u) - av.begin())] = weights[e];
  }
  return weight_at;
}

/// Round cap for one route_two_phase call of w-bit records when every
/// player sends and receives at most m of them. The call ships one
/// positional stream per (source, destination) pair through the two-hop
/// relay (comm/clique_unicast.h, for_each_relay_chunk). The relay splits an
/// L-bit stream v -> p into n chunks of at most ceil(L/n) bits and sends
/// exactly one of them over each hop-1 edge v -> t and one over each hop-2
/// edge t -> p. So hop-1 edge v -> t carries at most
///   sum_p ceil(L_vp / n) <= (sum_p L_vp) / n + #{p : L_vp > 0}
///                        <= m*w/n + min(m, n-1)
/// bits, hence at most ceil(m*w/n) + min(m, n-1): at most m records leave
/// v, filling at most min(m, n-1) non-empty streams. The bound on hop-2
/// edge t -> p follows the same way from p's in-count. Each hop takes
/// ceil(edge bits / b) rounds.
int route_cap_rounds(std::uint64_t m, int n, std::uint64_t w, int b) {
  if (m == 0) return 0;
  const std::uint64_t un = static_cast<std::uint64_t>(n);
  const std::uint64_t edge_bits = ceil_div(m * w, un) + std::min(m, un - 1);
  return 2 * static_cast<int>(ceil_div(edge_bits, static_cast<std::uint64_t>(b)));
}

/// Shared per-run state of the two schedules: fragment bookkeeping is the
/// same; only the per-phase candidate selection and merge rule differ.
struct MstEngine {
  CliqueUnicast& net;
  const Graph& g;
  int n;
  int addr;      // node-id field width
  int rec_bits;  // one edge record: 2*addr + 32
  std::vector<std::vector<std::uint32_t>> weight_at;
  UnionFind fragments;
  std::vector<char> complete;  // by fragment root id
  MstResult result;

  // Refreshed at each phase start.
  std::vector<int> frag;        // frag[v] = fragment root of v
  std::vector<int> live_roots;  // roots of incomplete fragments, ascending

  MstEngine(CliqueUnicast& net_in, const Graph& g_in,
            const std::vector<std::uint32_t>& weights)
      : net(net_in),
        g(g_in),
        n(g_in.num_vertices()),
        addr(bits_for(static_cast<std::uint64_t>(std::max(1, n)))),
        rec_bits(2 * addr + 32),
        weight_at(build_incident_weights(g_in, weights)),
        fragments(n),
        complete(static_cast<std::size_t>(n), 0) {
    frag.resize(static_cast<std::size_t>(n));
  }

  void refresh() {
    live_roots.clear();
    for (int v = 0; v < n; ++v) frag[static_cast<std::size_t>(v)] = fragments.find(v);
    for (int v = 0; v < n; ++v) {
      if (frag[static_cast<std::size_t>(v)] == v && !complete[static_cast<std::size_t>(v)]) {
        live_roots.push_back(v);
      }
    }
  }

  /// Step 1 of every phase (both schedules): each node announces its
  /// fragment id to everyone. Fragment states are already consistent; the
  /// announcement models the information flow. 1 round.
  void announce_round() {
    all_gather(net, addr, [&](int i, Message& out) {
      out.push_uint(static_cast<std::uint64_t>(frag[static_cast<std::size_t>(i)]), addr);
    });
  }

  void add_tree_edge(const EdgeRecord& c) {
    result.tree.push_back(
        WeightedEdge{std::min(c.u, c.v), std::max(c.u, c.v), c.w});
    result.total_weight += c.w;
  }

  void run_boruvka_phase();
  void run_lotker_phase(int submit_cap);
};

void MstEngine::run_boruvka_phase() {
  announce_round();

  // --- step 2: lightest outgoing edge per node -> fragment leader --------
  // Per-node private state (ownership-tagged): a node's candidate is local
  // knowledge until it is shipped to the leader.
  locality::PerPlayer<EdgeRecord> node_candidate(
      n, CC_LOCALITY_SITE("per-node candidate edge"));
  for (int v = 0; v < n; ++v) {
    EdgeRecord best;
    const auto& nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const int u = nb[i];
      if (frag[static_cast<std::size_t>(u)] == frag[static_cast<std::size_t>(v)]) continue;
      const std::uint32_t w = weight_at[static_cast<std::size_t>(v)][i];
      if (!best.valid || edge_key(v, u, w) < edge_key(best.u, best.v, best.w)) {
        best = EdgeRecord{true, v, u, w};
      }
    }
    node_candidate[v] = best;
  }
  // One message per node to its leader (leader = fragment root id).
  locality::PerPlayer<EdgeRecord> leader_best(
      n, CC_LOCALITY_SITE("leader's fragment-best edge"));
  net.round_fill(
      [&](int i, Message* box) {
        const EdgeRecord& c = node_candidate[i];
        const int leader = frag[static_cast<std::size_t>(i)];
        if (c.valid && leader != i) box[leader].push_uint(pack_record(c, addr), rec_bits);
      },
      [&](int leader, const std::vector<Message>& inbox) {
        EdgeRecord& best = leader_best[leader];
        // Leader's own candidate participates.
        const EdgeRecord& own = node_candidate[leader];
        if (own.valid && frag[static_cast<std::size_t>(leader)] == leader) best = own;
        for (int j = 0; j < n; ++j) {
          const Message& m = inbox[static_cast<std::size_t>(j)];
          if (m.empty()) continue;
          const EdgeRecord c = unpack_record(m.read_uint(0, rec_bits), addr);
          if (!best.valid || record_less(c, best)) best = c;
        }
      });

  // --- step 3: leaders announce merge edges (1 round, even when no leader
  // has a candidate); local merge ------------------------------------------
  const std::vector<Message> row = all_gather(net, rec_bits, [&](int i, Message& out) {
    const EdgeRecord& c = leader_best[i];
    if (frag[static_cast<std::size_t>(i)] == i && c.valid) {
      out.push_uint(pack_record(c, addr), rec_bits);
    }
  });
  std::vector<EdgeRecord> announced(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const Message& m = row[static_cast<std::size_t>(j)];
    if (!m.empty()) {
      announced[static_cast<std::size_t>(j)] = unpack_record(m.read_uint(0, rec_bits), addr);
    }
  }

  // A live fragment whose leader announced nothing has no outgoing edge —
  // it is a finished component and never participates again, so the
  // schedule terminates without burning a merge-free phase.
  for (int r : live_roots) {
    if (!announced[static_cast<std::size_t>(r)].valid) complete[static_cast<std::size_t>(r)] = 1;
  }
  for (int r : live_roots) {
    const EdgeRecord& c = announced[static_cast<std::size_t>(r)];
    if (c.valid && fragments.unite(c.u, c.v)) add_tree_edge(c);
  }
}

void MstEngine::run_lotker_phase(int submit_cap) {
  announce_round();
  const int F = static_cast<int>(live_roots.size());
  const int k = submit_cap;

  // Common-knowledge indexing: position of each live root, sorted members
  // and in-fragment ranks.
  std::vector<int> frag_index(static_cast<std::size_t>(n), -1);
  for (int idx = 0; idx < F; ++idx) frag_index[static_cast<std::size_t>(live_roots[idx])] = idx;
  std::vector<std::vector<int>> members(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const int a = frag[static_cast<std::size_t>(v)];
    if (!complete[static_cast<std::size_t>(a)]) members[static_cast<std::size_t>(a)].push_back(v);
  }

  // --- stage A: per-node per-target minima -> in-fragment aggregators ----
  // Node v computes its own lightest edge to every adjacent fragment (local
  // knowledge) and ships each record to the member of its fragment that
  // aggregates that target (target index mod fragment size). Demand:
  // <= F-1 records out per node, <= ceil(F/m)*m <= F+n in per aggregator.
  std::vector<int> stamp(static_cast<std::size_t>(n), -1);
  std::vector<EdgeRecord> best_to(static_cast<std::size_t>(n));
  locality::PerPlayer<std::vector<EdgeRecord>> agg_in(
      n, CC_LOCALITY_SITE("aggregator's received records"));
  RoutingDemand a_demand;
  a_demand.payload_bits = rec_bits;
  std::vector<int> touched;
  for (int v = 0; v < n; ++v) {
    const int a = frag[static_cast<std::size_t>(v)];
    const auto& nb = g.neighbors(v);
    touched.clear();
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const int u = nb[i];
      const int x = frag[static_cast<std::size_t>(u)];
      if (x == a) continue;
      const std::uint32_t w = weight_at[static_cast<std::size_t>(v)][i];
      const EdgeRecord cand{true, v, u, w};
      if (stamp[static_cast<std::size_t>(x)] != v) {
        stamp[static_cast<std::size_t>(x)] = v;
        best_to[static_cast<std::size_t>(x)] = cand;
        touched.push_back(x);
      } else if (record_less(cand, best_to[static_cast<std::size_t>(x)])) {
        best_to[static_cast<std::size_t>(x)] = cand;
      }
    }
    const auto& mem = members[static_cast<std::size_t>(a)];
    for (int x : touched) {
      const EdgeRecord& rec = best_to[static_cast<std::size_t>(x)];
      const int dest = mem[static_cast<std::size_t>(frag_index[static_cast<std::size_t>(x)]) %
                          mem.size()];
      if (dest == v) {
        agg_in[v].push_back(rec);
      } else {
        a_demand.messages.push_back(RoutedMessage{v, dest, pack_record(rec, addr)});
      }
    }
  }
  RoutingResult ra = route_two_phase(net, a_demand);
  for (int p = 0; p < n; ++p) {
    for (const auto& [src, payload] : ra.delivered[static_cast<std::size_t>(p)]) {
      (void)src;
      const EdgeRecord rec = unpack_record(payload, addr);
      CC_CHECK(frag[static_cast<std::size_t>(rec.u)] == frag[static_cast<std::size_t>(p)],
               "aggregated record must come from the aggregator's own fragment");
      agg_in[p].push_back(rec);
    }
  }

  // --- stage B: aggregators reduce per target and forward to the leader --
  locality::PerPlayer<std::vector<EdgeRecord>> leader_in(
      n, CC_LOCALITY_SITE("leader's received minima"));
  RoutingDemand b_demand;
  b_demand.payload_bits = rec_bits;
  std::fill(stamp.begin(), stamp.end(), -1);
  for (int p = 0; p < n; ++p) {
    if (agg_in[p].empty()) continue;
    const int a = frag[static_cast<std::size_t>(p)];
    touched.clear();
    for (const EdgeRecord& rec : agg_in[p]) {
      const int x = frag[static_cast<std::size_t>(rec.v)];
      if (stamp[static_cast<std::size_t>(x)] != p) {
        stamp[static_cast<std::size_t>(x)] = p;
        best_to[static_cast<std::size_t>(x)] = rec;
        touched.push_back(x);
      } else if (record_less(rec, best_to[static_cast<std::size_t>(x)])) {
        best_to[static_cast<std::size_t>(x)] = rec;
      }
    }
    for (int x : touched) {
      const EdgeRecord& rec = best_to[static_cast<std::size_t>(x)];
      if (p == a) {
        leader_in[a].push_back(rec);
      } else {
        b_demand.messages.push_back(RoutedMessage{p, a, pack_record(rec, addr)});
      }
    }
  }
  RoutingResult rb = route_two_phase(net, b_demand);
  for (int p = 0; p < n; ++p) {
    for (const auto& [src, payload] : rb.delivered[static_cast<std::size_t>(p)]) {
      (void)src;
      const EdgeRecord rec = unpack_record(payload, addr);
      CC_CHECK(frag[static_cast<std::size_t>(rec.u)] == p,
               "fragment minima must arrive at the fragment's own leader");
      leader_in[p].push_back(rec);
    }
  }

  // Leaders submit their k lightest per-target minima. Target slices are
  // disjoint across aggregators, so each target appears exactly once.
  locality::PerPlayer<std::vector<EdgeRecord>> submit(
      n, CC_LOCALITY_SITE("leader's capped submission list"));
  for (int r : live_roots) {
    auto& list = leader_in[r];
    std::sort(list.begin(), list.end(), record_less);
    const std::size_t take = std::min<std::size_t>(list.size(), static_cast<std::size_t>(k));
    submit[r].assign(list.begin(),
                     list.begin() + static_cast<std::ptrdiff_t>(take));
  }

  // --- stage C: submit counts -> everyone (1 round). The counts make the
  // submission layout common knowledge, so the scatter below is perfectly
  // balanced by construction.
  const std::vector<Message> counts = all_gather(net, addr, [&](int i, Message& out) {
    if (frag_index[static_cast<std::size_t>(i)] >= 0) out.push_uint(submit[i].size(), addr);
  });
  std::vector<std::uint64_t> offset(static_cast<std::size_t>(n), 0);
  std::uint64_t total = 0;
  for (int r : live_roots) {
    offset[static_cast<std::size_t>(r)] = total;
    total += counts[static_cast<std::size_t>(r)].read_uint(0, addr);
  }
  // Sum over fragments of min(k, F-1) with k = max(1, n/F) never exceeds n,
  // so the scatter assigns at most one record per player.
  CC_CHECK(total <= static_cast<std::uint64_t>(n),
           "submission total exceeds the balanced-scatter capacity");

  // --- stage D: balanced scatter (record g -> player g; <= 1 per edge) ---
  std::vector<std::vector<Message>> scatter(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  locality::PerPlayer<std::vector<EdgeRecord>> held(
      n, CC_LOCALITY_SITE("scatter slot's held record"));
  for (int r : live_roots) {
    const auto& list = submit[r];
    for (std::size_t t = 0; t < list.size(); ++t) {
      const int dest = static_cast<int>((offset[static_cast<std::size_t>(r)] + t) %
                                        static_cast<std::uint64_t>(n));
      if (dest == r) {
        held[r].push_back(list[t]);
      } else {
        scatter[static_cast<std::size_t>(r)][static_cast<std::size_t>(dest)].push_uint(
            pack_record(list[t], addr), rec_bits);
      }
    }
  }
  std::vector<std::vector<Message>> scatter_recv;
  unicast_payloads(net, std::move(scatter), &scatter_recv);
  for (int p = 0; p < n; ++p) {
    for (int src = 0; src < n; ++src) {
      const Message& stream = scatter_recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(src)];
      BitReader reader(stream);
      while (reader.remaining() > 0) {
        held[p].push_back(unpack_record(reader.read_uint(rec_bits), addr));
      }
    }
    const std::size_t expected = static_cast<std::uint64_t>(p) < total ? 1 : 0;
    CC_CHECK(held[p].size() == expected,
             "balanced scatter must deliver exactly one record per slot");
  }

  // --- stage E: all-gather of the held records (at most one per player);
  // every player assembles the full submitted fragment graph (identical
  // decode everywhere; model once).
  const std::vector<Message> gathered = all_gather(net, rec_bits, [&](int p, Message& out) {
    if (!held[p].empty()) out.push_uint(pack_record(held[p].front(), addr), rec_bits);
  });
  std::vector<EdgeRecord> submitted;
  submitted.reserve(static_cast<std::size_t>(total));
  for (const Message& m : gathered) {
    if (!m.empty()) submitted.push_back(unpack_record(m.read_uint(0, rec_bits), addr));
  }
  CC_CHECK(submitted.size() == total, "all-gather must reassemble every record");
  std::sort(submitted.begin(), submitted.end(), record_less);

  // --- local capped merge of the fragment graph (identical everywhere) ---
  // Clusters of at most k fragments repeatedly merge along their true
  // minimum outgoing edge. For a cluster C with |C| <= k, each member
  // fragment either submitted its full target list or its k lightest — of
  // which at most |C|-1 <= k-1 can point inside C — so the lightest
  // submitted edge leaving C *is* the cluster's true minimum outgoing edge
  // and the cut property makes it an MST edge. Clusters left with <= k
  // fragments and no outgoing submitted edge are finished components.
  std::vector<std::vector<EdgeRecord>> list(static_cast<std::size_t>(n));
  for (const EdgeRecord& rec : submitted) {
    const int a = frag[static_cast<std::size_t>(rec.u)];
    CC_CHECK(frag_index[static_cast<std::size_t>(a)] >= 0 &&
                 frag_index[static_cast<std::size_t>(frag[static_cast<std::size_t>(rec.v)])] >= 0,
             "submitted records must connect live fragments");
    list[static_cast<std::size_t>(a)].push_back(rec);  // globally sorted order
  }
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<int> fragcount(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> cluster_members(static_cast<std::size_t>(n));
  for (int r : live_roots) {
    fragcount[static_cast<std::size_t>(r)] = 1;
    cluster_members[static_cast<std::size_t>(r)].push_back(r);
  }
  auto min_outgoing = [&](int c) {
    EdgeRecord best;
    for (int a : cluster_members[static_cast<std::size_t>(c)]) {
      auto& cur = cursor[static_cast<std::size_t>(a)];
      const auto& la = list[static_cast<std::size_t>(a)];
      // Entries pointing inside the cluster stay inside forever (clusters
      // only grow), so the cursor never rewinds.
      while (cur < la.size() && fragments.find(la[cur].v) == c) ++cur;
      if (cur < la.size() && (!best.valid || record_less(la[cur], best))) best = la[cur];
    }
    return best;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (int c : live_roots) {
      if (fragments.find(c) != c) continue;  // merged away
      if (fragcount[static_cast<std::size_t>(c)] > k) continue;
      const EdgeRecord e = min_outgoing(c);
      if (!e.valid) continue;
      const int other = fragments.find(e.v);
      const bool united = fragments.unite(e.u, e.v);
      CC_CHECK(united, "merge edge must join two clusters");
      add_tree_edge(e);
      const int nr = fragments.find(e.u);
      const int from = nr == c ? other : c;
      fragcount[static_cast<std::size_t>(nr)] += fragcount[static_cast<std::size_t>(from)];
      fragcount[static_cast<std::size_t>(from)] = 0;
      auto& into = cluster_members[static_cast<std::size_t>(nr)];
      auto& out = cluster_members[static_cast<std::size_t>(from)];
      into.insert(into.end(), out.begin(), out.end());
      out.clear();
      progress = true;
    }
  }
  // Surviving clusters with <= k fragments have no outgoing submitted edge,
  // hence (by the safety argument above) no outgoing edge at all: finished.
  for (int c : live_roots) {
    if (fragments.find(c) == c && fragcount[static_cast<std::size_t>(c)] <= k) {
      complete[static_cast<std::size_t>(c)] = 1;
    }
  }
}

}  // namespace

MstPhasePlan mst_phase_plan(MstAlgorithm algorithm, int n, int live_fragments,
                            int bandwidth) {
  // Plan-function sink. `live_fragments` is data-derived but common
  // knowledge by the time a phase is priced (every player learns the merge
  // outcomes), and it arrives here as a plain int — pricing from it is the
  // documented declared-dependence precedent in DESIGN.md §2.7. Reading
  // *edge weights* here would trip the guard.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("mst_phase_plan"));
  CC_REQUIRE(n >= 1 && live_fragments >= 0 && live_fragments <= n,
             "fragment count must lie in [0, n]");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  const int addr = bits_for(static_cast<std::uint64_t>(std::max(1, n)));
  const std::uint64_t rec = static_cast<std::uint64_t>(2 * addr + 32);
  const std::uint64_t un = static_cast<std::uint64_t>(n);
  const std::uint64_t uf = static_cast<std::uint64_t>(live_fragments);
  // The all-gathers: every node's fragment id, then (Borůvka) each live
  // leader's merge edge or (Lotker) each live leader's submission count.
  const AllGatherCost announce = all_gather_cost(n, addr, bandwidth);
  MstPhasePlan plan;
  plan.fragments = live_fragments;
  if (algorithm == MstAlgorithm::kBoruvka) {
    const AllGatherCost merge = all_gather_cost(n, static_cast<int>(rec), bandwidth);
    plan.submit_cap = 1;
    // Exact: announce + candidates (1 round) + leader broadcast.
    plan.max_rounds = announce.rounds + 1 + merge.rounds;
    plan.max_bits = announce.bits + un * rec + uf * merge.sender_bits;
    return plan;
  }
  const int k = std::max(1, n / std::max(1, live_fragments));
  plan.submit_cap = k;
  // Stage demand bounds, data-independent given (n, F): members send one
  // record per adjacent fragment (<= F-1 out) to rank-sliced aggregators
  // (<= ceil(F/m)*m <= F+n in); aggregators forward <= F-1 records to the
  // leader; the count round, the (<= 1 record per edge) scatter and the
  // all-gather of the scattered records are single chunked exchanges.
  const std::uint64_t m_a = uf + un;
  const std::uint64_t m_b = uf;
  const AllGatherCost counts = all_gather_cost(n, addr, bandwidth);  // per live leader
  const AllGatherCost gather = all_gather_cost(n, static_cast<int>(rec), bandwidth);
  const int single_record_rounds =
      static_cast<int>(ceil_div(rec, static_cast<std::uint64_t>(bandwidth)));
  plan.max_rounds = announce.rounds
                    + route_cap_rounds(m_a, n, rec, bandwidth)
                    + route_cap_rounds(m_b, n, rec, bandwidth)
                    + counts.rounds
                    + single_record_rounds  // scatter
                    + gather.rounds;        // all-gather
  const std::uint64_t f_minus = uf == 0 ? 0 : uf - 1;
  plan.max_bits = announce.bits
                  + 2 * un * f_minus * rec        // stage A, two hops
                  + 2 * uf * f_minus * rec        // stage B, two hops
                  + uf * counts.sender_bits
                  + un * rec                      // scatter, <= n records
                  + gather.bits;                  // all-gather
  return plan;
}

int mst_lotker_phase_bound(int n) {
  if (n <= 1) return 0;
  int phases = 0;
  // Guaranteed growth: a phase entered with minimum live fragment size s
  // uses k >= s and leaves every live cluster with more than k fragments,
  // so s' >= s*(s+1). A phase can run only while two live fragments fit.
  std::uint64_t s = 1;
  while (2 * s <= static_cast<std::uint64_t>(n)) {
    s *= s + 1;
    ++phases;
  }
  return phases;
}

MstResult clique_mst(CliqueUnicast& net, const Graph& g,
                     const std::vector<std::uint32_t>& weights,
                     MstAlgorithm algorithm) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n <= (1 << 13), "vertex ids exceed the packed edge-key width");
  CC_REQUIRE(weights.size() == g.edges().size(), "one weight per edge");
  const int addr = bits_for(static_cast<std::uint64_t>(std::max(1, n)));
  CC_REQUIRE(net.bandwidth() >= 2 * addr + 32,
             "bandwidth must fit one edge record per message");

  MstEngine engine(net, g, weights);
  engine.result.algorithm = algorithm;
  while (true) {
    engine.refresh();
    // A single live fragment cannot have an outgoing edge (every other
    // fragment is a finished component), so the forest is complete; no
    // merge-free phase is ever executed to discover termination.
    if (engine.live_roots.size() <= 1) break;
    const int live = static_cast<int>(engine.live_roots.size());
    const MstPhasePlan plan = mst_phase_plan(algorithm, n, live, net.bandwidth());
    const ChargedSince charged(net.stats());
    if (algorithm == MstAlgorithm::kBoruvka) {
      engine.run_boruvka_phase();
    } else {
      engine.run_lotker_phase(plan.submit_cap);
    }
    MstPhaseCost cost;
    cost.fragments = live;
    cost.rounds = charged.rounds();
    cost.bits = charged.bits();
    cost.plan = plan;
    // The cap is computed from (n, F, b) alone before the phase runs; a
    // violation means the schedule left its data-independent budget.
    if (algorithm == MstAlgorithm::kBoruvka) {
      CC_CHECK(cost.rounds == plan.max_rounds,
               "Borůvka phase must cost exactly its planned rounds");
    } else {
      CC_CHECK(cost.rounds <= plan.max_rounds,
               "Lotker phase exceeded its planned round cap");
    }
    CC_CHECK(cost.bits <= plan.max_bits, "phase exceeded its planned bit cap");
    engine.result.phase_costs.push_back(cost);
    ++engine.result.phases;
  }

  std::sort(engine.result.tree.begin(), engine.result.tree.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return edge_key(a.u, a.v, a.weight) < edge_key(b.u, b.v, b.weight);
            });
  engine.result.stats = net.stats();
  return engine.result;
}

MstResult clique_mst(CliqueUnicast& net, const Graph& g,
                     const std::vector<std::uint32_t>& weights) {
  return clique_mst(net, g, weights, MstAlgorithm::kBoruvka);
}

std::vector<WeightedEdge> kruskal_reference(const Graph& g,
                                            const std::vector<std::uint32_t>& weights) {
  const auto edges = g.edges();
  CC_REQUIRE(weights.size() == edges.size(), "one weight per edge");
  std::vector<std::size_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return edge_key(edges[a].u, edges[a].v, weights[a]) <
           edge_key(edges[b].u, edges[b].v, weights[b]);
  });
  UnionFind uf(g.num_vertices());
  std::vector<WeightedEdge> tree;
  for (std::size_t e : order) {
    if (uf.unite(edges[e].u, edges[e].v)) {
      tree.push_back(WeightedEdge{edges[e].u, edges[e].v, weights[e]});
    }
  }
  std::sort(tree.begin(), tree.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    return edge_key(a.u, a.v, a.weight) < edge_key(b.u, b.v, b.weight);
  });
  return tree;
}

}  // namespace cclique
