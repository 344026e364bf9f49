#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "adapters.h"
#include "core/sparse_mm.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "linalg/sparse.h"
#include "util/rng.h"

namespace perfbench {

using namespace cclique;

namespace {

constexpr int kBandwidth = 64;
constexpr int kSetupReps = 5;
constexpr std::size_t kMaxFailureNotes = 20;

void fail(RunRecord* rec, std::string what) {
  ++rec->failed;
  if (rec->failures.size() < kMaxFailureNotes) rec->failures.push_back(std::move(what));
}

/// Builds the workload state kSetupReps times from the same seed, timing
/// each build, and keeps the last one. `make(&generate_ms)` reports the
/// part spent in the graph generators.
template <typename Setup, typename Make>
Setup timed_setup(RunRecord* rec, Make make) {
  std::optional<Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    double generate_ms = 0;
    const Clock::time_point t0 = Clock::now();
    s.emplace(make(&generate_ms));
    rec->setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    rec->generate_ms.push_back(generate_ms);
  }
  return std::move(*s);
}

/// Closed loop with one caller: op(i, traced) runs input i and returns the
/// milliseconds it charges against the budget (its own time, plus the layer
/// replays when traced). In a traced run odd ops are traced and even ops
/// are their untraced pairs.
template <typename Op>
void protocol_loop(const Options& opt, std::size_t inputs, RunRecord* rec, Op op) {
  const Clock::time_point start = Clock::now();
  const double wall_limit_ms = (3 * opt.seconds + 30) * 1000;
  double charged_ms = 0;
  std::size_t i = 0;
  for (; i < inputs && charged_ms < opt.seconds * 1000; ++i) {
    if (ms_between(start, Clock::now()) > wall_limit_ms) break;
    ++rec->attempted;
    try {
      charged_ms += op(static_cast<int>(i), opt.trace && i % 2 == 1);
    } catch (const std::exception& e) {
      fail(rec, "op " + std::to_string(i) + " threw: " + e.what());
    }
  }
  rec->exhausted = i == inputs;
}

/// Books one op's latency and measured model cost.
void record_op(RunRecord* rec, double ms, bool traced, double rounds, double bits) {
  (traced ? rec->traced_op_ms : rec->op_ms).push_back(ms);
  rec->busy_s += ms / 1000.0;
  ++rec->ops;
  rec->rounds += rounds;
  rec->bits += bits;
  if (traced) {
    rec->layers.traced_ops += 1;
    rec->layers.op_ms += ms;
    rec->layers.op_rounds += rounds;
    rec->layers.op_bits += bits;
  }
}

std::vector<std::uint32_t> uniform_weights(std::size_t m, std::uint64_t hi, Rng& rng) {
  std::vector<std::uint32_t> w(m);
  for (auto& x : w) x = static_cast<std::uint32_t>(1 + rng.uniform(hi));
  return w;
}

// ---------------------------------------------------------------------------
// apsp_dense: apsp_run on weighted gnp(125, 0.15), weights in [1, 1000].

struct GraphInput {
  Graph g;
  std::vector<std::uint32_t> w;
};

struct ProtocolSetup {
  std::vector<GraphInput> inputs;
  std::unique_ptr<CliqueUnicast> net;
};

/// Enough distinct inputs for ops ten times faster than today's; the loop
/// stops early (and says so) if a run still exhausts them.
std::size_t input_count(const Options& opt) {
  return static_cast<std::size_t>(std::ceil(16 * opt.seconds)) + 16;
}

RunRecord run_apsp_dense(const Options& opt, SpanLog* log) {
  RunRecord rec;
  rec.n = opt.tiny ? 27 : 125;
  const int n = rec.n;
  ProtocolSetup s = timed_setup<ProtocolSetup>(&rec, [&](double* generate_ms) {
    ProtocolSetup st;
    Rng root(opt.seed);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < input_count(opt); ++i) {
      Rng r = root.split(i);
      Graph g = gnp(n, 0.15, r);
      std::vector<std::uint32_t> w = uniform_weights(g.num_edges(), 1000, r);
      st.inputs.push_back({std::move(g), std::move(w)});
    }
    *generate_ms = ms_between(t0, Clock::now());
    st.net = std::make_unique<CliqueUnicast>(n, kBandwidth);
    return st;
  });

  LayerProbe probe(n, kBandwidth, log);
  std::vector<std::pair<double, double>> cost;  // per op (rounds, bits)
  protocol_loop(opt, s.inputs.size(), &rec, [&](int i, bool traced) {
    const GraphInput& in = s.inputs[static_cast<std::size_t>(i)];
    const CommStats& st = s.net->stats();
    const double r0 = st.rounds, b0 = static_cast<double>(st.total_bits);
    const Clock::time_point t0 = Clock::now();
    const ApspOpOut out = apsp_dense_op(*s.net, in.g, in.w);
    const Clock::time_point t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    const double rounds = st.rounds - r0, bits = static_cast<double>(st.total_bits) - b0;
    record_op(&rec, ms, traced, rounds, bits);
    cost.emplace_back(rounds, bits);
    double charged = ms;
    if (traced) {
      log->add("apsp_run", "op", t0, t1, i, 1);
      const Clock::time_point r_start = Clock::now();
      probe.apsp_op(i, in.g, in.w, out.dist, &rec.layers);
      charged += ms_between(r_start, Clock::now());
    }
    rec.queries += 1;
    if (!(out.dist == apsp_dijkstra_reference(in.g, in.w))) {
      fail(&rec, "apsp_dense op " + std::to_string(i) + ": distances differ from Dijkstra");
    }
    return charged;
  });

  // The plan is computed after the loop so it cannot warm anything the ops use.
  const ApspPlan plan = apsp_plan(n, kBandwidth);
  for (std::size_t i = 0; i < cost.size(); ++i) {
    if (cost[i].first != plan.total_rounds ||
        cost[i].second != static_cast<double>(plan.total_bits)) {
      fail(&rec, "apsp_dense op " + std::to_string(i) + ": rounds/bits differ from apsp_plan");
    }
  }
  return rec;
}

// ---------------------------------------------------------------------------
// count_sparse: four_cycle_count_algebraic(kAuto) on gnp(125, d/125),
// average degree d in [3, 8].

RunRecord run_count_sparse(const Options& opt, SpanLog* log) {
  RunRecord rec;
  rec.n = opt.tiny ? 27 : 125;
  const int n = rec.n;
  ProtocolSetup s = timed_setup<ProtocolSetup>(&rec, [&](double* generate_ms) {
    ProtocolSetup st;
    Rng root(opt.seed);
    // Degrees follow a golden-ratio sequence from a seeded offset: every
    // window of consecutive ops covers [3, 8] evenly, so a run's mean
    // model cost does not hinge on where it stopped.
    const double offset = root.uniform_double();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < input_count(opt); ++i) {
      Rng r = root.split(i);
      const double frac =
          std::fmod(offset + 0.6180339887498949 * static_cast<double>(i), 1.0);
      st.inputs.push_back({gnp(n, (3.0 + 5.0 * frac) / n, r), {}});
    }
    *generate_ms = ms_between(t0, Clock::now());
    st.net = std::make_unique<CliqueUnicast>(n, kBandwidth);
    return st;
  });

  LayerProbe probe(n, kBandwidth, log);
  const int share_bits = 3 * 61;  // walk, deg², deg partial sums per ordered pair
  const double share_rounds = std::ceil(static_cast<double>(share_bits) / kBandwidth);
  const double share_total = static_cast<double>(n) * (n - 1) * share_bits;
  protocol_loop(opt, s.inputs.size(), &rec, [&](int i, bool traced) {
    const Graph& g = s.inputs[static_cast<std::size_t>(i)].g;
    const CommStats& st = s.net->stats();
    const double r0 = st.rounds, b0 = static_cast<double>(st.total_bits);
    const Clock::time_point t0 = Clock::now();
    const CountOpOut out = count_sparse_op(*s.net, g);
    const Clock::time_point t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    const double rounds = st.rounds - r0, bits = static_cast<double>(st.total_bits) - b0;
    record_op(&rec, ms, traced, rounds, bits);
    double charged = ms;
    if (traced) {
      log->add("four_cycle_count_algebraic", "op", t0, t1, i, 1);
      const Clock::time_point r_start = Clock::now();
      probe.count_op(i, g, out.used_sparse, &rec.layers);
      charged += ms_between(r_start, Clock::now());
    }
    rec.queries += 1;
    if (out.four_cycles != count_four_cycles(g)) {
      fail(&rec, "count_sparse op " + std::to_string(i) + ": 4-cycle count differs");
    }
    if (!out.used_sparse) {
      fail(&rec, "count_sparse op " + std::to_string(i) + ": kAuto left the sparse branch");
      return charged;
    }
    const Csr61 sa = Csr61::from_dense(Mat61::adjacency(g));
    const SparseMmPlan plan =
        sparse_mm_plan(n, 61, kBandwidth, declared_nnz_profile(sa, sa));
    if (rounds != plan.total_rounds + share_rounds ||
        bits != static_cast<double>(plan.total_bits) + share_total) {
      fail(&rec, "count_sparse op " + std::to_string(i) + ": rounds/bits differ from plan");
    }
    return charged;
  });
  return rec;
}

// ---------------------------------------------------------------------------
// serve_mixed: QueryService on weighted gnp(64, 6/64), batches of 256 mixed
// queries, one fresh mutation per cycle of batches and its revert halfway.

/// e20's mix of all seven query kinds.
std::vector<Query> mixed_stream(int n, std::size_t count, Rng& rng) {
  std::vector<Query> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    const int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    switch (rng.uniform(8)) {
      case 0: qs.push_back(Query::ecc(v)); break;
      case 1: qs.push_back(Query::diameter()); break;
      case 2: qs.push_back(Query::radius()); break;
      case 3: qs.push_back(Query::triangles()); break;
      case 4: qs.push_back(Query::four_cycles()); break;
      case 5: qs.push_back(Query::reach(u, v, static_cast<int>(rng.uniform(8)))); break;
      default: qs.push_back(Query::dist(u, v)); break;
    }
  }
  return qs;
}

using WeightMap = std::map<std::pair<int, int>, std::uint32_t>;

/// One graph version as the oracle sees it: the graph, its weights in
/// edges() order, and every answer computed without the protocols.
struct Oracle {
  Graph g;
  std::vector<std::uint32_t> w;
  TropicalMat dist;
  std::vector<std::uint64_t> ecc;
  std::uint64_t diameter = 0;
  std::uint64_t radius = 0;
  std::uint64_t triangles = 0;
  std::uint64_t four_cycles = 0;
  std::vector<std::vector<int>> hops;  ///< BFS hop distance, -1 if unreachable

  Oracle(const Graph& graph, const WeightMap& weights) : g(graph) {
    const int n = g.num_vertices();
    for (const Edge& e : g.edges()) w.push_back(weights.at({e.u, e.v}));
    dist = apsp_dijkstra_reference(g, w);
    for (int v = 0; v < n; ++v) {
      std::uint64_t e = 0;
      for (int u = 0; u < n; ++u) e = std::max(e, dist.get(v, u));
      ecc.push_back(e);
    }
    diameter = *std::max_element(ecc.begin(), ecc.end());
    radius = *std::min_element(ecc.begin(), ecc.end());
    triangles = count_triangles(g);
    four_cycles = count_four_cycles(g);
    for (int s = 0; s < n; ++s) {
      std::vector<int> d(static_cast<std::size_t>(n), -1);
      std::deque<int> frontier{s};
      d[static_cast<std::size_t>(s)] = 0;
      while (!frontier.empty()) {
        const int x = frontier.front();
        frontier.pop_front();
        for (int y : g.neighbors(x)) {
          if (d[static_cast<std::size_t>(y)] >= 0) continue;
          d[static_cast<std::size_t>(y)] = d[static_cast<std::size_t>(x)] + 1;
          frontier.push_back(y);
        }
      }
      hops.push_back(std::move(d));
    }
  }

  std::uint64_t answer(const Query& q) const {
    switch (q.kind) {
      case QueryKind::kDist: return dist.get(q.u, q.v);
      case QueryKind::kEcc: return ecc[static_cast<std::size_t>(q.v)];
      case QueryKind::kDiameter: return diameter;
      case QueryKind::kRadius: return radius;
      case QueryKind::kTriangles: return triangles;
      case QueryKind::kFourCycles: return four_cycles;
      case QueryKind::kReach: {
        const int h = hops[static_cast<std::size_t>(q.u)][static_cast<std::size_t>(q.v)];
        return h >= 0 && h <= q.k ? 1 : 0;
      }
    }
    return ~0ULL;
  }
};

/// A fresh edge toggle against the base graph: added (with `weight`) when
/// absent from it, removed when present.
struct Mutation {
  int u = 0;
  int v = 0;
  bool add = false;
  std::uint32_t weight = 0;
};

struct ServeSetup {
  Graph g0;
  WeightMap w0;
  std::unique_ptr<QueryService> svc;
  std::vector<std::vector<Query>> batches;  ///< pool, used round-robin
  std::vector<Mutation> schedule;           ///< one fresh mutation per cycle
};

RunRecord run_serve_mixed(const Options& opt, SpanLog* log) {
  RunRecord rec;
  rec.n = opt.tiny ? 16 : 64;
  const int n = rec.n;
  const std::size_t batch_size = opt.tiny ? 32 : 256;
  const int cycle_len = opt.tiny ? 10 : 50;  // batches per fresh mutation
  const std::size_t pool = opt.tiny ? 64 : 1024;
  const std::size_t cycles = static_cast<std::size_t>(std::ceil(40 * opt.seconds)) + 4;
  // The cap holds two versions' artifact sets (closure, A², hop chain) but
  // not three, so every fresh mutation evicts the previous one's set while
  // the base version, touched since, survives for the revert to hit.
  const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  const std::size_t set_words =
      (nn + static_cast<std::size_t>(n)) + nn +
      static_cast<std::size_t>(apsp_plan(n, kBandwidth).squarings + 1) * nn;

  ServeSetup s = timed_setup<ServeSetup>(&rec, [&](double* generate_ms) {
    ServeSetup st;
    Rng root(opt.seed);
    Rng gr = root.split(0);
    const Clock::time_point t0 = Clock::now();
    st.g0 = gnp(n, 6.0 / n, gr);
    const std::vector<std::uint32_t> w = uniform_weights(st.g0.num_edges(), 1 << 10, gr);
    *generate_ms = ms_between(t0, Clock::now());
    for (std::size_t e = 0; e < w.size(); ++e) {
      st.w0[{st.g0.edges()[e].u, st.g0.edges()[e].v}] = w[e];
    }
    QueryService::Config cfg;
    cfg.bandwidth = kBandwidth;
    cfg.capacity_words = set_words * 5 / 2;
    st.svc = std::make_unique<QueryService>(st.g0, w, cfg);
    // Initial cache fill: one batch touching all three artifact classes.
    serve_mixed_op(*st.svc, {Query::diameter(), Query::triangles(), Query::reach(0, n - 1, 2)});
    for (std::size_t b = 0; b < pool; ++b) {
      Rng qr = root.split(1000 + b);
      st.batches.push_back(mixed_stream(n, batch_size, qr));
    }
    std::pair<int, int> prev{-1, -1};
    for (std::size_t c = 0; c < cycles; ++c) {
      Rng mr = root.split(1000000 + c);
      Mutation m;
      do {
        m.u = static_cast<int>(mr.uniform(static_cast<std::uint64_t>(n)));
        m.v = static_cast<int>(mr.uniform(static_cast<std::uint64_t>(n)));
        if (m.u > m.v) std::swap(m.u, m.v);
      } while (m.u == m.v || std::make_pair(m.u, m.v) == prev);
      prev = {m.u, m.v};
      m.add = !st.g0.has_edge(m.u, m.v);
      m.weight = static_cast<std::uint32_t>(1 + mr.uniform(1 << 10));
      st.schedule.push_back(m);
    }
    return st;
  });
  QueryService& svc = *s.svc;

  LayerProbe probe(n, kBandwidth, log);
  const Oracle base(s.g0, s.w0);
  const std::uint64_t evictions_before = svc.cache_evictions();
  std::vector<std::pair<double, double>> miss_cost;  // (rounds, bits) of miss batches
  std::vector<bool> miss_needs_hops;
  const Clock::time_point start = Clock::now();
  const double wall_limit_ms = (3 * opt.seconds + 30) * 1000;
  std::size_t b = 0;
  std::size_t c = 0;

  // Applies a timed edge toggle; mutations count towards busy time.
  auto mutate = [&](const Mutation& m, bool add, std::uint32_t weight) {
    const Clock::time_point t0 = Clock::now();
    const bool changed = add ? svc.add_edge(m.u, m.v, weight) : svc.remove_edge(m.u, m.v);
    const double ms = ms_between(t0, Clock::now());
    rec.mutate_us.push_back(ms * 1000.0);
    rec.busy_s += ms / 1000.0;
    if (!changed) fail(&rec, "serve_mixed cycle " + std::to_string(c) + ": mutation had no effect");
  };

  for (; c < s.schedule.size() && rec.busy_s < opt.seconds; ++c) {
    if (ms_between(start, Clock::now()) > wall_limit_ms) break;
    const Mutation& m = s.schedule[c];
    mutate(m, m.add, m.weight);
    WeightMap w_mut = s.w0;
    Graph g_mut = s.g0;
    if (m.add) {
      g_mut.add_edge(m.u, m.v);
      w_mut[{m.u, m.v}] = m.weight;
    } else {
      g_mut.remove_edge(m.u, m.v);
      w_mut.erase({m.u, m.v});
    }
    const Oracle mutated(g_mut, w_mut);
    const Oracle* current = &mutated;

    for (int pos = 0; pos < cycle_len; ++pos, ++b) {
      if (pos == cycle_len / 2) {
        mutate(m, !m.add, m.add ? 0 : s.w0.at({m.u, m.v}));  // revert to the base version
        current = &base;
      }
      const std::vector<Query>& qs = s.batches[b % s.batches.size()];
      const bool traced = opt.trace && ((b + c) & 1) == 1;
      ++rec.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        const BatchResult r = serve_mixed_op(svc, qs);
        const Clock::time_point t1 = Clock::now();
        const double ms = ms_between(t0, t1);
        record_op(&rec, ms, traced, r.rounds, static_cast<double>(r.bits));
        (r.misses > 0 ? rec.miss_ms : rec.hit_ms).push_back(ms);
        rec.queries += qs.size();
        rec.class_hits += r.hits;
        rec.class_misses += r.misses;
        rec.resident_words_max =
            std::max<std::uint64_t>(rec.resident_words_max, svc.resident_words());
        if (traced) {
          log->add(r.misses > 0 ? "serve_batch(miss)" : "serve_batch(hit)", "op", t0, t1,
                   static_cast<int>(b), 1);
          if (r.misses > 0) {
            const Clock::time_point r_start = Clock::now();
            probe.serve_miss(static_cast<int>(b), current->g, current->w,
                             svc.cache().apsp(svc.fingerprint())->dist, &rec.layers);
            rec.busy_s += ms_between(r_start, Clock::now()) / 1000.0;
          }
        }
        // Checks, outside the timed region: the fresh version misses once,
        // every later batch (the revert included) hits and is free.
        const std::string where =
            "serve_mixed batch " + std::to_string(b) + " (cycle position " +
            std::to_string(pos) + ")";
        if ((pos == 0) != (r.misses > 0)) fail(&rec, where + ": unexpected hit/miss");
        if (r.misses > 0) {
          miss_cost.emplace_back(r.rounds, static_cast<double>(r.bits));
          miss_needs_hops.push_back(r.plan.run_hops);
        } else if (r.rounds != 0 || r.bits != 0) {
          fail(&rec, where + ": a hit batch charged rounds or bits");
        }
        std::size_t wrong = 0;
        for (std::size_t q = 0; q < qs.size(); ++q) {
          if (r.answers[q] != current->answer(qs[q])) ++wrong;
        }
        if (wrong > 0) fail(&rec, where + ": " + std::to_string(wrong) + " wrong answers");
      } catch (const std::exception& e) {
        fail(&rec, "serve_mixed batch " + std::to_string(b) + " threw: " + e.what());
      }
    }
  }
  rec.exhausted = c == s.schedule.size();
  rec.evictions = svc.cache_evictions() - evictions_before;

  // A miss batch pays the weighted closure, the counting pack and (when a
  // reach query needs it) the unit hop chain — checked against the plans.
  const ApspPlan ap = apsp_plan(n, kBandwidth);
  const CountingArtifactPlan cp = counting_artifacts_plan(n, kBandwidth);
  for (std::size_t i = 0; i < miss_cost.size(); ++i) {
    const int k = miss_needs_hops[i] ? 2 : 1;
    if (miss_cost[i].first != k * ap.total_rounds + cp.total_rounds ||
        miss_cost[i].second !=
            static_cast<double>(k * ap.total_bits + cp.total_bits)) {
      fail(&rec, "serve_mixed miss " + std::to_string(i) + ": rounds/bits differ from plans");
    }
  }
  return rec;
}

}  // namespace

RunRecord run_workload(const Options& opt, SpanLog* log) {
  if (opt.workload == "apsp_dense") return run_apsp_dense(opt, log);
  if (opt.workload == "count_sparse") return run_count_sparse(opt, log);
  if (opt.workload == "serve_mixed") return run_serve_mixed(opt, log);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
