// E18 — min-plus semiring products and exact APSP: the same block-
// decomposed distributed matrix product that powers E17's ring workloads,
// run over the tropical (min, +) semiring (Censor-Hillel et al. PODC'15 §4;
// Le Gall DISC'16), where ⌈log2(n-1)⌉ repeated squarings of the weight
// matrix solve all-pairs shortest paths exactly.
//
// Measured: exact rounds/bits of one distance product on a grid of perfect
// cubes, checked row by row against the data-independent plan (identical to
// the 61-bit ring schedule: 6·n^{1/3} rounds at b = 64); the full APSP runs
// on weighted gnp / path / polarity-expander instances against the
// n^{1/3}·log n series with per-source Dijkstra as ground truth plus the
// derived diameter/radius. (That the local kernel cannot change the metered
// schedule is pinned by kernel_dispatch_test and CI's scalar/avx2 probe.)
#include "bench_util.h"
#include "comm/clique_unicast.h"
#include "core/apsp.h"
#include "graph/extremal.h"
#include "graph/generators.h"
#include "linalg/tropical.h"
#include "util/rng.h"

using namespace cclique;
using benchutil::Table;
using benchutil::cell;
using benchutil::kD;
using benchutil::kM;
using benchutil::kP;

int main(int argc, char** argv) {
  benchutil::init(argc, argv);
  benchutil::banner(
      "E18: min-plus products + exact APSP — O(n^{1/3} log n) rounds",
      "the block-decomposed distributed product extends to the (min,+) "
      "semiring; ceil(log2(n-1)) distance-matrix squarings give exact APSP, "
      "diameter and radius, on the identical 61-bit relay schedule as E17");
  Rng rng(18);

  // --- One distance product, perfect cubes so the predicted series is
  // exact. The schedule must coincide with the 61-bit ring product of E17:
  // same word width, same geometry, exactly 6 * n^{1/3} rounds at b = 64.
  Table mm({"n", "b", "m", "block", "rounds", "dist", "agg", "bits", "ok",
            "plan rounds", "== m61 plan", "series 6n^(1/3)w/b"},
           {kP, kP, kM, kM, kM, kM, kM, kM, kM, kD, kD, kD});
  for (int n : benchutil::grid({27, 64, 125, 216})) {
    const TropicalMat a = TropicalMat::random(n, rng, 1u << 24, 0.3);
    const TropicalMat b = TropicalMat::random(n, rng, 1u << 24, 0.3);
    CliqueUnicast net(n, 64);
    TropicalMat c;
    const AlgebraicMmPlan plan = min_plus_mm(net, a, b, &c);
    const bool ok = c == tropical_multiply_schoolbook(a, b);
    const AlgebraicMmPlan m61 = algebraic_mm_plan(n, 61, 64);
    mm.add_row({cell("%d", n), "64", cell("%d", plan.grid),
                cell("%d", plan.block), cell("%d", net.stats().rounds),
                cell("%d", plan.distribute_rounds), cell("%d", plan.aggregate_rounds),
                cell("%llu", static_cast<unsigned long long>(net.stats().total_bits)),
                ok ? "yes" : "NO", cell("%d", plan.total_rounds),
                (plan.total_rounds == m61.total_rounds && plan.total_bits == m61.total_bits)
                    ? "yes"
                    : "NO",
                cell("%.1f", plan.series_rounds)});
  }
  mm.print();
  std::printf("one distance product rides the E17 ring schedule verbatim: the\n"
              "plan depends on (n, w, b) only, and min-plus elements are the\n"
              "same 61-bit words (all-ones = +inf). measured == plan is\n"
              "CC_CHECKed inside the protocol on every row.\n\n");

  // --- Exact APSP by repeated squaring on weighted workloads: random
  // gnp sweeps, paths (maximal diameter — the worst case for any hop-
  // bounded scheme, and log2(n-1) squarings exactly), and near-extremal
  // polarity expanders (diameter 2 at q^2+q+1 vertices).
  Table ap({"graph", "n", "edges", "sq", "rounds", "bits", "ok", "diam",
            "radius", "plan rounds", "series 6n^(1/3)w/b*log2(n)"},
           {kP, kP, kP, kM, kM, kM, kM, kM, kM, kD, kD});
  struct Inst {
    std::string name;
    Graph g;
  };
  std::vector<Inst> insts;
  for (int n : benchutil::grid({32, 64, 125})) {
    insts.push_back({cell("gnp_%d", n), gnp(n, 4.0 / n, rng)});
  }
  for (int n : benchutil::grid({27, 64})) {
    insts.push_back({cell("path_%d", n), path_graph(n)});
  }
  for (std::uint64_t q : benchutil::grid<std::uint64_t>({5, 7})) {
    insts.push_back(
        {cell("ER_%llu", static_cast<unsigned long long>(q)), polarity_graph(q)});
  }
  for (const Inst& inst : insts) {
    const int n = inst.g.num_vertices();
    std::vector<std::uint32_t> w(inst.g.num_edges());
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.uniform(1 << 12));
    CliqueUnicast net(n, 64);
    const ApspResult r = apsp_run(net, inst.g, w);
    const bool ok = r.dist == apsp_dijkstra_reference(inst.g, w);
    const bool finite = r.diameter != kTropicalInf;
    ap.add_row({inst.name, cell("%d", n), cell("%zu", inst.g.num_edges()),
                cell("%d", r.plan.squarings), cell("%d", r.total_rounds),
                cell("%llu", static_cast<unsigned long long>(r.total_bits)),
                ok ? "yes" : "NO",
                finite ? cell("%llu", static_cast<unsigned long long>(r.diameter))
                       : "inf",
                finite ? cell("%llu", static_cast<unsigned long long>(r.radius))
                       : "inf",
                cell("%d", r.plan.total_rounds),
                cell("%.1f", r.plan.series_rounds)});
  }
  ap.print();
  std::printf("squaring preserves the data-independent plan: every squaring\n"
              "ships the same globally-known length matrix (weights change\n"
              "values, never payload sizes), so APSP rounds are exactly\n"
              "squarings * product rounds + 1 ecc-exchange round.\n");
  return benchutil::finish();
}
