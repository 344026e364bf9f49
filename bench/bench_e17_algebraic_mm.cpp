// E17 — the algebraic route to the Section 2 workloads: distributed matrix
// multiplication run as a *protocol* (semiring block decomposition per
// Censor-Hillel et al., PODC'15; Le Gall, DISC'16) instead of through the
// Theorem 2 circuit compiler.
//
// Measured: exact rounds/bits of the O(n^{1/3})-round protocol over both
// element types (GF(2) bits and 61-bit F_{2^61-1} words) on a grid of
// perfect cubes, checked row by row against the data-independent plan
// (algebraic_mm_plan) and the asymptotic 6·n^{1/3}·w/b series; the exact
// triangle / 4-cycle counts the product powers, cross-checked against
// brute force; and a backend ablation against the circuit-compiler path.
#include <cmath>

#include "bench_util.h"
#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/mm_triangle.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "linalg/f2matrix.h"
#include "linalg/kernels.h"
#include "linalg/mat61.h"
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
      "E17: algebraic MM as a protocol — O(n^{1/3}) rounds, exact counting",
      "block-decomposed distributed MM (Censor-Hillel et al. PODC'15 style) "
      "runs in O(n^{1/3} * w / b) rounds with O(n^{4/3} * w) bits/player; "
      "diag(A^3)/trace(A^4) give exact triangle and C4 counts");
  Rng rng(17);

  // --- The product itself, both rings, perfect cubes so the predicted
  // series is exact. Bandwidths chosen so one hop's per-edge load is a
  // small integer number of rounds: F2 words are 1 bit (b=2), field words
  // 61 bits (b=64).
  Table mm({"n", "ring", "b", "m", "block", "rounds", "dist", "agg", "bits",
            "max player send", "ok", "plan rounds", "series 6n^(1/3)w/b"},
           {kP, kP, kP, kM, kM, kM, kM, kM, kM, kM, kM, kD, kD});
  double prev_rounds[2] = {0, 0}, growth[2] = {0, 0};
  for (int n : benchutil::grid({27, 64, 125, 216})) {
    for (int ring = 0; ring < 2; ++ring) {
      const bool f2 = ring == 0;
      const int bandwidth = f2 ? 2 : 64;
      CliqueUnicast net(n, bandwidth);
      AlgebraicMmPlan plan;
      bool ok;
      if (f2) {
        const F2Matrix a = F2Matrix::random(n, rng);
        const F2Matrix b = F2Matrix::random(n, rng);
        F2Matrix c;
        plan = algebraic_mm_f2(net, a, b, &c);
        ok = c == f2_multiply_naive(a, b);
      } else {
        const Mat61 a = Mat61::random(n, rng);
        const Mat61 b = Mat61::random(n, rng);
        Mat61 c;
        plan = algebraic_mm_m61(net, a, b, &c);
        ok = c == m61_multiply_kernel(a, b, KernelKind::kScalar, 1);
      }
      // Per-phase rounds come from the plan each phase was CC_CHECKed against.
      const CommStats& st = net.stats();
      mm.add_row({cell("%d", n), f2 ? "f2" : "m61", cell("%d", bandwidth),
                  cell("%d", plan.grid), cell("%d", plan.block),
                  cell("%d", st.rounds), cell("%d", plan.distribute_rounds),
                  cell("%d", plan.aggregate_rounds),
                  cell("%llu", static_cast<unsigned long long>(st.total_bits)),
                  cell("%llu", static_cast<unsigned long long>(plan.max_player_send_bits)),
                  ok ? "yes" : "NO", cell("%d", plan.total_rounds),
                  cell("%.1f", plan.series_rounds)});
      if (prev_rounds[ring] > 0) {
        growth[ring] = static_cast<double>(st.rounds) / prev_rounds[ring];
      }
      prev_rounds[ring] = static_cast<double>(st.rounds);
    }
  }
  mm.print();
  std::printf("round growth per grid step (last): f2 %.2fx, m61 %.2fx — the\n"
              "grid steps multiply n^{1/3} by 4/3, 5/4, 6/5, so O(n^{1/3})\n"
              "predicts exactly those factors (measured == plan on every row\n"
              "is CC_CHECKed inside the protocol).\n\n",
              growth[0], growth[1]);

  // --- The counting workloads the product powers. Ground truth from the
  // combinatorial counters.
  Table cnt({"n", "edges", "triangles", "truth tri", "C4s", "truth C4",
             "mm rounds", "share", "total rounds", "bits"},
            {kP, kP, kM, kD, kM, kD, kM, kM, kM, kM});
  for (int n : benchutil::grid({27, 64, 125, 216})) {
    Graph g = gnp(n, 6.0 / n, rng);
    plant_subgraph(g, complete_graph(4), rng);  // guarantees triangles + C4s
    CliqueUnicast tri_net(n, 64);
    const AlgebraicCountResult tri = triangle_count_algebraic(tri_net, g);
    CliqueUnicast c4_net(n, 64);
    const AlgebraicCountResult c4 = four_cycle_count_algebraic(c4_net, g);
    cnt.add_row({cell("%d", n), cell("%zu", g.num_edges()),
                 cell("%llu", static_cast<unsigned long long>(tri.count)),
                 cell("%llu", static_cast<unsigned long long>(count_triangles(g))),
                 cell("%llu", static_cast<unsigned long long>(c4.count)),
                 cell("%llu", static_cast<unsigned long long>(count_four_cycles(g))),
                 cell("%d", tri.planned_rounds), cell("%d", tri.share_rounds),
                 cell("%d", tri.total_rounds + c4.total_rounds),
                 cell("%llu", static_cast<unsigned long long>(
                                  tri_net.stats().total_bits + c4_net.stats().total_bits))});
  }
  cnt.print();

  // --- Backend ablation: the same question ("any triangle?") answered by
  // the Theorem 2 circuit compiler vs the algebraic protocol. The circuit
  // pays wires/n^2-driven rounds and is one-sided; the protocol is
  // deterministic, exact, and counts.
  Table ab({"n", "backend", "rounds", "bits", "detected", "exact count"},
           {kP, kP, kM, kM, kM, kM});
  for (int n : benchutil::grid({16, 27})) {
    Graph g = gnp(n, 4.0 / n, rng);
    plant_subgraph(g, complete_graph(3), rng);
    for (int be = 0; be < 2; ++be) {
      const TriangleBackend backend =
          be == 0 ? TriangleBackend::kCircuitStrassen : TriangleBackend::kAlgebraic;
      CliqueUnicast net(n, 64);
      const MmTriangleResult r = mm_triangle_run(net, g, /*reps=*/1, rng, backend);
      ab.add_row({cell("%d", n), be == 0 ? "circuit-strassen" : "algebraic",
                  cell("%d", r.stats.rounds),
                  cell("%llu", static_cast<unsigned long long>(r.stats.total_bits)),
                  r.detected ? "yes" : "no",
                  r.exact ? cell("%llu", static_cast<unsigned long long>(r.triangle_count))
                          : "-"});
    }
  }
  ab.print();
  std::printf("note: the circuit row is one-sided at reps=1 (miss prob <= 3/4);\n"
              "the algebraic row is deterministic and exact. Correctness of\n"
              "both paths at high confidence is covered by tier-1 tests.\n");
  return benchutil::finish();
}
