#include "core/algebraic_mm.h"

#include <algorithm>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "core/block_mm.h"
#include "core/sparse_mm.h"
#include "util/math_util.h"

namespace cclique {

namespace {

/// The per-player counting statistics, in the combined share's wire order.
enum class CountField {
  kTrace3,  ///< (A³)_vv = ⟨row_v(A²), row_v(A)⟩; sums to trace(A³) = 6·#triangles
  kTrace4,  ///< ‖row_v(A²)‖²; sums to trace(A⁴)
  kDeg2,    ///< deg(v)²
  kDeg,     ///< deg(v); sums to 2|E|
};

/// Player v's local share of one statistic, from its own rows of A² and A
/// (both symmetric). True values stay below p, so mod-p sums are exact.
std::uint64_t local_share(CountField f, const Graph& g, const Mat61& a2, int v) {
  std::uint64_t acc = 0;
  switch (f) {
    case CountField::kTrace3:
      for (int j : g.neighbors(v)) acc = Mersenne61::add(acc, a2.get(v, j));
      return acc;
    case CountField::kTrace4:
      for (int j = 0; j < a2.n(); ++j) {
        const std::uint64_t e = a2.get(v, j);
        acc = Mersenne61::add(acc, Mersenne61::mul(e, e));
      }
      return acc;
    case CountField::kDeg2: {
      const std::uint64_t d = static_cast<std::uint64_t>(g.degree(v));
      return Mersenne61::mul(d, d);
    }
    case CountField::kDeg:
      return static_cast<std::uint64_t>(g.degree(v));
  }
  CC_CHECK(false, "unreachable counting field");
  return 0;
}

/// The closing exchange's message width: one 61-bit share per field.
int share_width(std::size_t fields) { return 61 * static_cast<int>(fields); }

/// The closing exchange of every counting protocol: each player computes
/// its 61-bit shares of `fields` and all-gathers them in `fields` order.
/// Returns the clique-wide sums mod p in `fields` order.
std::vector<std::uint64_t> share_counting_fields(CliqueUnicast& net, const Graph& g,
                                                 const Mat61& a2,
                                                 const std::vector<CountField>& fields) {
  const int n = g.num_vertices();
  // Each player's shares are private until the all-gather ships them.
  locality::PerPlayer<std::vector<std::uint64_t>> shares(
      n, CC_LOCALITY_SITE("local counting shares"));
  for (int v = 0; v < n; ++v) {
    for (CountField f : fields) shares[v].push_back(local_share(f, g, a2, v));
  }
  const std::vector<Message> row =
      all_gather(net, share_width(fields.size()), [&](int v, Message& out) {
        for (std::uint64_t share : shares[v]) out.push_uint(share, 61);
      });
  std::vector<std::uint64_t> totals(fields.size(), 0);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    for (const Message& msg : row) {
      totals[f] = Mersenne61::add(totals[f], msg.read_uint(f * 61, 61));
    }
  }
  return totals;
}

/// #triangles = trace(A^3) / 6: each triangle closes six 3-walks.
std::uint64_t triangles_from_trace(std::uint64_t trace3) {
  CC_CHECK(trace3 % 6 == 0, "trace(A^3) must be 6 * #triangles");
  return trace3 / 6;
}

/// #C4 = (trace(A^4) - 2*sum_v deg(v)^2 + 2|E|) / 8: the degenerate closed
/// 4-walks (back-and-forth along one or two edges) removed.
std::uint64_t four_cycles_from_trace(std::uint64_t trace4, std::uint64_t sum_deg2,
                                     std::uint64_t twice_edges) {
  CC_CHECK(trace4 + twice_edges >= 2 * sum_deg2, "closed-walk identity violated");
  const std::uint64_t numerator = trace4 + twice_edges - 2 * sum_deg2;
  CC_CHECK(numerator % 8 == 0, "trace identity must yield 8 * #C4");
  return numerator / 8;
}

/// Preconditions of every counting entry point, checked before any pricing.
void require_countable(const CliqueUnicast& net, const Graph& g) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n >= 1 && n <= (1 << 15), "exact counting needs trace(A^4) < 2^61");
}

/// The counting body behind all three entry points: the A·A product routed
/// on `backend` against the dense plan `dense`, then one exchange of
/// `fields`. *a2 gets the product and *totals the clique-wide sums in
/// `fields` order; the returned result carries everything but `count`. The
/// whole run is CC_CHECKed against the product step's plan plus the
/// exchange.
AlgebraicCountResult run_counting(CliqueUnicast& net, const Graph& g, CountBackend backend,
                                  const AlgebraicMmPlan& dense,
                                  const std::vector<CountField>& fields, Mat61* a2,
                                  std::vector<std::uint64_t>* totals) {
  const ChargedSince charged(net.stats());
  AlgebraicCountResult out;
  ProductStep& product = out;
  product = run_routed_square<blockmm::M61Ops>(net, Mat61::adjacency(g), a2, backend, dense);
  *totals = share_counting_fields(net, g, *a2, fields);
  const AllGatherCost share =
      all_gather_cost(g.num_vertices(), share_width(fields.size()), net.bandwidth());
  out.share_rounds = share.rounds;
  out.total_rounds = out.planned_rounds + share.rounds;
  charged.check(out.total_rounds, out.planned_bits + share.bits,
                "counting left the planned schedule");
  return out;
}

}  // namespace

AlgebraicMmPlan algebraic_mm_plan(int n, int word_bits, int bandwidth) {
  // Plan functions are length sinks: the schedule is a function of
  // (n, w, b) alone, and the guard proves no payload read sneaks in.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("algebraic_mm_plan"));
  CC_REQUIRE(word_bits >= 1 && word_bits <= 64, "word width out of range");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  const blockmm::BlockGrid g(n);
  AlgebraicMmPlan plan;
  plan.n = n;
  plan.grid = g.m;
  plan.block = g.bs;
  plan.word_bits = word_bits;
  plan.bandwidth = bandwidth;
  plan.distribute = std::make_shared<const RelaySchedule>(
      relay_cost(blockmm::distribute_lengths(g, word_bits), bandwidth));
  plan.aggregate = std::make_shared<const RelaySchedule>(
      relay_cost(blockmm::aggregate_lengths(g, word_bits), bandwidth));
  plan.distribute_rounds = plan.distribute->rounds();
  plan.aggregate_rounds = plan.aggregate->rounds();
  plan.total_rounds = plan.distribute_rounds + plan.aggregate_rounds;
  plan.total_bits = plan.distribute->bits + plan.aggregate->bits;
  const blockmm::LengthMatrix& dist = plan.distribute->len;
  const blockmm::LengthMatrix& agg = plan.aggregate->len;
  for (std::size_t v = 0; v < dist.size(); ++v) {
    std::uint64_t send = 0;
    for (std::size_t p = 0; p < dist.size(); ++p) send += dist[v][p] + agg[v][p];
    plan.max_player_send_bits = std::max(plan.max_player_send_bits, send);
  }
  const double cbrt_n = static_cast<double>(icbrt(static_cast<std::uint64_t>(n)));
  plan.series_rounds = 6.0 * cbrt_n * static_cast<double>(word_bits) /
                       static_cast<double>(bandwidth);
  return plan;
}

AlgebraicMmPlan algebraic_mm_f2(CliqueUnicast& net, const F2Matrix& a,
                                const F2Matrix& b, F2Matrix* c) {
  const AlgebraicMmPlan plan =
      algebraic_mm_plan(a.n(), blockmm::F2Ops::kWordBits, net.bandwidth());
  blockmm::run_block_mm<blockmm::F2Ops>(net, a, b, c, plan);
  return plan;
}

AlgebraicMmPlan algebraic_mm_m61(CliqueUnicast& net, const Mat61& a,
                                 const Mat61& b, Mat61* c) {
  const AlgebraicMmPlan plan =
      algebraic_mm_plan(a.n(), blockmm::M61Ops::kWordBits, net.bandwidth());
  blockmm::run_block_mm<blockmm::M61Ops>(net, a, b, c, plan);
  return plan;
}

AlgebraicCountResult triangle_count_algebraic(CliqueUnicast& net, const Graph& g) {
  require_countable(net, g);
  Mat61 a2;
  std::vector<std::uint64_t> totals;
  const AlgebraicMmPlan dense = algebraic_mm_plan(net.n(), /*word_bits=*/61, net.bandwidth());
  AlgebraicCountResult out = run_counting(net, g, CountBackend::kDense, dense,
                                          {CountField::kTrace3}, &a2, &totals);
  out.count = triangles_from_trace(totals[0]);
  return out;
}

AlgebraicCountResult four_cycle_count_algebraic(CliqueUnicast& net, const Graph& g,
                                                CountBackend backend) {
  require_countable(net, g);
  Mat61 a2;
  std::vector<std::uint64_t> totals;
  const AlgebraicMmPlan dense = algebraic_mm_plan(net.n(), /*word_bits=*/61, net.bandwidth());
  AlgebraicCountResult out =
      run_counting(net, g, backend, dense,
                   {CountField::kTrace4, CountField::kDeg2, CountField::kDeg}, &a2, &totals);
  out.count = four_cycles_from_trace(totals[0], totals[1], totals[2]);
  return out;
}

CountingArtifactPlan counting_artifacts_plan(int n, int bandwidth) {
  // Plan-function sink: the combined counting schedule is priced from
  // (n, b) alone — the adjacency payload never enters.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("counting_artifacts_plan"));
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  CountingArtifactPlan plan;
  plan.n = n;
  plan.product = algebraic_mm_plan(n, /*word_bits=*/61, bandwidth);
  const AllGatherCost share = all_gather_cost(n, share_width(4), bandwidth);
  plan.share_rounds = share.rounds;
  plan.total_rounds = plan.product.total_rounds + share.rounds;
  plan.total_bits = plan.product.total_bits + share.bits;
  return plan;
}

CountingArtifact counting_artifacts_run(CliqueUnicast& net, const Graph& g) {
  require_countable(net, g);
  CountingArtifact out;
  out.plan = counting_artifacts_plan(net.n(), net.bandwidth());
  // All four counting statistics in one exchange (see the standalone
  // protocols above for the identities); the product runs against the plan
  // priced above instead of re-pricing it.
  std::vector<std::uint64_t> totals;
  run_counting(net, g, CountBackend::kDense, out.plan.product,
               {CountField::kTrace3, CountField::kTrace4, CountField::kDeg2, CountField::kDeg},
               &out.a2, &totals);
  out.triangles = triangles_from_trace(totals[0]);
  out.four_cycles = four_cycles_from_trace(totals[1], totals[2], totals[3]);
  return out;
}

}  // namespace cclique
