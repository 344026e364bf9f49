#include "core/algebraic_mm.h"

#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "core/block_mm.h"
#include "linalg/kernels.h"
#include "util/math_util.h"

namespace cclique {

namespace {

/// Ring adapters: everything run_block_mm needs from an element type.
/// Elements travel as word_bits-wide fields (push_uint/read_uint
/// round-trip); Matrix(n) is the all-zero matrix — the additive identity
/// both rings pad blocks with.
struct F2Ops {
  using Matrix = F2Matrix;
  static constexpr int kWordBits = 1;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j) ? 1 : 0; }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, (v & 1ULL) != 0); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) {
    if ((v & 1ULL) != 0) m.set(i, j, !m.get(i, j));
  }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return f2_multiply_naive(a, b);
  }
};

struct M61Ops {
  using Matrix = Mat61;
  static constexpr int kWordBits = 61;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.add_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    // Local compute between metered phases: the kernel/thread choice (the
    // CC_KERNEL / CC_THREADS knobs) changes wall-clock only, never the
    // product values or any CommStats counter.
    return m61_multiply_dispatch(a, b);
  }
};

template <typename Ops>
AlgebraicMmResult run_mm(CliqueUnicast& net, const typename Ops::Matrix& a,
                         const typename Ops::Matrix& b, typename Ops::Matrix* c) {
  const AlgebraicMmPlan plan =
      algebraic_mm_plan(a.n(), Ops::kWordBits, net.bandwidth());
  return blockmm::run_block_mm<Ops, AlgebraicMmResult>(net, a, b, c, plan);
}

/// Shares a tuple of 61-bit local partials per player with everyone (the
/// clique-wide sum exchange ending both counting protocols) and sums each
/// field mod p into *totals. Returns the rounds used.
int share_partials(CliqueUnicast& net, const std::vector<std::vector<std::uint64_t>>& fields,
                   std::vector<std::uint64_t>* totals) {
  const int n = net.n();
  const std::size_t nf = fields.size();
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int v = 0; v < n; ++v) {
    Message m;
    for (std::size_t f = 0; f < nf; ++f) m.push_uint(fields[f][static_cast<std::size_t>(v)], 61);
    for (int j = 0; j < n; ++j) {
      if (j == v) continue;
      payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(j)] = m;
    }
  }
  std::vector<std::vector<Message>> recv;
  const int rounds = unicast_payloads(net, payload, &recv);
  totals->assign(nf, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (int v = 0; v < n; ++v) {
      (*totals)[f] = Mersenne61::add((*totals)[f], fields[f][static_cast<std::size_t>(v)]);
    }
  }
  // Every player can reproduce the same totals from its inbox; the check
  // below asserts the exchange actually delivered the fields intact for
  // player 0 (cheap representative of the clique-wide agreement).
  if (n > 1) {
    for (int v = 1; v < n; ++v) {
      const Message& m = recv[0][static_cast<std::size_t>(v)];
      for (std::size_t f = 0; f < nf; ++f) {
        CC_CHECK(m.read_uint(f * 61, 61) == fields[f][static_cast<std::size_t>(v)],
                 "partial-sum exchange corrupted a field");
      }
    }
  }
  return rounds;
}

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

/// The closing exchange of every counting protocol: each player computes
/// its shares of `fields` (one 61-bit field each, in the given order) and
/// share_partials ships them in one message per ordered pair. *totals gets
/// the clique-wide sums in `fields` order; returns the rounds used.
int share_counting_fields(CliqueUnicast& net, const Graph& g, const Mat61& a2,
                          const std::vector<CountField>& fields,
                          std::vector<std::uint64_t>* totals) {
  const int n = g.num_vertices();
  std::vector<std::vector<std::uint64_t>> shares;
  shares.reserve(fields.size());
  for (CountField f : fields) {
    // Each share is player-private until the exchange ships it.
    locality::PerPlayer<std::uint64_t> share(
        n, CC_LOCALITY_SITE("local counting share"));
    for (int v = 0; v < n; ++v) share[v] = local_share(f, g, a2, v);
    shares.push_back(share.take());
  }
  return share_partials(net, shares, totals);
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

}  // namespace

AlgebraicMmPlan algebraic_mm_plan(int n, int word_bits, int bandwidth) {
  // Plan functions are length sinks: the schedule is a function of
  // (n, w, b) alone, and the guard proves no payload read sneaks in.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("algebraic_mm_plan"));
  AlgebraicMmPlan plan;
  blockmm::fill_plan_schedule(&plan, n, word_bits, bandwidth);
  return plan;
}

AlgebraicMmResult algebraic_mm_f2(CliqueUnicast& net, const F2Matrix& a,
                                  const F2Matrix& b, F2Matrix* c) {
  return run_mm<F2Ops>(net, a, b, c);
}

AlgebraicMmResult algebraic_mm_m61(CliqueUnicast& net, const Mat61& a,
                                   const Mat61& b, Mat61* c) {
  return run_mm<M61Ops>(net, a, b, c);
}

AlgebraicCountResult triangle_count_algebraic(CliqueUnicast& net, const Graph& g) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n >= 1 && n <= (1 << 15), "exact counting needs trace(A^3) < 2^61");
  const Mat61 a = Mat61::adjacency(g);
  Mat61 a2;
  AlgebraicCountResult out;
  out.mm = algebraic_mm_m61(net, a, a, &a2);

  std::vector<std::uint64_t> totals;
  out.share_rounds =
      share_counting_fields(net, g, a2, {CountField::kTrace3}, &totals);
  out.count = triangles_from_trace(totals[0]);
  out.total_rounds = out.mm.total_rounds + out.share_rounds;
  return out;
}

AlgebraicCountResult four_cycle_count_algebraic(CliqueUnicast& net, const Graph& g,
                                                CountBackend backend) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n >= 1 && n <= (1 << 15), "exact counting needs trace(A^4) < 2^61");
  const Mat61 a = Mat61::adjacency(g);
  Mat61 a2;
  AlgebraicCountResult out;
  int mm_rounds = 0;
  if (backend == CountBackend::kDense) {
    out.mm = algebraic_mm_m61(net, a, a, &a2);
    mm_rounds = out.mm.total_rounds;
  } else {
    const Csr61 sa = Csr61::from_dense(a);
    const SparseNnzProfile profile = declared_nnz_profile(sa, sa);
    const SparseMmPlan splan =
        sparse_mm_plan(n, /*word_bits=*/61, net.bandwidth(), profile);
    out.used_sparse =
        backend == CountBackend::kSparse || sparse_backend_preferred(splan);
    if (out.used_sparse) {
      out.sparse_mm = sparse_mm_m61(net, sa, sa, &a2);
      mm_rounds = out.sparse_mm.total_rounds;
    } else {
      // kAuto chose dense: the decision itself consumed the announcement,
      // then the oblivious schedule runs unchanged.
      out.announce_rounds = run_nnz_announcement(net, profile, splan.count_bits);
      out.mm = algebraic_mm_m61(net, a, a, &a2);
      mm_rounds = out.announce_rounds + out.mm.total_rounds;
    }
  }

  std::vector<std::uint64_t> totals;
  out.share_rounds = share_counting_fields(
      net, g, a2, {CountField::kTrace4, CountField::kDeg2, CountField::kDeg}, &totals);
  out.count = four_cycles_from_trace(totals[0], totals[1], totals[2]);
  out.total_rounds = mm_rounds + out.share_rounds;
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
  // One 4-field 61-bit message per ordered pair, chunked like every
  // unicast_payloads exchange (nothing to share on a 1-clique).
  plan.share_rounds =
      n >= 2 ? static_cast<int>(ceil_div(4 * 61, static_cast<std::uint64_t>(bandwidth)))
             : 0;
  plan.total_rounds = plan.product.total_rounds + plan.share_rounds;
  plan.total_bits =
      plan.product.total_bits +
      (n >= 2 ? static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) * 4 * 61u
              : 0u);
  return plan;
}

CountingArtifact counting_artifacts_run(CliqueUnicast& net, const Graph& g) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n >= 1 && n <= (1 << 15), "exact counting needs trace(A^4) < 2^61");
  CountingArtifact out;
  out.plan = counting_artifacts_plan(n, net.bandwidth());
  const int rounds_before = net.stats().rounds;
  const std::uint64_t bits_before = net.stats().total_bits;

  const Mat61 a = Mat61::adjacency(g);
  // The product runs against the plan priced above instead of re-pricing it.
  blockmm::run_block_mm<M61Ops, AlgebraicMmResult>(net, a, a, &out.a2, out.plan.product);

  // All four counting statistics in one exchange (see the standalone
  // protocols above for the identities).
  std::vector<std::uint64_t> totals;
  const int share_rounds = share_counting_fields(
      net, g, out.a2,
      {CountField::kTrace3, CountField::kTrace4, CountField::kDeg2, CountField::kDeg},
      &totals);
  out.triangles = triangles_from_trace(totals[0]);
  out.four_cycles = four_cycles_from_trace(totals[1], totals[2], totals[3]);

  out.total_rounds = net.stats().rounds - rounds_before;
  out.total_bits = net.stats().total_bits - bits_before;
  CC_CHECK(share_rounds == out.plan.share_rounds,
           "counting share left the planned schedule");
  CC_CHECK(out.total_rounds == out.plan.total_rounds,
           "counting-artifact rounds diverged from the planned schedule");
  CC_CHECK(out.total_bits == out.plan.total_bits,
           "counting-artifact bits diverged from the planned schedule");
  return out;
}

}  // namespace cclique
