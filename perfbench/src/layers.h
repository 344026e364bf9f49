// Per-layer replays for the traced run.
//
// The library has no internal spans yet, so each layer is measured from
// outside: after a traced op, the probe calls that layer's public function
// on exactly the inputs the op fed it — the same (n, w, b), the same length
// matrices from blockmm::distribute_lengths / aggregate_lengths (relay work
// depends on lengths only, by the obliviousness contract), the same block
// shapes and the same declared nnz profile. Each replayed call gets a span
// and is multiplied by the number of identical calls the op makes, read
// from its plan (e.g. ApspPlan::squarings). What the spans do not cover of
// the op's own time is reported as core.protocol self time.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "core/block_mm.h"
#include "graph/graph.h"
#include "linalg/mat61.h"
#include "linalg/tropical.h"
#include "trace.h"

namespace perfbench {

/// Scaled per-layer busy time and counts, summed over the traced ops.
struct LayerTotals {
  double traced_ops = 0;
  double op_ms = 0;  ///< the traced ops' own measured time
  double op_rounds = 0;
  double op_bits = 0;
  // comm: unicast_payloads_relayed
  double relay_calls = 0;
  double relay_ms = 0;
  double relay_bits = 0;
  // core.plan: the *_plan relay_cost replays
  double plan_calls = 0;
  double plan_ms = 0;
  // linalg.kernels: dense / sparse local kernel dispatch; ops and bytes are
  // computed from the block shapes, not counted by hardware
  double kernel_calls = 0;
  double kernel_ms = 0;
  double kernel_ops = 0;
  double kernel_bytes = 0;
  // core.sparse_mm: declared_nnz_profile plus the announcement
  double sparse_ms = 0;
  double profile_ms = 0;
  double announce_rounds = 0;
  double sparse_attempts = 0;  ///< kAuto decisions taken
  double sparse_taken = 0;     ///< decisions that chose the sparse branch
};

class LayerProbe {
 public:
  /// The probe owns its own engine so replays never touch the op's stats.
  LayerProbe(int n, int bandwidth, SpanLog* log);

  /// apsp_run on (g, w) that produced `dist`: one apsp_plan, `squarings`
  /// distribute + aggregate relays, m^3 tropical block products per squaring
  /// (the first over W's blocks, the rest over the denser later powers,
  /// stood in for by dist's blocks).
  void apsp_op(int op, const cclique::Graph& g, const std::vector<std::uint32_t>& w,
               const cclique::TropicalMat& dist, LayerTotals* t);

  /// four_cycle_count_algebraic(kAuto) on g: two profiles and two
  /// sparse_mm_plan calls (the decision and sparse_mm_m61), the
  /// announcement, the sparse distribute relay, the dense-width aggregate
  /// relay and m^3 sparse-dense block products; the dense branch replays
  /// its own schedule instead.
  void count_op(int op, const cclique::Graph& g, bool used_sparse, LayerTotals* t);

  /// A serving miss batch: weighted APSP, the counting pack and the
  /// unit-weight hop chain, priced by serving_plan and re-priced by each run.
  void serve_miss(int op, const cclique::Graph& g, const std::vector<std::uint32_t>& w,
                  const cclique::TropicalMat& dist, LayerTotals* t);

 private:
  void relay(int op, const cclique::blockmm::LengthMatrix& len, double scale,
             LayerTotals* t);
  void tropical_blocks(int op, const cclique::TropicalMat& m, double scale,
                       LayerTotals* t);
  void m61_blocks(int op, const cclique::Mat61& m, double scale, LayerTotals* t);
  void apsp_plan(int op, double scale, LayerTotals* t);

  int n_;
  int bandwidth_;
  cclique::blockmm::BlockGrid grid_;
  cclique::CliqueUnicast net_;
  SpanLog* log_;
};

}  // namespace perfbench
