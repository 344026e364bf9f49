// The benchmark's only calls into the protocol API: one adapter per
// workload. A change to the product API edits the adapter and leaves each
// workload's inputs, outputs and checks untouched. The layer replays of
// the traced run (layers.h) and the oracles are deliberately not routed
// through here: they call the layer functions they measure.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/apsp.h"
#include "core/query_service.h"
#include "graph/graph.h"
#include "linalg/tropical.h"

namespace perfbench {

/// apsp_dense: one exact APSP run.
struct ApspOpOut {
  cclique::TropicalMat dist;
  std::uint64_t diameter = 0;
};

inline ApspOpOut apsp_dense_op(cclique::CliqueUnicast& net, const cclique::Graph& g,
                               const std::vector<std::uint32_t>& weights) {
  cclique::ApspResult r = cclique::apsp_run(net, g, weights);
  return {std::move(r.dist), r.diameter};
}

/// count_sparse: one exact 4-cycle count with the backend chosen by the
/// priced crossover.
struct CountOpOut {
  std::uint64_t four_cycles = 0;
  bool used_sparse = false;
};

inline CountOpOut count_sparse_op(cclique::CliqueUnicast& net, const cclique::Graph& g) {
  const cclique::AlgebraicCountResult r =
      cclique::four_cycle_count_algebraic(net, g, cclique::CountBackend::kAuto);
  return {r.count, r.used_sparse};
}

/// serve_mixed: one batch admitted at the service's current version.
inline cclique::BatchResult serve_mixed_op(cclique::QueryService& svc,
                                           const std::vector<cclique::Query>& queries) {
  cclique::QueryBatch batch = svc.new_batch();
  for (const cclique::Query& q : queries) batch.push(q);
  return svc.answer(batch);
}

}  // namespace perfbench
