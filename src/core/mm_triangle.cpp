#include "core/mm_triangle.h"

#include "circuit/mm_circuit.h"
#include "core/algebraic_mm.h"

namespace cclique {

MmTriangleResult mm_triangle_detect(CliqueUnicast& net, const Graph& g, int reps,
                                    Rng& rng, bool use_strassen) {
  return mm_triangle_run(net, g, reps, rng,
                         use_strassen ? TriangleBackend::kCircuitStrassen
                                      : TriangleBackend::kCircuitNaive);
}

MmTriangleResult mm_triangle_run(CliqueUnicast& net, const Graph& g, int reps,
                                 Rng& rng, TriangleBackend backend) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");

  if (backend == TriangleBackend::kAlgebraic) {
    const AlgebraicCountResult count = triangle_count_algebraic(net, g);
    MmTriangleResult out;
    out.detected = count.count > 0;
    out.triangle_count = count.count;
    out.exact = true;
    out.stats = net.stats();
    out.recommended_bandwidth = net.bandwidth();
    return out;
  }

  // The naive ablation is the same witness circuit with cubic products:
  // a Strassen cutoff of n multiplies every block naively.
  const Circuit circuit = triangle_witness_circuit(
      n, reps, rng, backend == TriangleBackend::kCircuitStrassen ? /*cutoff=*/2 : n);

  // Input partition: entry (i, j) of the adjacency matrix belongs to player
  // i — each player holds exactly its n incident-edge bits, the paper's
  // "n bits per player" premise.
  std::vector<bool> inputs(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), false);
  std::vector<int> owner(inputs.size(), 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t idx =
          static_cast<std::size_t>(i) * static_cast<std::size_t>(n) + static_cast<std::size_t>(j);
      inputs[idx] = i != j && g.has_edge(i, j);
      owner[idx] = i;
    }
  }

  CircuitSimulation sim(circuit, n);
  const CircuitSimResult run = sim.run(net, inputs, owner);

  MmTriangleResult out;
  out.detected = run.outputs.at(0);
  out.stats = run.stats;
  out.circuit_wires = circuit.num_wires();
  out.circuit_depth = circuit.depth();
  out.recommended_bandwidth = sim.plan().recommended_bandwidth;
  return out;
}

}  // namespace cclique
