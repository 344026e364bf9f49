// Wall-clock microbenchmarks of the substrates (google-benchmark).
//
// The experiment harnesses (bench_e*.cpp) measure protocol complexity in
// rounds/bits; this binary measures the *simulator's* own speed, which is
// what bounds the reachable experiment scale.
#include <benchmark/benchmark.h>

#include "comm/clique_unicast.h"
#include "core/apsp.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "graph/ruzsa_szemeredi.h"
#include "graph/subgraph.h"
#include "linalg/f2matrix.h"
#include "linalg/kernels.h"
#include "linalg/mat61.h"
#include "linalg/tropical.h"
#include "routing/router.h"
#include "sketch/sketch.h"
#include "util/rng.h"

namespace {

using namespace cclique;

void BM_F2MultiplyNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const F2Matrix a = F2Matrix::random(n, rng);
  const F2Matrix b = F2Matrix::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f2_multiply_naive(a, b));
  }
}
BENCHMARK(BM_F2MultiplyNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_F2MultiplyStrassen(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const F2Matrix a = F2Matrix::random(n, rng);
  const F2Matrix b = F2Matrix::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f2_multiply_strassen(a, b, 64));
  }
}
BENCHMARK(BM_F2MultiplyStrassen)->Arg(64)->Arg(128)->Arg(256);

void BM_TriangleCount(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Graph g = gnp(n, 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_triangles(g));
  }
}
BENCHMARK(BM_TriangleCount)->Arg(64)->Arg(256)->Arg(512);

void BM_Degeneracy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  const Graph g = gnp(n, 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_degeneracy(g));
  }
}
BENCHMARK(BM_Degeneracy)->Arg(128)->Arg(512);

void BM_SketchDecode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Graph g = gnp(n, 4.0 / n, rng);
  const int k = std::max(1, compute_degeneracy(g).degeneracy);
  std::vector<NodeSketch> sketches;
  for (int v = 0; v < n; ++v) sketches.push_back(make_sketch(g, v, k));
  for (auto _ : state) {
    auto copy = sketches;
    benchmark::DoNotOptimize(reconstruct_from_sketches(std::move(copy), k, n));
  }
}
BENCHMARK(BM_SketchDecode)->Arg(64)->Arg(128);

void BM_TwoPhaseRouting(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  RoutingDemand d;
  d.payload_bits = 8;
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < n; ++k) {
      d.messages.push_back(
          RoutedMessage{v, static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n))), 0x42});
    }
  }
  for (auto _ : state) {
    CliqueUnicast net(n, 32);
    benchmark::DoNotOptimize(route_two_phase(net, d));
  }
}
BENCHMARK(BM_TwoPhaseRouting)->Arg(16)->Arg(32);

void BM_BehrendSet(benchmark::State& state) {
  const std::uint64_t m = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(behrend_set(m));
  }
}
BENCHMARK(BM_BehrendSet)->Arg(1000)->Arg(10000);

void BM_SubgraphSearchC4(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  const Graph g = gnp(n, 2.0 / n, rng);
  const Graph h = cycle_graph(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(contains_subgraph(g, h));
  }
}
BENCHMARK(BM_SubgraphSearchC4)->Arg(64)->Arg(256);

// ------------------------------------------------------------- kernel tier
//
// GB/s throughput of the local matrix kernels behind algebraic MM and APSP
// (linalg/kernels) across the {scalar, avx2} x threads ablation grid. The
// bytes metric is the B-stream traffic of the i-k-j loop — n^3 8-byte loads
// of B per product, the dominant memory stream of every kernel variant —
// so GB/s is comparable across kernels and sizes. AVX2 cells skip (not
// fail) on hosts without AVX2; threaded cells are only meaningful on
// multi-core hosts but stay correct (and deterministic) everywhere.

void set_kernel_throughput(benchmark::State& state, int n) {
  const std::int64_t n3 = static_cast<std::int64_t>(n) * n * n;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n3 * 8);
}

bool skip_if_no_avx2(benchmark::State& state, KernelKind kind) {
  if (kind == KernelKind::kAvx2 && !cpu_has_avx2()) {
    state.SkipWithError("host lacks AVX2 (or build lacks the AVX2 TU)");
    return true;
  }
  return false;
}

void BM_M61Kernel(benchmark::State& state, KernelKind kind, int threads) {
  if (skip_if_no_avx2(state, kind)) return;
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  const Mat61 a = Mat61::random(n, rng);
  const Mat61 b = Mat61::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m61_multiply_kernel(a, b, kind, threads));
  }
  set_kernel_throughput(state, n);
}
BENCHMARK_CAPTURE(BM_M61Kernel, scalar_t1, KernelKind::kScalar, 1)
    ->Arg(256)->Arg(512)->Arg(1024);
BENCHMARK_CAPTURE(BM_M61Kernel, avx2_t1, KernelKind::kAvx2, 1)
    ->Arg(256)->Arg(512)->Arg(1024);
// Threaded cells measure real time: CPU-time GB/s would divide by one
// worker's time while four workers burn cycles, overstating throughput.
BENCHMARK_CAPTURE(BM_M61Kernel, avx2_t4, KernelKind::kAvx2, 4)
    ->Arg(512)->UseRealTime();

void BM_TropicalKernel(benchmark::State& state, KernelKind kind, int threads) {
  if (skip_if_no_avx2(state, kind)) return;
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  // Mixed density: 10% +inf exercises the inf-skip path the way one-step
  // distance matrices do after a squaring or two.
  const TropicalMat a = TropicalMat::random(n, rng, 1u << 30, 0.1);
  const TropicalMat b = TropicalMat::random(n, rng, 1u << 30, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tropical_multiply_kernel(a, b, kind, threads));
  }
  set_kernel_throughput(state, n);
}
BENCHMARK_CAPTURE(BM_TropicalKernel, scalar_t1, KernelKind::kScalar, 1)
    ->Arg(256)->Arg(512)->Arg(1024);
BENCHMARK_CAPTURE(BM_TropicalKernel, avx2_t1, KernelKind::kAvx2, 1)
    ->Arg(256)->Arg(512)->Arg(1024);
BENCHMARK_CAPTURE(BM_TropicalKernel, avx2_t4, KernelKind::kAvx2, 4)
    ->Arg(512)->UseRealTime();

// End-to-end APSP wall clock through the full distributed protocol (plan,
// relay schedule, squarings, eccentricity exchange) under the env-driven
// dispatcher — the consumer-visible effect of the kernel tier.
void BM_ApspEndToEnd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  const Graph g = gnp(n, 0.15, rng);
  std::vector<std::uint32_t> weights;
  weights.reserve(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    weights.push_back(static_cast<std::uint32_t>(rng.uniform(1000) + 1));
  }
  for (auto _ : state) {
    CliqueUnicast net(n, 64);
    benchmark::DoNotOptimize(apsp_run(net, g, weights));
  }
}
BENCHMARK(BM_ApspEndToEnd)->Arg(32)->Arg(64)->Arg(216)->Arg(343);

}  // namespace

BENCHMARK_MAIN();
