// Runtime-dispatched local matrix kernels: scalar / AVX2, single- or
// multi-threaded.
//
// The experiment harnesses meter protocols in rounds and bits, but the
// reachable experiment *scale* is bounded by the simulator's local compute —
// above all the two dense i-k-j panel kernels behind algebraic MM
// (linalg/mat61) and APSP squaring (linalg/tropical). This module is the
// raw-speed lever: vectorized (AVX2) variants of both kernels compiled in a
// separate -mavx2 translation unit behind runtime CPUID detection, threaded
// over this module's own persistent worker pool (CC_THREADS workers, the
// only threads in the library), with the scalar kernels as the
// always-correct fallback.
//
// Determinism contract (DESIGN.md §2.6): kernel choice and thread count may
// change wall-clock, never values and never CommStats.
//
//  * Values: both semirings are *exact* — F_{2^61-1} arithmetic is modular
//    and the (min, +) fold is idempotent and order-insensitive — and every
//    kernel performs the same mathematical reduction, so outputs are
//    bit-identical across every {scalar, avx2} x CC_THREADS combination
//    (asserted by tests/kernel_dispatch_test, not hoped). Threading uses
//    one deterministic static row partition: n rows split into
//    P = min(threads, n) parts, each row computed start-to-finish by
//    exactly one worker, so the partition is a pure function of (n, P).
//  * CommStats: the kernels are local compute between metered phases; no
//    code path here touches an engine, so the planned round/bit schedule
//    (algebraic_mm_plan / apsp_plan) is kernel-independent by construction
//    — the committed bench baselines reproduce byte-identically under every
//    kernel knob setting.
//
// Selection: the CC_KERNEL environment variable, mirroring CC_THREADS.
//   CC_KERNEL=auto    pick AVX2 when the CPU supports it (default)
//   CC_KERNEL=scalar  force the portable scalar kernels
//   CC_KERNEL=avx2    request AVX2; falls back to scalar (with one stderr
//                     notice) when the CPU or build lacks it — never crashes
// Unrecognized values fail safe to scalar, like CC_THREADS's fallback.
#pragma once

#include <cstdint>

#include "linalg/mat61.h"
#include "linalg/sparse.h"
#include "linalg/tropical.h"

namespace cclique {

/// The local-kernel implementations the dispatcher can select.
enum class KernelKind {
  kScalar,  ///< portable panel kernels (mat61.cpp / tropical.cpp logic)
  kAvx2,    ///< 4-lane AVX2 variants (kernels_avx2.cpp, -mavx2 TU)
};

/// Human-readable kernel name ("scalar" / "avx2") for logs and benches.
const char* kernel_name(KernelKind k);

/// True iff the running CPU supports AVX2 *and* this build compiled the
/// AVX2 translation unit (probed once, cached).
bool cpu_has_avx2();

/// Resolves CC_KERNEL against cpu_has_avx2() to the kernel every dispatch
/// call below will run. Reads the environment on every call so tests can
/// flip the knob at runtime (the resolution itself is trivially cheap).
KernelKind active_kernel();

/// Worker count of the dispatch calls below: CC_THREADS when it is an
/// integer in [1, 1024], the hardware concurrency (at least 1) when it is
/// unset or empty, and 1 (serial) for any other value. Read on every call,
/// like CC_KERNEL.
int cc_thread_count();

// ---------------------------------------------------------------------------
// Raw row-range kernels. All operate on row-major n x n storage
// (Mat61::data() / TropicalMat::data() layout) and compute output rows
// [i0, i1) — the unit of the static thread partition. c must not alias a or
// b. The _avx2 variants exist in every build that compiled the AVX2 TU and
// must only be *called* when cpu_has_avx2() is true.

/// Mat61 lazy-reduction panel kernel (scalar): i-k-j order, k in panels of
/// 32 with 128-bit accumulation, one reduce128 per output per panel.
/// Entries of a and b must be reduced into [0, p); c entries end reduced.
void m61_mm_rows_scalar(const std::uint64_t* a, const std::uint64_t* b,
                        std::uint64_t* c, int n, int i0, int i1);

/// Mat61 AVX2 kernel: 4-wide 64x64->128 multiplies via _mm256_mul_epu32
/// limb decomposition (lo32 x hi29 cross products folded through
/// 2^61 = 1 mod p), depth-6 panels, one vectorized fold per panel.
void m61_mm_rows_avx2(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* c, int n, int i0, int i1);

/// Tropical row-streaming kernel (scalar): i-k-j order with +inf-lane
/// skipping; raw sums never wrap and saturated candidates never win (see
/// linalg/tropical.h). Entries must be <= kTropicalInf; so are outputs.
void tropical_mm_rows_scalar(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* c, int n, int i0, int i1);

/// Tropical AVX2 kernel: 4-wide saturating min-plus. Candidates stay below
/// 2^62, so signed 64-bit lane compares implement the unsigned min exactly,
/// and +inf B-lanes mask themselves (a candidate >= kTropicalInf can never
/// undercut an accumulator <= kTropicalInf).
void tropical_mm_rows_avx2(const std::uint64_t* a, const std::uint64_t* b,
                           std::uint64_t* c, int n, int i0, int i1);

// ---------------------------------------------------------------------------
// Sparse row-range kernels (scalar; AVX2 variants are a future rung — the
// gather-heavy access pattern needs AVX-512 to pay off). Operate on raw CSR
// arrays (linalg/sparse.h layout) for A and row-major dense storage for B
// and C, computing output rows [i0, i1) — the same unit of static thread
// partition as the dense kernels, so CC_THREADS determinism carries over
// unchanged.

/// Sparse·dense over F_{2^61-1}: C rows [i0, i1) of C = A_csr * B_dense.
/// Accumulates 128-bit lazily with the dense kernel's 32-deep panel fold
/// (products of reduced elements are < 2^122). c rows end reduced.
void m61_spmm_rows_scalar(const std::size_t* row_ptr, const int* cols,
                          const std::uint64_t* vals, const std::uint64_t* b,
                          std::uint64_t* c, int n, int i0, int i1);

/// Sparse·dense over (min, +): C rows [i0, i1) of the distance product.
/// Explicit CSR entries are finite by construction, so every stored lane
/// streams without the dense kernel's +inf skip test.
void tropical_spmm_rows_scalar(const std::size_t* row_ptr, const int* cols,
                               const std::uint64_t* vals, const std::uint64_t* b,
                               std::uint64_t* c, int n, int i0, int i1);

// ---------------------------------------------------------------------------
// Sparse whole-product entry points.

/// C = A * B with sparse A and dense B, explicit thread count — the
/// ablation/test entry (bit-identical output for every valid thread count;
/// static row partition identical to the dense kernels).
/// Preconditions: a.ring() matches the dense carrier, a.n() == b.n(),
/// threads >= 1 (CC_REQUIRE).
Mat61 m61_spmm_kernel(const Csr61& a, const Mat61& b, int threads);
TropicalMat tropical_spmm_kernel(const Csr61& a, const TropicalMat& b, int threads);

/// Env-driven sparse·dense dispatch (cc_thread_count() workers, small
/// products kept serial like the dense dispatch). The local kernel of the
/// sparse MM schedule (core/algebraic_mm).
Mat61 m61_spmm_dispatch(const Csr61& a, const Mat61& b);
TropicalMat tropical_spmm_dispatch(const Csr61& a, const TropicalMat& b);

/// C = A * B with both operands sparse (either ring — taken from a), CSR
/// out. Row-Gustavson with a dense per-row accumulator; output rows are
/// independent, so the same static row partition threads it and the result
/// is bit-identical for every thread count. Explicit entries of the result
/// are exactly the product's non-implicit-zero entries (entries that cancel
/// to the implicit zero mod p are dropped).
/// Preconditions: a.n() == b.n(), a.ring() == b.ring(), threads >= 1.
Csr61 csr_multiply_csr_kernel(const Csr61& a, const Csr61& b, int threads);

/// Env-driven sparse·sparse dispatch; see csr_multiply_csr_kernel.
Csr61 csr_multiply_csr_dispatch(const Csr61& a, const Csr61& b);

// ---------------------------------------------------------------------------
// Whole-product entry points.

/// C = A * B over F_{2^61-1} with an explicit kernel and thread count — the
/// ablation grid the benches and kernel_dispatch_test drive directly.
/// Preconditions: a.n() == b.n(), threads >= 1, and kind == kAvx2 only when
/// cpu_has_avx2() (CC_REQUIRE). Output is bit-identical for every valid
/// (kind, threads) pair.
Mat61 m61_multiply_kernel(const Mat61& a, const Mat61& b, KernelKind kind,
                          int threads);

/// C = A (min,+) B with an explicit kernel and thread count; same contract.
TropicalMat tropical_multiply_kernel(const TropicalMat& a, const TropicalMat& b,
                                     KernelKind kind, int threads);

/// Env-driven dispatch: active_kernel() x cc_thread_count(), with small
/// products kept single-threaded (pool handoff costs more than the work;
/// the cutoff is a pure function of n, and outputs are row-independent, so
/// determinism is unaffected). This is the local kernel of
/// core/algebraic_mm and core/apsp.
Mat61 m61_multiply_dispatch(const Mat61& a, const Mat61& b);

/// Env-driven tropical dispatch; see m61_multiply_dispatch.
TropicalMat tropical_multiply_dispatch(const TropicalMat& a, const TropicalMat& b);

}  // namespace cclique
