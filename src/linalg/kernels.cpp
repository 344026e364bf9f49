#include "linalg/kernels.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/field.h"

namespace cclique {

const char* kernel_name(KernelKind k) {
  return k == KernelKind::kAvx2 ? "avx2" : "scalar";
}

bool cpu_has_avx2() {
#if defined(CCLIQUE_AVX2_TU) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

KernelKind active_kernel() {
  const char* env = std::getenv("CC_KERNEL");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return cpu_has_avx2() ? KernelKind::kAvx2 : KernelKind::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) {
    if (cpu_has_avx2()) return KernelKind::kAvx2;
    // Graceful fallback, once per process: the request is a preference, not
    // a capability the host can be assumed to have.
    static const bool warned = [] {
      std::fprintf(stderr,
                   "cclique: CC_KERNEL=avx2 requested but this CPU/build has "
                   "no AVX2 — falling back to the scalar kernels\n");
      return true;
    }();
    (void)warned;
    return KernelKind::kScalar;
  }
  // "scalar" and anything unrecognized: fail safe to the portable kernels
  // (the CC_THREADS fallback convention).
  return KernelKind::kScalar;
}

int cc_thread_count() {
  const char* env = std::getenv("CC_THREADS");
  if (env == nullptr || *env == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1 || v > 1024) {
    return 1;  // unparseable or out of range: fail safe to serial
  }
  return static_cast<int>(v);
}

// ------------------------------------------------------- static row partition

namespace {

/// Persistent workers for the row partition: threads - 1 workers plus the
/// caller claim the indices of one job at a time. Spawning threads per
/// product would cost more than a 128-dim product's parts save.
class ThreadPool {
 public:
  explicit ThreadPool(int threads) {
    for (int t = 1; t < threads; ++t) {
      workers_.emplace_back([this] {
        std::uint64_t seen = 0;
        for (;;) {
          {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
          }
          drain(seen);
        }
      });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, count) and blocks until all completed.
  /// Every index runs even if some throw; the first exception caught is
  /// rethrown afterwards. Concurrent callers take turns.
  void run_indexed(int count, const std::function<void(int)>& fn) {
    std::lock_guard<std::mutex> job(job_mutex_);
    std::uint64_t gen;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      count_ = count;
      next_ = 0;
      pending_ = count;
      error_ = nullptr;
      gen = ++generation_;
    }
    work_ready_.notify_all();
    drain(gen);
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_done_.wait(lock, [&] { return pending_ == 0; });
      error = error_;
      fn_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  // Claims and runs indices of job `gen` until exhausted; the caller and
  // the workers share this. Tickets are claimed under the mutex with a
  // generation check, so a straggler that loops once more after the job's
  // last index completed never touches the next job's state.
  void drain(std::uint64_t gen) {
    for (;;) {
      int i;
      const std::function<void(int)>* f;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (generation_ != gen || next_ >= count_) return;
        i = next_++;
        f = fn_;
      }
      std::exception_ptr err;
      try {
        (*f)(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (err && !error_) error_ = err;
      if (--pending_ == 0) job_done_.notify_all();
    }
  }

  std::mutex job_mutex_;  ///< one job at a time
  std::mutex mutex_;      ///< guards every field below
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  const std::function<void(int)>* fn_ = nullptr;
  int count_ = 0;
  int next_ = 0;     ///< next unclaimed index of the current job
  int pending_ = 0;  ///< indices not yet completed
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

/// The pool for a requested thread count, built on first use and kept for
/// the process lifetime (kernels run by the thousands in bench sweeps).
ThreadPool& kernel_pool(int threads) {
  static std::mutex cache_mutex;
  static std::map<int, std::unique_ptr<ThreadPool>> cache;
  std::lock_guard<std::mutex> lock(cache_mutex);
  std::unique_ptr<ThreadPool>& pool = cache[threads];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
  return *pool;
}

/// P = min(threads, n): the part count of n rows at `threads` workers, so
/// every part owns at least one row (none when n == 0).
int row_parts(int n, int threads) {
  CC_REQUIRE(threads >= 1, "kernel thread count must be >= 1");
  return std::min(threads, n);
}

/// The static row partition every kernel threads over: part t of
/// P = row_parts(n, threads) computes rows [n*t/P, n*(t+1)/P) start to
/// finish through fn(t, i0, i1), a pure function of (n, P), so the thread
/// count never changes a bit of the output. One part runs on the caller;
/// more run on the pool for `threads`, whatever n is.
template <typename PartFn>
void run_row_parts(int n, int threads, const PartFn& fn) {
  const int parts = row_parts(n, threads);
  const auto part = [&](int t) {
    fn(t, static_cast<int>(static_cast<std::int64_t>(n) * t / parts),
       static_cast<int>(static_cast<std::int64_t>(n) * (t + 1) / parts));
  };
  if (parts > 1) {
    kernel_pool(threads).run_indexed(parts, part);
  } else if (parts == 1) {
    part(0);
  }
}

/// Below this dimension the pool handoff costs more than the product; the
/// distributed protocols' per-player blocks (bs = ceil(n/m) rows) live here.
constexpr int kThreadMinDim = 128;

int dispatch_threads(int n) {
  return n < kThreadMinDim ? 1 : cc_thread_count();
}

}  // namespace

// ------------------------------------------------------------ scalar kernels

void m61_mm_rows_scalar(const std::uint64_t* a, const std::uint64_t* b,
                        std::uint64_t* c, int n, int i0, int i1) {
  // Panel depth: products of reduced elements are < 2^122, so 32 of them
  // sum to < 2^127 — no 128-bit overflow before the per-panel fold.
  constexpr int kPanel = 32;
  std::vector<__uint128_t> acc(static_cast<std::size_t>(n));
  for (int i = i0; i < i1; ++i) {
    const std::uint64_t* arow = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    for (auto& e : acc) e = 0;
    for (int k0 = 0; k0 < n; k0 += kPanel) {
      const int k1 = k0 + kPanel < n ? k0 + kPanel : n;
      for (int k = k0; k < k1; ++k) {
        const std::uint64_t aik = arow[k];
        if (aik == 0) continue;  // adjacency inputs are sparse in practice
        const std::uint64_t* brow = b + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
        for (int j = 0; j < n; ++j) {
          acc[static_cast<std::size_t>(j)] +=
              static_cast<__uint128_t>(aik) * brow[j];
        }
      }
      // Fold the panel so the next one starts from a < 2^61 residue.
      for (int j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] =
            Mersenne61::reduce128(acc[static_cast<std::size_t>(j)]);
      }
    }
    std::uint64_t* crow = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    for (int j = 0; j < n; ++j) {
      crow[j] = static_cast<std::uint64_t>(acc[static_cast<std::size_t>(j)]);
    }
  }
}

void tropical_mm_rows_scalar(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* c, int n, int i0, int i1) {
  for (int i = i0; i < i1; ++i) {
    const std::uint64_t* arow = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    std::uint64_t* crow = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    for (int j = 0; j < n; ++j) crow[j] = kTropicalInf;
    for (int k = 0; k < n; ++k) {
      const std::uint64_t aik = arow[k];
      if (aik == kTropicalInf) continue;  // whole lane is a no-op
      const std::uint64_t* brow = b + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      for (int j = 0; j < n; ++j) {
        // aik + brow[j] < 2^62 (both <= kInf), so the raw sum never wraps;
        // a sum >= kInf can never undercut an accumulator <= kInf, which
        // makes the plain comparison exactly the saturating min.
        const std::uint64_t cand = aik + brow[j];
        if (cand < crow[j]) crow[j] = cand;
      }
    }
  }
}

// --------------------------------------------------------- threaded dispatch

namespace {

using RowRangeFn = void (*)(const std::uint64_t*, const std::uint64_t*,
                            std::uint64_t*, int, int, int);

RowRangeFn m61_rows_fn(KernelKind kind) {
  if (kind == KernelKind::kAvx2) {
#ifdef CCLIQUE_AVX2_TU
    CC_REQUIRE(cpu_has_avx2(), "AVX2 kernel requested on a non-AVX2 CPU");
    return &m61_mm_rows_avx2;
#else
    throw PreconditionError("AVX2 kernel requested but this build has no AVX2 TU");
#endif
  }
  return &m61_mm_rows_scalar;
}

RowRangeFn tropical_rows_fn(KernelKind kind) {
  if (kind == KernelKind::kAvx2) {
#ifdef CCLIQUE_AVX2_TU
    CC_REQUIRE(cpu_has_avx2(), "AVX2 kernel requested on a non-AVX2 CPU");
    return &tropical_mm_rows_avx2;
#else
    throw PreconditionError("AVX2 kernel requested but this build has no AVX2 TU");
#endif
  }
  return &tropical_mm_rows_scalar;
}

}  // namespace

Mat61 m61_multiply_kernel(const Mat61& a, const Mat61& b, KernelKind kind,
                          int threads) {
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  const int n = a.n();
  Mat61 out(n);
  const RowRangeFn fn = m61_rows_fn(kind);
  const std::uint64_t* ad = a.data();
  const std::uint64_t* bd = b.data();
  std::uint64_t* cd = out.mutable_data();
  run_row_parts(n, threads, [&](int, int i0, int i1) { fn(ad, bd, cd, n, i0, i1); });
  return out;
}

TropicalMat tropical_multiply_kernel(const TropicalMat& a, const TropicalMat& b,
                                     KernelKind kind, int threads) {
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  const int n = a.n();
  TropicalMat out(n);
  const RowRangeFn fn = tropical_rows_fn(kind);
  const std::uint64_t* ad = a.data();
  const std::uint64_t* bd = b.data();
  std::uint64_t* cd = out.mutable_data();
  run_row_parts(n, threads, [&](int, int i0, int i1) { fn(ad, bd, cd, n, i0, i1); });
  return out;
}

Mat61 m61_multiply_dispatch(const Mat61& a, const Mat61& b) {
  return m61_multiply_kernel(a, b, active_kernel(), dispatch_threads(a.n()));
}

TropicalMat tropical_multiply_dispatch(const TropicalMat& a, const TropicalMat& b) {
  return tropical_multiply_kernel(a, b, active_kernel(), dispatch_threads(a.n()));
}

// ----------------------------------------------------------- sparse kernels

void m61_spmm_rows_scalar(const std::size_t* row_ptr, const int* cols,
                          const std::uint64_t* vals, const std::uint64_t* b,
                          std::uint64_t* c, int n, int i0, int i1) {
  // Same overflow argument as the dense kernel: 32 products of reduced
  // elements sum below 2^127, so fold once per 32 stored entries.
  constexpr std::size_t kPanel = 32;
  std::vector<__uint128_t> acc(static_cast<std::size_t>(n));
  for (int i = i0; i < i1; ++i) {
    for (auto& e : acc) e = 0;
    const std::size_t lo = row_ptr[i], hi = row_ptr[i + 1];
    for (std::size_t e0 = lo; e0 < hi; e0 += kPanel) {
      const std::size_t e1 = e0 + kPanel < hi ? e0 + kPanel : hi;
      for (std::size_t e = e0; e < e1; ++e) {
        const std::uint64_t aik = vals[e];
        const std::uint64_t* brow =
            b + static_cast<std::size_t>(cols[e]) * static_cast<std::size_t>(n);
        for (int j = 0; j < n; ++j) {
          acc[static_cast<std::size_t>(j)] +=
              static_cast<__uint128_t>(aik) * brow[j];
        }
      }
      for (int j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] =
            Mersenne61::reduce128(acc[static_cast<std::size_t>(j)]);
      }
    }
    std::uint64_t* crow = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    for (int j = 0; j < n; ++j) {
      crow[j] = static_cast<std::uint64_t>(acc[static_cast<std::size_t>(j)]);
    }
  }
}

void tropical_spmm_rows_scalar(const std::size_t* row_ptr, const int* cols,
                               const std::uint64_t* vals, const std::uint64_t* b,
                               std::uint64_t* c, int n, int i0, int i1) {
  for (int i = i0; i < i1; ++i) {
    std::uint64_t* crow = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    for (int j = 0; j < n; ++j) crow[j] = kTropicalInf;
    for (std::size_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      const std::uint64_t aik = vals[e];  // finite by CSR construction
      const std::uint64_t* brow =
          b + static_cast<std::size_t>(cols[e]) * static_cast<std::size_t>(n);
      for (int j = 0; j < n; ++j) {
        // aik < kInf and brow[j] <= kInf, so the raw sum never wraps, and a
        // sum >= kInf can never undercut an accumulator <= kInf (the dense
        // kernel's saturating-min argument).
        const std::uint64_t cand = aik + brow[j];
        if (cand < crow[j]) crow[j] = cand;
      }
    }
  }
}

Mat61 m61_spmm_kernel(const Csr61& a, const Mat61& b, int threads) {
  CC_REQUIRE(a.ring() == SparseRing::kM61, "sparse operand is not over F_{2^61-1}");
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  Mat61 out(a.n());
  const std::size_t* rp = a.row_ptr();
  const int* cols = a.cols();
  const std::uint64_t* vals = a.vals();
  const std::uint64_t* bd = b.data();
  std::uint64_t* cd = out.mutable_data();
  const int n = a.n();
  run_row_parts(n, threads, [&](int, int i0, int i1) {
    m61_spmm_rows_scalar(rp, cols, vals, bd, cd, n, i0, i1);
  });
  return out;
}

TropicalMat tropical_spmm_kernel(const Csr61& a, const TropicalMat& b, int threads) {
  CC_REQUIRE(a.ring() == SparseRing::kTropical, "sparse operand is not tropical");
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  TropicalMat out(a.n());
  const std::size_t* rp = a.row_ptr();
  const int* cols = a.cols();
  const std::uint64_t* vals = a.vals();
  const std::uint64_t* bd = b.data();
  std::uint64_t* cd = out.mutable_data();
  const int n = a.n();
  run_row_parts(n, threads, [&](int, int i0, int i1) {
    tropical_spmm_rows_scalar(rp, cols, vals, bd, cd, n, i0, i1);
  });
  return out;
}

Mat61 m61_spmm_dispatch(const Csr61& a, const Mat61& b) {
  return m61_spmm_kernel(a, b, dispatch_threads(a.n()));
}

TropicalMat tropical_spmm_dispatch(const Csr61& a, const TropicalMat& b) {
  return tropical_spmm_kernel(a, b, dispatch_threads(a.n()));
}

namespace {

/// One thread's slice of the Gustavson product: rows [i0, i1) of A*B as a
/// local (row_nnz, cols, vals) triple, concatenated in row order afterwards
/// — the output is a pure function of the rows, so the thread count never
/// changes a bit of it.
struct CsrSlice {
  std::vector<std::size_t> row_nnz;
  std::vector<int> cols;
  std::vector<std::uint64_t> vals;
};

template <typename Accumulate, typename Keep>
void gustavson_rows(const Csr61& a, const Csr61& b, int i0, int i1,
                    std::uint64_t init, const Accumulate& accumulate,
                    const Keep& keep, CsrSlice* out) {
  const int n = a.n();
  const std::size_t* arp = a.row_ptr();
  const int* acols = a.cols();
  const std::uint64_t* avals = a.vals();
  const std::size_t* brp = b.row_ptr();
  const int* bcols = b.cols();
  const std::uint64_t* bvals = b.vals();
  std::vector<std::uint64_t> acc(static_cast<std::size_t>(n), init);
  std::vector<int> touched;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int i = i0; i < i1; ++i) {
    touched.clear();
    for (std::size_t e = arp[i]; e < arp[i + 1]; ++e) {
      const std::uint64_t aik = avals[e];
      const int k = acols[e];
      for (std::size_t f = brp[k]; f < brp[k + 1]; ++f) {
        const int j = bcols[f];
        if (!seen[static_cast<std::size_t>(j)]) {
          seen[static_cast<std::size_t>(j)] = 1;
          touched.push_back(j);
        }
        std::uint64_t& slot = acc[static_cast<std::size_t>(j)];
        slot = accumulate(slot, aik, bvals[f]);
      }
    }
    std::sort(touched.begin(), touched.end());
    std::size_t kept = 0;
    for (int j : touched) {
      const std::uint64_t v = acc[static_cast<std::size_t>(j)];
      if (keep(v)) {
        out->cols.push_back(j);
        out->vals.push_back(v);
        ++kept;
      }
      acc[static_cast<std::size_t>(j)] = init;
      seen[static_cast<std::size_t>(j)] = 0;
    }
    out->row_nnz.push_back(kept);
  }
}

}  // namespace

Csr61 csr_multiply_csr_kernel(const Csr61& a, const Csr61& b, int threads) {
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  CC_REQUIRE(a.ring() == b.ring(), "mixed-ring sparse product");
  const int n = a.n();
  std::vector<CsrSlice> slices(static_cast<std::size_t>(row_parts(n, threads)));
  run_row_parts(n, threads, [&](int t, int i0, int i1) {
    CsrSlice* out = &slices[static_cast<std::size_t>(t)];
    if (a.ring() == SparseRing::kM61) {
      gustavson_rows(
          a, b, i0, i1, /*init=*/0,
          [](std::uint64_t acc, std::uint64_t x, std::uint64_t y) {
            // One reduction per elementary product (schoolbook discipline;
            // sparse rows are short, so laziness buys little here).
            return Mersenne61::add(acc, Mersenne61::reduce128(
                                            static_cast<__uint128_t>(x) * y));
          },
          [](std::uint64_t v) { return v != 0; }, out);
    } else {
      gustavson_rows(
          a, b, i0, i1, /*init=*/kTropicalInf,
          [](std::uint64_t acc, std::uint64_t x, std::uint64_t y) {
            const std::uint64_t cand = tropical_add(x, y);
            return cand < acc ? cand : acc;
          },
          [](std::uint64_t v) { return v < kTropicalInf; }, out);
    }
  });
  std::vector<std::size_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> cols;
  std::vector<std::uint64_t> vals;
  std::size_t row = 0;
  for (const CsrSlice& s : slices) {
    for (std::size_t r = 0; r < s.row_nnz.size(); ++r) {
      row_ptr[row + 1] = row_ptr[row] + s.row_nnz[r];
      ++row;
    }
    cols.insert(cols.end(), s.cols.begin(), s.cols.end());
    vals.insert(vals.end(), s.vals.begin(), s.vals.end());
  }
  CC_CHECK(row == static_cast<std::size_t>(n), "sparse product lost rows");
  return Csr61(n, a.ring(), std::move(row_ptr), std::move(cols), std::move(vals));
}

Csr61 csr_multiply_csr_dispatch(const Csr61& a, const Csr61& b) {
  return csr_multiply_csr_kernel(a, b, dispatch_threads(a.n()));
}

}  // namespace cclique
