// perfbench: the host-cost benchmark binary.
//
//   perfbench --workload apsp_dense|count_sparse|serve_mixed --seed N
//             --seconds S [--trace 0|1] [--trace-out PATH] [--tiny]
//
// Prints one JSON object of raw samples (see workloads.h) as its last
// stdout line; perfbench/run.py builds this binary, pins CC_THREADS and
// CC_KERNEL, and turns the samples into the benchmark's metrics. Refuses
// (exit 3, no output) to measure a build with a runtime guard, a sanitizer
// or no optimization.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "comm/engine.h"
#include "linalg/kernels.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Why this build must not report numbers, or "" when it may.
std::string build_refusal() {
  if (cclique::locality::enabled()) return "the locality guard is compiled in";
  if (cclique::oblivious::enabled()) return "the obliviousness guard is compiled in";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "this is a sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "this is a sanitizer build";
#endif
#endif
#ifndef __OPTIMIZE__
  return "this build is not optimized";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "build type is " + type;
  return "";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject() { out_.precision(17); }
  JsonObject& num(const char* key, double v) {
    sep(key);
    out_ << v;
    return *this;
  }
  JsonObject& str(const char* key, const std::string& v) {
    sep(key);
    out_ << json_string(v);
    return *this;
  }
  JsonObject& raw(const char* key, const std::string& json) {
    sep(key);
    out_ << json;
    return *this;
  }
  JsonObject& nums(const char* key, const std::vector<double>& v) {
    sep(key);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) out_ << (i ? "," : "") << v[i];
    out_ << ']';
    return *this;
  }
  std::string done() { return out_.str() + "}"; }

 private:
  void sep(const char* key) {
    out_ << (first_ ? "{" : ", ") << json_string(key) << ": ";
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string layers_json(const LayerTotals& t) {
  return JsonObject()
      .num("traced_ops", t.traced_ops)
      .num("op_ms", t.op_ms)
      .num("op_rounds", t.op_rounds)
      .num("op_bits", t.op_bits)
      .num("relay_calls", t.relay_calls)
      .num("relay_ms", t.relay_ms)
      .num("relay_bits", t.relay_bits)
      .num("plan_calls", t.plan_calls)
      .num("plan_ms", t.plan_ms)
      .num("kernel_calls", t.kernel_calls)
      .num("kernel_ms", t.kernel_ms)
      .num("kernel_ops", t.kernel_ops)
      .num("kernel_bytes", t.kernel_bytes)
      .num("sparse_ms", t.sparse_ms)
      .num("profile_ms", t.profile_ms)
      .num("announce_rounds", t.announce_rounds)
      .num("sparse_attempts", t.sparse_attempts)
      .num("sparse_taken", t.sparse_taken)
      .done();
}

std::string record_json(const Options& opt, const RunRecord& r, double peak_rss_mb) {
  const std::string env =
      JsonObject()
          .num("nproc", std::thread::hardware_concurrency())
          .num("avx2", cclique::cpu_has_avx2() ? 1 : 0)
          .num("threads", cclique::cc_thread_count())
          .str("kernel", cclique::kernel_name(cclique::active_kernel()))
          .str("build_type", PERFBENCH_BUILD_TYPE)
          .done();
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i ? ", " : "") + json_string(r.failures[i]);
  }
  failures += "]";
  return JsonObject()
      .str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .num("n", r.n)
      .raw("env", env)
      .nums("setup_s", r.setup_s)
      .nums("generate_ms", r.generate_ms)
      .nums("op_ms", r.op_ms)
      .nums("traced_op_ms", r.traced_op_ms)
      .num("busy_s", r.busy_s)
      .num("ops", static_cast<double>(r.ops))
      .num("queries", static_cast<double>(r.queries))
      .num("rounds", r.rounds)
      .num("bits", r.bits)
      .num("attempted", static_cast<double>(r.attempted))
      .num("failed", static_cast<double>(r.failed))
      .raw("failures", failures)
      .num("exhausted", r.exhausted ? 1 : 0)
      .nums("hit_ms", r.hit_ms)
      .nums("miss_ms", r.miss_ms)
      .nums("mutate_us", r.mutate_us)
      .num("class_hits", static_cast<double>(r.class_hits))
      .num("class_misses", static_cast<double>(r.class_misses))
      .num("evictions", static_cast<double>(r.evictions))
      .num("resident_words_max", static_cast<double>(r.resident_words_max))
      .num("peak_rss_mb", peak_rss_mb)
      .raw("layers", layers_json(r.layers))
      .done();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--trace-out PATH] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) return usage("need --workload and --seconds > 0");

  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", refusal.c_str());
    return 3;
  }

  SpanLog log(opt.trace);
  RunRecord rec;
  try {
    rec = run_workload(opt, &log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace && !trace_out.empty() && !log.write_chrome(trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  std::printf("%s\n", record_json(opt, rec, peak_rss_mb).c_str());
  return 0;
}
