// The three benchmark workloads. Each sets up from the seed (timed, several
// times), runs a closed loop with one caller for the requested seconds,
// checks every answer and every op's rounds/bits outside the timed region,
// and returns the raw samples; the metrics are computed by perfbench/run.py.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< small n for the benchmark's own tests
};

/// Raw samples of one run.
struct RunRecord {
  int n = 0;
  std::vector<double> setup_s;      ///< one per set-up repetition
  std::vector<double> generate_ms;  ///< graph generators, per repetition
  /// Op latencies. In a traced run these are the untraced ops of each pair.
  std::vector<double> op_ms;
  std::vector<double> traced_op_ms;  ///< traced run only: the traced ops
  double busy_s = 0;  ///< timed region: ops, plus mutations on serve_mixed
  std::uint64_t ops = 0;
  std::uint64_t queries = 0;  ///< answers produced
  double rounds = 0;          ///< measured model cost, summed over ops
  double bits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the report
  bool exhausted = false;  ///< the loop ran out of generated inputs
  // serve_mixed
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> mutate_us;
  std::uint64_t class_hits = 0;
  std::uint64_t class_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t resident_words_max = 0;
  // traced run
  LayerTotals layers;
};

/// Runs the named workload; unknown names throw std::invalid_argument.
RunRecord run_workload(const Options& opt, SpanLog* log);

}  // namespace perfbench
