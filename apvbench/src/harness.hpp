#pragma once

// The measurement loop: one process runs one workload at one seed for a
// fixed wall-clock budget and prints its metrics, the last line as JSON.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace apvbench {

/// Median and 99th percentile of a sample set, with the number of samples
/// strictly beyond the p99. A p99 is reported only when at least ten
/// samples lie beyond it (i.e. at least 1000 samples).
struct Tail {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
  std::size_t beyond_p99 = 0;
  bool p99_supported() const noexcept { return beyond_p99 >= 10; }
};
Tail tail_of(std::vector<double> samples);

/// Result of one Runtime construction + run().
struct Solve {
  double image_ms = 0.0;
  double setup_s = 0.0;
  double solve_s = 0.0;
  double init_ms = 0.0;
  double rss_mb = 0.0;
  Tail step_ms;       ///< every rank's step durations
  std::string error;  ///< empty = ran and passed its result check
  apv::util::Counters counters;
};

/// Builds the image, constructs the runtime, runs it and checks the result.
/// `trace` (may be null) receives the rank code's spans.
Solve solve_once(const Workload& w, Trace* trace);

/// Digest of the per-rank results of the last solve (the RankRec digests).
std::uint64_t result_digest();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "apvbench-out";
};

/// Runs the benchmark; returns the process exit code.
int run_benchmark(const Args& args);

}  // namespace apvbench
