// apvbench --workload stencil|chatter|mobility --seed N --seconds S
//          --trace 0|1 [--out DIR]
//
// Runs one workload on the real mpi::Runtime for S seconds and prints its
// metrics; the last line of stdout is the result as one JSON object.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes a Chrome trace-event file under DIR).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define APVBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define APVBENCH_SANITIZED 1
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: apvbench --workload stencil|chatter|mobility --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef APVBENCH_SANITIZED
  std::fprintf(stderr, "apvbench: refusing to report from a sanitizer build\n");
  return 2;
#endif
  apvbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      return usage();
    }
  }
  if (a.workload.empty() || argc % 2 == 0 || !(a.seconds > 0.0)) return usage();
  try {
    return apvbench::run_benchmark(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apvbench: %s\n", e.what());
    return 1;
  }
}
