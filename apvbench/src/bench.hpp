#pragma once

// Shared declarations of the apv benchmark: the workload interface the
// harness drives, the per-rank records rank code fills, and the seeded
// input generators.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace apvbench {

/// Problem size: `Full` is what the benchmark measures, `Small` the smoke
/// size the tests run.
enum class Size { Full, Small };

/// What one rank's entry function leaves behind for the harness. Written
/// only by that rank (on whichever PE it runs), read after run() returns.
struct RankRec {
  std::vector<float> step_ms;          ///< per-step duration, Env::wtime
  std::vector<std::uint64_t> digests;  ///< workload-defined result digests
  double value = 0.0;                  ///< workload-defined scalar result
};

/// The state rank code reaches through the native (unprivatized) process:
/// where to record. Installed by the harness around Runtime::run().
struct RunState {
  Trace* trace = nullptr;  ///< null = tracing off
  std::vector<RankRec> ranks;
};
RunState& run_state();

/// Mixes values into a 64-bit key (SplitMix64 finalizer over a running
/// combination); the one hash every generator and checker uses.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept;
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d = 0) noexcept;

/// One benchmark workload. The harness calls reference() once per process
/// (untimed), then repeatedly: image() (timed as image.build_ms), the
/// Runtime constructor with config() (setup_s), run() (solve_s), then
/// check() and guard().
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int ranks() const = 0;
  /// Rank-steps one solve attempts (the fail_frac denominator).
  virtual std::int64_t rank_steps() const = 0;
  virtual apv::img::ProgramImage image() const = 0;
  /// Digest of every seeded input the image carries.
  virtual std::uint64_t input_digest() const = 0;
  /// Runtime configuration with every option the workload depends on set
  /// explicitly, so no environment fallback can change it.
  virtual apv::mpi::RuntimeConfig config() const = 0;
  /// Untimed reference computation for this seed; throws on failure.
  virtual void reference() = 0;
  /// Result check of the last solve's rank records against the reference
  /// and the seeded inputs. Returns an empty string when correct, else the
  /// reason.
  virtual std::string check() const = 0;
  /// Mechanism guard: the reason the solve did not exercise the layers the
  /// workload is meant to stress (empty when it did). Checked on every
  /// solve; comm.dropped == 0 is checked for all workloads by the harness.
  virtual std::string guard(const apv::util::Counters& c) const = 0;
  /// Per-layer values a workload computes outside the runtime (the
  /// stencil's serial reference timing), by metric name; also the inputs
  /// the harness derives a layer metric from (apps.cells_per_rank).
  virtual std::vector<std::pair<std::string, double>> extra_metrics() const {
    return {};
  }
};

std::unique_ptr<Workload> make_stencil(std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_chatter(std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_mobility(std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size);

/// Options pinned for every workload; each workload adds its own on top.
apv::util::Options pinned_options();

}  // namespace apvbench
