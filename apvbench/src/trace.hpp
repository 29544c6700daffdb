#pragma once

// In-memory span tracing for the benchmark's rank code. Each rank records
// spans around its calls into the runtime's layers (Env::*, the stencil
// kernel, ...) into its own buffer; nothing is written out until the run
// ends. Disarmed (no Trace installed) a Span guard costs one branch.

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace apvbench {

/// Layers a span is attributed to. `Rank` is the benchmark's own rank code
/// (the step span itself, payload generation and checking).
enum class Layer : std::uint8_t {
  Rank,
  Apps,
  MpiP2p,
  MpiColl,
  Lb,
  Ft,
  Isomalloc,
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer) noexcept;

struct SpanRec {
  const char* name = nullptr;  ///< static string
  Layer layer = Layer::Rank;
  std::int32_t parent = -1;  ///< index in the same rank's buffer, -1 = root
  std::int32_t step = -1;    ///< workload step, -1 outside the step loop
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
};

/// Per-rank span buffers. A rank's buffer is written only by that rank's
/// ULT (whichever PE it runs on), so recording needs no synchronization.
class Trace {
 public:
  explicit Trace(int ranks);

  int open(int rank, const char* name, Layer layer, int step);
  void close(int rank, int idx);

  int ranks() const noexcept { return static_cast<int>(bufs_.size()); }
  const std::vector<SpanRec>& spans(int rank) const {
    return bufs_[static_cast<std::size_t>(rank)].spans;
  }

 private:
  struct alignas(64) RankBuf {
    std::vector<SpanRec> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };
  std::vector<RankBuf> bufs_;
};

/// RAII span; no-op when `trace` is null.
class Span {
 public:
  Span(Trace* trace, int rank, const char* name, Layer layer, int step)
      : trace_(trace), rank_(rank) {
    if (trace_ != nullptr) idx_ = trace_->open(rank, name, layer, step);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->close(rank_, idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  int rank_;
  int idx_ = -1;
};

/// Self time of every span of one rank: its duration minus the part of its
/// interval covered by the union of its children's intervals (clipped to
/// the parent). Result is indexed like `spans`, in nanoseconds.
std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRec>& spans);

/// Accumulates span statistics over several traced solves.
struct SpanStats {
  /// Durations (seconds) per span name.
  std::vector<std::pair<std::string, std::vector<double>>> by_name;
  /// Summed self time (seconds) per layer, over all ranks and solves.
  std::array<double, kLayers> self_s{};
  /// Sum over solves of ranks * solve_s: the denominator of a layer's
  /// self-time share.
  double rank_seconds = 0.0;

  void add(const Trace& trace, double solve_s);
  /// Durations recorded under `name` (empty when none).
  const std::vector<double>& durations(const std::string& name) const;
};

/// Writes every span of ranks' steps below `max_step` (and all spans
/// outside the step loop) as Chrome trace-event JSON, one thread per rank.
/// Perfetto and chrome://tracing open the file. Returns false on I/O error.
bool write_chrome_trace(const Trace& trace, int max_step,
                        const std::string& path);

}  // namespace apvbench
