#include "trace.hpp"

#include <algorithm>
#include <limits>

namespace apvbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::Rank: return "rank";
    case Layer::Apps: return "apps";
    case Layer::MpiP2p: return "mpi_p2p";
    case Layer::MpiColl: return "mpi_coll";
    case Layer::Lb: return "lb";
    case Layer::Ft: return "ft";
    case Layer::Isomalloc: return "isomalloc";
    case Layer::kCount: break;
  }
  return "?";
}

Trace::Trace(int ranks) : bufs_(static_cast<std::size_t>(ranks)) {
  for (RankBuf& b : bufs_) {
    b.spans.reserve(4096);
    b.open.reserve(8);
  }
}

int Trace::open(int rank, const char* name, Layer layer, int step) {
  RankBuf& b = bufs_[static_cast<std::size_t>(rank)];
  SpanRec s;
  s.name = name;
  s.layer = layer;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.step = step;
  s.t0_ns = apv::util::wall_time_ns();
  const auto idx = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back(s);
  b.open.push_back(idx);
  return idx;
}

void Trace::close(int rank, int idx) {
  RankBuf& b = bufs_[static_cast<std::size_t>(rank)];
  b.spans[static_cast<std::size_t>(idx)].t1_ns = apv::util::wall_time_ns();
  b.open.pop_back();
}

std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRec>& spans) {
  const std::size_t n = spans.size();
  // Children of each span as clipped [t0, t1) intervals.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(n);
  for (const SpanRec& s : spans) {
    if (s.parent < 0) continue;
    const SpanRec& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t a = std::max(s.t0_ns, p.t0_ns);
    const std::uint64_t b = std::min(s.t1_ns, p.t1_ns);
    if (a < b) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::uint64_t> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_a = 0;
    std::uint64_t cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (have) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    }
    if (have) covered += cur_b - cur_a;
    const std::uint64_t dur =
        spans[i].t1_ns > spans[i].t0_ns ? spans[i].t1_ns - spans[i].t0_ns : 0;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

void SpanStats::add(const Trace& trace, double solve_s) {
  for (int r = 0; r < trace.ranks(); ++r) {
    const auto& spans = trace.spans(r);
    const std::vector<std::uint64_t> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      self_s[static_cast<std::size_t>(s.layer)] +=
          static_cast<double>(self[i]) * 1e-9;
      auto it = std::find_if(by_name.begin(), by_name.end(),
                             [&](const auto& e) { return e.first == s.name; });
      if (it == by_name.end()) {
        by_name.emplace_back(s.name, std::vector<double>{});
        it = by_name.end() - 1;
      }
      it->second.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9);
    }
  }
  rank_seconds += trace.ranks() * solve_s;
}

const std::vector<double>& SpanStats::durations(const std::string& name) const {
  static const std::vector<double> kEmpty;
  for (const auto& e : by_name)
    if (e.first == name) return e.second;
  return kEmpty;
}

bool write_chrome_trace(const Trace& trace, int max_step,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (int r = 0; r < trace.ranks(); ++r)
    for (const SpanRec& s : trace.spans(r)) base = std::min(base, s.t0_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (int r = 0; r < trace.ranks(); ++r) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"rank %d\"}}",
                 first ? "" : ",\n", r, r);
    first = false;
    for (const SpanRec& s : trace.spans(r)) {
      if (s.step >= max_step) continue;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"step\":%d,\"parent\":%d}}",
                   s.name, layer_name(s.layer), r,
                   static_cast<double>(s.t0_ns - base) * 1e-3,
                   static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, s.step,
                   s.parent);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace apvbench
