#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "comm/payload.hpp"
#include "util/timer.hpp"

namespace apvbench {
namespace {

using apv::util::Counters;
using apv::util::WallTimer;

/// Solves per run below which medians mean little, whatever --seconds says.
constexpr int kMinSolves = 3;
/// Untimed warm-up per process (at least one solve).
constexpr double kWarmupS = 3.0;
/// Steps of the last traced solve written to the Chrome trace (bounds the
/// file at a few MB for the 48-rank workload).
constexpr int kTraceSteps = 40;

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : apv::util::quantile(v, 0.5);
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux >= 4.0).
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t n = 0;  ///< samples behind the value
};

void print_metric(const Metric& m) {
  std::printf("  %-32s %16.6f %-9s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.n);
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_n) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + json_num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"";
    if (with_n) s += ", \"n\": " + std::to_string(ms[i].n);
    s += "}";
  }
  return s + "}";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-solve layer values derived from the runtime's counters.
std::map<std::string, double> counter_metrics(const Counters& c, std::int64_t rank_steps) {
  auto g = [&](const char* k) { return static_cast<double>(c.get(k)); };
  std::map<std::string, double> m;
  m["mpi.inline_hit_ratio"] = ratio(g("inline_hits"), g("inline_hits") + g("inline_misses"));
  m["mpi.inline_fifo_fallbacks"] = g("inline_fifo_fallbacks");
  m["mpi.coll_leader_msgs"] = g("coll_leader_msgs");
  m["mpi.coll_shared_rendezvous"] = g("coll_shared_rendezvous");
  m["mpi.coll_vec_bytes"] = g("coll_vec_bytes");
  m["mpi.migrations"] = g("migrations");
  m["mpi.migration_bytes"] = g("migration_bytes");
  m["mpi.forwards"] = g("forwards");
  m["mpi.steal_requests"] = g("sched_steal_requests");
  m["mpi.steals_in"] = g("sched_steals_in");
  m["mpi.steal_yield"] = ratio(g("sched_steals_in"), g("sched_steal_requests"));
  m["comm.sends"] = g("comm.sends");
  m["comm.bytes"] = g("comm.bytes");
  m["comm.agg_ratio"] = ratio(g("comm.aggregated"), g("comm.sends"));
  m["comm.flushes_idle"] = g("comm.flushes_idle");
  m["comm.mailbox_overflow_pushes"] = g("comm.mailbox_overflow_pushes");
  m["comm.pool_hit_ratio"] = ratio(g("pool.hits"), g("pool.hits") + g("pool.misses"));
  m["comm.pool_bytes_copied"] = g("pool.bytes_copied");
  m["ult.switches_per_step"] = ratio(g("context_switches"), static_cast<double>(rank_steps));
  m["ult.dispatch_high"] = g("sched_dispatch_high");
  m["ult.dispatch_bulk"] = g("sched_dispatch_bulk");
  m["ult.preemptions"] = g("sched_preemptions");
  m["ult.remote_readies"] = g("sched_remote_readies");
  m["ft.ckpt_bytes_full"] = g("ckpt_bytes_full");
  m["ft.ckpt_bytes_delta"] = g("ckpt_bytes_delta");
  m["ft.delta_share"] =
      ratio(g("ckpt_images_delta"), g("ckpt_images_full") + g("ckpt_images_delta"));
  m["ft.store_consolidations"] = g("ckpt_store_consolidations");
  m["isomalloc.dirty_pages"] = g("ckpt_pages_dirty");
  m["isomalloc.tracker_faults"] = g("ckpt_tracker_faults");
  return m;
}

/// Span-derived metrics: {metric, span name, scale, statistic}.
struct SpanMetric {
  const char* metric;
  const char* span;
  double scale;  ///< seconds -> unit
  double q;      ///< quantile; 1.0 = max
};
constexpr SpanMetric kSpanMetrics[] = {
    {"apps.kernel_ms_p50", "apps.kernel", 1e3, 0.5},
    {"apps.kernel_ms_p99", "apps.kernel", 1e3, 0.99},
    {"mpi.send_us_p50", "mpi.send", 1e6, 0.5},
    {"mpi.send_us_p99", "mpi.send", 1e6, 0.99},
    {"mpi.wait_us_p50", "mpi.wait", 1e6, 0.5},
    {"mpi.wait_us_p99", "mpi.wait", 1e6, 0.99},
    {"mpi.allreduce_us_p50", "mpi.allreduce", 1e6, 0.5},
    {"mpi.allreduce_us_p99", "mpi.allreduce", 1e6, 0.99},
    {"mpi.alltoall_small_us_p50", "mpi.alltoall_small", 1e6, 0.5},
    {"mpi.alltoall_small_us_p99", "mpi.alltoall_small", 1e6, 0.99},
    {"mpi.alltoall_large_us_p50", "mpi.alltoall_large", 1e6, 0.5},
    {"mpi.alltoall_large_us_p99", "mpi.alltoall_large", 1e6, 0.99},
    {"mpi.allgather_large_us_p50", "mpi.allgather_large", 1e6, 0.5},
    {"mpi.allgather_large_us_p99", "mpi.allgather_large", 1e6, 0.99},
    {"lb.load_balance_ms_p50", "lb.load_balance", 1e3, 0.5},
    {"lb.load_balance_ms_max", "lb.load_balance", 1e3, 1.0},
    {"ft.checkpoint_ms_p50", "ft.checkpoint", 1e3, 0.5},
    {"ft.checkpoint_ms_max", "ft.checkpoint", 1e3, 1.0},
    {"isomalloc.rank_malloc_us_p50", "isomalloc.rank_malloc", 1e6, 0.5},
    {"isomalloc.rank_malloc_us_p99", "isomalloc.rank_malloc", 1e6, 0.99},
};

/// Every per-layer metric, in report order, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"image.build_ms", "ms"},
        {"core.init_ms", "ms"},
        {"apps.mcells_per_s", "Mcells/s"},
        {"apps.bytes_per_cell", "B/cell"},
        {"apps.serial_step_ms", "ms"},
    };
    for (const SpanMetric& s : kSpanMetrics) {
      const std::string m = s.metric;
      const std::string unit = m.find("_us_") != std::string::npos ? "us" : "ms";
      v.emplace_back(m, unit);
    }
    const char* counts[] = {"mpi.inline_fifo_fallbacks", "mpi.coll_leader_msgs",
                            "mpi.coll_shared_rendezvous", "mpi.migrations",
                            "mpi.forwards", "mpi.steal_requests", "mpi.steals_in",
                            "comm.sends", "comm.flushes_idle",
                            "comm.mailbox_overflow_pushes", "ult.dispatch_high",
                            "ult.dispatch_bulk", "ult.preemptions",
                            "ult.remote_readies", "ft.store_consolidations",
                            "isomalloc.dirty_pages", "isomalloc.tracker_faults"};
    for (const char* c : counts) v.emplace_back(c, "count");
    const char* bytes[] = {"mpi.coll_vec_bytes", "mpi.migration_bytes", "comm.bytes",
                           "comm.pool_bytes_copied", "ft.ckpt_bytes_full",
                           "ft.ckpt_bytes_delta"};
    for (const char* b : bytes) v.emplace_back(b, "B");
    const char* ratios[] = {"mpi.inline_hit_ratio", "mpi.steal_yield", "comm.agg_ratio",
                            "comm.pool_hit_ratio", "ult.switches_per_step",
                            "ft.delta_share"};
    for (const char* r : ratios) v.emplace_back(r, "ratio");
    for (std::size_t l = 0; l < kLayers; ++l)
      v.emplace_back(std::string("share.") + layer_name(static_cast<Layer>(l)), "frac");
    v.emplace_back("trace.overhead", "frac");
    v.emplace_back("trace.solve_s", "s");
    v.emplace_back("trace.untraced_solve_s", "s");
    return v;
  }();
  return names;
}

std::string meta_json(const Args& a, const Workload& w) {
  const apv::mpi::RuntimeConfig cfg = w.config();
  std::string opts = "{";
  bool first = true;
  for (const auto& [k, v] : cfg.options.all()) {
    opts += (first ? "\"" : ", \"") + k + "\": \"" + v + "\"";
    first = false;
  }
  opts += "}";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"nproc\": %ld, \"method\": \"%s\", \"pes\": %d, \"ranks\": %d, "
                "\"context_backend\": \"%s\", \"options\": ",
                w.name(), static_cast<unsigned long long>(a.seed), json_num(a.seconds).c_str(),
                a.trace ? 1 : 0, APVBENCH_BUILD_TYPE,
                APVBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
                apv::core::method_name(cfg.method), cfg.nodes * cfg.pes_per_node, cfg.vps,
                apv::ult::context_backend_name(cfg.backend));
  return std::string(buf) + opts + "}";
}

}  // namespace

Tail tail_of(std::vector<double> samples) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = apv::util::quantile(samples, 0.5);
  t.p99 = apv::util::quantile(samples, 0.99);
  t.beyond_p99 = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), t.p99));
  return t;
}

Solve solve_once(const Workload& w, Trace* trace) {
  Solve s;
  RunState& st = run_state();
  st.trace = trace;
  st.ranks.assign(static_cast<std::size_t>(w.ranks()), RankRec{});
  const std::size_t steps = static_cast<std::size_t>(w.rank_steps() / w.ranks());
  for (RankRec& r : st.ranks) r.step_ms.reserve(steps);
  try {
    const WallTimer ti;
    const apv::img::ProgramImage image = w.image();
    s.image_ms = ti.elapsed_s() * 1e3;
    apv::comm::pool::reset_stats();
    reset_peak_rss();
    const WallTimer ts;
    apv::mpi::Runtime rt(image, w.config());
    s.setup_s = ts.elapsed_s();
    s.init_ms = rt.init_time_s() * 1e3;
    const WallTimer tr;
    rt.run();
    s.solve_s = tr.elapsed_s();
    s.rss_mb = peak_rss_mb();
    s.counters = rt.all_counters();
    s.error = w.check();
    std::vector<double> steps;
    for (const RankRec& r : st.ranks) steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
    s.step_ms = tail_of(std::move(steps));
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  st.trace = nullptr;
  return s;
}

std::uint64_t result_digest() {
  std::uint64_t h = 0;
  for (const RankRec& r : run_state().ranks)
    for (std::uint64_t d : r.digests) h = mix(h, d);
  return h;
}

int run_benchmark(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, Size::Full);
  const std::string meta = meta_json(a, *w);
  std::fprintf(stderr, "apvbench: %s seed=%llu: reference run\n", w->name(),
               static_cast<unsigned long long>(a.seed));
  w->reference();
  // Untimed warm-up: the first solves in a process pay one-time costs that
  // later solves do not (the process-wide payload pool and the allocator
  // grow to their working set; the first chatter solves' collective steps
  // run about twice as long).
  for (const WallTimer warm; warm.elapsed_s() < kWarmupS;) {
    const Solve s = solve_once(*w, nullptr);
    if (!s.error.empty())
      std::fprintf(stderr, "apvbench: warm-up solve failed: %s\n", s.error.c_str());
  }

  std::vector<Solve> plain;   // untraced solves
  std::vector<Solve> traced;  // traced solves
  SpanStats spans;
  std::unique_ptr<Trace> last_trace;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const WallTimer clock;
  for (int i = 0;; ++i) {
    const bool want_trace = a.trace && i % 2 == 1;
    const std::size_t have = a.trace ? std::min(plain.size(), traced.size()) : plain.size();
    if (clock.elapsed_s() >= a.seconds && have >= static_cast<std::size_t>(kMinSolves)) break;
    auto trace = want_trace ? std::make_unique<Trace>(w->ranks()) : nullptr;
    Solve s = solve_once(*w, trace.get());
    attempted += w->rank_steps();
    if (!s.error.empty()) {
      failed += w->rank_steps();
      std::fprintf(stderr, "apvbench: solve %d failed: %s\n", i, s.error.c_str());
    } else {
      std::string why = w->guard(s.counters);
      if (why.empty() && s.counters.get("comm.dropped") != 0) why = "comm.dropped > 0";
      if (!why.empty()) {
        std::fprintf(stderr,
                     "apvbench: mechanism guard failed on %s: %s; refusing to report\n",
                     w->name(), why.c_str());
        return 3;
      }
      if (want_trace) {
        spans.add(*trace, s.solve_s);
        last_trace = std::move(trace);
      } else if (!s.step_ms.p99_supported()) {
        std::fprintf(stderr, "apvbench: %zu step samples leave %zu beyond p99 (< 10)\n",
                     s.step_ms.n, s.step_ms.beyond_p99);
        return 4;
      }
    }
    (want_trace ? traced : plain).push_back(std::move(s));
  }

  auto collect = [](const std::vector<Solve>& v, double Solve::*f) {
    std::vector<double> out;
    for (const Solve& s : v)
      if (s.error.empty()) out.push_back(s.*f);
    return out;
  };
  std::vector<Metric> out;
  if (!a.trace) {
    // Step percentiles are taken per solve and reported as the median over
    // solves, so a burst of outside load during a few solves cannot move
    // them the way it moves the tail of samples pooled over the whole run.
    std::vector<double> p50;
    std::vector<double> p99;
    for (const Solve& s : plain)
      if (s.error.empty()) {
        p50.push_back(s.step_ms.p50);
        p99.push_back(s.step_ms.p99);
      }
    const auto setup = collect(plain, &Solve::setup_s);
    const auto solve = collect(plain, &Solve::solve_s);
    const auto rss = collect(plain, &Solve::rss_mb);
    out = {{"setup_s", "s", median(setup), setup.size()},
           {"solve_s", "s", median(solve), solve.size()},
           {"step_ms_p50", "ms", median(p50), p50.size()},
           {"step_ms_p99", "ms", median(p99), p99.size()},
           {"ok_frac", "ratio", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
            static_cast<std::size_t>(attempted)},
           {"rss_mb", "MiB", median(rss), rss.size()}};
    std::printf("%s seed=%llu: %zu solves of %lld rank-steps, fail_frac=%lld/%lld\n", w->name(),
                static_cast<unsigned long long>(a.seed), plain.size(),
                static_cast<long long>(w->rank_steps()), static_cast<long long>(failed),
                static_cast<long long>(attempted));
  } else {
    std::map<std::string, std::pair<double, std::size_t>> v;
    auto all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    const auto image_ms = collect(all, &Solve::image_ms);
    const auto init_ms = collect(all, &Solve::init_ms);
    v["image.build_ms"] = {median(image_ms), image_ms.size()};
    v["core.init_ms"] = {median(init_ms), init_ms.size()};
    for (const auto& [k, x] : w->extra_metrics()) v[k] = {x, 1};
    for (const SpanMetric& sm : kSpanMetrics) {
      const auto& d = spans.durations(sm.span);
      if (d.empty()) continue;
      const double q = sm.q >= 1.0 ? *std::max_element(d.begin(), d.end())
                                   : apv::util::quantile(d, sm.q);
      v[sm.metric] = {q * sm.scale, d.size()};
    }
    const auto& kernel = spans.durations("apps.kernel");
    if (!kernel.empty() && v.count("apps.cells_per_rank") != 0)
      v["apps.mcells_per_s"] = {
          v["apps.cells_per_rank"].first / apv::util::quantile(kernel, 0.5) / 1e6,
          kernel.size()};
    std::map<std::string, std::vector<double>> per_solve;
    for (const Solve& s : traced)
      if (s.error.empty())
        for (const auto& [k, x] : counter_metrics(s.counters, w->rank_steps()))
          per_solve[k].push_back(x);
    for (const auto& [k, xs] : per_solve) v[k] = {median(xs), xs.size()};
    for (std::size_t l = 0; l < kLayers; ++l)
      v[std::string("share.") + layer_name(static_cast<Layer>(l))] = {
          ratio(spans.self_s[l], spans.rank_seconds), traced.size()};
    const auto t_solve = collect(traced, &Solve::solve_s);
    const auto u_solve = collect(plain, &Solve::solve_s);
    v["trace.solve_s"] = {median(t_solve), t_solve.size()};
    v["trace.untraced_solve_s"] = {median(u_solve), u_solve.size()};
    v["trace.overhead"] = {ratio(median(t_solve), median(u_solve)) - 1.0, t_solve.size()};
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = v.find(name);
      out.push_back({name, unit, it == v.end() ? 0.0 : it->second.first,
                     it == v.end() ? 0 : it->second.second});
    }

    std::printf("%s seed=%llu: self time by layer over %zu traced solves "
                "(share of ranks x solve_s)\n",
                w->name(), static_cast<unsigned long long>(a.seed), traced.size());
    for (std::size_t l = 0; l < kLayers; ++l)
      std::printf("  %-10s %12.4f s  %7.2f%%\n", layer_name(static_cast<Layer>(l)),
                  spans.self_s[l], 100.0 * ratio(spans.self_s[l], spans.rank_seconds));
    std::printf("  tracing overhead: traced solve_s %.6f vs untraced %.6f (%+.2f%%)\n",
                median(t_solve), median(u_solve),
                100.0 * (ratio(median(t_solve), median(u_solve)) - 1.0));
  }
  for (const Metric& m : out) print_metric(m);

  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string stem = a.out_dir + "/" + w->name() + "-seed" + std::to_string(a.seed);
  if (last_trace != nullptr) {
    const std::string path = stem + ".trace.json";
    if (write_chrome_trace(*last_trace, kTraceSteps, path))
      std::printf("  chrome trace (steps < %d of the last traced solve): %s\n", kTraceSteps,
                  path.c_str());
  }
  const std::string record = stem + (a.trace ? "-trace1" : "-trace0") + ".json";
  if (std::FILE* f = std::fopen(record.c_str(), "w")) {
    // Every solve's own numbers, so run-to-run noise can be examined.
    std::string solves = "[";
    for (const auto* v : {&plain, &traced})
      for (const Solve& s : *v) {
        if (solves.size() > 1) solves += ", ";
        solves += "{\"traced\": " + std::string(v == &traced ? "true" : "false") +
                  ", \"setup_s\": " + json_num(s.setup_s) +
                  ", \"solve_s\": " + json_num(s.solve_s) +
                  ", \"rss_mb\": " + json_num(s.rss_mb) + ", \"ok\": " +
                  (s.error.empty() ? "true" : "false") + "}";
      }
    solves += "]";
    std::fprintf(f,
                 "{\"meta\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s, "
                 "\"solves\": %s}\n",
                 meta.c_str(), static_cast<long long>(attempted), static_cast<long long>(failed),
                 metrics_json(out, true).c_str(), solves.c_str());
    std::fclose(f);
  }
  std::printf("meta %s\n", meta.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics_json(out, false).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace apvbench
