// `mobility`: the ADCIRC-proxy moving wet front (sim::surge_work_us) under
// load balancing, buddy checkpoints with dirty-page deltas, preemption and
// idle-PE stealing. Each rank keeps a seeded heap in its isomalloc slot and
// rewrites a seeded tenth of its pages per step, so every checkpoint and
// move packs real dirty state. Exercises park -> pack -> ship -> unpack.

#include <cstring>

#include "bench.hpp"
#include "mpi/env.hpp"
#include "sim/surge.hpp"
#include "util/rng.hpp"

namespace apvbench {
namespace {

using apv::mpi::Datatype;
using apv::mpi::Env;
using apv::mpi::Op;
using apv::mpi::OpKind;

constexpr int kPes = 3;
constexpr std::size_t kPageWords = 4096 / 8;
constexpr int kTagHalo = 7;

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void* mobility_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  apv::sim::SurgeConfig cfg;
  cfg.cells = env->global<int>("cells").get();
  cfg.steps = env->global<int>("steps").get();
  cfg.wet_cost_us = env->global<double>("wet_cost_us").get();
  cfg.dry_cost_us = env->global<double>("dry_cost_us").get();
  const int lb_period = env->global<int>("lb_period").get();
  const int ckpt_every = env->global<int>("ckpt_every").get();
  const double scale = env->global<double>("compute_scale").get();
  const int heap_pages = env->global<int>("heap_pages").get();
  const int ws_period = env->global<int>("ws_period").get();
  const int ws_count = env->global<int>("ws_count").get();
  const int scratch_bytes = env->global<int>("scratch_bytes").get();
  auto ws_pages = env->global_array<int>("ws_pages");
  auto heap_salt = env->global_array<std::uint64_t>("heap_salt");

  const int me = env->rank();
  const int P = env->size();
  Trace* tr = run_state().trace;
  RankRec& rec = run_state().ranks[static_cast<std::size_t>(me)];
  const std::uint64_t salt = heap_salt[static_cast<std::size_t>(me)];

  std::uint64_t* heap;
  {
    Span s(tr, me, "isomalloc.rank_malloc", Layer::Isomalloc, -1);
    heap = env->rank_alloc_array<std::uint64_t>(kPageWords * heap_pages);
  }
  for (std::size_t i = 0; i < kPageWords * heap_pages; ++i) heap[i] = salt ^ i;

  double water[8] = {0};
  double total_work_us = 0.0;
  std::uint64_t halo = 0;
  for (int step = 0; step < cfg.steps; ++step) {
    const double t0 = env->wtime();
    {
      Span st(tr, me, "step", Layer::Rank, step);
      const double work_us = apv::sim::surge_work_us(cfg, P, me, step);
      total_work_us += work_us;
      {
        Span s(tr, me, "apps.surge_compute", Layer::Apps, step);
        env->compute(work_us * scale * 1e-6);
        env->add_load(work_us * (1.0 - scale) * 1e-6);
      }

      // Rewrite this step's seeded write set (a tenth of the heap pages).
      const auto row = static_cast<std::size_t>(((step % ws_period) * P + me) * ws_count);
      for (int j = 0; j < ws_count; ++j) {
        const auto page = static_cast<std::size_t>(ws_pages[row + static_cast<std::size_t>(j)]);
        const std::uint64_t base = mix(salt, static_cast<std::uint64_t>(step), page);
        std::uint64_t* w = heap + page * kPageWords;
        for (std::size_t k = 0; k < kPageWords; ++k) w[k] = base + k;
      }

      void* scratch;
      {
        Span s(tr, me, "isomalloc.rank_malloc", Layer::Isomalloc, step);
        scratch = env->rank_malloc(static_cast<std::size_t>(scratch_bytes));
      }
      std::memset(scratch, step & 0xff, static_cast<std::size_t>(scratch_bytes));

      apv::mpi::Request reqs[2] = {apv::mpi::kRequestNull, apv::mpi::kRequestNull};
      int nreq = 0;
      double incoming[2][8] = {};
      {
        Span s(tr, me, "mpi.irecv", Layer::MpiP2p, step);
        if (me > 0)
          reqs[nreq++] = env->irecv(incoming[0], 8, Datatype::Double, me - 1, kTagHalo);
        if (me + 1 < P)
          reqs[nreq++] = env->irecv(incoming[1], 8, Datatype::Double, me + 1, kTagHalo);
      }
      water[0] = static_cast<double>(step) + me;
      water[1] = static_cast<double>(static_cast<unsigned char*>(scratch)[0]);
      if (me > 0) {
        Span s(tr, me, "mpi.send", Layer::MpiP2p, step);
        env->send(water, 8, Datatype::Double, me - 1, kTagHalo);
      }
      if (me + 1 < P) {
        Span s(tr, me, "mpi.send", Layer::MpiP2p, step);
        env->send(water, 8, Datatype::Double, me + 1, kTagHalo);
      }
      {
        Span s(tr, me, "mpi.wait", Layer::MpiP2p, step);
        env->waitall(nreq, reqs);
      }
      halo = mix(halo, bits(incoming[0][0] + incoming[0][1]), bits(incoming[1][0] + incoming[1][1]));
      {
        Span s(tr, me, "isomalloc.rank_free", Layer::Isomalloc, step);
        env->rank_free(scratch);
      }

      double dt_local = 1.0 / (1.0 + work_us);
      double dt_global = 0.0;
      {
        Span s(tr, me, "mpi.allreduce", Layer::MpiColl, step);
        env->allreduce(&dt_local, &dt_global, 1, Datatype::Double, Op::builtin(OpKind::Min));
      }
      halo = mix(halo, bits(dt_global));

      if (lb_period > 0 && (step + 1) % lb_period == 0 && step + 1 < cfg.steps) {
        Span s(tr, me, "lb.load_balance", Layer::Lb, step);
        env->load_balance("greedyrefine");
      }
      if (ckpt_every > 0 && (step + 1) % ckpt_every == 0) {
        Span s(tr, me, "ft.checkpoint", Layer::Ft, step);
        env->checkpoint_all();
      }
    }
    rec.step_ms.push_back(static_cast<float>((env->wtime() - t0) * 1e3));
  }

  std::uint64_t h = 0;
  for (std::size_t i = 0; i < kPageWords * heap_pages; ++i) h = mix(h, heap[i]);
  rec.digests = {h, bits(total_work_us), halo};
  {
    Span s(tr, me, "isomalloc.rank_free", Layer::Isomalloc, -1);
    env->rank_free(heap);
  }
  return nullptr;
}

struct Params {
  apv::sim::SurgeConfig surge;
  int lb_period = 20;
  int ckpt_every = 10;
  double compute_scale = 0.25;
  int heap_pages = 512;
  int ws_period = 20;
  int ws_count = 51;
  int scratch_bytes = 64 << 10;
};

class Mobility final : public Workload {
 public:
  Mobility(std::uint64_t seed, Size size) {
    if (size == Size::Small) {
      rpp_ = 2;
      p_.surge.cells = 1024;
      p_.surge.steps = 40;
      p_.lb_period = 10;
      p_.ckpt_every = 5;
      p_.heap_pages = 64;
      p_.ws_count = 6;
    } else {
      rpp_ = 4;
      p_.surge.cells = 8192;
      p_.surge.steps = 100;
    }
    generate(seed);
  }

  const char* name() const override { return "mobility"; }
  int ranks() const override { return kPes * rpp_; }
  std::int64_t rank_steps() const override {
    return std::int64_t{ranks()} * p_.surge.steps;
  }

  apv::img::ProgramImage image() const override { return build(p_); }

  std::uint64_t input_digest() const override {
    std::uint64_t h = 0;
    for (int x : ws_pages_) h = mix(h, static_cast<std::uint64_t>(x));
    for (std::uint64_t x : heap_salt_) h = mix(h, x);
    return h;
  }

  apv::mpi::RuntimeConfig config() const override {
    apv::mpi::RuntimeConfig cfg;
    cfg.nodes = 1;
    cfg.pes_per_node = kPes;
    cfg.vps = ranks();
    cfg.method = apv::core::Method::PIEglobals;
    cfg.slot_bytes = std::size_t{16} << 20;
    cfg.map = "block";
    cfg.options = pinned_options();
    cfg.options.set("sched.preempt", "on");
    cfg.options.set("sched.steal", "on");
    return cfg;
  }

  /// DESIGN §6: each rank's modelled work, heap and halo history must equal
  /// a run with load balancing, stealing and checkpoints off.
  void reference() override {
    Params ref = p_;
    ref.lb_period = 0;
    ref.ckpt_every = 0;
    apv::mpi::RuntimeConfig cfg = config();
    cfg.options.set("sched.steal", "off");
    RunState& st = run_state();
    st.ranks.assign(static_cast<std::size_t>(ranks()), RankRec{});
    {
      const apv::img::ProgramImage image = build(ref);
      apv::mpi::Runtime rt(image, cfg);
      rt.run();
    }
    expected_.clear();
    for (const RankRec& r : st.ranks) expected_.push_back(r.digests);
  }

  std::string check() const override {
    const auto& recs = run_state().ranks;
    for (int r = 0; r < ranks(); ++r) {
      const auto ur = static_cast<std::size_t>(r);
      if (recs[ur].digests != expected_[ur])
        return "rank " + std::to_string(r) +
               ": work, heap or halo digest differs from the reference run";
    }
    return {};
  }

  std::string guard(const apv::util::Counters& c) const override {
    if (c.get("migrations") == 0) return "no migrations";
    if (c.get("ckpt_images_delta") == 0) return "no delta checkpoint images";
    if (c.get("sched_steal_requests") == 0) return "no steal requests";
    return {};
  }

 private:
  apv::img::ProgramImage build(const Params& p) const {
    apv::img::ImageBuilder b("mobility");
    b.add_global<int>("cells", p.surge.cells);
    b.add_global<int>("steps", p.surge.steps);
    b.add_global<double>("wet_cost_us", p.surge.wet_cost_us);
    b.add_global<double>("dry_cost_us", p.surge.dry_cost_us);
    b.add_global<int>("lb_period", p.lb_period);
    b.add_global<int>("ckpt_every", p.ckpt_every);
    b.add_global<double>("compute_scale", p.compute_scale);
    b.add_global<int>("heap_pages", p.heap_pages);
    b.add_global<int>("ws_period", p.ws_period);
    b.add_global<int>("ws_count", p.ws_count);
    b.add_global<int>("scratch_bytes", p.scratch_bytes);
    b.add_var("ws_pages", ws_pages_.size() * sizeof(int), alignof(int), ws_pages_.data(),
              ws_pages_.size() * sizeof(int), {.is_const = true});
    b.add_var("heap_salt", heap_salt_.size() * sizeof(std::uint64_t), alignof(std::uint64_t),
              heap_salt_.data(), heap_salt_.size() * sizeof(std::uint64_t),
              {.is_const = true});
    b.add_function("mpi_main", &mobility_main);
    b.set_code_size(std::size_t{2} << 20);
    return b.build();
  }

  void generate(std::uint64_t seed) {
    apv::util::SplitMix64 rng(mix(seed, 0x30b1e));
    const int P = ranks();
    heap_salt_.clear();
    for (int r = 0; r < P; ++r) heap_salt_.push_back(rng.next());
    // Per (step mod ws_period, rank): ws_count distinct heap pages.
    ws_pages_.clear();
    std::vector<int> pages(static_cast<std::size_t>(p_.heap_pages));
    for (int t = 0; t < p_.ws_period; ++t) {
      for (int r = 0; r < P; ++r) {
        for (int i = 0; i < p_.heap_pages; ++i) pages[static_cast<std::size_t>(i)] = i;
        for (int j = 0; j < p_.ws_count; ++j) {
          const auto k = static_cast<std::size_t>(j) +
                         static_cast<std::size_t>(rng.next_below(
                             static_cast<std::uint64_t>(p_.heap_pages - j)));
          std::swap(pages[static_cast<std::size_t>(j)], pages[k]);
          ws_pages_.push_back(pages[static_cast<std::size_t>(j)]);
        }
      }
    }
  }

  int rpp_ = 4;
  Params p_;
  std::vector<int> ws_pages_;
  std::vector<std::uint64_t> heap_salt_;
  std::vector<std::vector<std::uint64_t>> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_mobility(std::uint64_t seed, Size size) {
  return std::make_unique<Mobility>(seed, size);
}

}  // namespace apvbench
