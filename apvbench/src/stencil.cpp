// `stencil`: the 7-point Jacobi-3D of apps::build_jacobi (same globals, same
// arithmetic, alpha re-read through the privatized path in the inner loop),
// with spans around each call into a layer. Compute- and bandwidth-bound:
// the apps kernel plus large-message p2p halo exchange.

#include <cmath>
#include <cstring>
#include <limits>

#include "apps/jacobi.hpp"
#include "bench.hpp"
#include "mpi/env.hpp"
#include "util/rng.hpp"

namespace apvbench {
namespace {

using apv::mpi::Datatype;
using apv::mpi::Env;
using apv::mpi::Op;
using apv::mpi::OpKind;

inline std::size_t idx(int nx, int ny, int x, int y, int z) {
  return (static_cast<std::size_t>(z) * ny + y) * nx + x;
}

inline double init_value(int x, int y, int gz) {
  return std::sin(0.1 * gz) + std::cos(0.05 * (x + y));
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Digest of planes [z0, z1) of a plane-major grid.
std::uint64_t slab_digest(const double* grid, std::size_t plane, int z0,
                          int z1) {
  std::uint64_t h = 0;
  for (std::size_t i = plane * z0; i < plane * z1; ++i) h = mix(h, bits(grid[i]));
  return h;
}

/// One sweep over planes [1, nzl] of a slab; the loop body is
/// apps::build_jacobi's, term for term, so results are bit-identical.
template <typename Alpha>
double sweep(const double* grid, double* next, int nx, int ny, int nzl,
             Alpha alpha) {
  double local_res = 0.0;
  for (int z = 1; z <= nzl; ++z) {
    for (int y = 1; y < ny - 1; ++y) {
      for (int x = 1; x < nx - 1; ++x) {
        const double a = alpha();
        const double v =
            a * (grid[idx(nx, ny, x - 1, y, z)] +
                 grid[idx(nx, ny, x + 1, y, z)] +
                 grid[idx(nx, ny, x, y - 1, z)] +
                 grid[idx(nx, ny, x, y + 1, z)] +
                 grid[idx(nx, ny, x, y, z - 1)] +
                 grid[idx(nx, ny, x, y, z + 1)]);
        const std::size_t c = idx(nx, ny, x, y, z);
        local_res += std::abs(v - grid[c]);
        next[c] = v;
      }
    }
  }
  return local_res;
}

void* stencil_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  auto g_alpha = env->global<double>("alpha");
  const int nx = env->global<int>("nx").get();
  const int ny = env->global<int>("ny").get();
  const int nz = env->global<int>("nz").get();
  const int iters = env->global<int>("iters").get();
  const int res_every = env->global<int>("residual_every").get();

  const int me = env->rank();
  const int P = env->size();
  Trace* tr = run_state().trace;
  RankRec& rec = run_state().ranks[static_cast<std::size_t>(me)];

  const int z_lo = static_cast<int>(static_cast<long>(me) * nz / P);
  const int z_hi = static_cast<int>(static_cast<long>(me + 1) * nz / P);
  const int nzl = z_hi - z_lo;
  const std::size_t plane = static_cast<std::size_t>(nx) * ny;
  const std::size_t total = plane * static_cast<std::size_t>(nzl + 2);
  double* grid;
  double* next;
  {
    Span s(tr, me, "isomalloc.rank_malloc", Layer::Isomalloc, -1);
    grid = env->rank_alloc_array<double>(total);
    next = env->rank_alloc_array<double>(total);
  }
  for (int z = 0; z < nzl + 2; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x)
        grid[idx(nx, ny, x, y, z)] = init_value(x, y, z_lo + z - 1);
  std::memcpy(next, grid, total * sizeof(double));

  const int up = me + 1 < P ? me + 1 : -1;
  const int down = me > 0 ? me - 1 : -1;
  constexpr int kTagUp = 11;
  constexpr int kTagDown = 12;

  double residual = 0.0;
  double local_res = 0.0;
  for (int it = 0; it < iters; ++it) {
    const double t0 = env->wtime();
    {
      Span step(tr, me, "step", Layer::Rank, it);
      apv::mpi::Request reqs[2] = {apv::mpi::kRequestNull,
                                   apv::mpi::kRequestNull};
      int nreq = 0;
      {
        Span s(tr, me, "mpi.irecv", Layer::MpiP2p, it);
        if (up >= 0)
          reqs[nreq++] = env->irecv(grid + plane * (nzl + 1),
                                    static_cast<int>(plane), Datatype::Double,
                                    up, kTagDown);
        if (down >= 0)
          reqs[nreq++] = env->irecv(grid, static_cast<int>(plane),
                                    Datatype::Double, down, kTagUp);
      }
      if (up >= 0) {
        Span s(tr, me, "mpi.send", Layer::MpiP2p, it);
        env->send(grid + plane * nzl, static_cast<int>(plane),
                  Datatype::Double, up, kTagUp);
      }
      if (down >= 0) {
        Span s(tr, me, "mpi.send", Layer::MpiP2p, it);
        env->send(grid + plane, static_cast<int>(plane), Datatype::Double,
                  down, kTagDown);
      }
      {
        Span s(tr, me, "mpi.wait", Layer::MpiP2p, it);
        env->waitall(nreq, reqs);
      }
      {
        Span s(tr, me, "apps.kernel", Layer::Apps, it);
        local_res = sweep(grid, next, nx, ny, nzl, [&] { return *g_alpha; });
      }
      std::swap(grid, next);
      if (res_every > 0 && (it + 1) % res_every == 0) {
        Span s(tr, me, "mpi.allreduce", Layer::MpiColl, it);
        env->allreduce(&local_res, &residual, 1, Datatype::Double,
                       Op::builtin(OpKind::Sum));
      } else {
        residual = local_res;
      }
    }
    rec.step_ms.push_back(static_cast<float>((env->wtime() - t0) * 1e3));
  }

  rec.value = residual;
  rec.digests = {slab_digest(grid, plane, 1, nzl + 1), bits(local_res)};
  {
    Span s(tr, me, "isomalloc.rank_free", Layer::Isomalloc, -1);
    env->rank_free(grid);
    env->rank_free(next);
  }
  return nullptr;
}

class Stencil final : public Workload {
 public:
  Stencil(std::uint64_t seed, Size size) {
    if (size == Size::Small) {
      p_.nx = 16;
      p_.ny = 16;
      p_.nz = 24;
      p_.iters = 20;
      ranks_per_pe_ = 2;
    } else {
      // 96x96 planes: each halo message is 72 KiB. 8 planes per rank.
      p_.nx = 96;
      p_.ny = 96;
      p_.nz = 8 * kPes * 8;
      p_.iters = 100;
      ranks_per_pe_ = 8;
    }
    p_.residual_every = 10;
    p_.checkpoint_every = 0;
    p_.code_bytes = std::size_t{3} << 20;
    // The seed picks the stencil coefficient: every value of the solve
    // changes, the work does not.
    apv::util::SplitMix64 rng(mix(seed, 0x57e4c11));
    p_.alpha = rng.next_range(0.160, 1.0 / 6.0);
  }

  const char* name() const override { return "stencil"; }
  int ranks() const override { return kPes * ranks_per_pe_; }
  std::int64_t rank_steps() const override {
    return std::int64_t{ranks()} * p_.iters;
  }

  apv::img::ProgramImage image() const override {
    apv::img::ImageBuilder b("stencil");
    b.add_global<int>("nx", p_.nx);
    b.add_global<int>("ny", p_.ny);
    b.add_global<int>("nz", p_.nz);
    b.add_global<int>("iters", p_.iters);
    b.add_global<double>("alpha", p_.alpha);
    b.add_global<int>("residual_every", p_.residual_every);
    b.add_global<int>("checkpoint_every", p_.checkpoint_every);
    b.add_function("mpi_main", &stencil_main);
    b.set_code_size(p_.code_bytes);
    return b.build();
  }

  std::uint64_t input_digest() const override {
    return mix(bits(p_.alpha), static_cast<std::uint64_t>(p_.nx),
               static_cast<std::uint64_t>(p_.nz),
               static_cast<std::uint64_t>(p_.iters));
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
    return cfg;
  }

  void reference() override {
    serial_reference();
    // One untimed run of the repository's own Jacobi program on the same
    // grid, placement and options.
    const apv::img::ProgramImage image = apps_image();
    apv::mpi::Runtime rt(image, config());
    rt.run();
    jacobi_residual_ = apv::apps::jacobi_result(rt.rank_return(0));
  }

  std::string check() const override {
    const auto& recs = run_state().ranks;
    double abs_sum = 0.0;
    for (int r = 0; r < ranks(); ++r) {
      const RankRec& rec = recs[static_cast<std::size_t>(r)];
      const auto ur = static_cast<std::size_t>(r);
      if (rec.digests.size() != 2 || rec.digests[0] != ref_slab_[ur])
        return "rank " + std::to_string(r) +
               ": final slab differs from the serial reference";
      if (rec.digests[1] != bits(ref_local_res_[ur]))
        return "rank " + std::to_string(r) +
               ": local residual differs from the serial reference";
      if (bits(rec.value) != bits(recs[0].value))
        return "rank " + std::to_string(r) +
               ": global residual differs from rank 0's";
      abs_sum += std::abs(ref_local_res_[ur]);
    }
    // The runtime folds a commutative allreduce in arrival order, so the
    // global residual is reproducible only up to reordering the P-term sum:
    // |error| <= (P - 1) * eps * sum|x_i| for each side.
    const double tol =
        2.0 * ranks() * std::numeric_limits<double>::epsilon() * abs_sum;
    if (std::abs(recs[0].value - jacobi_residual_) > tol)
      return "global residual differs from apps::build_jacobi";
    return {};
  }

  std::string guard(const apv::util::Counters& c) const override {
    const std::uint64_t halo_msg = plane_bytes();
    const std::uint64_t cross_pe = std::uint64_t{2} * (kPes - 1) * p_.iters * halo_msg;
    const std::uint64_t all = std::uint64_t{2} * (ranks() - 1) * p_.iters * halo_msg;
    if (c.get("comm.bytes") < cross_pe)
      return "comm.bytes below the cross-PE halo volume";
    if (c.get("comm.bytes") + c.get("inline_bytes") < all)
      return "comm.bytes + inline_bytes below the halo volume";
    return {};
  }

  std::vector<std::pair<std::string, double>> extra_metrics() const override {
    const double cells = static_cast<double>(p_.nx - 2) * (p_.ny - 2) * (p_.nz / ranks());
    // Computed from array sizes, not measured: one sweep reads the slab
    // with its ghost planes and writes the interior of the next array.
    const double nzl = static_cast<double>(p_.nz) / ranks();
    const double bytes = 8.0 * p_.nx * p_.ny * (nzl + 2) + 8.0 * cells;
    return {{"apps.serial_step_ms", apv::util::quantile(serial_ms_, 0.5)},
            {"apps.bytes_per_cell", bytes / cells},
            {"apps.cells_per_rank", cells}};
  }

 private:
  static constexpr int kPes = 3;

  std::uint64_t plane_bytes() const {
    return static_cast<std::uint64_t>(p_.nx) * p_.ny * sizeof(double);
  }

  apv::img::ProgramImage apps_image() const {
    return apv::apps::build_jacobi(p_);
  }

  /// The decomposed solve, run serially: one global grid with fixed
  /// boundary planes, swept rank slab by rank slab so each rank's local
  /// residual accumulates in the same order as in rank code. Also the
  /// plain single-threaded baseline timed as apps.serial_step_ms.
  void serial_reference() {
    const int nx = p_.nx;
    const int ny = p_.ny;
    const int nz = p_.nz;
    const int P = ranks();
    const std::size_t plane = static_cast<std::size_t>(nx) * ny;
    std::vector<double> grid(plane * (nz + 2));
    for (int z = 0; z < nz + 2; ++z)
      for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
          grid[idx(nx, ny, x, y, z)] = init_value(x, y, z - 1);
    std::vector<double> next = grid;
    ref_local_res_.assign(static_cast<std::size_t>(P), 0.0);
    serial_ms_.clear();
    const double alpha = p_.alpha;
    for (int it = 0; it < p_.iters; ++it) {
      const apv::util::WallTimer t;
      for (int r = 0; r < P; ++r) {
        const int z_lo = static_cast<int>(static_cast<long>(r) * nz / P);
        const int z_hi = static_cast<int>(static_cast<long>(r + 1) * nz / P);
        // The slab view starts at the rank's lower ghost plane.
        const std::size_t off = plane * static_cast<std::size_t>(z_lo);
        ref_local_res_[static_cast<std::size_t>(r)] =
            sweep(grid.data() + off, next.data() + off, nx, ny, z_hi - z_lo,
                  [alpha] { return alpha; });
      }
      std::swap(grid, next);
      serial_ms_.push_back(t.elapsed_s() * 1e3);
    }
    ref_slab_.assign(static_cast<std::size_t>(P), 0);
    for (int r = 0; r < P; ++r) {
      const int z_lo = static_cast<int>(static_cast<long>(r) * nz / P);
      const int z_hi = static_cast<int>(static_cast<long>(r + 1) * nz / P);
      ref_slab_[static_cast<std::size_t>(r)] =
          slab_digest(grid.data(), plane, z_lo + 1, z_hi + 1);
    }
  }

  apv::apps::JacobiParams p_;
  int ranks_per_pe_ = 8;
  std::vector<double> ref_local_res_;
  std::vector<std::uint64_t> ref_slab_;
  std::vector<double> serial_ms_;
  double jacobi_residual_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_stencil(std::uint64_t seed, Size size) {
  return std::make_unique<Stencil>(seed, size);
}

}  // namespace apvbench
