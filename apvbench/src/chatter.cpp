// `chatter`: many ranks per PE, almost no compute. Each step every rank
// sends seeded-size messages (8-256 B) to seeded partners on its own PE and
// on other PEs, receiving part of them with kAnySource, then joins an 8 B
// allreduce. Every coll_every-th step adds an 8 B-block alltoall on the
// world communicator, and the ranks of one seeded 12-rank comm_split
// sub-communicator run a 64 KiB-block allgather and alltoall on it (the
// other ranks wait for them at the next allreduce). Latency-bound: ULT
// switches, comm
// aggregation and mailbox, mpi matching, the inline path and the
// hierarchical collectives do most of the work.

#include <algorithm>
#include <cstring>
#include <numeric>

#include "bench.hpp"
#include "mpi/env.hpp"
#include "util/rng.hpp"

namespace apvbench {
namespace {

using apv::mpi::Datatype;
using apv::mpi::Env;
using apv::mpi::Op;
using apv::mpi::OpKind;

constexpr int kPes = 3;
constexpr int kMaxMsg = 256;
constexpr int kTagSpec = 31;
constexpr int kTagAny = 32;
constexpr std::uint64_t kAllgatherDst = 0xffff;
constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ULL;

/// Fills a p2p payload: {src, len} header, then bytes derived from `key`.
void fill_payload(std::byte* buf, int src, int len, std::uint64_t key) {
  const std::int32_t hdr[2] = {src, len};
  std::memcpy(buf, hdr, sizeof hdr);
  for (int off = 8, w = 0; off < len; off += 8, ++w) {
    const std::uint64_t v = mix(key, static_cast<std::uint64_t>(w));
    std::memcpy(buf + off, &v, static_cast<std::size_t>(std::min(8, len - off)));
  }
}

/// FNV-1a over the bytes a payload header declares (clipped to a buffer).
std::uint64_t payload_digest(const std::byte* buf) {
  std::int32_t hdr[2];
  std::memcpy(hdr, buf, sizeof hdr);
  const int len = std::clamp(hdr[1], 8, kMaxMsg);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < len; ++i)
    h = (h ^ static_cast<std::uint64_t>(buf[i])) * 0x100000001b3ULL;
  return h;
}

/// A 64 KiB collective block is the linear sequence base + i * kStride.
void fill_block(std::uint64_t* w, std::size_t n, std::uint64_t base) {
  for (std::size_t i = 0; i < n; ++i) w[i] = base + i * kStride;
}

/// Position-weighted digest sum_i w_i * (2i + 1), computed over the words.
std::uint64_t block_digest(const std::uint64_t* w, std::size_t n) {
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < n; ++i) d += w[i] * (2 * i + 1);
  return d;
}

/// The same digest of fill_block(base) in closed form:
/// base * n^2 + kStride * sum_i i(2i + 1).
std::uint64_t block_digest_of(std::uint64_t base, std::uint64_t n) {
  const std::uint64_t sum_i = n * (n - 1) / 2;
  const std::uint64_t sum_i2 = (n - 1) * n * (2 * n - 1) / 6;
  return base * n * n + kStride * (2 * sum_i2 + sum_i);
}

struct Globals {
  int steps, period, deg, coll_every, sub_size, block_bytes, max_in;
  std::uint64_t salt;
};

std::uint64_t contribution(std::uint64_t salt, int t, int r) {
  return mix(salt, 0xa11, static_cast<std::uint64_t>(t),
             static_cast<std::uint64_t>(r)) &
         0xffffff;
}

void* chatter_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  Globals g{};
  g.steps = env->global<int>("steps").get();
  g.period = env->global<int>("period").get();
  g.deg = env->global<int>("deg").get();
  g.coll_every = env->global<int>("coll_every").get();
  g.sub_size = env->global<int>("sub_size").get();
  g.block_bytes = env->global<int>("block_bytes").get();
  g.max_in = env->global<int>("max_in").get();
  g.salt = env->global<std::uint64_t>("salt").get();
  auto out_dst = env->global_array<int>("out_dst");
  auto out_len = env->global_array<int>("out_len");
  auto out_any = env->global_array<int>("out_any");
  auto in_off = env->global_array<int>("in_off");
  auto in_src = env->global_array<int>("in_src");
  auto in_nany = env->global_array<int>("in_nany");
  auto sub_color = env->global_array<int>("sub_color");
  auto sub_key = env->global_array<int>("sub_key");

  const int me = env->rank();
  const int P = env->size();
  Trace* tr = run_state().trace;
  RankRec& rec = run_state().ranks[static_cast<std::size_t>(me)];

  apv::mpi::CommId sub;
  {
    Span s(tr, me, "mpi.comm_split", Layer::MpiColl, -1);
    sub = env->comm_split(apv::mpi::kCommWorld, sub_color[static_cast<std::size_t>(me)],
                          sub_key[static_cast<std::size_t>(me)]);
  }
  // Colour 0 is the sub-communicator that runs the 64 KiB collectives.
  const bool large = sub_color[static_cast<std::size_t>(me)] == 0;
  const int S = large ? g.sub_size : 0;
  const std::size_t bw = static_cast<std::size_t>(g.block_bytes) / 8;
  std::vector<int> sub_world(static_cast<std::size_t>(S));
  for (int w = 0; w < P && large; ++w)
    if (sub_color[static_cast<std::size_t>(w)] == 0)
      sub_world[static_cast<std::size_t>(sub_key[static_cast<std::size_t>(w)])] = w;

  std::byte* rbuf;
  std::uint64_t* big;
  {
    Span s(tr, me, "isomalloc.rank_malloc", Layer::Isomalloc, -1);
    rbuf = static_cast<std::byte*>(
        env->rank_malloc(static_cast<std::size_t>(g.max_in) * kMaxMsg));
    // alltoall send | alltoall recv | allgather recv | allgather send
    big = env->rank_alloc_array<std::uint64_t>(bw * (3 * S + 1));
  }
  std::uint64_t* a2a_send = big;
  std::uint64_t* a2a_recv = big + bw * S;
  std::uint64_t* ag_recv = big + 2 * bw * S;
  std::uint64_t* ag_send = big + 3 * bw * S;
  std::vector<std::uint64_t> small_send(static_cast<std::size_t>(P));
  std::vector<std::uint64_t> small_recv(static_cast<std::size_t>(P));
  std::vector<apv::mpi::Request> reqs(static_cast<std::size_t>(g.max_in));
  std::byte sbuf[kMaxMsg];

  std::uint64_t p2p = 0;
  std::uint64_t coll = 0;
  for (int step = 0; step < g.steps; ++step) {
    const double t0 = env->wtime();
    {
      Span st(tr, me, "step", Layer::Rank, step);
      const int t = step % g.period;
      const auto row = static_cast<std::size_t>(t * P + me);
      const int b = in_off[row];
      const int nspec = in_off[row + 1] - b;
      const int nany = in_nany[row];
      const int nin = nspec + nany;
      {
        Span s(tr, me, "mpi.irecv", Layer::MpiP2p, step);
        for (int k = 0; k < nspec; ++k)
          reqs[static_cast<std::size_t>(k)] =
              env->irecv(rbuf + k * kMaxMsg, kMaxMsg, Datatype::Byte,
                         in_src[static_cast<std::size_t>(b + k)], kTagSpec);
        for (int k = nspec; k < nin; ++k)
          reqs[static_cast<std::size_t>(k)] =
              env->irecv(rbuf + k * kMaxMsg, kMaxMsg, Datatype::Byte,
                         apv::mpi::kAnySource, kTagAny);
      }
      for (int k = 0; k < g.deg; ++k) {
        const auto o = row * static_cast<std::size_t>(g.deg) + static_cast<std::size_t>(k);
        const int dst = out_dst[o];
        const int len = out_len[o];
        fill_payload(sbuf, me, len,
                     mix(g.salt, static_cast<std::uint64_t>(step),
                         static_cast<std::uint64_t>(me), static_cast<std::uint64_t>(dst)));
        Span s(tr, me, "mpi.send", Layer::MpiP2p, step);
        env->send(sbuf, len, Datatype::Byte, dst, out_any[o] != 0 ? kTagAny : kTagSpec);
      }
      {
        Span s(tr, me, "mpi.wait", Layer::MpiP2p, step);
        env->waitall(nin, reqs.data());
      }
      for (int k = 0; k < nin; ++k) p2p += payload_digest(rbuf + k * kMaxMsg);

      std::uint64_t mine = contribution(g.salt, t, me);
      std::uint64_t total = 0;
      {
        Span s(tr, me, "mpi.allreduce", Layer::MpiColl, step);
        env->allreduce(&mine, &total, 1, Datatype::UnsignedLong, Op::builtin(OpKind::Sum));
      }
      coll = mix(coll, total);

      if (step % g.coll_every == g.coll_every - 1) {
        const auto us = static_cast<std::uint64_t>(step);
        const auto ume = static_cast<std::uint64_t>(me);
        for (int j = 0; j < P; ++j)
          small_send[static_cast<std::size_t>(j)] =
              mix(g.salt, us, ume, static_cast<std::uint64_t>(j));
        {
          Span s(tr, me, "mpi.alltoall_small", Layer::MpiColl, step);
          env->alltoall(small_send.data(), 8, Datatype::Byte, small_recv.data(), 8,
                        Datatype::Byte);
        }
        for (std::uint64_t v : small_recv) coll = mix(coll, v);
      }
      if (large && step % g.coll_every == g.coll_every - 1) {
        const auto us = static_cast<std::uint64_t>(step);
        const auto ume = static_cast<std::uint64_t>(me);
        fill_block(ag_send, bw, mix(g.salt, us, ume, kAllgatherDst));
        {
          Span s(tr, me, "mpi.allgather_large", Layer::MpiColl, step);
          env->allgather(ag_send, g.block_bytes, Datatype::Byte, ag_recv, g.block_bytes,
                         Datatype::Byte, sub);
        }
        for (int j = 0; j < S; ++j) coll = mix(coll, block_digest(ag_recv + bw * j, bw));

        for (int j = 0; j < S; ++j)
          fill_block(a2a_send + bw * j, bw,
                     mix(g.salt, us, ume,
                         static_cast<std::uint64_t>(sub_world[static_cast<std::size_t>(j)])));
        {
          Span s(tr, me, "mpi.alltoall_large", Layer::MpiColl, step);
          env->alltoall(a2a_send, g.block_bytes, Datatype::Byte, a2a_recv, g.block_bytes,
                        Datatype::Byte, sub);
        }
        for (int j = 0; j < S; ++j) coll = mix(coll, block_digest(a2a_recv + bw * j, bw));
      }
    }
    rec.step_ms.push_back(static_cast<float>((env->wtime() - t0) * 1e3));
  }

  rec.digests = {p2p, coll};
  {
    Span s(tr, me, "isomalloc.rank_free", Layer::Isomalloc, -1);
    env->rank_free(rbuf);
    env->rank_free(big);
  }
  env->comm_free(sub);
  return nullptr;
}

class Chatter final : public Workload {
 public:
  Chatter(std::uint64_t seed, Size size) {
    if (size == Size::Small) {
      rpp_ = 4;
      g_.steps = 64;
      g_.sub_size = 6;
      g_.block_bytes = 4096;
    } else {
      rpp_ = 16;
      g_.steps = 400;
      g_.sub_size = 12;
      g_.block_bytes = 64 << 10;
    }
    g_.period = 32;
    g_.deg = 4;
    g_.coll_every = 8;
    generate(seed);
  }

  const char* name() const override { return "chatter"; }
  int ranks() const override { return kPes * rpp_; }
  std::int64_t rank_steps() const override {
    return std::int64_t{ranks()} * g_.steps;
  }

  apv::img::ProgramImage image() const override {
    apv::img::ImageBuilder b("chatter");
    b.add_global<int>("steps", g_.steps);
    b.add_global<int>("period", g_.period);
    b.add_global<int>("deg", g_.deg);
    b.add_global<int>("coll_every", g_.coll_every);
    b.add_global<int>("sub_size", g_.sub_size);
    b.add_global<int>("block_bytes", g_.block_bytes);
    b.add_global<int>("max_in", g_.max_in);
    b.add_global<std::uint64_t>("salt", g_.salt);
    add_array(b, "out_dst", out_dst_);
    add_array(b, "out_len", out_len_);
    add_array(b, "out_any", out_any_);
    add_array(b, "in_off", in_off_);
    add_array(b, "in_src", in_src_);
    add_array(b, "in_nany", in_nany_);
    add_array(b, "sub_color", sub_color_);
    add_array(b, "sub_key", sub_key_);
    b.add_function("mpi_main", &chatter_main);
    b.set_code_size(std::size_t{3} << 20);
    return b.build();
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = g_.salt;
    for (const auto* v : {&out_dst_, &out_len_, &out_any_, &in_off_, &in_src_,
                          &in_nany_, &sub_color_, &sub_key_})
      for (int x : *v) h = mix(h, static_cast<std::uint64_t>(x));
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
    return cfg;
  }

  /// The expected per-rank digests follow from the seeded inputs alone.
  void reference() override {
    const int P = ranks();
    const auto uP = static_cast<std::size_t>(P);
    exp_p2p_.assign(uP, 0);
    exp_coll_.assign(uP, 0);
    const std::uint64_t bw = static_cast<std::uint64_t>(g_.block_bytes) / 8;
    std::byte buf[kMaxMsg];
    for (int step = 0; step < g_.steps; ++step) {
      const int t = step % g_.period;
      const auto us = static_cast<std::uint64_t>(step);
      std::uint64_t total = 0;
      for (int r = 0; r < P; ++r) {
        total += contribution(g_.salt, t, r);
        for (int k = 0; k < g_.deg; ++k) {
          const auto o = static_cast<std::size_t>((t * P + r) * g_.deg + k);
          const int dst = out_dst_[o];
          fill_payload(buf, r, out_len_[o],
                       mix(g_.salt, us, static_cast<std::uint64_t>(r),
                           static_cast<std::uint64_t>(dst)));
          exp_p2p_[static_cast<std::size_t>(dst)] += payload_digest(buf);
        }
      }
      const bool coll_step = step % g_.coll_every == g_.coll_every - 1;
      for (int r = 0; r < P; ++r) {
        std::uint64_t& c = exp_coll_[static_cast<std::size_t>(r)];
        c = mix(c, total);
        if (!coll_step) continue;
        const auto ur = static_cast<std::uint64_t>(r);
        for (int j = 0; j < P; ++j)
          c = mix(c, mix(g_.salt, us, static_cast<std::uint64_t>(j), ur));
        if (sub_color_[static_cast<std::size_t>(r)] != 0) continue;
        const auto members = sub_members();
        for (int w : members)
          c = mix(c, block_digest_of(
                         mix(g_.salt, us, static_cast<std::uint64_t>(w), kAllgatherDst), bw));
        for (int w : members)
          c = mix(c, block_digest_of(mix(g_.salt, us, static_cast<std::uint64_t>(w), ur), bw));
      }
    }
  }

  std::string check() const override {
    const auto& recs = run_state().ranks;
    for (int r = 0; r < ranks(); ++r) {
      const RankRec& rec = recs[static_cast<std::size_t>(r)];
      if (rec.digests.size() != 2)
        return "rank " + std::to_string(r) + ": no result";
      if (rec.digests[0] != exp_p2p_[static_cast<std::size_t>(r)])
        return "rank " + std::to_string(r) + ": received-payload checksum differs";
      if (rec.digests[1] != exp_coll_[static_cast<std::size_t>(r)])
        return "rank " + std::to_string(r) + ": collective results differ";
    }
    return {};
  }

  std::string guard(const apv::util::Counters& c) const override {
    if (c.get("inline_hits") == 0) return "no same-PE inline deliveries";
    if (c.get("comm.aggregated") == 0) return "no aggregated sends";
    if (c.get("coll_leader_msgs") == 0) return "no collective leader messages";
    return {};
  }

 private:
  static void add_array(apv::img::ImageBuilder& b, const char* name,
                        const std::vector<int>& v) {
    b.add_var(name, v.size() * sizeof(int), alignof(int), v.data(),
              v.size() * sizeof(int), {.is_const = true});
  }

  /// World ranks of the colour-0 sub-communicator, in sub-rank order.
  std::vector<int> sub_members() const {
    std::vector<int> m(static_cast<std::size_t>(g_.sub_size));
    for (int w = 0; w < ranks(); ++w)
      if (sub_color_[static_cast<std::size_t>(w)] == 0)
        m[static_cast<std::size_t>(sub_key_[static_cast<std::size_t>(w)])] = w;
    return m;
  }

  void generate(std::uint64_t seed) {
    apv::util::SplitMix64 rng(mix(seed, 0xc4a77e2));
    g_.salt = rng.next();
    const int P = ranks();
    const int T = g_.period;
    const auto cells = static_cast<std::size_t>(T * P * g_.deg);
    out_dst_.assign(cells, 0);
    out_len_.assign(cells, 0);
    out_any_.assign(cells, 0);
    // Per (t, dst): specific-source senders in send order, and the count of
    // any-source messages.
    std::vector<std::vector<int>> spec(static_cast<std::size_t>(T * P));
    in_nany_.assign(static_cast<std::size_t>(T * P), 0);
    for (int t = 0; t < T; ++t) {
      for (int r = 0; r < P; ++r) {
        // Half the partners share r's PE, half sit on other PEs.
        const int pe = r / rpp_;
        std::vector<int> same;
        std::vector<int> other;
        for (int w = 0; w < P; ++w) {
          if (w == r) continue;
          (w / rpp_ == pe ? same : other).push_back(w);
        }
        for (int k = 0; k < g_.deg; ++k) {
          auto& pool = k % 2 == 0 ? same : other;
          const auto pick = static_cast<std::size_t>(rng.next_below(pool.size()));
          const int dst = pool[pick];
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
          const auto o = static_cast<std::size_t>((t * P + r) * g_.deg + k);
          out_dst_[o] = dst;
          out_len_[o] = 8 + static_cast<int>(rng.next_below(kMaxMsg - 8 + 1));
          out_any_[o] = static_cast<int>(rng.next_below(2));
          const auto row = static_cast<std::size_t>(t * P + dst);
          if (out_any_[o] != 0) {
            ++in_nany_[row];
          } else {
            spec[row].push_back(r);
          }
        }
      }
    }
    in_off_.assign(1, 0);
    in_src_.clear();
    g_.max_in = 1;
    for (std::size_t row = 0; row < spec.size(); ++row) {
      in_src_.insert(in_src_.end(), spec[row].begin(), spec[row].end());
      in_off_.push_back(static_cast<int>(in_src_.size()));
      g_.max_in = std::max(g_.max_in, static_cast<int>(spec[row].size()) + in_nany_[row]);
    }
    if (in_src_.empty()) in_src_.push_back(0);  // an image variable has size > 0
    // Seeded split: sub_size ranks, the same number from each PE, get
    // colour 0, so the seed moves the large collectives' members but not
    // their load per PE; the rest get colour 1. Keys are a seeded order.
    auto shuffle = [&rng](std::vector<int>& v) {
      for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next_below(i))]);
    };
    std::vector<int> chosen;
    std::vector<int> rest;
    for (int pe = 0; pe < kPes; ++pe) {
      std::vector<int> on_pe(static_cast<std::size_t>(rpp_));
      std::iota(on_pe.begin(), on_pe.end(), pe * rpp_);
      shuffle(on_pe);
      const auto take = static_cast<std::ptrdiff_t>(g_.sub_size / kPes);
      chosen.insert(chosen.end(), on_pe.begin(), on_pe.begin() + take);
      rest.insert(rest.end(), on_pe.begin() + take, on_pe.end());
    }
    shuffle(chosen);
    shuffle(rest);
    sub_color_.assign(static_cast<std::size_t>(P), 1);
    sub_key_.assign(static_cast<std::size_t>(P), 0);
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      sub_color_[static_cast<std::size_t>(chosen[i])] = 0;
      sub_key_[static_cast<std::size_t>(chosen[i])] = static_cast<int>(i);
    }
    for (std::size_t i = 0; i < rest.size(); ++i)
      sub_key_[static_cast<std::size_t>(rest[i])] = static_cast<int>(i);
  }

  int rpp_ = 16;
  Globals g_{};
  std::vector<int> out_dst_, out_len_, out_any_, in_off_, in_src_, in_nany_;
  std::vector<int> sub_color_, sub_key_;
  std::vector<std::uint64_t> exp_p2p_, exp_coll_;
};

}  // namespace

std::unique_ptr<Workload> make_chatter(std::uint64_t seed, Size size) {
  return std::make_unique<Chatter>(seed, size);
}

}  // namespace apvbench
