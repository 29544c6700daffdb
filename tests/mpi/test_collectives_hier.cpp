// Hierarchical-collective correctness sweep: barrier / bcast / reduce /
// allreduce / scan, commutative (builtin Sum) and non-commutative
// (associative affine-map user op), at 1 / 4 / 16 ranks per PE on 4 PEs and
// 2 ranks per PE on 12 PEs (more leaders than the shared leader rendezvous
// takes, and not a power of two), with the coll.algo=naive escape hatch
// cross-checked against coll.algo=hier. A schedule test pins every hier
// op's counter deltas.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/stats.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;
using mpi::Op;
using mpi::OpKind;

namespace {

// Affine maps (p, q) ~ x -> p*x + q under composition: associative but not
// commutative, so order-sensitive folds are validated without relying on
// any particular bracketing.
constexpr int affine_p(int i) { return i % 8 == 0 ? 2 : 1; }
constexpr int affine_q(int i) { return i + 1; }

// The affine-map composition as a reduction operator over (p, q) pairs.
void affine_combine(const void* in, void* inout, int len, Datatype) {
  const int* a = static_cast<const int*>(in);
  int* b = static_cast<int*>(inout);
  for (int i = 0; i + 1 < len; i += 2) {
    b[i + 1] = a[i] * b[i + 1] + a[i + 1];
    b[i] = a[i] * b[i];
  }
}

void affine_fold(int lo, int hi, int* ep, int* eq) {
  *ep = 1;
  *eq = 0;
  for (int i = lo; i < hi; ++i) {
    *eq = *ep * affine_q(i) + *eq;
    *ep = *ep * affine_p(i);
  }
}

// Large enough that a world allreduce crosses the default Rabenseifner
// cutoff (32 KiB): exercises reduce-scatter + allgather above it and
// recursive doubling below it (the small cases elsewhere in this entry).
constexpr int kBigCount = 16384;  // 64 KiB of ints

void* sweep_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  const auto check = [&ok](bool cond) { ok = ok && cond ? 1 : 0; };

  env->barrier();

  // Bcast from first, middle, and last rank.
  for (const int root : {0, n / 2, n - 1}) {
    long payload[3] = {0, 0, 0};
    if (me == root) {
      payload[0] = 1000 + root;
      payload[1] = 2000 + root;
      payload[2] = 3000 + root;
    }
    env->bcast(payload, 3, Datatype::Long, root);
    check(payload[0] == 1000 + root && payload[1] == 2000 + root &&
          payload[2] == 3000 + root);
  }

  // Commutative reduce to both edge roots.
  for (const int root : {0, n - 1}) {
    int v[4] = {me, me * 2, 1, me + root};
    int out[4] = {-1, -1, -1, -1};
    env->reduce(v, out, 4, Datatype::Int, Op::builtin(OpKind::Sum), root);
    if (me == root) {
      const int s = n * (n - 1) / 2;
      check(out[0] == s && out[1] == 2 * s && out[2] == n &&
            out[3] == s + n * root);
    }
  }

  // Commutative allreduce, small (shared leader rendezvous up to eight
  // leaders, recursive doubling above).
  {
    int v[2] = {me + 1, me * me};
    int out[2] = {0, 0};
    env->allreduce(v, out, 2, Datatype::Int, Op::builtin(OpKind::Sum));
    int s1 = 0, s2 = 0;
    for (int i = 0; i < n; ++i) {
      s1 += i + 1;
      s2 += i * i;
    }
    check(out[0] == s1 && out[1] == s2);
  }

  // Commutative allreduce, large (Rabenseifner among leaders).
  {
    std::vector<int> v(kBigCount), out(kBigCount, -1);
    for (int i = 0; i < kBigCount; ++i) v[static_cast<std::size_t>(i)] = me + i;
    env->allreduce(v.data(), out.data(), kBigCount, Datatype::Int,
                   Op::builtin(OpKind::Sum));
    const int s = n * (n - 1) / 2;
    bool good = true;
    for (int i = 0; i < kBigCount; ++i)
      good = good && out[static_cast<std::size_t>(i)] == n * i + s;
    check(good);
  }

  // Commutative scan.
  {
    int v = me + 1;
    int out = -1;
    env->scan(&v, &out, 1, Datatype::Int, Op::builtin(OpKind::Sum));
    check(out == (me + 1) * (me + 2) / 2);
  }

  // Non-commutative reduce / allreduce / scan with the affine user op.
  const Op op = env->op_create("user_combine", /*commutative=*/false);
  {
    const int root = (2 * n) / 3;
    int v[2] = {affine_p(me), affine_q(me)};
    int out[2] = {-1, -1};
    env->reduce(v, out, 2, Datatype::Int, op, root);
    if (me == root) {
      int ep = 0, eq = 0;
      affine_fold(0, n, &ep, &eq);
      check(out[0] == ep && out[1] == eq);
    }
  }
  {
    int v[2] = {affine_p(me), affine_q(me)};
    int out[2] = {-1, -1};
    env->allreduce(v, out, 2, Datatype::Int, op);
    int ep = 0, eq = 0;
    affine_fold(0, n, &ep, &eq);
    check(out[0] == ep && out[1] == eq);
  }
  {
    int v[2] = {affine_p(me), affine_q(me)};
    int out[2] = {-1, -1};
    env->scan(v, out, 2, Datatype::Int, op);
    int ep = 0, eq = 0;
    affine_fold(0, me + 1, &ep, &eq);
    check(out[0] == ep && out[1] == eq);
  }

  env->barrier();
  return reinterpret_cast<void*>(ok);
}

struct HierCase {
  int pes;
  int ranks_per_pe;
  bool hier;
};

std::string case_name(const ::testing::TestParamInfo<HierCase>& info) {
  const HierCase& c = info.param;
  return (c.pes == 4 ? std::string() : "pe" + std::to_string(c.pes) + "_") +
         "rpp" + std::to_string(c.ranks_per_pe) + (c.hier ? "_hier" : "_naive");
}

mpi::RuntimeConfig case_config(const HierCase& c) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = c.pes;
  cfg.vps = c.ranks_per_pe * c.pes;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("coll.algo", c.hier ? "hier" : "naive");
  return cfg;
}

const auto kShapes = ::testing::Values(
    HierCase{4, 1, true}, HierCase{4, 1, false}, HierCase{4, 4, true},
    HierCase{4, 4, false}, HierCase{4, 16, true}, HierCase{4, 16, false},
    HierCase{12, 2, true}, HierCase{12, 2, false});

}  // namespace

class HierSweep : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierSweep, AllCollectivesAgree) {
  const HierCase c = GetParam();
  img::ImageBuilder b("hiersweep");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &sweep_main);
  b.add_function("user_combine", img::erase_fn(&affine_combine));
  const img::ProgramImage image = b.build();
  const mpi::RuntimeConfig cfg = case_config(c);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  const util::Counters lc = rt.locality_counters();
  if (c.hier) {
    EXPECT_GT(lc.get("coll_leader_msgs"), 0u);
    if (c.ranks_per_pe > 1) {
      EXPECT_GT(lc.get("coll_local_combines"), 0u);
    }
  } else {
    EXPECT_EQ(lc.get("coll_leader_msgs"), 0u);
    EXPECT_EQ(lc.get("coll_local_combines"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierSweep, kShapes, case_name);

// ---------------------------------------------------------------------------
// Vector collectives: gather/gatherv/scatter/scatterv/allgather/alltoall,
// hier vs naive bit-identity across root positions, non-uniform counts, and
// a comm_split subset. Small counts take the eager leader phase, kVecBig
// crosses the 32 KiB vector cutoff (Runtime::kVecCutoff) into the chunked
// one.

namespace {

constexpr int kVecBig = 1536;  // 6 KiB blocks: world totals cross the cutoff

void* vector_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  const auto check = [&ok](bool cond) { ok = ok && cond ? 1 : 0; };

  env->barrier();

  // Gather: every root position, eager and chunked block sizes.
  for (const int root : {0, n / 2, n - 1}) {
    for (const int count : {2, kVecBig}) {
      std::vector<int> v(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i)
        v[static_cast<std::size_t>(i)] = me * 100000 + i;
      std::vector<int> out;
      if (me == root)
        out.assign(static_cast<std::size_t>(n) * count, -1);
      env->gather(v.data(), count, Datatype::Int, out.data(), count,
                  Datatype::Int, root);
      if (me == root) {
        bool good = true;
        for (int r = 0; r < n; ++r)
          for (int i = 0; i < count; ++i)
            good = good &&
                   out[static_cast<std::size_t>(r * count + i)] ==
                       r * 100000 + i;
        check(good);
      }
    }
  }

  // Gatherv: non-uniform counts (rank i contributes i%3+1 ints).
  for (const int root : {0, n - 1}) {
    const int mine = me % 3 + 1;
    std::vector<int> v(static_cast<std::size_t>(mine));
    for (int i = 0; i < mine; ++i)
      v[static_cast<std::size_t>(i)] = me * 10 + i;
    std::vector<int> counts, displs, out;
    if (me == root) {
      counts.resize(static_cast<std::size_t>(n));
      displs.resize(static_cast<std::size_t>(n));
      int off = 0;
      for (int r = 0; r < n; ++r) {
        counts[static_cast<std::size_t>(r)] = r % 3 + 1;
        displs[static_cast<std::size_t>(r)] = off;
        off += r % 3 + 1;
      }
      out.assign(static_cast<std::size_t>(off), -1);
    }
    env->gatherv(v.data(), mine, Datatype::Int, out.data(), counts.data(),
                 displs.data(), Datatype::Int, root);
    if (me == root) {
      bool good = true;
      int off = 0;
      for (int r = 0; r < n; ++r) {
        for (int i = 0; i < r % 3 + 1; ++i)
          good = good && out[static_cast<std::size_t>(off + i)] == r * 10 + i;
        off += r % 3 + 1;
      }
      check(good);
    }
  }

  // Scatter: eager and chunked block sizes.
  for (const int root : {0, n - 1}) {
    for (const int count : {3, kVecBig}) {
      std::vector<int> v;
      if (me == root) {
        v.resize(static_cast<std::size_t>(n) * count);
        for (int r = 0; r < n; ++r)
          for (int i = 0; i < count; ++i)
            v[static_cast<std::size_t>(r * count + i)] = r * 1000 + i + root;
      }
      std::vector<int> out(static_cast<std::size_t>(count), -1);
      env->scatter(v.data(), count, Datatype::Int, out.data(), count,
                   Datatype::Int, root);
      bool good = true;
      for (int i = 0; i < count; ++i)
        good = good &&
               out[static_cast<std::size_t>(i)] == me * 1000 + i + root;
      check(good);
    }
  }

  // Scatterv: non-uniform counts mirroring the gatherv shape.
  {
    const int root = n / 2;
    const int mine = me % 3 + 1;
    std::vector<int> v, counts, displs;
    if (me == root) {
      counts.resize(static_cast<std::size_t>(n));
      displs.resize(static_cast<std::size_t>(n));
      int off = 0;
      for (int r = 0; r < n; ++r) {
        counts[static_cast<std::size_t>(r)] = r % 3 + 1;
        displs[static_cast<std::size_t>(r)] = off;
        off += r % 3 + 1;
      }
      v.resize(static_cast<std::size_t>(off));
      for (int r = 0; r < n; ++r)
        for (int i = 0; i < r % 3 + 1; ++i)
          v[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] +
                                     i)] = r * 7 + i;
    }
    std::vector<int> out(static_cast<std::size_t>(mine), -1);
    env->scatterv(v.data(), counts.data(), displs.data(), Datatype::Int,
                  out.data(), mine, Datatype::Int, root);
    bool good = true;
    for (int i = 0; i < mine; ++i)
      good = good && out[static_cast<std::size_t>(i)] == me * 7 + i;
    check(good);
  }

  // Allgather: eager (Bruck) and chunked (ring) leader phases.
  for (const int count : {2, kVecBig}) {
    std::vector<int> v(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
      v[static_cast<std::size_t>(i)] = me * 100000 + i;
    std::vector<int> out(static_cast<std::size_t>(n) * count, -1);
    env->allgather(v.data(), count, Datatype::Int, out.data(), count,
                   Datatype::Int);
    bool good = true;
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < count; ++i)
        good = good &&
               out[static_cast<std::size_t>(r * count + i)] ==
                   r * 100000 + i;
    check(good);
  }

  // Alltoall: per-pair blocks, small and mid-size.
  for (const int count : {2, 64}) {
    std::vector<int> v(static_cast<std::size_t>(n) * count);
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < count; ++i)
        v[static_cast<std::size_t>(r * count + i)] = me * 100000 + r * 100 + i;
    std::vector<int> out(static_cast<std::size_t>(n) * count, -1);
    env->alltoall(v.data(), count, Datatype::Int, out.data(), count,
                  Datatype::Int);
    bool good = true;
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < count; ++i)
        good = good &&
               out[static_cast<std::size_t>(r * count + i)] ==
                   r * 100000 + me * 100 + i;
    check(good);
  }

  // Subset communicator: odd/even split, then the uniform trio on it. The
  // subcomm's groups are non-trivial comm-index intervals, exercising the
  // unordered-topology placement paths.
  {
    const mpi::CommId sub = env->comm_split(mpi::kCommWorld, me % 2, me);
    const int sr = env->rank(sub);
    const int sn = env->size(sub);
    const int base = me % 2;  // world rank of sub rank j is base + 2*j
    std::vector<int> v(4);
    for (int i = 0; i < 4; ++i) v[static_cast<std::size_t>(i)] = me * 10 + i;
    std::vector<int> out(static_cast<std::size_t>(sn) * 4, -1);
    env->allgather(v.data(), 4, Datatype::Int, out.data(), 4, Datatype::Int,
                   sub);
    bool good = true;
    for (int j = 0; j < sn; ++j)
      for (int i = 0; i < 4; ++i)
        good = good &&
               out[static_cast<std::size_t>(j * 4 + i)] ==
                   (base + 2 * j) * 10 + i;
    check(good);

    std::vector<int> g(static_cast<std::size_t>(sn), -1);
    const int gv = me + 1;
    env->gather(&gv, 1, Datatype::Int, g.data(), 1, Datatype::Int,
                /*root=*/sn - 1, sub);
    if (sr == sn - 1) {
      for (int j = 0; j < sn; ++j)
        good = good && g[static_cast<std::size_t>(j)] == base + 2 * j + 1;
      check(good);
    }

    std::vector<int> av(static_cast<std::size_t>(sn)), ao(
        static_cast<std::size_t>(sn), -1);
    for (int j = 0; j < sn; ++j)
      av[static_cast<std::size_t>(j)] = me * 100 + j;
    env->alltoall(av.data(), 1, Datatype::Int, ao.data(), 1, Datatype::Int,
                  sub);
    for (int j = 0; j < sn; ++j)
      good = good &&
             ao[static_cast<std::size_t>(j)] == (base + 2 * j) * 100 + sr;
    check(good);
    env->comm_free(sub);
  }

  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

class VectorSweep : public ::testing::TestWithParam<HierCase> {};

TEST_P(VectorSweep, AllVectorCollectivesAgree) {
  const HierCase c = GetParam();
  img::ImageBuilder b("vecsweep");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &vector_main);
  const img::ProgramImage image = b.build();
  const mpi::RuntimeConfig cfg = case_config(c);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  const util::Counters lc = rt.locality_counters();
  if (c.hier) {
    // Contributions moved through shared group blocks, and leaders (not
    // every rank) carried the inter-PE phase.
    EXPECT_GT(lc.get("coll_vec_bytes"), 0u);
    EXPECT_GT(lc.get("coll_leader_msgs"), 0u);
  } else {
    EXPECT_EQ(lc.get("coll_vec_bytes"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, VectorSweep, kShapes, case_name);

// ---------------------------------------------------------------------------
// Schedule pinning: each hier op, alone in a job, must produce exactly the
// recorded deltas of the four collective counters (leader messages, shared
// leader rendezvous, in-block combines, bytes through vector blocks). They
// are the message schedule in numbers, so a change to any leader algorithm,
// its selection predicate or the member phase shows up here, per op.

namespace {

constexpr int kSchedBig = 16384;  // 64 KiB of ints: above both cutoffs
constexpr int kSchedVec = 1536;   // 6 KiB blocks: world totals above 32 KiB

struct ScheduleOp {
  const char* name;
  void (*body)(Env*);
};

// v-variant counts: rank i moves i%3+1 ints.
void v_layout(int n, std::vector<int>& counts, std::vector<int>& displs) {
  counts.resize(static_cast<std::size_t>(n));
  displs.resize(static_cast<std::size_t>(n));
  int off = 0;
  for (int r = 0; r < n; ++r) {
    counts[static_cast<std::size_t>(r)] = r % 3 + 1;
    displs[static_cast<std::size_t>(r)] = off;
    off += r % 3 + 1;
  }
}

void sched_reduce(Env* e, int count, int root) {
  std::vector<int> v(static_cast<std::size_t>(count), e->rank());
  std::vector<int> out(static_cast<std::size_t>(count));
  e->reduce(v.data(), out.data(), count, Datatype::Int,
            Op::builtin(OpKind::Sum), root);
}

void sched_allreduce(Env* e, int count) {
  std::vector<int> v(static_cast<std::size_t>(count), e->rank());
  std::vector<int> out(static_cast<std::size_t>(count));
  e->allreduce(v.data(), out.data(), count, Datatype::Int,
               Op::builtin(OpKind::Sum));
}

void sched_gather(Env* e, int count, int root) {
  std::vector<int> v(static_cast<std::size_t>(count), e->rank());
  std::vector<int> out(static_cast<std::size_t>(e->size()) * count);
  e->gather(v.data(), count, Datatype::Int, out.data(), count, Datatype::Int,
            root);
}

void sched_scatter(Env* e, int count, int root) {
  std::vector<int> v(static_cast<std::size_t>(e->size()) * count, 1);
  std::vector<int> out(static_cast<std::size_t>(count));
  e->scatter(v.data(), count, Datatype::Int, out.data(), count, Datatype::Int,
             root);
}

void sched_allgather(Env* e, int count) {
  std::vector<int> v(static_cast<std::size_t>(count), e->rank());
  std::vector<int> out(static_cast<std::size_t>(e->size()) * count);
  e->allgather(v.data(), count, Datatype::Int, out.data(), count,
               Datatype::Int);
}

void sched_alltoall(Env* e, int count) {
  std::vector<int> v(static_cast<std::size_t>(e->size()) * count, e->rank());
  std::vector<int> out(v.size());
  e->alltoall(v.data(), count, Datatype::Int, out.data(), count,
              Datatype::Int);
}

const ScheduleOp kScheduleOps[] = {
    {"barrier", [](Env* e) { e->barrier(); }},
    {"bcast_small",
     [](Env* e) {
       long p[3] = {1, 2, 3};
       e->bcast(p, 3, Datatype::Long, e->size() / 2);
     }},
    {"bcast_large",
     [](Env* e) {
       std::vector<int> v(kSchedBig, 7);
       e->bcast(v.data(), kSchedBig, Datatype::Int, e->size() - 1);
     }},
    {"reduce_small", [](Env* e) { sched_reduce(e, 4, e->size() - 1); }},
    {"reduce_large", [](Env* e) { sched_reduce(e, kSchedBig, e->size() / 2); }},
    {"reduce_noncomm",
     [](Env* e) {
       int v[2] = {affine_p(e->rank()), affine_q(e->rank())};
       int out[2];
       e->reduce(v, out, 2, Datatype::Int, e->op_create("user_combine", false),
                 (2 * e->size()) / 3);
     }},
    {"allreduce_small", [](Env* e) { sched_allreduce(e, 2); }},
    {"allreduce_large", [](Env* e) { sched_allreduce(e, kSchedBig); }},
    {"allreduce_noncomm",
     [](Env* e) {
       int v[2] = {affine_p(e->rank()), affine_q(e->rank())};
       int out[2];
       e->allreduce(v, out, 2, Datatype::Int,
                    e->op_create("user_combine", false));
     }},
    {"scan",
     [](Env* e) {
       int v = e->rank() + 1, out = 0;
       e->scan(&v, &out, 1, Datatype::Int, Op::builtin(OpKind::Sum));
     }},
    {"gather_small", [](Env* e) { sched_gather(e, 2, e->size() / 2); }},
    {"gather_large", [](Env* e) { sched_gather(e, kSchedVec, e->size() - 1); }},
    {"gatherv",
     [](Env* e) {
       const int n = e->size(), me = e->rank(), root = n - 1;
       std::vector<int> v(static_cast<std::size_t>(me % 3 + 1), me);
       std::vector<int> counts, displs, out(static_cast<std::size_t>(3 * n));
       v_layout(n, counts, displs);
       e->gatherv(v.data(), me % 3 + 1, Datatype::Int, out.data(),
                  counts.data(), displs.data(), Datatype::Int, root);
     }},
    {"scatter_small", [](Env* e) { sched_scatter(e, 3, e->size() - 1); }},
    {"scatter_large", [](Env* e) { sched_scatter(e, kSchedVec, 0); }},
    {"scatterv",
     [](Env* e) {
       const int n = e->size(), me = e->rank();
       std::vector<int> counts, displs, v(static_cast<std::size_t>(3 * n), 1);
       v_layout(n, counts, displs);
       std::vector<int> out(static_cast<std::size_t>(me % 3 + 1));
       e->scatterv(v.data(), counts.data(), displs.data(), Datatype::Int,
                   out.data(), me % 3 + 1, Datatype::Int, n / 2);
     }},
    {"allgather_small", [](Env* e) { sched_allgather(e, 2); }},
    {"allgather_large", [](Env* e) { sched_allgather(e, kSchedVec); }},
    {"alltoall_small", [](Env* e) { sched_alltoall(e, 2); }},
    {"alltoall_mid", [](Env* e) { sched_alltoall(e, 64); }},
};

// The op the next job runs (nullptr: none). Set before the Runtime starts
// its PE threads and only read by them.
const ScheduleOp* g_sched_op = nullptr;

void* schedule_main(void* arg) {
  if (g_sched_op != nullptr) g_sched_op->body(static_cast<Env*>(arg));
  return nullptr;
}

struct ScheduleCounts {
  std::uint64_t leader_msgs, shared_rendezvous, local_combines, vec_bytes;
  bool operator==(const ScheduleCounts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ScheduleCounts& c) {
  return os << "{" << c.leader_msgs << ", " << c.shared_rendezvous << ", "
            << c.local_combines << ", " << c.vec_bytes << "}";
}

ScheduleCounts run_schedule(int pes, int rpp, const ScheduleOp* op) {
  g_sched_op = op;
  img::ImageBuilder b("schedule");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &schedule_main);
  b.add_function("user_combine", img::erase_fn(&affine_combine));
  const img::ProgramImage image = b.build();
  mpi::Runtime rt(image, case_config(HierCase{pes, rpp, true}));
  rt.run();
  const util::Counters lc = rt.locality_counters();
  return {lc.get("coll_leader_msgs"), lc.get("coll_shared_rendezvous"),
          lc.get("coll_local_combines"), lc.get("coll_vec_bytes")};
}

ScheduleCounts operator-(const ScheduleCounts& a, const ScheduleCounts& b) {
  return {a.leader_msgs - b.leader_msgs,
          a.shared_rendezvous - b.shared_rendezvous,
          a.local_combines - b.local_combines, a.vec_bytes - b.vec_bytes};
}

// One expected row per kScheduleOps entry, in the same order.
void check_schedule(int pes, int rpp,
                    const std::vector<ScheduleCounts>& expected) {
  ASSERT_EQ(expected.size(), std::size(kScheduleOps));
  const ScheduleCounts base = run_schedule(pes, rpp, nullptr);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const ScheduleCounts got =
        run_schedule(pes, rpp, &kScheduleOps[i]) - base;
    EXPECT_EQ(got, expected[i]) << kScheduleOps[i].name;
  }
}

}  // namespace

// 4 leaders (shared leader rendezvous), 4 ranks per PE.
TEST(HierSchedule, FourPes) {
  check_schedule(4, 4, {
      // leader_msgs, shared_rendezvous, local_combines, vec_bytes
      {0, 4, 0, 0},  // barrier
      {0, 4, 0, 0},  // bcast_small
      {3, 0, 0, 0},  // bcast_large
      {0, 4, 12, 0},  // reduce_small
      {3, 0, 12, 0},  // reduce_large
      {4, 0, 12, 0},  // reduce_noncomm
      {0, 4, 12, 0},  // allreduce_small
      {16, 0, 12, 0},  // allreduce_large
      {3, 4, 12, 0},  // allreduce_noncomm
      {3, 0, 12, 0},  // scan
      {3, 0, 0, 128},  // gather_small
      {3, 0, 0, 98304},  // gather_large
      {6, 0, 0, 124},  // gatherv
      {3, 0, 0, 288},  // scatter_small
      {3, 0, 0, 147456},  // scatter_large
      {6, 0, 0, 192},  // scatterv
      {8, 0, 0, 128},  // allgather_small
      {12, 0, 0, 98304},  // allgather_large
      {12, 0, 0, 2048},  // alltoall_small
      {12, 0, 0, 65536},  // alltoall_mid
  });
}

// 12 leaders (trees, dissemination, recursive doubling), 2 ranks per PE.
TEST(HierSchedule, TwelvePes) {
  check_schedule(12, 2, {
      {48, 0, 0, 0},  // barrier
      {11, 0, 0, 0},  // bcast_small
      {11, 0, 0, 0},  // bcast_large
      {11, 0, 12, 0},  // reduce_small
      {11, 0, 12, 0},  // reduce_large
      {12, 0, 12, 0},  // reduce_noncomm
      {32, 0, 12, 0},  // allreduce_small
      {56, 0, 12, 0},  // allreduce_large
      {22, 0, 12, 0},  // allreduce_noncomm
      {11, 0, 12, 0},  // scan
      {11, 0, 0, 192},  // gather_small
      {11, 0, 0, 147456},  // gather_large
      {22, 0, 0, 192},  // gatherv
      {11, 0, 0, 288},  // scatter_small
      {11, 0, 0, 147456},  // scatter_large
      {22, 0, 0, 192},  // scatterv
      {48, 0, 0, 192},  // allgather_small
      {132, 0, 0, 147456},  // allgather_large
      {132, 0, 0, 4608},  // alltoall_small
      {132, 0, 0, 147456},  // alltoall_mid
  });
}

// ---------------------------------------------------------------------------
// Mid-collective PE failure: a rank killed between vector collectives must
// recover from its buddy checkpoint and the re-run must still produce
// bit-identical gathers (no stale group block or half-staged slot survives).

namespace {

void* vector_ft_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  for (int it = 0; it < 3; ++it) {
    std::vector<int> v(8);
    for (int i = 0; i < 8; ++i)
      v[static_cast<std::size_t>(i)] = me * 100 + i + it;
    std::vector<int> out(static_cast<std::size_t>(n) * 8, -1);
    env->allgather(v.data(), 8, Datatype::Int, out.data(), 8, Datatype::Int);
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < 8; ++i)
        if (out[static_cast<std::size_t>(r * 8 + i)] != r * 100 + i + it)
          ok = 0;
    env->checkpoint_all();  // epoch it+1; PE 1 dies at epoch 2
    std::vector<int> a2a(static_cast<std::size_t>(n)), a2o(
        static_cast<std::size_t>(n), -1);
    for (int r = 0; r < n; ++r)
      a2a[static_cast<std::size_t>(r)] = me * 1000 + r + it;
    env->alltoall(a2a.data(), 1, Datatype::Int, a2o.data(), 1, Datatype::Int);
    for (int r = 0; r < n; ++r)
      if (a2o[static_cast<std::size_t>(r)] != r * 1000 + me + it) ok = 0;
  }
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

TEST(VectorFaultTolerance, KillBetweenVectorCollectivesRecovers) {
  img::ImageBuilder b("vecft");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &vector_ft_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 4;  // one PE per node: buddy copies live off-node
  cfg.pes_per_node = 1;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{16} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("check.mode", "abort");
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "2");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  EXPECT_GT(rt.recovery_count(), 0u);
  ASSERT_NE(rt.checker(), nullptr);
  EXPECT_EQ(rt.checker()->diagnosis_count(), 0u);
}
