// Collective-operation correctness: every collective against a sequential
// reference, across communicator sizes, datatypes, ops, and placements —
// plus user-defined operators with PIEglobals function-pointer translation
// and the paper's empty-PE reduction error.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/error.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;
using mpi::Op;
using mpi::OpKind;

namespace {

using EntryFn = void* (*)(void*);

struct JobShape {
  int vps;
  int nodes;
  int ppn;
};

std::vector<std::intptr_t> run_job(EntryFn entry, const JobShape& shape,
                                   core::Method method =
                                       core::Method::PIEglobals,
                                   img::CtorFn ctor = nullptr) {
  img::ImageBuilder b("colljob");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", entry);
  // Affine-map composition: pairs (p, q) stand for x -> p*x + q, and
  // combine(a, b) = a after b = (a.p*b.p, a.p*b.q + a.q). Associative (as
  // MPI requires of every reduction op) but non-commutative, so it detects
  // any reordering of operands while tolerating re-bracketing (binomial /
  // hierarchical folds).
  b.add_function("user_combine",
                 img::erase_fn(+[](const void* in, void* inout, int len,
                                   Datatype) {
                   const int* a = static_cast<const int*>(in);
                   int* b2 = static_cast<int*>(inout);
                   for (int i = 0; i + 1 < len; i += 2) {
                     b2[i + 1] = a[i] * b2[i + 1] + a[i + 1];
                     b2[i] = a[i] * b2[i];
                   }
                 }));
  if (ctor != nullptr) b.add_constructor(ctor);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = shape.nodes;
  cfg.pes_per_node = shape.ppn;
  cfg.vps = shape.vps;
  cfg.method = method;
  cfg.slot_bytes = std::size_t{8} << 20;
  mpi::Runtime rt(image, cfg);
  rt.run();
  std::vector<std::intptr_t> out;
  for (int r = 0; r < shape.vps; ++r)
    out.push_back(reinterpret_cast<std::intptr_t>(rt.rank_return(r)));
  return out;
}

#define ENV() auto* env = static_cast<Env*>(arg)

// --- one entry per collective, each self-checking and returning 1 on pass

void* bcast_main(void* arg) {
  ENV();
  std::intptr_t ok = 1;
  for (int root = 0; root < env->size(); ++root) {
    long payload[3] = {0, 0, 0};
    if (env->rank() == root) {
      payload[0] = 100 + root;
      payload[1] = 200 + root;
      payload[2] = 300 + root;
    }
    env->bcast(payload, 3, Datatype::Long, root);
    if (payload[0] != 100 + root || payload[2] != 300 + root) ok = 0;
  }
  return reinterpret_cast<void*>(ok);
}

void* reduce_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  // Sum of arrays at every root.
  for (int root = 0; root < n; ++root) {
    int mine[4] = {me, me * 2, me * 3, 1};
    int out[4] = {-1, -1, -1, -1};
    env->reduce(mine, out, 4, Datatype::Int, Op::builtin(OpKind::Sum), root);
    if (me == root) {
      const int s = n * (n - 1) / 2;
      if (out[0] != s || out[1] != 2 * s || out[2] != 3 * s || out[3] != n)
        ok = 0;
    }
  }
  // Max and Min with doubles.
  double dmine = 10.0 + me;
  double dout = 0;
  env->reduce(&dmine, &dout, 1, Datatype::Double,
              Op::builtin(OpKind::Max), 0);
  if (me == 0 && dout != 10.0 + (n - 1)) ok = 0;
  env->reduce(&dmine, &dout, 1, Datatype::Double,
              Op::builtin(OpKind::Min), 0);
  if (me == 0 && dout != 10.0) ok = 0;
  return reinterpret_cast<void*>(ok);
}

void* allreduce_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  long v = 1L << me;
  long all = 0;
  env->allreduce(&v, &all, 1, Datatype::Long, Op::builtin(OpKind::BitOr));
  if (all != (1L << n) - 1) ok = 0;
  unsigned prod_in = 2;
  unsigned prod = 0;
  env->allreduce(&prod_in, &prod, 1, Datatype::Unsigned,
                 Op::builtin(OpKind::Prod));
  if (prod != (1u << n)) ok = 0;
  return reinterpret_cast<void*>(ok);
}

void* scan_main(void* arg) {
  ENV();
  const int me = env->rank();
  int v = me + 1;
  int prefix = 0;
  env->scan(&v, &prefix, 1, Datatype::Int, Op::builtin(OpKind::Sum));
  // Inclusive prefix: 1 + 2 + ... + (me+1).
  const int expect = (me + 1) * (me + 2) / 2;
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>(prefix == expect));
}

void* gather_scatter_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  // Gather to each root.
  int mine = me * 11;
  std::vector<int> all(static_cast<std::size_t>(n), -1);
  env->gather(&mine, 1, Datatype::Int, all.data(), 1, Datatype::Int, 0);
  if (me == 0) {
    for (int i = 0; i < n; ++i)
      if (all[static_cast<std::size_t>(i)] != i * 11) ok = 0;
  }
  // Scatter back out.
  std::vector<int> src(static_cast<std::size_t>(n));
  if (me == 0) {
    for (int i = 0; i < n; ++i) src[static_cast<std::size_t>(i)] = 1000 + i;
  }
  int got = -1;
  env->scatter(src.data(), 1, Datatype::Int, &got, 1, Datatype::Int, 0);
  if (got != 1000 + me) ok = 0;
  // Allgather.
  std::vector<int> everyone(static_cast<std::size_t>(n), -1);
  env->allgather(&got, 1, Datatype::Int, everyone.data(), 1, Datatype::Int);
  for (int i = 0; i < n; ++i)
    if (everyone[static_cast<std::size_t>(i)] != 1000 + i) ok = 0;
  return reinterpret_cast<void*>(ok);
}

void* gatherv_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  // Rank i contributes i+1 ints.
  std::vector<int> mine(static_cast<std::size_t>(me + 1), me);
  std::vector<int> counts, displs;
  int total = 0;
  for (int i = 0; i < n; ++i) {
    counts.push_back(i + 1);
    displs.push_back(total);
    total += i + 1;
  }
  std::vector<int> all(static_cast<std::size_t>(total), -1);
  env->gatherv(mine.data(), me + 1, Datatype::Int, all.data(), counts.data(),
               displs.data(), Datatype::Int, 0);
  std::intptr_t ok = 1;
  if (me == 0) {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < counts[static_cast<std::size_t>(i)]; ++k) {
        if (all[static_cast<std::size_t>(displs[static_cast<std::size_t>(i)] +
                                         k)] != i)
          ok = 0;
      }
    }
  }
  // scatterv of the same shape.
  std::vector<int> back(static_cast<std::size_t>(me + 1), -1);
  env->scatterv(all.data(), counts.data(), displs.data(), Datatype::Int,
                back.data(), me + 1, Datatype::Int, 0);
  for (int k = 0; k <= me; ++k)
    if (back[static_cast<std::size_t>(k)] != me) ok = 0;
  return reinterpret_cast<void*>(ok);
}

void* alltoall_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  std::vector<int> send(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    send[static_cast<std::size_t>(i)] = me * 100 + i;
  std::vector<int> recv(static_cast<std::size_t>(n), -1);
  env->alltoall(send.data(), 1, Datatype::Int, recv.data(), 1, Datatype::Int);
  std::intptr_t ok = 1;
  for (int i = 0; i < n; ++i)
    if (recv[static_cast<std::size_t>(i)] != i * 100 + me) ok = 0;
  return reinterpret_cast<void*>(ok);
}

void* maxloc_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  mpi::DoubleInt mine{static_cast<double>((me * 7) % n), me};
  mpi::DoubleInt best{0, 0};
  env->allreduce(&mine, &best, 1, Datatype::DoubleInt,
                 Op::builtin(OpKind::MaxLoc));
  // Compute the expected winner sequentially.
  double best_v = -1;
  int best_i = -1;
  for (int i = 0; i < n; ++i) {
    const double v = (i * 7) % n;
    if (v > best_v) {
      best_v = v;
      best_i = i;
    }
  }
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(
      best.value == best_v && best.index == best_i));
}

// Rank i contributes the affine map (p_i, q_i); the rank-ordered fold is
// the composition s_0 after s_1 after ... after s_{n-1}.
constexpr int affine_p(int i) { return i % 8 == 0 ? 2 : 1; }
constexpr int affine_q(int i) { return i + 1; }

// Sequential left fold of ranks [0, n) starting from the identity map.
void affine_expect(int n, int* ep, int* eq) {
  *ep = 1;
  *eq = 0;
  for (int i = 0; i < n; ++i) {
    *eq = *ep * affine_q(i) + *eq;
    *ep = *ep * affine_p(i);
  }
}

void* userop_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  // Non-commutative (but associative) op: affine-map composition in rank
  // order.
  const Op op = env->op_create("user_combine", /*commutative=*/false);
  int v[2] = {affine_p(me), affine_q(me)};
  int out[2] = {-1, -1};
  env->reduce(v, out, 2, Datatype::Int, op, 0);
  if (me != 0) return reinterpret_cast<void*>(std::intptr_t{1});
  int ep = 0, eq = 0;
  affine_expect(n, &ep, &eq);
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>(out[0] == ep && out[1] == eq));
}

void* userop_ptr_main(void* arg) {
  ENV();
  // Take the function address from this rank's own code copy, as a real
  // program would (PIEglobals: each rank's address differs).
  void* fn = env->rank_context().instance->func_addr(
      env->runtime().image().func_id("user_combine"));
  const Op op = env->op_create_from_ptr(fn, /*commutative=*/false);
  const int me = env->rank();
  int v[2] = {affine_p(me), affine_q(me)};
  int out[2] = {-1, -1};
  env->reduce(v, out, 2, Datatype::Int, op, 0);
  if (me != 0) return reinterpret_cast<void*>(std::intptr_t{1});
  int ep = 0, eq = 0;
  affine_expect(env->size(), &ep, &eq);
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>(out[0] == ep && out[1] == eq));
}

void* comm_split_main(void* arg) {
  ENV();
  const int me = env->rank();
  // Split into odd/even; sum within each half.
  const mpi::CommId half = env->comm_split(mpi::kCommWorld, me % 2, me);
  int v = me;
  int sum = -1;
  env->allreduce(&v, &sum, 1, Datatype::Int, Op::builtin(OpKind::Sum), half);
  int expect = 0;
  for (int i = me % 2; i < env->size(); i += 2) expect += i;
  std::intptr_t ok = sum == expect;
  // Communicator-local ranks are ordered by key (= world rank here).
  if (env->rank(half) != me / 2) ok = 0;
  // A dup of world is independent: message tags do not cross.
  const mpi::CommId dup = env->comm_dup();
  if (env->size(dup) != env->size()) ok = 0;
  env->barrier(dup);
  env->comm_free(dup);
  env->comm_free(half);
  return reinterpret_cast<void*>(ok);
}

}  // namespace

class CollectiveShapes : public ::testing::TestWithParam<JobShape> {};

TEST_P(CollectiveShapes, Bcast) {
  for (auto ok : run_job(&bcast_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, Reduce) {
  for (auto ok : run_job(&reduce_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, Allreduce) {
  for (auto ok : run_job(&allreduce_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, Scan) {
  for (auto ok : run_job(&scan_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, GatherScatterAllgather) {
  for (auto ok : run_job(&gather_scatter_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, GathervScatterv) {
  for (auto ok : run_job(&gatherv_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, Alltoall) {
  for (auto ok : run_job(&alltoall_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, MaxLoc) {
  for (auto ok : run_job(&maxloc_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, UserOpNonCommutative) {
  for (auto ok : run_job(&userop_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, UserOpFromRankLocalPointer) {
  for (auto ok : run_job(&userop_ptr_main, GetParam())) EXPECT_EQ(ok, 1);
}
TEST_P(CollectiveShapes, CommSplitAndDup) {
  for (auto ok : run_job(&comm_split_main, GetParam())) EXPECT_EQ(ok, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectiveShapes,
    ::testing::Values(JobShape{1, 1, 1}, JobShape{2, 1, 1}, JobShape{5, 1, 1},
                      JobShape{8, 1, 2}, JobShape{8, 2, 2},
                      JobShape{13, 2, 2}),
    [](const ::testing::TestParamInfo<JobShape>& info) {
      return "vps" + std::to_string(info.param.vps) + "_n" +
             std::to_string(info.param.nodes) + "x" +
             std::to_string(info.param.ppn);
    });

TEST(Collectives, SameResultUnderEveryMethod) {
  for (core::Method m :
       {core::Method::None, core::Method::Swapglobals, core::Method::PIPglobals,
        core::Method::FSglobals, core::Method::PIEglobals}) {
    for (auto ok : run_job(&gather_scatter_main, {4, 1, 1}, m)) {
      EXPECT_EQ(ok, 1) << core::method_name(m);
    }
  }
}

TEST(Collectives, EmptyPeUserOpCombineThrows) {
  // Build a job with an idle PE: 2 ranks block-mapped onto PE 0 of 2 PEs.
  img::ImageBuilder b("emptype");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main",
                 +[](void* arg) -> void* {
                   static_cast<Env*>(arg)->barrier();
                   return nullptr;
                 });
  b.add_function("user_combine",
                 img::erase_fn(+[](const void*, void*, int, Datatype) {}));
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 2;
  cfg.map = "rr";
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  mpi::Runtime rt(image, cfg);
  rt.run();

  Op op;
  op.kind = OpKind::User;
  op.user.id = image.func_id("user_combine");
  op.user.code_offset = image.func(op.user.id).code_offset;
  int a = 1, b2 = 2;
  // PE 0 hosts rank 0: combining there works.
  EXPECT_NO_THROW(rt.combine_on_pe(0, op, Datatype::Int, &a, &b2, 1));
  // Remove residents from PE 1 by construction? With map=rr both PEs host
  // one rank; instead check an out-of-job PE state via a 3-PE layout.
  mpi::RuntimeConfig cfg2 = cfg;
  cfg2.pes_per_node = 3;
  cfg2.map = "block";  // 2 ranks on PEs 0 and 1; PE 2 empty
  mpi::Runtime rt2(image, cfg2);
  rt2.run();
  try {
    rt2.combine_on_pe(2, op, Datatype::Int, &a, &b2, 1);
    FAIL() << "empty-PE user-op combine did not throw";
  } catch (const util::ApvError& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::ReductionOnEmptyPe);
  }
  // Built-in ops do not need a rank context anywhere.
  EXPECT_NO_THROW(rt2.combine_on_pe(2, Op::builtin(OpKind::Sum),
                                    Datatype::Int, &a, &b2, 1));
}
