// Tests of the benchmark's own machinery: the p99 sample rule, self-time
// arithmetic, seeded input determinism, and a small-size smoke run of each
// workload with its result checks and mechanism guards on.

#include <gtest/gtest.h>

#include <numeric>

#include "harness.hpp"

namespace apvbench {
namespace {

TEST(TailRule, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  const Tail t = tail_of(v);
  EXPECT_EQ(t.n, 1000u);
  EXPECT_DOUBLE_EQ(t.p50, 500.5);
  EXPECT_GE(t.beyond_p99, 10u);
  EXPECT_TRUE(t.p99_supported());

  v.resize(500);
  const Tail short_run = tail_of(v);
  EXPECT_LT(short_run.beyond_p99, 10u);
  EXPECT_FALSE(short_run.p99_supported());

  // Ties at the top leave nothing strictly beyond the p99.
  const Tail flat = tail_of(std::vector<double>(5000, 2.0));
  EXPECT_EQ(flat.beyond_p99, 0u);
  EXPECT_FALSE(flat.p99_supported());
}

SpanRec span(int parent, std::uint64_t t0, std::uint64_t t1, Layer layer = Layer::Rank) {
  SpanRec s;
  s.name = "s";
  s.layer = layer;
  s.parent = parent;
  s.t0_ns = t0;
  s.t1_ns = t1;
  return s;
}

TEST(SelfTime, NestedSpansSubtractTheUnionOfTheirChildren) {
  const std::vector<SpanRec> spans = {
      span(-1, 0, 100),  // 0: root
      span(0, 10, 40),   // 1: child
      span(1, 15, 20),   // 2: grandchild
      span(0, 30, 60),   // 3: child overlapping child 1
      span(0, 90, 120),  // 4: child running past its parent (clipped)
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100u - 50u - 10u);  // union [10,60) + clipped [90,100)
  EXPECT_EQ(self[1], 30u - 5u);
  EXPECT_EQ(self[2], 5u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 30u);
}

TEST(SelfTime, LayerSharesSumSelfTimeOverRankSeconds) {
  Trace tr(2);
  // Real clock spans: the shares of all layers cannot exceed the rank time
  // they were measured in.
  for (int r = 0; r < 2; ++r) {
    Span step(&tr, r, "step", Layer::Rank, 0);
    Span k(&tr, r, "apps.kernel", Layer::Apps, 0);
  }
  SpanStats st;
  st.add(tr, 1.0);
  EXPECT_DOUBLE_EQ(st.rank_seconds, 2.0);
  EXPECT_EQ(st.durations("apps.kernel").size(), 2u);
  EXPECT_EQ(st.durations("step").size(), 2u);
  EXPECT_TRUE(st.durations("absent").empty());
  double sum = 0.0;
  for (double s : st.self_s) sum += s;
  EXPECT_LT(sum, st.rank_seconds);
}

class Workloads : public ::testing::TestWithParam<const char*> {};

TEST_P(Workloads, SameSeedSameInputsAndResultsOtherSeedOtherInputs) {
  auto a = make_workload(GetParam(), 7, Size::Small);
  auto b = make_workload(GetParam(), 7, Size::Small);
  auto c = make_workload(GetParam(), 8, Size::Small);
  EXPECT_EQ(a->input_digest(), b->input_digest());
  EXPECT_NE(a->input_digest(), c->input_digest());

  a->reference();
  const Solve s1 = solve_once(*a, nullptr);
  ASSERT_EQ(s1.error, "");
  const std::uint64_t r1 = result_digest();
  const Solve s2 = solve_once(*a, nullptr);
  ASSERT_EQ(s2.error, "");
  EXPECT_EQ(result_digest(), r1);

  c->reference();
  const Solve s3 = solve_once(*c, nullptr);
  ASSERT_EQ(s3.error, "");
  EXPECT_NE(result_digest(), r1);
}

TEST_P(Workloads, SmallSmokeRunPassesChecksAndGuards) {
  auto w = make_workload(GetParam(), 1, Size::Small);
  w->reference();
  Trace tr(w->ranks());
  const Solve s = solve_once(*w, &tr);
  ASSERT_EQ(s.error, "");
  EXPECT_EQ(w->guard(s.counters), "");
  EXPECT_EQ(s.counters.get("comm.dropped"), 0u);
  EXPECT_GT(s.setup_s, 0.0);
  EXPECT_GT(s.solve_s, 0.0);
  std::size_t steps = 0;
  for (const RankRec& r : run_state().ranks) steps += r.step_ms.size();
  EXPECT_EQ(static_cast<std::int64_t>(steps), w->rank_steps());
  int step_spans = 0;
  for (int r = 0; r < tr.ranks(); ++r)
    for (const SpanRec& sp : tr.spans(r))
      if (std::string(sp.name) == "step") ++step_spans;
  EXPECT_EQ(step_spans, w->rank_steps());
}

TEST(Workloads, CheckRejectsACorruptedResult) {
  auto w = make_workload("chatter", 3, Size::Small);
  w->reference();
  const Solve s = solve_once(*w, nullptr);
  ASSERT_EQ(s.error, "");
  EXPECT_EQ(w->check(), "");
  run_state().ranks[1].digests[0] ^= 1;
  EXPECT_NE(w->check(), "");
}

INSTANTIATE_TEST_SUITE_P(All, Workloads,
                         ::testing::Values("stencil", "chatter", "mobility"));

}  // namespace
}  // namespace apvbench
