// Unit tests for the benchmark's own arithmetic: order statistics, span
// self time, collective skew, and payload sizing from call arguments.
#include <gtest/gtest.h>

#include <cstring>

#include "calls.h"
#include "embedder/abi.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace abi = mpiwasm::embed::abi;

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

// Expected values are Python's statistics.quantiles(v, n=4), the statistic
// the spreads of the JSON results are computed with.
TEST(Quartiles, MatchPythonExclusiveMethod) {
  Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);

  q = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);

  q = quartiles({1, 1, 2, 3, 5, 8, 13, 21, 34});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.q2, 5.0);
  EXPECT_DOUBLE_EQ(q.q3, 17.0);
}

TEST(Quartiles, TwoValuesExtrapolateLikePython) {
  const Quartiles q = quartiles({3.5, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.375);
  EXPECT_DOUBLE_EQ(q.q2, 2.25);
  EXPECT_DOUBLE_EQ(q.q3, 4.125);
}

TEST(Quartiles, SingleValueAndEmpty) {
  const Quartiles one = quartiles({7});
  EXPECT_DOUBLE_EQ(one.q1, 7);
  EXPECT_DOUBLE_EQ(one.q3, 7);
  const Quartiles none = quartiles({});
  EXPECT_DOUBLE_EQ(none.q2, 0);
}

TEST(Geomean, OfPositiveValues) {
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4);
  EXPECT_NEAR(geomean({1, 10, 100}), 10, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 50), 3);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 0), 1);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(SelfTime, DisjointChildren) {
  EXPECT_EQ(self_ns({0, 100}, {{10, 20}, {30, 50}}), 70u);
}

TEST(SelfTime, OverlappingAndNestedChildrenCountOnce) {
  // [10,40) and [30,60) overlap on [30,40); [35,45) is nested in their union.
  EXPECT_EQ(covered_ns({0, 100}, {{30, 60}, {10, 40}, {35, 45}}), 50u);
  EXPECT_EQ(self_ns({0, 100}, {{30, 60}, {10, 40}, {35, 45}}), 50u);
  // A child equal to another and a touching child.
  EXPECT_EQ(covered_ns({0, 100}, {{10, 20}, {10, 20}, {20, 25}}), 15u);
}

TEST(SelfTime, ChildrenAreClippedToTheSpan) {
  EXPECT_EQ(covered_ns({100, 200}, {{50, 120}, {190, 250}, {300, 400}}), 30u);
  EXPECT_EQ(self_ns({100, 200}, {{50, 120}, {190, 250}}), 70u);
}

TEST(SelfTime, NoChildrenOrEmptySpan) {
  EXPECT_EQ(self_ns({5, 25}, {}), 20u);
  EXPECT_EQ(self_ns({25, 25}, {{0, 100}}), 0u);
  EXPECT_EQ(covered_ns({0, 100}, {{40, 40}}), 0u);
}

TEST(CollectiveWait, LastArrivalSetsTheStart) {
  // Three ranks, two collectives. Call 0: ranks enter at 0, 10, 30 and all
  // leave at 40. Call 1: ranks enter at 100, 100, 105 and leave at 110.
  const std::vector<std::vector<Interval>> calls = {
      {{0, 40}, {100, 110}},
      {{10, 40}, {100, 110}},
      {{30, 40}, {105, 110}},
  };
  const std::vector<std::uint64_t> wait = collective_wait_ns(calls);
  ASSERT_EQ(wait.size(), 3u);
  EXPECT_EQ(wait[0], 30u + 5u);
  EXPECT_EQ(wait[1], 20u + 5u);
  EXPECT_EQ(wait[2], 0u + 0u);
}

TEST(CollectiveWait, CappedAtTheRanksOwnCall) {
  // A root that enters a broadcast first and leaves before the last rank
  // arrives waited only as long as its call lasted.
  const std::vector<std::vector<Interval>> calls = {
      {{0, 5}},
      {{50, 60}},
  };
  const std::vector<std::uint64_t> wait = collective_wait_ns(calls);
  EXPECT_EQ(wait[0], 5u);
  EXPECT_EQ(wait[1], 0u);
}

TEST(CollectiveWait, UnevenListsMatchTheCommonPrefix) {
  const std::vector<std::vector<Interval>> calls = {
      {{0, 10}, {20, 30}},
      {{4, 10}},
  };
  const std::vector<std::uint64_t> wait = collective_wait_ns(calls);
  EXPECT_EQ(wait[0], 4u);
  EXPECT_EQ(wait[1], 0u);
  EXPECT_TRUE(collective_wait_ns({}).empty());
}

TEST(PayloadBytes, CountTimesDatatypeSize) {
  // MPI_Allreduce(sbuf, rbuf, count=3, MPI_DOUBLE, MPI_SUM, comm)
  const std::int32_t args[] = {0, 0, 3, abi::MPI_DOUBLE, abi::MPI_SUM, 0};
  const CallShape s = call_shape("MPI_Allreduce");
  EXPECT_EQ(payload_bytes(s, args, 4, nullptr), 24u);
  EXPECT_EQ(s.comm_arg, 5);
}

TEST(PayloadBytes, AlltoallCountsEveryDestinationBlock) {
  // MPI_Alltoall(sbuf, scount=2, MPI_INT, rbuf, rcount, rtype, comm)
  const std::int32_t args[] = {0, 2, abi::MPI_INT, 0, 2, abi::MPI_INT, 0};
  EXPECT_EQ(payload_bytes(call_shape("MPI_Alltoall"), args, 4, nullptr), 32u);
}

TEST(PayloadBytes, AlltoallvSumsTheSendCountArray) {
  const std::int32_t counts[] = {1, 0, 5, 2};
  auto load = [&](std::uint32_t addr) {
    return counts[(addr - 64) / 4];
  };
  // MPI_Alltoallv(sbuf, scounts=64, sdispls, MPI_INT, ...)
  const std::int32_t args[] = {0, 64, 0, abi::MPI_INT, 0, 0, 0, 0, 0};
  EXPECT_EQ(payload_bytes(call_shape("MPI_Alltoallv"), args, 4, load), 32u);
}

TEST(PayloadBytes, CallsWithoutPayload) {
  const CallShape barrier = call_shape("MPI_Barrier");
  EXPECT_LT(barrier.count_arg, 0);
  EXPECT_EQ(barrier.comm_arg, 0);
  const CallShape wtime = call_shape("MPI_Wtime");
  EXPECT_LT(wtime.count_arg, 0);
  EXPECT_LT(wtime.comm_arg, 0);
  const std::int32_t args[] = {0};
  EXPECT_EQ(payload_bytes(wtime, args, 4, nullptr), 0u);
}

}  // namespace
}  // namespace perfbench
