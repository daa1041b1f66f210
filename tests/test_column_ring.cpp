// Tests for the column ring that holds every estimator window.
#include "common/column_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace tscclock {
namespace {

/// Every row of column C, oldest first, read through the ring's runs.
template <std::size_t C, typename Ring>
auto through_runs(const Ring& ring, std::size_t* run_count = nullptr) {
  std::vector<typename Ring::template Column<C>> rows;
  std::size_t runs = 0;
  for (std::size_t k = 0; k < ring.size(); ++runs) {
    const auto run = ring.template run<C>(k);
    EXPECT_FALSE(run.empty());
    rows.insert(rows.end(), run.begin(), run.end());
    k += run.size();
  }
  if (run_count != nullptr) *run_count = runs;
  return rows;
}

TEST(ColumnRing, PushAndIndex) {
  ColumnRing<int> ring(3);
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at<0>(0), 1);
  EXPECT_EQ(ring.at<0>(1), 2);
}

TEST(ColumnRing, EvictsOldestAtCapacity) {
  ColumnRing<int> ring(3);
  for (int i = 1; i <= 5; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.at<0>(0), 3);
  EXPECT_EQ(ring.at<0>(2), 5);
}

TEST(ColumnRing, ColumnsStayInLockstep) {
  ColumnRing<std::uint64_t, double> ring(5);
  for (std::uint64_t i = 0; i < 23; ++i)
    ring.push(i, 0.5 * static_cast<double>(i));
  ASSERT_EQ(ring.size(), 5u);
  for (std::size_t k = 0; k < ring.size(); ++k) {
    EXPECT_EQ(ring.at<0>(k), 18 + k);
    EXPECT_EQ(ring.at<1>(k), 0.5 * static_cast<double>(18 + k));
  }
}

TEST(ColumnRing, ReadsInOrderByIndexAndByRuns) {
  // Capacities below, at and above a power of two, and past the first
  // growth step, each read after every push: the index reads and the runs
  // give the same rows, oldest first, in at most two runs.
  for (const std::size_t capacity : {1u, 3u, 4u, 5u, 8u, 9u, 20u}) {
    SCOPED_TRACE(capacity);
    ColumnRing<int> ring(capacity);
    std::vector<int> expected;
    for (int i = 0; i < 50; ++i) {
      ring.push(i);
      expected.push_back(i);
      if (expected.size() > capacity) expected.erase(expected.begin());
      std::vector<int> by_index;
      for (std::size_t k = 0; k < ring.size(); ++k)
        by_index.push_back(ring.at<0>(k));
      std::size_t runs = 0;
      EXPECT_EQ(by_index, expected);
      EXPECT_EQ(through_runs<0>(ring, &runs), expected);
      EXPECT_LE(runs, 2u);
    }
  }
}

TEST(ColumnRing, RunStartsAtAnyRow) {
  ColumnRing<int> ring(6);
  for (int i = 0; i < 11; ++i) ring.push(i);  // holds 5..10
  for (std::size_t first = 0; first < ring.size(); ++first) {
    const auto run = ring.run<0>(first);
    ASSERT_FALSE(run.empty());
    EXPECT_LE(first + run.size(), ring.size());
    for (std::size_t r = 0; r < run.size(); ++r)
      EXPECT_EQ(run[r], ring.at<0>(first + r));
  }
}

TEST(ColumnRing, MutableAccess) {
  ColumnRing<int, double> ring(2);
  ring.push(1, 1.5);
  ring.at<0>(0) = 7;
  ring.at<1>(0) = 2.5;
  EXPECT_EQ(ring.at<0>(0), 7);
  EXPECT_EQ(ring.at<1>(0), 2.5);
  ring.push(2, 3.5);
  ring.push(3, 4.5);  // evicts the edited row
  EXPECT_EQ(ring.at<0>(0), 2);
  EXPECT_EQ(ring.at<1>(1), 4.5);
}

TEST(ColumnRing, ClearEmptiesAndRefills) {
  ColumnRing<int> ring(4);
  for (int i = 0; i < 6; ++i) ring.push(i);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 10; i < 16; ++i) ring.push(i);
  EXPECT_EQ(through_runs<0>(ring), (std::vector<int>{12, 13, 14, 15}));
}

TEST(ColumnRing, ContractsOnEmptyAccess) {
  ColumnRing<int> ring(2);
  EXPECT_THROW((void)ring.at<0>(0), ContractViolation);
  EXPECT_THROW((void)ring.run<0>(0), ContractViolation);
  ring.push(1);
  EXPECT_THROW((void)ring.at<0>(1), ContractViolation);
  EXPECT_THROW((void)ring.run<0>(1), ContractViolation);
  ring.clear();
  EXPECT_THROW((void)ring.at<0>(0), ContractViolation);
}

TEST(ColumnRing, RefusesZeroCapacity) {
  EXPECT_THROW(ColumnRing<int>(0), ContractViolation);
}

}  // namespace
}  // namespace tscclock
