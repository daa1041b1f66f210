// Tests for the bounded FIFO used by all windowed estimators.
#include "common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tscclock {
namespace {

TEST(RingBuffer, PushAndIndex) {
  RingBuffer<int> rb(3);
  rb.push_back(1);
  rb.push_back(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb[0], 1);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb.front(), 1);
  EXPECT_EQ(rb.back(), 2);
}

TEST(RingBuffer, EvictsOldestAtCapacity) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push_back(i);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 3);
  EXPECT_EQ(rb.back(), 5);
}

TEST(RingBuffer, ContractsOnEmptyAccess) {
  RingBuffer<int> rb(2);
  EXPECT_THROW((void)rb.front(), ContractViolation);
  EXPECT_THROW((void)rb.back(), ContractViolation);
  EXPECT_THROW((void)rb[0], ContractViolation);
}

TEST(RingBuffer, RefusesZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), ContractViolation);
}

TEST(RingBuffer, IterationInOrder) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 6; ++i) rb.push_back(i);  // holds 3..6
  int expected = 3;
  for (int v : rb) EXPECT_EQ(v, expected++);
}

TEST(RingBuffer, MutableAccess) {
  RingBuffer<std::string> rb(2);
  rb.push_back("a");
  rb[0] = "b";
  EXPECT_EQ(rb.front(), "b");
  rb.back() = "c";
  EXPECT_EQ(rb[0], "c");
}

TEST(RingBuffer, ClearEmpties) {
  RingBuffer<int> rb(2);
  rb.push_back(1);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
}

}  // namespace
}  // namespace tscclock
