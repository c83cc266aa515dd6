#include <gtest/gtest.h>

#include <stdexcept>

#include "accounting/tally.hpp"

namespace rfsp {
namespace {

TEST(WorkTally, DefaultsToZero) {
  WorkTally t;
  EXPECT_EQ(t.completed_work, 0u);
  EXPECT_EQ(t.attempted_work, 0u);
  EXPECT_EQ(t.pattern_size(), 0u);
  EXPECT_EQ(t.slots, 0u);
}

TEST(WorkTally, PatternSizeCountsBothTags) {
  WorkTally t;
  t.failures = 3;
  t.restarts = 2;
  EXPECT_EQ(t.pattern_size(), 5u);
}

TEST(WorkTally, OverheadRatioDefinition) {
  // σ = S / (|I| + |F|), Definition 2.3(ii).
  WorkTally t;
  t.completed_work = 120;
  t.failures = 10;
  t.restarts = 10;
  EXPECT_DOUBLE_EQ(t.overhead_ratio(100), 1.0);
  EXPECT_DOUBLE_EQ(t.overhead_ratio(40), 2.0);
}

TEST(WorkTally, OverheadRatioRequiresInput) {
  WorkTally t;
  EXPECT_THROW((void)t.overhead_ratio(0), std::logic_error);
}

TEST(WorkTally, OverheadImprovesWithLargePatterns) {
  // Corollary 4.11's shape: with S fixed, σ decreases as |F| grows.
  WorkTally small;
  small.completed_work = 1000;
  small.failures = 1;
  WorkTally large = small;
  large.failures = 100000;
  EXPECT_GT(small.overhead_ratio(100), large.overhead_ratio(100));
}

TEST(WorkTally, OverheadRatioWithEmptyPattern) {
  // |F| = 0: σ degenerates to S / |I| exactly.
  WorkTally t;
  t.completed_work = 500;
  EXPECT_DOUBLE_EQ(t.overhead_ratio(100), 5.0);
  EXPECT_DOUBLE_EQ(t.overhead_ratio(500), 1.0);
}

TEST(WorkTally, OverheadRatioSmallestInput) {
  // |I| = 1 is the smallest well-defined input.
  WorkTally t;
  t.completed_work = 7;
  t.failures = 3;
  t.restarts = 3;
  EXPECT_DOUBLE_EQ(t.overhead_ratio(1), 1.0);
  WorkTally idle;
  EXPECT_DOUBLE_EQ(idle.overhead_ratio(1), 0.0);
}

}  // namespace
}  // namespace rfsp
