#include <gtest/gtest.h>

#include <sstream>

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

TEST(WorkTally, MergeAccumulates) {
  WorkTally a, b;
  a.completed_work = 5;
  a.attempted_work = 6;
  a.failures = 1;
  a.slots = 10;
  a.peak_live = 3;
  b.completed_work = 7;
  b.attempted_work = 9;
  b.restarts = 2;
  b.slots = 4;
  b.peak_live = 8;
  a.merge(b);
  EXPECT_EQ(a.completed_work, 12u);
  EXPECT_EQ(a.attempted_work, 15u);
  EXPECT_EQ(a.pattern_size(), 3u);
  EXPECT_EQ(a.slots, 14u);
  EXPECT_EQ(a.peak_live, 8u);
}

TEST(WorkTally, MergeTakesPeakLiveMaxNotSum) {
  // peak_live is a maximum over slots, so merging runs keeps the larger
  // peak — summing would invent a processor count no slot ever had.
  WorkTally a, b;
  a.peak_live = 8;
  b.peak_live = 3;
  a.merge(b);
  EXPECT_EQ(a.peak_live, 8u);
  b.merge(a);
  EXPECT_EQ(b.peak_live, 8u);
}

TEST(WorkTally, MergeAccumulatesHalted) {
  WorkTally a, b;
  a.halted = 2;
  b.halted = 5;
  a.merge(b);
  EXPECT_EQ(a.halted, 7u);
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

TEST(PhaseCsv, GoldenOutput) {
  const PhaseWork phases[] = {
      {.name = "alloc", .completed_work = 10, .attempted_work = 12,
       .failures = 1, .restarts = 1, .slots = 4},
      {.name = "work", .completed_work = 20, .attempted_work = 22,
       .failures = 2, .restarts = 0, .slots = 8},
  };
  std::ostringstream os;
  write_phase_csv(os, phases);
  EXPECT_EQ(os.str(),
            "phase,completed,attempted,failures,restarts,slots\n"
            "alloc,10,12,1,1,4\n"
            "work,20,22,2,0,8\n");
}

}  // namespace
}  // namespace rfsp
