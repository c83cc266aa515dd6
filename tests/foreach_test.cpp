// The for_each_resilient / map_resilient public API: arbitrary idempotent
// task sets completing under failures, on every eligible algorithm.
#include <gtest/gtest.h>

#include "fault/adversaries.hpp"
#include "fault/iteration_killer.hpp"
#include "util/error.hpp"
#include "writeall/algv.hpp"
#include "writeall/foreach.hpp"

namespace rfsp {
namespace {

TEST(MapResilient, ComputesPureFunctionFaultFree) {
  NoFailures none;
  const auto r = map_resilient(
      100, [](Addr i) { return static_cast<Word>(i * i); }, none,
      {.processors = 8});
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.user_memory.size(), 100u);
  for (Addr i = 0; i < 100; ++i) {
    EXPECT_EQ(r.user_memory[i], static_cast<Word>(i * i));
  }
}

TEST(MapResilient, SurvivesRestartStorms) {
  for (WriteAllAlgo algo :
       {WriteAllAlgo::kCombinedVX, WriteAllAlgo::kX, WriteAllAlgo::kV}) {
    RandomAdversary adversary(31, {.fail_prob = 0.15, .restart_prob = 0.6});
    const auto r = map_resilient(
        257, [](Addr i) { return static_cast<Word>(3 * i + 7); }, adversary,
        {.processors = 16, .algo = algo});
    ASSERT_TRUE(r.completed) << to_string(algo);
    for (Addr i = 0; i < 257; ++i) {
      ASSERT_EQ(r.user_memory[i], static_cast<Word>(3 * i + 7))
          << to_string(algo) << " i=" << i;
    }
    EXPECT_GT(r.tally.pattern_size(), 0u) << to_string(algo);
  }
}

TEST(MapResilient, SingleTaskSingleProcessor) {
  NoFailures none;
  const auto r = map_resilient(1, [](Addr) { return Word{9}; }, none,
                               {.processors = 1});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.user_memory[0], 9);
}

TEST(ForEachResilient, MultiCycleTasksWithInit) {
  // Tasks that seed their input, read it back in a later cycle and write
  // two output cells over three micro-cycles: in[i] = 10 + i, then
  // out[i] = in[i] + 1, aux[i] = 2 * in[i].
  constexpr Addr kN = 64;
  class SeedingTask final : public TaskSpec {
   public:
    unsigned cycles_per_task() const override { return 3; }
    std::size_t scratch_words() const override { return 1; }
    void run(CycleContext& ctx, Addr i, unsigned k,
             std::span<Word> scratch) const override {
      if (k == 0) {
        // The seed: in[i] lives at user base 0. Every attempt writes the
        // same value, so re-executions are idempotent.
        ctx.write(i, static_cast<Word>(10 + i));
      } else if (k == 1) {
        // Reads see the slot-start memory, which holds this attempt's seed:
        // a restarted attempt re-runs k = 0 first.
        scratch[0] = ctx.read(i);
        ctx.write(kN + i, scratch[0] + 1);
      } else {
        // scratch persists within an attempt.
        ctx.write(2 * kN + i, 2 * scratch[0]);
      }
    }
  };

  ForEachOptions options;
  options.processors = 8;
  options.user_memory = 3 * kN;
  const SeedingTask task;
  RandomAdversary adversary(77, {.fail_prob = 0.1, .restart_prob = 0.5});
  const auto r = for_each_resilient(kN, task, adversary, options);
  ASSERT_TRUE(r.completed);
  for (Addr i = 0; i < kN; ++i) {
    EXPECT_EQ(r.user_memory[i], static_cast<Word>(10 + i));
    EXPECT_EQ(r.user_memory[kN + i], static_cast<Word>(11 + i));
    EXPECT_EQ(r.user_memory[2 * kN + i], static_cast<Word>(2 * (10 + i)));
  }
}

TEST(ForEachResilient, RejectsNonFaultTolerantDistributors) {
  NoFailures none;
  EXPECT_THROW(map_resilient(8, [](Addr) { return Word{1}; }, none,
                             {.processors = 2,
                              .algo = WriteAllAlgo::kTrivial}),
               ConfigError);
}

TEST(ForEachResilient, CompletesUnderTheIterationKiller) {
  // Even the V-stalling pattern cannot stop the default (combined VX)
  // distributor.
  const Addr n = 64;
  const Pid p = 8;
  const VLayout probe(0, n, n, p, /*task cycles for map=*/1);
  IterationKiller killer(2 * probe.iteration);
  const auto r = map_resilient(
      n, [](Addr i) { return static_cast<Word>(i + 1); }, killer,
      {.processors = p});
  ASSERT_TRUE(r.completed);
  for (Addr i = 0; i < n; ++i) {
    EXPECT_EQ(r.user_memory[i], static_cast<Word>(i + 1));
  }
}

}  // namespace
}  // namespace rfsp
