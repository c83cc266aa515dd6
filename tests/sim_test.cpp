// The Theorem 4.1 executor: simulated programs must produce exactly the
// reference synchronous-PRAM result under every adversary, for every inner
// Write-All algorithm, with fewer physical than simulated processors.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "programs/chain.hpp"
#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rfsp {
namespace {

std::vector<Word> random_values(std::size_t n, std::uint64_t seed,
                                Word bound) {
  Rng rng(seed);
  std::vector<Word> v(n);
  for (auto& w : v) w = static_cast<Word>(rng.below(bound));
  return v;
}

TEST(SimLayout, RegionsAreDisjointAndOrdered) {
  PrefixSumProgram program(random_values(40, 1, 1000));
  const SimLayout layout(program, 8);
  EXPECT_EQ(layout.data, 0u);
  EXPECT_EQ(layout.regs, layout.data_cells);
  EXPECT_GE(layout.scratch, layout.regs);  // equal when registers() == 0
  EXPECT_GT(layout.phase, layout.scratch);
  EXPECT_GT(layout.total, layout.phase);
  EXPECT_EQ(layout.wa_compute.aux_end(), layout.wa_commit.aux_end());
  EXPECT_GT(layout.compute_cycles, layout.commit_cycles);
}

TEST(SimLayout, RejectsBadProcessorCounts) {
  PrefixSumProgram program(random_values(8, 1, 10));
  EXPECT_THROW(SimLayout(program, 9), ConfigError);  // P > N
}

TEST(PhaseWord, PackUnpack) {
  const Word w = phase_encode(77, 123456789);
  EXPECT_EQ(phase_pass(w), 77u);
  EXPECT_EQ(phase_start(w), 123456789u);
  EXPECT_EQ(phase_pass(0), 0u);
  EXPECT_EQ(phase_start(0), 0u);
}

TEST(ReferenceRun, MatchesClosedForms) {
  {
    PrefixSumProgram program({1, 2, 3, 4, 5});
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    MaxReduceProgram program({5, 17, 3, 42, 9, 41});
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    OddEvenSortProgram program({9, 1, 8, 2, 7, 3, 6});
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    ListRankingProgram program({1, 2, 3, 3});  // chain 0→1→2→3, tail 3
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
  {
    MatMulProgram program({1, 2, 3, 4}, {5, 6, 7, 8}, 2);
    EXPECT_TRUE(program.verify(reference_run(program)));
  }
}

TEST(Simulate, FaultFreeMatchesReference) {
  PrefixSumProgram program(random_values(64, 2, 100));
  NoFailures none;
  const SimResult result = simulate(program, none);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.memory, reference_run(program));
  EXPECT_TRUE(program.verify(result.memory));
  EXPECT_EQ(result.passes, 2 * program.steps());
}

TEST(Simulate, FewerPhysicalProcessors) {
  PrefixSumProgram program(random_values(64, 3, 100));
  for (Pid p : {Pid{1}, Pid{5}, Pid{16}, Pid{64}}) {
    NoFailures none;
    const SimResult result =
        simulate(program, none, {.physical_processors = p});
    ASSERT_TRUE(result.completed) << "p=" << p;
    EXPECT_TRUE(program.verify(result.memory)) << "p=" << p;
  }
}

struct SimCase {
  const char* label;
  SimInner inner;
};

// Print the label, not the raw bytes: the default 16-byte dump carries the
// label's load address, which differs from build to build and would leak
// into the names test discovery registers.
void PrintTo(const SimCase& c, std::ostream* os) { *os << c.label; }

class SimInnerSuite : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimInnerSuite, AllProgramsUnderRandomRestarts) {
  const SimCase c = GetParam();
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.08;
  opt.restart_prob = 0.5;

  {
    PrefixSumProgram program(random_values(48, 4, 100));
    RandomAdversary adversary(71, opt);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 16, .inner = c.inner});
    ASSERT_TRUE(r.completed) << c.label;
    EXPECT_TRUE(program.verify(r.memory)) << c.label;
    EXPECT_GT(r.tally.pattern_size(), 0u);
  }
  {
    MaxReduceProgram program(random_values(37, 5, 1000));
    RandomAdversary adversary(72, opt);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 9, .inner = c.inner});
    ASSERT_TRUE(r.completed) << c.label;
    EXPECT_TRUE(program.verify(r.memory)) << c.label;
  }
  {
    OddEvenSortProgram program(random_values(24, 6, 50));
    RandomAdversary adversary(73, opt);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 24, .inner = c.inner});
    ASSERT_TRUE(r.completed) << c.label;
    EXPECT_TRUE(program.verify(r.memory)) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inners, SimInnerSuite,
    ::testing::Values(SimCase{"VX", SimInner::kCombinedVX},
                      SimCase{"X", SimInner::kX},
                      SimCase{"V", SimInner::kV}),
    [](const ::testing::TestParamInfo<SimCase>& info) {
      return std::string(info.param.label);
    });

TEST(Simulate, ListRankingUnderRandomRestarts) {
  // A longer dependency chain: ranks double-propagate through memory each
  // step, so any stale or lost write would corrupt the result.
  std::vector<Pid> next(33);
  for (Pid j = 0; j + 1 < next.size(); ++j) next[j] = j + 1;
  next.back() = static_cast<Pid>(next.size() - 1);
  ListRankingProgram program(next);
  RandomAdversary adversary(74, {.fail_prob = 0.1, .restart_prob = 0.6});
  const SimResult r = simulate(program, adversary, {.physical_processors = 11});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_EQ(r.memory, reference_run(program));
}

TEST(Simulate, MatMulWithRegistersUnderRandomRestarts) {
  // Registers live in simulated memory: losing a physical processor must
  // never lose a simulated accumulator.
  MatMulProgram program(random_values(36, 7, 10), random_values(36, 8, 10),
                        6);
  RandomAdversary adversary(75, {.fail_prob = 0.12, .restart_prob = 0.5});
  const SimResult r = simulate(program, adversary, {.physical_processors = 12});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
}

TEST(Simulate, DeterministicGivenSeedAndPattern) {
  PrefixSumProgram program(random_values(32, 9, 100));
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.15;
  opt.restart_prob = 0.5;
  RandomAdversary a1(55, opt), a2(55, opt);
  const SimResult r1 = simulate(program, a1, {.physical_processors = 8});
  const SimResult r2 = simulate(program, a2, {.physical_processors = 8});
  EXPECT_EQ(r1.tally.completed_work, r2.tally.completed_work);
  EXPECT_EQ(r1.memory, r2.memory);
}

TEST(Simulate, BurstStormEveryFewSlots) {
  OddEvenSortProgram program(random_values(16, 10, 30));
  BurstAdversary adversary({.period = 3, .count = 5});
  const SimResult r = simulate(program, adversary, {.physical_processors = 16});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_GT(r.tally.failures, 0u);
}

TEST(Simulate, SingleSimulatedProcessor) {
  // Degenerate N = 1: one task per pass, one physical processor.
  PrefixSumProgram program({41});
  NoFailures none;
  const SimResult r = simulate(program, none, {.physical_processors = 1});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.memory[0], 41);
}

TEST(Simulate, BitonicSortUnderRestartStorm) {
  BitonicSortProgram program(random_values(32, 13, 500));
  ASSERT_EQ(program.steps(), 15u);  // log²-ish schedule: Σ k for k=1..5
  RandomAdversary adversary(82, {.fail_prob = 0.1, .restart_prob = 0.5});
  const SimResult r =
      simulate(program, adversary, {.physical_processors = 8});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_EQ(r.memory, reference_run(program));
}

TEST(ReferenceRun, BitonicMatchesStdSort) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    BitonicSortProgram program(random_values(64, seed, 10000));
    EXPECT_TRUE(program.verify(reference_run(program))) << seed;
  }
}

TEST(Simulate, StencilUnderRestartStorm) {
  std::vector<Word> rod(40, 0);
  rod[0] = 1000;               // hot left boundary
  rod[rod.size() - 1] = 200;   // warm right boundary
  StencilProgram program(rod, /*rounds=*/25);
  RandomAdversary adversary(81, {.fail_prob = 0.1, .restart_prob = 0.5});
  const SimResult r = simulate(program, adversary, {.physical_processors = 10});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
  EXPECT_EQ(r.memory, reference_run(program));
}

TEST(Simulate, UnderThePostOrderStalker) {
  // The Theorem 4.8 adversary aimed at the simulator's embedded X half:
  // expensive, but the simulation still completes correctly.
  PrefixSumProgram program(random_values(32, 12, 50));
  const SimLayout layout(program, 32);
  PostOrderStalker stalker(layout.wa_compute.x);
  // The stalker decodes cells as a standalone (epoch 0) run stamps them,
  // and epoch stamps rotate per pass, so it sees positions only during
  // pass 0. That still exercises hostile interference; correctness must
  // hold.
  const SimResult r = simulate(program, stalker, {.physical_processors = 32});
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(program.verify(r.memory));
}

TEST(ReferenceRun, DetectsSimulatedCommonViolations) {
  // A program whose step writes different values to one cell must be
  // rejected by the reference executor (and would trip the engine's COMMON
  // check under simulation).
  class Conflicting final : public SimProgram {
   public:
    std::string_view name() const override { return "conflicting"; }
    Pid processors() const override { return 2; }
    Addr memory_cells() const override { return 2; }
    Step steps() const override { return 1; }
    void step(StepContext& ctx, Pid j, Step) const override {
      ctx.store(0, static_cast<Word>(j + 1));  // 1 vs 2 into cell 0
    }
    unsigned registers() const override { return 0; }
  };
  const Conflicting program;
  EXPECT_THROW((void)reference_run(program), std::logic_error);
}

TEST(Simulate, ChainedSortThenScanUnderFaults) {
  // Sort random keys, then compute prefix sums of the sorted array — a
  // two-phase application run end-to-end on the faulty machine.
  const std::vector<Word> keys = random_values(32, 14, 100);
  OddEvenSortProgram sorter(keys);
  PrefixSumProgram scanner(keys);  // same size; structure-only reuse
  ChainedProgram chain(sorter, scanner);
  ASSERT_EQ(chain.steps(), sorter.steps() + scanner.steps());

  RandomAdversary adversary(83, {.fail_prob = 0.1, .restart_prob = 0.5});
  const SimResult r = simulate(chain, adversary, {.physical_processors = 8});
  ASSERT_TRUE(r.completed);

  // Expected: prefix sums over the sorted keys.
  std::vector<Word> expected = keys;
  std::sort(expected.begin(), expected.end());
  Word acc = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    acc = sim_word(acc + expected[i]);
    EXPECT_EQ(r.memory[i], acc) << "i=" << i;
  }
  EXPECT_EQ(r.memory, reference_run(chain));
}

TEST(Simulate, ChainValidation) {
  PrefixSumProgram small(random_values(8, 1, 10));
  PrefixSumProgram large(random_values(16, 1, 10));
  EXPECT_THROW(ChainedProgram chain(small, large), ConfigError);
}

TEST(Simulate, LoadBudgetViolationIsReported) {
  // A program that under-declares its load budget must be rejected loudly,
  // not silently miscomputed.
  class Greedy final : public SimProgram {
   public:
    std::string_view name() const override { return "greedy"; }
    Pid processors() const override { return 2; }
    Addr memory_cells() const override { return 8; }
    Step steps() const override { return 1; }
    void step(StepContext& ctx, Pid, Step) const override {
      Word sum = 0;
      for (Addr a = 0; a < 8; ++a) sum += ctx.load(a);  // 8 loads
      ctx.store(0, sum);
    }
    unsigned max_loads() const override { return 2; }  // lies
    unsigned max_stores() const override { return 1; }
    unsigned registers() const override { return 0; }
  };
  Greedy program;
  NoFailures none;
  EXPECT_THROW(simulate(program, none), ConfigError);
}

TEST(Simulate, StoreBudgetViolationIsReported) {
  // Three distinct stores against a budget of max_stores + registers = 1.
  class Scribbler final : public SimProgram {
   public:
    std::string_view name() const override { return "scribbler"; }
    Pid processors() const override { return 2; }
    Addr memory_cells() const override { return 8; }
    Step steps() const override { return 1; }
    void step(StepContext& ctx, Pid j, Step) const override {
      for (Addr a = 0; a < 3; ++a) ctx.store(4 * j + a, a + 1);
    }
    unsigned max_stores() const override { return 1; }  // lies
    unsigned registers() const override { return 0; }
  };
  Scribbler program;
  NoFailures none;
  EXPECT_THROW(simulate(program, none), ConfigError);
}

TEST(Simulate, OutOfRangeLoadBeforeAMissThrows) {
  // Out of range on the first load, before anything was fetched.
  class Overreach final : public SimProgram {
   public:
    std::string_view name() const override { return "overreach"; }
    Pid processors() const override { return 1; }
    Addr memory_cells() const override { return 4; }
    Step steps() const override { return 1; }
    void step(StepContext& ctx, Pid, Step) const override {
      ctx.store(0, ctx.load(memory_cells()));
    }
    unsigned registers() const override { return 0; }
  };
  // Out of range on a load computed from a real, fetched value: the replay
  // that first reads cell 0 runs past the bad index on a fabricated 0, the
  // next one reaches it with the real value and must throw.
  class Indirect final : public SimProgram {
   public:
    std::string_view name() const override { return "indirect"; }
    Pid processors() const override { return 1; }
    Addr memory_cells() const override { return 4; }
    Step steps() const override { return 1; }
    void init(std::span<Word> memory) const override { memory[0] = 7; }
    void step(StepContext& ctx, Pid, Step) const override {
      ctx.store(1, ctx.load(ctx.load(0) + 1));
    }
    unsigned registers() const override { return 0; }
  };
  NoFailures none;
  EXPECT_THROW(simulate(Overreach(), none), std::logic_error);
  NoFailures again;
  EXPECT_THROW(simulate(Indirect(), again), std::logic_error);
}

// Every real run of this step is well-defined, but a replay that has missed
// sees fabricated zeros: the check on `v` fails, the indirect load goes out
// of range, and the scan for a non-zero cell never ends.
class FragileProgram final : public SimProgram {
 public:
  static constexpr Pid kN = 6;
  static constexpr Addr kVals = 0;          // kN non-zero values
  static constexpr Addr kPtr = kVals + kN;  // kPtr[j] = 1 + a kVals index
  static constexpr Addr kScan = kPtr + kN;  // non-zero iff index % 3 == 2
  static constexpr Addr kOut = kScan + kN + 3;

  std::string_view name() const override { return "fragile"; }
  Pid processors() const override { return kN; }
  Addr memory_cells() const override { return kOut + kN; }
  Step steps() const override { return 3; }
  void init(std::span<Word> memory) const override {
    for (Pid j = 0; j < kN; ++j) {
      memory[kVals + j] = 10 + 3 * j;
      memory[kPtr + j] = 1 + (j + 1) % kN;
    }
    for (Addr k = 0; k < kN + 3; ++k) memory[kScan + k] = k % 3 == 2;
  }
  void step(StepContext& ctx, Pid j, Step t) const override {
    const Word v = ctx.load(kVals + j);
    RFSP_CHECK_MSG(v != 0, "values are non-zero");
    const Word w = ctx.load(ctx.load(kPtr + j) - 1);
    Addr a = kScan + j;
    while (ctx.load(a) == 0) ++a;  // at most two zeros before a hit
    ctx.store(kOut + j, v * w + (a - kScan) + t);
  }
  unsigned max_loads() const override { return 6; }
  unsigned max_stores() const override { return 1; }
  unsigned registers() const override { return 0; }
};

TEST(Simulate, ReplayAfterMissIsDiscarded) {
  // The executor must discard the outcome of every missed replay of
  // FragileProgram — a throw, an out-of-range load, an endless scan — and
  // still reproduce the reference.
  const FragileProgram program;
  const std::vector<Word> expected = reference_run(program);
  for (const std::uint64_t seed : {1, 2, 3}) {
    RandomAdversary adversary(seed, {.fail_prob = 0.1, .restart_prob = 0.5});
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 4});
    ASSERT_TRUE(r.completed) << "seed " << seed;
    EXPECT_EQ(r.memory, expected) << "seed " << seed;
  }
}

TEST(Simulate, GoldenTallyUnderRandomFaults) {
  // The two instances of rfsp-bench's sim-executor job at seed 1. Their
  // tallies pin the executor's schedule: a change to how a step's read set
  // is discovered must leave every figure untouched.
  const RandomAdversaryOptions faults{.fail_prob = 0.05, .restart_prob = 0.5};
  const auto run = [&](const SimProgram& program, Pid p) {
    RandomAdversary adversary(1 ^ 0xadde, faults);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = p});
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.memory, reference_run(program));
    return r.tally;
  };
  const WorkTally prefix =
      run(PrefixSumProgram(random_values(256, 1, 1000)), 33);
  EXPECT_EQ(prefix.completed_work, 240926u);
  EXPECT_EQ(prefix.attempted_work, 253523u);
  EXPECT_EQ(prefix.failures, 12597u);
  EXPECT_EQ(prefix.restarts, 12594u);
  EXPECT_EQ(prefix.slots, 8446u);
  const WorkTally bitonic =
      run(BitonicSortProgram(random_values(64, 1, 10000)), 9);
  EXPECT_EQ(bitonic.completed_work, 121933u);
  EXPECT_EQ(bitonic.attempted_work, 128388u);
  EXPECT_EQ(bitonic.failures, 6455u);
  EXPECT_EQ(bitonic.restarts, 6454u);
  EXPECT_EQ(bitonic.slots, 15714u);
}

}  // namespace
}  // namespace rfsp
