// Engine edge cases beyond pram_test.cpp: exact budget boundaries, goal
// precedence, adversary-view fidelity, and degenerate configurations.
#include <gtest/gtest.h>

#include "fault/adversaries.hpp"
#include "pram/engine.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using testing::LambdaAdversary;
using testing::LambdaProgram;

TEST(EngineEdge, ExactlyFourReadsAndTwoWritesAreLegal) {
  LambdaProgram program(
      1, 8,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        (void)ctx.read(0);
        (void)ctx.read(1);
        (void)ctx.read(2);
        (void)ctx.read(3);
        ctx.write(4, 1);
        ctx.write(5, 1);
        return false;
      },
      [](const SharedMemory& mem) { return mem.read(4) == 1; });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(engine.memory().read(5), 1);
}

TEST(EngineEdge, DependentReadsWithinOneCycle) {
  // Second read's address comes from the first read's value — the Figure 5
  // idiom the engine must support.
  LambdaProgram program(
      1, 8,
      [](Pid, std::uint64_t k, CycleContext& ctx) {
        if (k == 0) {
          ctx.write(0, 5);  // pointer
          ctx.write(5, 42);  // target
          return true;
        }
        const Word ptr = ctx.read(0);
        const Word value = ctx.read(static_cast<Addr>(ptr));
        ctx.write(1, value);
        return false;
      },
      [](const SharedMemory& mem) { return mem.read(1) == 42; });
  NoFailures none;
  Engine engine(program);
  EXPECT_TRUE(engine.run(none).goal_met);
}

TEST(EngineEdge, GoalCheckedBeforeCyclesRun) {
  // A goal that's true at slot 0 must end the run with zero work.
  LambdaProgram program(
      2, 4,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(3, 1);  // would be work, if it ever ran
        return true;
      },
      [](const SharedMemory&) { return true; });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(result.tally.completed_work, 0u);
  EXPECT_EQ(result.tally.slots, 0u);
}

TEST(EngineEdge, AdversaryViewSeesPendingWritesBeforeCommit) {
  bool saw_pending = false;
  LambdaProgram program(
      1, 4,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(2, 77);
        return false;
      },
      [](const SharedMemory& mem) { return mem.read(2) == 77; });
  LambdaAdversary adversary([&](const MachineView& view) {
    const CycleTrace& trace = view.trace(0);
    // Pending write visible in the trace; memory still shows the old value.
    saw_pending = trace.started && trace.writes.size() == 1 &&
                  trace.writes[0].addr == 2 && trace.writes[0].value == 77 &&
                  view.memory().read(2) == 0;
    return FaultDecision{};
  });
  Engine engine(program);
  EXPECT_TRUE(engine.run(adversary).goal_met);
  EXPECT_TRUE(saw_pending);
}

TEST(EngineEdge, AdversaryViewSeesReadAddresses) {
  // Read addresses reach observers through the audit hook, in program
  // order, before the adversary decides.
  struct ReadHook final : EngineAuditHook {
    std::vector<Addr> seen;
    void on_read(Pid, Addr addr) override { seen.push_back(addr); }
    void on_write(Pid, Addr, Word) override {}
    void on_snapshot(Pid) override {}
  };
  ReadHook hook;
  std::size_t seen_at_decide = 0;
  LambdaProgram program(
      1, 8,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        (void)ctx.read(6);
        (void)ctx.read(3);
        return false;
      },
      [](const SharedMemory&) { return false; });
  LambdaAdversary adversary([&](const MachineView&) {
    seen_at_decide = hook.seen.size();
    return FaultDecision{};
  });
  EngineOptions options;
  options.audit = &hook;
  Engine engine(program, options);
  const RunResult result = engine.run(adversary);
  const std::vector<Addr>& seen = hook.seen;
  EXPECT_EQ(seen_at_decide, 2u);
  EXPECT_TRUE(result.deadlock);  // the lone processor halted, goal unmet
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 6u);
  EXPECT_EQ(seen[1], 3u);
}

TEST(EngineEdge, FailAfterCycleOnHaltingProcessorActsAsFailure) {
  // A processor that wants to halt but is failed post-cycle ends up Failed
  // (restartable), not Halted: the adversary can later revive it.
  LambdaProgram program(
      2, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        if (pid == 1) {
          ctx.write(1, ctx.read(1) + 1);
          return false;  // wants to halt after one increment
        }
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(1) >= 2; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) {
      d.fail_after_cycle.push_back(1);
    } else if (view.slot() == 1) {
      d.restart.push_back(1);  // legal only if 1 is Failed, not Halted
    }
    return d;
  });
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  // Revived processor runs again and increments once more.
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(result.tally.failures, 1u);
  EXPECT_EQ(result.tally.restarts, 1u);
}

TEST(EngineEdge, EmptyCyclesCompleteAndAreCharged) {
  // A cycle with no reads and no writes is a legal update cycle (algorithm
  // V's waiting cycles) and counts as completed work.
  LambdaProgram program(
      1, 4,
      [](Pid, std::uint64_t k, CycleContext& ctx) {
        if (k == 4) ctx.write(0, 1);
        return k < 4;
      },
      [](const SharedMemory& mem) { return mem.read(0) == 1; });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(result.tally.completed_work, 5u);
}

TEST(EngineEdge, MaxSlotsZeroReturnsImmediately) {
  LambdaProgram program(1, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return true; });
  NoFailures none;
  EngineOptions options;
  options.max_slots = 0;
  Engine engine(program, options);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.slot_limit);
  EXPECT_EQ(result.tally.completed_work, 0u);
}

TEST(EngineEdge, ArbitraryModelAllowsDisagreeingWrites) {
  LambdaProgram program(
      4, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, 100 + pid);
        return false;
      },
      [](const SharedMemory& mem) { return mem.read(0) != 0; });
  NoFailures none;
  EngineOptions options;
  options.model = CrcwModel::kArbitrary;
  Engine engine(program, options);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
  const Word v = engine.memory().read(0);
  EXPECT_GE(v, 100);
  EXPECT_LE(v, 103);
}

TEST(EngineEdge, WeakCrcwAllowsOnlyDesignatedConcurrentWrites) {
  // Concurrent writes of the designated value are fine...
  LambdaProgram ones(3, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 1);
    return false;
  });
  NoFailures none;
  EngineOptions options;
  options.model = CrcwModel::kWeak;
  {
    Engine engine(ones, options);
    engine.run(none);
    EXPECT_EQ(engine.memory().read(0), 1);
  }
  // ... a lone writer may write anything ...
  LambdaProgram lone(1, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 99);
    return false;
  });
  {
    NoFailures quiet;
    Engine engine(lone, options);
    engine.run(quiet);
    EXPECT_EQ(engine.memory().read(0), 99);
  }
  // ... but concurrent non-designated writes are a violation even when
  // they agree (COMMON would allow these; WEAK does not).
  LambdaProgram sevens(2, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 7);
    return false;
  });
  {
    NoFailures quiet;
    Engine engine(sevens, options);
    EXPECT_THROW(engine.run(quiet), ModelViolation);
  }
}

TEST(EngineEdge, WriteAllRunsUnderWeakCrcw) {
  // Write-All is the canonical WEAK program: every concurrent write in V,
  // X, and VX carries the designated payload. (With a non-zero epoch the
  // designated value would be the stamped payload; standalone runs use 1.)
  EngineOptions options;
  options.model = CrcwModel::kWeak;
  RandomAdversary adversary(19, {.fail_prob = 0.15, .restart_prob = 0.6});
  const auto out = run_writeall(WriteAllAlgo::kX, {.n = 128, .p = 32},
                                adversary, options);
  EXPECT_TRUE(out.solved);
}

TEST(EngineEdge, PeakLiveTracksTheMaximum) {
  LambdaProgram program(
      3, 4,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, ctx.read(0) + 1);
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) >= 6; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) {
      d.fail_after_cycle.push_back(1);
      d.fail_after_cycle.push_back(2);  // only pid 0 lives from slot 1 on
    }
    return d;
  });
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(result.tally.peak_live, 3u);
}

TEST(EngineEdge, CommonConflictAcrossMidCycleFailureIsForgiven) {
  // Two processors write different values to one cell, but the adversary
  // kills one mid-cycle: no conflict remains to detect.
  LambdaProgram program(
      2, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, 10 + pid);
        return false;
      },
      [](const SharedMemory& mem) { return mem.read(0) == 10; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) d.fail_mid_cycle.push_back(1);
    return d;
  });
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(engine.memory().read(0), 10);
}

}  // namespace
}  // namespace rfsp
