// Engine semantics: the machine model of §2.1 — update-cycle budgets,
// synchronous read/commit, CRCW conflict rules, failure/restart mechanics,
// accounting, and adversary validation.
#include <gtest/gtest.h>

#include "analysis/audit.hpp"
#include "fault/adversaries.hpp"
#include "obs/trace.hpp"
#include "pram/engine.hpp"
#include "pram/memory.hpp"
#include "replay/schedule.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace rfsp {
namespace {

using testing::LambdaAdversary;
using testing::LambdaProgram;

TEST(SharedMemory, StartsCleared) {
  SharedMemory mem(16);
  for (Addr a = 0; a < 16; ++a) EXPECT_EQ(mem.read(a), 0);
}

TEST(SharedMemory, ReadWriteRoundTrip) {
  SharedMemory mem(4);
  mem.write(2, 99);
  EXPECT_EQ(mem.read(2), 99);
}

TEST(SharedMemory, OutOfBoundsThrows) {
  SharedMemory mem(4);
  EXPECT_THROW((void)mem.read(4), std::logic_error);
  EXPECT_THROW(mem.write(5, 1), std::logic_error);
}

TEST(SharedMemory, ZeroSizeRejected) {
  EXPECT_THROW(SharedMemory mem(0), std::logic_error);
}

// ---------------------------------------------------------------------------
// Budgets and snapshot gating

TEST(Engine, ReadBudgetEnforced) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    for (int i = 0; i < 5; ++i) (void)ctx.read(0);  // 5th read over budget
    return true;
  });
  NoFailures none;
  Engine engine(program);
  EXPECT_THROW(engine.run(none), ModelViolation);
}

TEST(Engine, WriteBudgetEnforced) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 1);
    ctx.write(1, 1);
    ctx.write(2, 1);  // 3rd write over budget
    return true;
  });
  NoFailures none;
  Engine engine(program);
  EXPECT_THROW(engine.run(none), ModelViolation);
}

TEST(Engine, SnapshotRequiresStrongModel) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    (void)ctx.snapshot();
    return false;
  });
  NoFailures none;
  Engine engine(program);  // snapshot mode off by default
  EXPECT_THROW(engine.run(none), ModelViolation);
}

TEST(Engine, SnapshotAllowedInStrongModel) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    auto words = ctx.snapshot();
    EXPECT_EQ(words.size(), 8u);
    return false;
  });
  NoFailures none;
  EngineOptions options;
  options.unit_cost_snapshot = true;
  Engine engine(program, options);
  const RunResult result = engine.run(none);
  EXPECT_EQ(result.tally.completed_work, 1u);
}

TEST(Engine, SnapshotExcludesOtherReads) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    (void)ctx.snapshot();
    (void)ctx.read(0);  // a snapshot consumes the whole read budget
    return false;
  });
  NoFailures none;
  EngineOptions options;
  options.unit_cost_snapshot = true;
  Engine engine(program, options);
  EXPECT_THROW(engine.run(none), ModelViolation);
}

// ---------------------------------------------------------------------------
// Synchronous semantics: reads see slot-start memory; writes commit at end.

TEST(Engine, ReadsSeeSlotStartValues) {
  // Both processors read cell 0 then write it +1. Under synchronous
  // semantics both read the same value each slot, so after k slots the cell
  // holds k, not 2k.
  LambdaProgram program(
      2, 4,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        const Word v = ctx.read(0);
        ctx.write(0, v + 1);
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) >= 5; });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(engine.memory().read(0), 5);
  EXPECT_EQ(result.tally.slots, 5u);
}

TEST(Engine, CommonCrcwEqualWritesAllowed) {
  LambdaProgram program(4, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 7);  // everyone writes the same value: legal under COMMON
    return false;
  });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_EQ(engine.memory().read(0), 7);
  EXPECT_EQ(result.tally.halted, 4u);
}

TEST(Engine, CommonCrcwConflictingWritesThrow) {
  LambdaProgram program(2, 4, [](Pid pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, pid);  // different values to one cell
    return false;
  });
  NoFailures none;
  Engine engine(program);
  EXPECT_THROW(engine.run(none), ModelViolation);
}

TEST(Engine, ArbitraryCrcwLowestPidWins) {
  LambdaProgram program(3, 4, [](Pid pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 10 + pid);
    return false;
  });
  NoFailures none;
  EngineOptions options;
  options.model = CrcwModel::kArbitrary;
  Engine engine(program, options);
  engine.run(none);
  EXPECT_EQ(engine.memory().read(0), 10);
}

TEST(Engine, PriorityCrcwLowestPidWins) {
  LambdaProgram program(3, 4, [](Pid pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 20 + pid);
    return false;
  });
  NoFailures none;
  EngineOptions options;
  options.model = CrcwModel::kPriority;
  Engine engine(program, options);
  engine.run(none);
  EXPECT_EQ(engine.memory().read(0), 20);  // STRONG/PRIORITY: lowest PID
}

TEST(Engine, CrewConcurrentWriteThrows) {
  LambdaProgram program(2, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 1);
    return false;
  });
  NoFailures none;
  EngineOptions options;
  options.model = CrcwModel::kCrew;
  Engine engine(program, options);
  EXPECT_THROW(engine.run(none), ModelViolation);
}

TEST(Engine, ErewConcurrentReadDetected) {
  // Both processors read cell 3 in slot 0 (and processor 1 twice — a
  // re-read of one's own cell is not a concurrent read). The auditor flags
  // the cell once under EREW and says nothing under CREW.
  LambdaProgram program(2, 4, [](Pid pid, std::uint64_t, CycleContext& ctx) {
    (void)ctx.read(3);
    if (pid == 1) (void)ctx.read(3);
    return false;
  });
  for (const CrcwModel model : {CrcwModel::kErew, CrcwModel::kCrew}) {
    Auditor auditor;
    NoFailures none;
    EngineOptions options;
    options.model = model;
    options.audit = &auditor;
    Engine engine(program, options);
    (void)engine.run(none);
    const AuditReport& report = auditor.report();
    if (model == CrcwModel::kCrew) {
      EXPECT_TRUE(report.ok());
      continue;
    }
    ASSERT_EQ(report.count(AuditCheck::kReadConflict), 1u);
    EXPECT_EQ(report.total(), 1u);
    const AuditViolation& v = report.violations.front();
    EXPECT_EQ(v.context.slot, 0);
    EXPECT_EQ(v.context.cell, 3);
    EXPECT_EQ(v.context.pids, (std::vector<Pid>{0, 1}));
  }
}

// ---------------------------------------------------------------------------
// Failures and restarts

TEST(Engine, MidCycleFailureDiscardsWrites) {
  LambdaProgram program(
      2, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(static_cast<Addr>(pid), 1);
        return false;
      },
      [](const SharedMemory& mem) {
        return mem.read(0) == 1;  // processor 1's write must be gone
      });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) d.fail_mid_cycle.push_back(1);
    return d;
  });
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(engine.memory().read(1), 0);  // discarded
  EXPECT_EQ(result.tally.completed_work, 1u);
  EXPECT_EQ(result.tally.attempted_work, 2u);  // S' counts the aborted cycle
  EXPECT_EQ(result.tally.failures, 1u);
}

TEST(Engine, FailAfterCycleKeepsWrites) {
  LambdaProgram program(
      2, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(static_cast<Addr>(pid), 1);
        return true;
      },
      [](const SharedMemory& mem) {
        return mem.read(0) == 1 && mem.read(1) == 1;
      });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) d.fail_after_cycle.push_back(1);
    return d;
  });
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(engine.memory().read(1), 1);  // the write landed before the stop
  EXPECT_EQ(result.tally.completed_work, 2u);
  EXPECT_EQ(result.tally.failures, 1u);
}

TEST(Engine, RestartLosesPrivateState) {
  // The per-state cycle counter restarts from zero after failure+restart,
  // observable through which cell gets written.
  LambdaProgram program(
      2, 16,
      [](Pid pid, std::uint64_t k, CycleContext& ctx) {
        if (pid == 1) {
          ctx.write(8 + static_cast<Addr>(k), 1);  // leaves a trail by k
        }
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(15) != 0; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 2) {
      d.fail_mid_cycle.push_back(1);
      d.restart.push_back(1);
    }
    return d;
  });
  Engine engine(program);
  engine.run(adversary);
  // Slots 0,1 wrote cells 8,9; slot 2 aborted; after restart k resumes at 0,
  // so cell 8 is rewritten rather than cell 10 being next.
  EXPECT_EQ(engine.memory().read(8), 1);
  EXPECT_EQ(engine.memory().read(9), 1);
}

TEST(Engine, HaltedProcessorsStopRunning) {
  LambdaProgram program(
      3, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, 1);
        return pid == 0;  // processors 1 and 2 halt after one cycle
      },
      [](const SharedMemory& mem) { return mem.read(0) == 1; });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(result.tally.halted, 2u);
}

TEST(Engine, DeadlockWhenAllHaltEarly) {
  LambdaProgram program(
      2, 4, [](Pid, std::uint64_t, CycleContext&) { return false; },
      [](const SharedMemory& mem) { return mem.read(0) == 1; });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_FALSE(result.goal_met);
  EXPECT_TRUE(result.deadlock);
}

TEST(Engine, SlotLimitStopsRunawayRuns) {
  LambdaProgram program(1, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return true; });
  NoFailures none;
  EngineOptions options;
  options.max_slots = 10;
  Engine engine(program, options);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.slot_limit);
  EXPECT_EQ(result.tally.slots, 10u);
}

TEST(Engine, RunIsSingleShot) {
  LambdaProgram program(1, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return false; });
  NoFailures none;
  Engine engine(program);
  engine.run(none);
  EXPECT_THROW(engine.run(none), ConfigError);
}

// ---------------------------------------------------------------------------
// Adversary validation (model constraint 2(i) and target sanity)

TEST(Engine, AbortingEveryCycleViolatesLiveness) {
  LambdaProgram program(2, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return true; });
  LambdaAdversary adversary([](const MachineView&) {
    FaultDecision d;
    d.fail_mid_cycle = {0, 1};
    return d;
  });
  Engine engine(program);
  EXPECT_THROW(engine.run(adversary), AdversaryViolation);
}

TEST(Engine, StrandedMachineViolatesLiveness) {
  LambdaProgram program(2, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return true; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) d.fail_after_cycle = {0, 1};  // no restarts ever
    return d;
  });
  Engine engine(program);
  EXPECT_THROW(engine.run(adversary), AdversaryViolation);
}

TEST(Engine, FailingDeadProcessorRejected) {
  LambdaProgram program(2, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return true; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) d.fail_after_cycle.push_back(1);
    if (view.slot() == 1) d.fail_mid_cycle.push_back(1);  // already failed
    return d;
  });
  Engine engine(program);
  EXPECT_THROW(engine.run(adversary), AdversaryViolation);
}

TEST(Engine, RestartingLiveProcessorRejected) {
  LambdaProgram program(2, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return true; });
  LambdaAdversary adversary([](const MachineView&) {
    FaultDecision d;
    d.restart.push_back(0);  // processor 0 is alive
    return d;
  });
  Engine engine(program);
  EXPECT_THROW(engine.run(adversary), AdversaryViolation);
}

TEST(Engine, FailThenRestartSameSlotIsLegal) {
  LambdaProgram program(
      2, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        if (pid == 1) ctx.write(1, ctx.read(1) + 1);
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(1) >= 3; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) {
      d.fail_mid_cycle.push_back(1);
      d.restart.push_back(1);
    }
    return d;
  });
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(result.tally.failures, 1u);
  EXPECT_EQ(result.tally.restarts, 1u);
}

TEST(Engine, DuplicateFailureRejected) {
  LambdaProgram program(2, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return true; });
  LambdaAdversary adversary([](const MachineView&) {
    FaultDecision d;
    d.fail_mid_cycle.push_back(1);
    d.fail_after_cycle.push_back(1);
    return d;
  });
  Engine engine(program);
  EXPECT_THROW(engine.run(adversary), AdversaryViolation);
}

TEST(Engine, PatternRecordingMatchesTally) {
  LambdaProgram program(
      3, 4,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, ctx.read(0) + 1);
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) >= 4; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 1) {
      d.fail_mid_cycle.push_back(2);
    } else if (view.slot() == 2) {
      d.restart.push_back(2);
    }
    return d;
  });
  FaultSchedule schedule;
  RecordingAdversary recorder(adversary, schedule);
  Engine engine(program);
  const RunResult result = engine.run(recorder);
  EXPECT_EQ(schedule.move_count(), result.tally.pattern_size());
  ASSERT_EQ(schedule.entries.size(), 2u);
  EXPECT_EQ(schedule.entries[0].slot, 1u);
  EXPECT_EQ(schedule.entries[0].decision.fail_mid_cycle,
            std::vector<Pid>{2});
  EXPECT_EQ(schedule.entries[1].slot, 2u);
  EXPECT_EQ(schedule.entries[1].decision.restart, std::vector<Pid>{2});
  EXPECT_EQ(result.tally.failures, 1u);
  EXPECT_EQ(result.tally.restarts, 1u);
}

TEST(Engine, WorkAccountingPerSlot) {
  // 3 processors, 2 slots to reach the goal; one mid-cycle failure in
  // slot 0: S = 2 + 3 (restart) ... verified precisely below.
  LambdaProgram program(
      3, 4,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, ctx.read(0) + 1);
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) >= 2; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) {
      d.fail_mid_cycle.push_back(1);
      d.restart.push_back(1);
    }
    return d;
  });
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  // Slot 0: 3 started, 2 completed. Slot 1: 3 started, 3 completed.
  EXPECT_EQ(result.tally.completed_work, 5u);
  EXPECT_EQ(result.tally.attempted_work, 6u);
  EXPECT_EQ(result.tally.peak_live, 3u);
  EXPECT_EQ(result.tally.slots, 2u);
}

TEST(Engine, TraceRecordingSumsToTallies) {
  LambdaProgram program(
      3, 4,
      [](Pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, ctx.read(0) + 1);
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) >= 6; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() % 2 == 1) {
      d.fail_mid_cycle.push_back(2);
      d.restart.push_back(2);
    }
    return d;
  });
  CollectingTraceSink sink;
  EngineOptions options;
  options.sink = &sink;
  Engine engine(program, options);
  const RunResult result = engine.run(adversary);
  ASSERT_TRUE(result.goal_met);

  std::uint64_t slots = 0, started = 0, completed = 0, failures = 0,
                restarts = 0;
  for (const TraceEvent& e : sink.events()) {
    if (e.kind != TraceEventKind::kSlot) continue;
    EXPECT_EQ(e.slot, slots);
    ++slots;
    started += e.started;
    completed += e.completed;
    failures += e.failures;
    restarts += e.restarts;
  }
  EXPECT_EQ(slots, result.tally.slots);
  EXPECT_EQ(started, result.tally.attempted_work);
  EXPECT_EQ(completed, result.tally.completed_work);
  EXPECT_EQ(failures, result.tally.failures);
  EXPECT_EQ(restarts, result.tally.restarts);
}

TEST(Engine, ZeroProcessorsRejected) {
  LambdaProgram program(0, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return false; });
  EXPECT_THROW(Engine engine(program), ConfigError);
}

// The lane logs hold 32-bit cell addresses. A larger memory is a
// ConfigError before anything sized by it is allocated (here 2^40 cells,
// 8 TiB of words: any allocation would throw std::bad_alloc instead).
TEST(Engine, MemoryBeyond32BitAddressesRejected) {
  LambdaProgram program(1, Addr{1} << 40,
                        [](Pid, std::uint64_t, CycleContext&) { return false; });
  EXPECT_THROW(Engine engine(program), ConfigError);
  EngineOptions faulty;
  faulty.memory_model = MemoryModel::kFaultyCells;
  EXPECT_THROW(Engine engine(program, faulty), ConfigError);
}

TEST(Engine, BudgetsOutOfRangeRejected) {
  LambdaProgram program(1, 4,
                        [](Pid, std::uint64_t, CycleContext&) { return false; });
  EngineOptions options;
  options.read_budget = kReadCap + 1;
  EXPECT_THROW(Engine engine(program, options), ConfigError);
}

}  // namespace
}  // namespace rfsp
