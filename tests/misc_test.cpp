// Remaining public-surface corners: the runner factory, memory-base
// offsets, stalker options, simulator option passthrough, and a few
// degenerate instances not covered by the focused suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "obs/trace.hpp"
#include "pram/engine.hpp"
#include "programs/programs.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "writeall/algx.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

TEST(Runner, NamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (WriteAllAlgo algo : all_writeall_algos()) {
    names.insert(std::string(to_string(algo)));
  }
  EXPECT_EQ(names.size(), all_writeall_algos().size());
  EXPECT_EQ(to_string(WriteAllAlgo::kCombinedVX), "VX");
  EXPECT_EQ(to_string(WriteAllAlgo::kSnapshot), "snapshot");
}

TEST(Runner, RobustListIsASubsetOfAll) {
  const auto& all = all_writeall_algos();
  for (WriteAllAlgo algo : robust_writeall_algos()) {
    EXPECT_NE(std::find(all.begin(), all.end(), algo), all.end());
  }
  // The baselines are deliberately not in the robust list.
  const auto& robust = robust_writeall_algos();
  EXPECT_EQ(std::find(robust.begin(), robust.end(), WriteAllAlgo::kTrivial),
            robust.end());
  EXPECT_EQ(std::find(robust.begin(), robust.end(), WriteAllAlgo::kW),
            robust.end());
}

TEST(Runner, SnapshotModeIsEnabledAutomatically) {
  // run_writeall must flip unit_cost_snapshot for the snapshot algorithm
  // even when the caller's options left it off.
  NoFailures none;
  EngineOptions options;  // snapshot off
  const auto out = run_writeall(WriteAllAlgo::kSnapshot, {.n = 32, .p = 32},
                                none, options);
  EXPECT_TRUE(out.solved);
}

TEST(Runner, FactoryProducesTheRightPrograms) {
  for (WriteAllAlgo algo : all_writeall_algos()) {
    const WriteAllConfig config{
        .n = 16, .p = algo == WriteAllAlgo::kSequential ? Pid{1} : Pid{4}};
    const auto program = make_writeall(algo, config);
    EXPECT_EQ(program->name(), to_string(algo));
    EXPECT_EQ(program->processors(), config.p);
    EXPECT_GE(program->memory_size(), config.n);
  }
}

TEST(BaseOffset, AlgorithmsRelocateCleanly) {
  // With config.base = 10, the region [0, 10) belongs to the caller and
  // must never be touched.
  for (WriteAllAlgo algo :
       {WriteAllAlgo::kV, WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
    const WriteAllConfig config{.n = 64, .p = 8, .seed = 2, .base = 10};
    const auto program = make_writeall(algo, config);
    RandomAdversary adversary(3, {.fail_prob = 0.1, .restart_prob = 0.5});
    Engine engine(*program);
    const RunResult result = engine.run(adversary);
    ASSERT_TRUE(result.goal_met) << to_string(algo);
    EXPECT_TRUE(program->solved(engine.memory())) << to_string(algo);
    for (Addr a = 0; a < 10; ++a) {
      EXPECT_EQ(engine.memory().read(a), 0)
          << to_string(algo) << " touched caller cell " << a;
    }
    EXPECT_EQ(program->x_base(), 10u);
  }
}

TEST(PostOrderStalker, TinyInstances) {
  for (Addr n : {Addr{2}, Addr{4}}) {
    const AlgX program({.n = n, .p = static_cast<Pid>(n)});
    PostOrderStalker adversary(program.layout());
    Engine engine(program);
    const RunResult result = engine.run(adversary);
    EXPECT_TRUE(result.goal_met) << "n=" << n;
    EXPECT_TRUE(program.solved(engine.memory())) << "n=" << n;
  }
}

TEST(SimOptions, PatternRecordingPassesThrough) {
  // The recorded schedule and the engine's failure/restart events (the
  // sink passes straight through SimOptions::engine) both carry |F|.
  PrefixSumProgram program({3, 1, 4, 1, 5, 9, 2, 6});
  RandomAdversary adversary(5, {.fail_prob = 0.2, .restart_prob = 0.6});
  FaultSchedule schedule;
  RecordingAdversary recorder(adversary, schedule);
  CollectingTraceSink sink;
  const SimResult r = simulate(
      program, recorder,
      {.physical_processors = 4, .engine = {.sink = &sink}});
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.tally.pattern_size(), 0u);
  EXPECT_EQ(schedule.move_count(), r.tally.pattern_size());
  const auto fault_events = std::count_if(
      sink.events().begin(), sink.events().end(), [](const TraceEvent& e) {
        return e.kind == TraceEventKind::kFailure ||
               e.kind == TraceEventKind::kRestart;
      });
  EXPECT_EQ(static_cast<std::uint64_t>(fault_events),
            r.tally.pattern_size());
}

TEST(SimOptions, MachineConstantsAreTheExecutors) {
  // simulate() fixes the update-cycle budgets and the CRCW model; a caller
  // that sets one gets an error, not a silently overridden value.
  PrefixSumProgram program({1, 2, 3, 4});
  NoFailures none;
  EXPECT_THROW(simulate(program, none, {.engine = {.read_budget = 5}}),
               ConfigError);
  EXPECT_THROW(simulate(program, none, {.engine = {.write_budget = 3}}),
               ConfigError);
  EXPECT_THROW(
      simulate(program, none, {.engine = {.model = CrcwModel::kArbitrary}}),
      ConfigError);
  EXPECT_TRUE(simulate(program, none, {.physical_processors = 2}).completed);
}

TEST(SimOptions, SlotLimitSurfacesAsIncomplete) {
  PrefixSumProgram program({1, 2, 3, 4, 5, 6, 7, 8});
  NoFailures none;
  const SimResult r =
      simulate(program, none,
               {.physical_processors = 4, .engine = {.max_slots = 3}});
  EXPECT_FALSE(r.completed);
  EXPECT_LT(r.passes, 2 * program.steps());
}

TEST(Degenerate, TwoCellCombined) {
  // The smallest nontrivial instance for every piece of the combined
  // machinery (two leaves, one-level trees).
  RandomAdversary adversary(6, {.fail_prob = 0.3, .restart_prob = 0.8});
  const auto out =
      run_writeall(WriteAllAlgo::kCombinedVX, {.n = 2, .p = 2}, adversary);
  EXPECT_TRUE(out.solved);
}

TEST(Degenerate, StampedStandaloneRuns) {
  // A non-zero epoch on a standalone run must behave identically to epoch
  // zero (same work, solved) — stamping is transparent.
  NoFailures a, b;
  const auto plain =
      run_writeall(WriteAllAlgo::kX, {.n = 128, .p = 32, .stamp = 0}, a);
  const auto stamped_run =
      run_writeall(WriteAllAlgo::kX, {.n = 128, .p = 32, .stamp = 9}, b);
  ASSERT_TRUE(plain.solved);
  ASSERT_TRUE(stamped_run.solved);
  EXPECT_EQ(plain.run.tally.completed_work,
            stamped_run.run.tally.completed_work);
}

TEST(Degenerate, SnapshotWithOneProcessor) {
  NoFailures none;
  const auto out =
      run_writeall(WriteAllAlgo::kSnapshot, {.n = 17, .p = 1}, none);
  EXPECT_TRUE(out.solved);
  // One processor, one write per cycle: exactly N work plus the final
  // empty-observation cycle.
  EXPECT_LE(out.run.tally.completed_work, 17u + 1u);
}

}  // namespace
}  // namespace rfsp
