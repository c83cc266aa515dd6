// Fast-path regression tests: the engine's zero-allocation slot loop and
// incremental goal tracking must be observationally identical to the
// straightforward implementations they replaced.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fault/adversaries.hpp"
#include "obs/trace.hpp"
#include "pram/engine.hpp"
#include "programs/programs.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "writeall/runner.hpp"

#include "test_util.hpp"

namespace rfsp {
namespace {

using testing::LambdaAdversary;
using testing::LambdaProgram;

struct FullOutcome {
  RunResult run;
  std::vector<Word> memory;
  std::optional<std::uint64_t> goal_unsat;
  std::vector<TraceEvent> slots;  // the kSlot events, one per slot
  FaultSchedule schedule;
};

FullOutcome run_full(const Program& program, Adversary& adversary,
                     EngineOptions options) {
  CollectingTraceSink sink;
  options.sink = &sink;
  Engine engine(program, options);
  FullOutcome out;
  RecordingAdversary recorder(adversary, out.schedule);
  out.run = engine.run(recorder);
  for (const TraceEvent& e : sink.events()) {
    if (e.kind == TraceEventKind::kSlot) out.slots.push_back(e);
  }
  const auto words = engine.memory().words();
  out.memory.assign(words.begin(), words.end());
  out.goal_unsat = engine.goal_unsatisfied();
  return out;
}

void expect_identical(const FullOutcome& a, const FullOutcome& b,
                      const char* what) {
  EXPECT_EQ(a.run.goal_met, b.run.goal_met) << what;
  EXPECT_EQ(a.run.deadlock, b.run.deadlock) << what;
  EXPECT_EQ(a.run.slot_limit, b.run.slot_limit) << what;

  const WorkTally& ta = a.run.tally;
  const WorkTally& tb = b.run.tally;
  EXPECT_EQ(ta.completed_work, tb.completed_work) << what;
  EXPECT_EQ(ta.attempted_work, tb.attempted_work) << what;
  EXPECT_EQ(ta.failures, tb.failures) << what;
  EXPECT_EQ(ta.restarts, tb.restarts) << what;
  EXPECT_EQ(ta.slots, tb.slots) << what;
  EXPECT_EQ(ta.halted, tb.halted) << what;
  EXPECT_EQ(ta.peak_live, tb.peak_live) << what;

  EXPECT_EQ(a.memory, b.memory) << what;

  EXPECT_EQ(a.slots, b.slots) << what;
  EXPECT_EQ(a.schedule, b.schedule) << what;
}

// --- Incremental goal tracking ---------------------------------------------

// Forwards everything to `inner` except goal_cells, which it withholds: the
// engine then checks Program::goal by a full scan every slot.
class FullScanGoal final : public Program {
 public:
  explicit FullScanGoal(const Program& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  Pid processors() const override { return inner_.processors(); }
  Addr memory_size() const override { return inner_.memory_size(); }
  void init_memory(SharedMemory& mem) const override {
    inner_.init_memory(mem);
  }
  std::unique_ptr<ProcessorState> boot(Pid pid) const override {
    return inner_.boot(pid);
  }
  bool goal(const SharedMemory& mem) const override {
    return inner_.goal(mem);
  }
  std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const override {
    return inner_.load_state(pid, data);
  }
  std::optional<PhaseSchedule> phase_schedule() const override {
    return inner_.phase_schedule();
  }

 private:
  const Program& inner_;
};

// The counter-based goal must agree with per-slot full goal() scans for the
// whole observable result, and the final counter must match a recount.
void expect_goal_scan_agrees(const Program& program,
                             const RandomAdversaryOptions& rand_opt,
                             const EngineOptions& options) {
  const std::string what(program.name());
  RandomAdversary incremental_adv(7, rand_opt);
  const FullOutcome incremental = run_full(program, incremental_adv, options);

  RandomAdversary fullscan_adv(7, rand_opt);
  const FullOutcome fullscan =
      run_full(FullScanGoal(program), fullscan_adv, options);

  expect_identical(incremental, fullscan, what.c_str());
  // The opt-in is active (these programs expose goal_cells) and the run
  // finished: no goal cell may be left unsatisfied.
  EXPECT_TRUE(incremental.run.goal_met) << what;
  ASSERT_TRUE(incremental.goal_unsat.has_value()) << what;
  EXPECT_EQ(*incremental.goal_unsat, 0u) << what;
  // The full-scan reference keeps scanning and reports no counter.
  EXPECT_FALSE(fullscan.goal_unsat.has_value()) << what;
}

TEST(IncrementalGoal, MatchesFullScanUnderRandomFaults) {
  for (const WriteAllAlgo algo :
       {WriteAllAlgo::kTrivial, WriteAllAlgo::kW, WriteAllAlgo::kV,
        WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX, WriteAllAlgo::kAcc}) {
    RandomAdversaryOptions rand_opt;
    rand_opt.fail_prob = algo == WriteAllAlgo::kTrivial ? 0.0 : 0.05;
    // W is a fail-stop algorithm: under restarts it need not terminate.
    if (algo == WriteAllAlgo::kW) rand_opt.restart_prob = 0.0;
    rand_opt.max_pattern = 200;
    const auto program = make_writeall(algo, {.n = 160, .p = 32});
    expect_goal_scan_agrees(*program, rand_opt, {});
  }

  // The Theorem 4.1 executor, on prefix sums.
  const PrefixSumProgram sim({3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8});
  const SimLayout layout(sim, 6);
  const auto program =
      make_simulation_program(sim, layout, SimInner::kCombinedVX);
  EngineOptions options;
  options.read_budget = 5;  // the executor's cycle: Write-All plus the phase
  expect_goal_scan_agrees(*program, {.max_pattern = 200}, options);
}

TEST(IncrementalGoal, AbsentWithoutProgramOptIn) {
  // LambdaProgram does not override goal_cells, so the engine falls back to
  // full goal() scans.
  LambdaProgram program(
      2, 8,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(static_cast<Addr>(pid), 1);
        return false;
      },
      [](const SharedMemory& mem) {
        return mem.read(0) != 0 && mem.read(1) != 0;
      });
  NoFailures none;
  Engine engine(program);
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
  EXPECT_FALSE(engine.goal_unsatisfied().has_value());
}

// Torn writes land through the same commit path; the counter must stay in
// lock step with the memory contents, slot by slot and at the end.
TEST(IncrementalGoal, CounterAgreesWithRecountAfterTornWrites) {
  const WriteAllConfig config{.n = 24, .p = 4};
  const auto program = make_writeall(WriteAllAlgo::kTrivial, config);
  const std::optional<GoalCells> cells_opt = program->goal_cells();
  ASSERT_TRUE(cells_opt.has_value());
  const GoalCells cells = *cells_opt;

  EngineOptions options;
  options.bit_atomic_writes = true;
  Engine engine(*program, options);

  const auto recount = [&](const SharedMemory& mem) {
    std::uint64_t unsat = 0;
    for (Addr a = cells.base; a < cells.base + cells.count; ++a) {
      if (!program->goal_cell_done(a, mem.read(a))) ++unsat;
    }
    return unsat;
  };

  // Tear one write of every live non-zero processor early on (keep_bits = 0
  // leaves the cell's previous contents, so the visit marker is lost even
  // though the commit path ran), restart the casualties, and verify the
  // engine's counter against a brute-force recount on every decision.
  LambdaAdversary adversary([&](const MachineView& view) {
    const auto counted = engine.goal_unsatisfied();
    EXPECT_TRUE(counted.has_value());
    // value_or: an empty counter mismatches the recount instead of UB.
    EXPECT_EQ(counted.value_or(~std::uint64_t{0}), recount(view.memory()));

    FaultDecision d;
    if (view.slot() == 1) {
      for (Pid pid = 1; pid < view.processors(); ++pid) {
        if (view.trace(pid).started && !view.trace(pid).writes.empty()) {
          d.torn.push_back({.pid = pid, .write_index = 0, .keep_bits = 0});
          d.restart.push_back(pid);
        }
      }
      if (d.torn.size() >= view.started_pids().size()) {
        d.torn.pop_back();  // keep a survivor
        d.restart.pop_back();
      }
    }
    return d;
  });

  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  const std::optional<std::uint64_t> final_unsat = engine.goal_unsatisfied();
  ASSERT_TRUE(final_unsat.has_value());
  EXPECT_EQ(*final_unsat, 0u);
  EXPECT_EQ(recount(engine.memory()), 0u);
  EXPECT_GT(result.tally.failures, 0u);
}

}  // namespace
}  // namespace rfsp
