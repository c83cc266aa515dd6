// Batched SoA backend (EngineOptions::batch, pram/soa.hpp): bit-identity
// with the interpreter across algorithms and adversaries — same tallies,
// memory, trace stream, and checkpoints — plus the fallback gate (audit
// hook / tight budgets / unported programs keep the interpreter)
// and cross-mode checkpoint resume.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "fault/stalkers.hpp"
#include "obs/trace.hpp"
#include "pram/engine.hpp"
#include "replay/schedule.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"
#include "writeall/runner.hpp"

#include "test_util.hpp"

namespace rfsp {
namespace {

using ::rfsp::testing::ChaosAdversary;
using ::rfsp::testing::LambdaProgram;

// One full observable run: outcome, tallies, final memory, goal counter,
// the structured trace-event stream, the adversary's recorded decisions,
// and periodic checkpoints.
struct FullOutcome {
  RunResult run;
  std::vector<Word> memory;
  std::optional<std::uint64_t> goal_unsat;
  bool batch_active = false;
  std::vector<TraceEvent> events;
  FaultSchedule schedule;
  std::vector<EngineCheckpoint> checkpoints;
};

FullOutcome run_full(WriteAllAlgo algo, const WriteAllConfig& config,
                     Adversary& adversary, EngineOptions options) {
  CollectingTraceSink sink;
  options.sink = &sink;
  FullOutcome out;
  options.checkpoint_every = 7;
  options.on_checkpoint = [&](const EngineCheckpoint& cp) {
    out.checkpoints.push_back(cp);
  };
  const auto program = make_writeall(algo, config);
  Engine engine(*program, options);
  out.batch_active = engine.batch_active();
  RecordingAdversary recorder(adversary, out.schedule);
  out.run = engine.run(recorder);
  const auto words = engine.memory().words();
  out.memory.assign(words.begin(), words.end());
  out.goal_unsat = engine.goal_unsatisfied();
  out.events = sink.events();
  return out;
}

void expect_identical(const FullOutcome& a, const FullOutcome& b,
                      const std::string& what) {
  EXPECT_EQ(a.run.goal_met, b.run.goal_met) << what;
  EXPECT_EQ(a.run.deadlock, b.run.deadlock) << what;
  EXPECT_EQ(a.run.slot_limit, b.run.slot_limit) << what;
  EXPECT_EQ(a.run.tally, b.run.tally) << what;
  EXPECT_EQ(a.memory, b.memory) << what;
  EXPECT_EQ(a.goal_unsat, b.goal_unsat) << what;

  // Recorded decisions (the adversary saw identical MachineViews).
  EXPECT_EQ(a.schedule, b.schedule) << what;

  // Structured trace-event stream, field by field: its kSlot events are
  // the slot-by-slot S/S' series.
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const TraceEvent& ea = a.events[i];
    const TraceEvent& eb = b.events[i];
    EXPECT_EQ(ea.kind, eb.kind) << what << " event " << i;
    EXPECT_EQ(ea.slot, eb.slot) << what << " event " << i;
    EXPECT_EQ(ea.pid, eb.pid) << what << " event " << i;
    EXPECT_EQ(ea.started, eb.started) << what << " event " << i;
    EXPECT_EQ(ea.completed, eb.completed) << what << " event " << i;
    EXPECT_EQ(ea.failures, eb.failures) << what << " event " << i;
    EXPECT_EQ(ea.restarts, eb.restarts) << what << " event " << i;
    EXPECT_EQ(ea.writes, eb.writes) << what << " event " << i;
    EXPECT_EQ(ea.phase, eb.phase) << what << " event " << i;
    EXPECT_EQ(ea.goal_met, eb.goal_met) << what << " event " << i;
    EXPECT_EQ(ea.deadlock, eb.deadlock) << what << " event " << i;
    EXPECT_EQ(ea.slot_limit, eb.slot_limit) << what << " event " << i;
  }

  // Checkpoints, including the serialized private states — this is the
  // byte-identity requirement on BatchKernel::save_lane.
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size()) << what;
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i], b.checkpoints[i])
        << what << " checkpoint " << i;
  }
}

// Adversary factory. The post-order stalker is X-specific (it drives the
// descent's worst case from the X progress-tree geometry), so it covers X
// and VX; the iteration-synchronized W and V get the halving adversary as
// their targeted-deterministic row instead.
std::unique_ptr<Adversary> make_adversary(const std::string& name,
                                          WriteAllAlgo algo,
                                          const WriteAllConfig& config,
                                          std::uint64_t seed) {
  if (name == "random") {
    RandomAdversaryOptions opt;
    opt.fail_prob = 0.08;
    opt.restart_prob = 0.6;
    // W is fail-stop: restarts can prevent termination.
    if (algo == WriteAllAlgo::kW) opt.restart_prob = 0;
    opt.max_pattern = 400;
    return std::make_unique<RandomAdversary>(seed, opt);
  }
  if (name == "burst") {
    BurstAdversaryOptions opt;
    opt.period = 3;
    opt.count = 5;
    opt.restart = algo != WriteAllAlgo::kW;
    opt.max_pattern = 300;
    return std::make_unique<BurstAdversary>(opt);
  }
  if (name == "stalker") {
    if (algo == WriteAllAlgo::kX) {
      return std::make_unique<PostOrderStalker>(AlgX(config).layout());
    }
    if (algo == WriteAllAlgo::kCombinedVX) {
      return std::make_unique<PostOrderStalker>(CombinedVX(config).layout().x);
    }
    return std::make_unique<HalvingAdversary>(0, config.n);
  }
  if (name == "chaos") {
    return std::make_unique<ChaosAdversary>(seed, /*allow_torn=*/true);
  }
  return std::make_unique<NoFailures>();
}

// The matrix's shape: N padded to 256, P = N/4.
constexpr WriteAllConfig kPaddedShape{.n = 192, .p = 48, .seed = 5};

void check_equivalence(WriteAllAlgo algo, const std::string& adversary_name,
                       const WriteAllConfig& config = kPaddedShape,
                       CrcwModel model = CrcwModel::kCommon) {
  const std::string what = std::string(to_string(algo)) + " x " +
                           adversary_name + " model " +
                           std::to_string(static_cast<int>(model)) + " N " +
                           std::to_string(config.n) + " P " +
                           std::to_string(config.p);
  SCOPED_TRACE(what);
  const std::uint64_t seed = 77;

  EngineOptions options;
  options.model = model;
  options.max_slots = 4000;  // W need not terminate under restarts
  if (adversary_name == "chaos") options.bit_atomic_writes = true;

  const auto interp_adv = make_adversary(adversary_name, algo, config, seed);
  EngineOptions interp_opt = options;
  const FullOutcome interp = run_full(algo, config, *interp_adv, interp_opt);
  EXPECT_FALSE(interp.batch_active) << what;

  const auto batch_adv = make_adversary(adversary_name, algo, config, seed);
  EngineOptions batch_opt = options;
  batch_opt.batch = true;
  const FullOutcome batch = run_full(algo, config, *batch_adv, batch_opt);
  EXPECT_TRUE(batch.batch_active) << what;

  expect_identical(interp, batch, what);
}

// --- The equivalence matrix ------------------------------------------------

TEST(BatchEquivalence, FaultFree) {
  for (const WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                                  WriteAllAlgo::kX,
                                  WriteAllAlgo::kCombinedVX}) {
    check_equivalence(algo, "none");
  }
}

TEST(BatchEquivalence, RandomFaults) {
  for (const WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                                  WriteAllAlgo::kX,
                                  WriteAllAlgo::kCombinedVX}) {
    check_equivalence(algo, "random");
  }
}

// ARBITRARY and PRIORITY let the first committed writer of a cell win. The
// kernel runs the live set as one ascending-PID group, so its lane log
// lists writes in the interpreter's order and both models batch.
TEST(BatchEquivalence, ArbitraryAndPriorityUnderRandomFaults) {
  for (const CrcwModel model : {CrcwModel::kArbitrary, CrcwModel::kPriority}) {
    for (const WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                                    WriteAllAlgo::kX,
                                    WriteAllAlgo::kCombinedVX}) {
      check_equivalence(algo, "random", kPaddedShape, model);
    }
  }
}

TEST(BatchEquivalence, BurstFaults) {
  for (const WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                                  WriteAllAlgo::kX,
                                  WriteAllAlgo::kCombinedVX}) {
    check_equivalence(algo, "burst");
  }
}

TEST(BatchEquivalence, StalkerFaults) {
  for (const WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                                  WriteAllAlgo::kX,
                                  WriteAllAlgo::kCombinedVX}) {
    check_equivalence(algo, "stalker");
  }
}

TEST(BatchEquivalence, ChaosWithTornWrites) {
  for (const WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                                  WriteAllAlgo::kX,
                                  WriteAllAlgo::kCombinedVX}) {
    check_equivalence(algo, "chaos");
  }
}

// X's lanes at one tree node share its classification (the standalone
// kernel's step memo, writeall/algx.hpp), so X and VX also run at the
// shapes that stress it: unpadded with P = N, and P << N, where long runs
// of ascending-PID lanes sit on one node.
TEST(BatchEquivalence, XFamilyAtUnpaddedAndFewProcessorShapes) {
  for (const WriteAllConfig& config :
       {WriteAllConfig{.n = 256, .p = 256, .seed = 5},
        WriteAllConfig{.n = 1024, .p = 16, .seed = 5}}) {
    for (const char* adversary : {"none", "random", "stalker", "chaos"}) {
      for (const WriteAllAlgo algo :
           {WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
        check_equivalence(algo, adversary, config);
      }
    }
  }
}

// --- Cross-mode checkpoint resume ------------------------------------------

// A checkpoint captured in one mode must resume in the other and land on
// the straight run's exact outcome (the word streams are interchangeable).
TEST(BatchCheckpoint, ResumesAcrossModes) {
  for (const WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                                  WriteAllAlgo::kX,
                                  WriteAllAlgo::kCombinedVX}) {
    SCOPED_TRACE(to_string(algo));
    const WriteAllConfig config{.n = 48, .p = 12, .seed = 5};
    const std::uint64_t seed = 77;
    EngineOptions options;
    options.max_slots = 2000;

    ChaosAdversary straight_adv(seed, /*allow_torn=*/false);
    const WriteAllOutcome straight =
        run_writeall(algo, config, straight_adv, options);

    // Capture checkpoints from a *batched* run...
    std::vector<EngineCheckpoint> checkpoints;
    EngineOptions recording = options;
    recording.batch = true;
    recording.checkpoint_every = 1;
    recording.on_checkpoint = [&](const EngineCheckpoint& cp) {
      checkpoints.push_back(cp);
    };
    ChaosAdversary recording_adv(seed, /*allow_torn=*/false);
    const WriteAllOutcome observed =
        run_writeall(algo, config, recording_adv, recording);
    EXPECT_EQ(straight.run.tally, observed.run.tally)
        << "batched checkpoint capture perturbed the run";
    ASSERT_FALSE(checkpoints.empty());

    // ...and resume them in both modes.
    for (const bool resume_batched : {false, true}) {
      for (std::size_t i = 0; i < checkpoints.size();
           i += std::max<std::size_t>(checkpoints.size() / 4, 1)) {
        const EngineCheckpoint& cp = checkpoints[i];
        ChaosAdversary resumed_adv(seed, /*allow_torn=*/false);
        EngineOptions resume_opt = options;
        resume_opt.batch = resume_batched;
        const WriteAllOutcome resumed =
            run_writeall(algo, config, resumed_adv, resume_opt, &cp);
        EXPECT_EQ(straight.run.tally, resumed.run.tally)
            << "resume from slot " << cp.slot
            << (resume_batched ? " (batched)" : " (interpreter)")
            << " diverged";
        EXPECT_EQ(straight.solved, resumed.solved);
      }
    }
  }
}

// --- The fallback gate ------------------------------------------------------

class NullAuditHook final : public EngineAuditHook {
 public:
  void on_read(Pid, Addr) override {}
  void on_write(Pid, Addr, Word) override {}
  void on_snapshot(Pid) override {}
};

TEST(BatchFallback, PerOpHooksAndBudgetsForceInterpreter) {
  const WriteAllConfig config{.n = 64, .p = 16};
  const auto program = make_writeall(WriteAllAlgo::kX, config);

  {
    EngineOptions options;
    options.batch = true;
    Engine engine(*program, options);
    EXPECT_TRUE(engine.batch_active());
  }
  {
    NullAuditHook hook;
    EngineOptions options;
    options.batch = true;
    options.audit = &hook;  // per-op audit visibility
    Engine engine(*program, options);
    EXPECT_FALSE(engine.batch_active());
  }
  {
    EngineOptions options;
    options.batch = true;
    options.read_budget = 3;  // tighter than the ported bodies assume
    Engine engine(*program, options);
    EXPECT_FALSE(engine.batch_active());
  }
  {
    EngineOptions options;
    options.batch = true;
    options.write_budget = 1;
    Engine engine(*program, options);
    EXPECT_FALSE(engine.batch_active());
  }
}

TEST(BatchFallback, UnportedProgramsRunUnchanged) {
  // kTrivial publishes no kernels: batch mode silently keeps the
  // interpreter and the run is unaffected.
  const WriteAllConfig config{.n = 64, .p = 16};
  NoFailures none;
  EngineOptions options;
  options.batch = true;
  const auto program = make_writeall(WriteAllAlgo::kTrivial, config);
  Engine engine(*program, options);
  EXPECT_FALSE(engine.batch_active());
  const RunResult result = engine.run(none);
  EXPECT_TRUE(result.goal_met);
}

TEST(BatchFallback, TaskSpecForcesInterpreter) {
  // A TaskSpec needs per-op CycleContext micro-cycles, so V/X/VX publish no
  // kernels when one is configured.
  class OneCycleTask final : public TaskSpec {
   public:
    unsigned cycles_per_task() const override { return 1; }
    void run(CycleContext& ctx, Addr task, unsigned,
             std::span<Word> scratch) const override {
      (void)ctx;
      (void)task;
      (void)scratch;
    }
  };
  OneCycleTask task;
  WriteAllConfig config{.n = 64, .p = 16};
  config.task = &task;
  config.stamp = 1;
  for (const WriteAllAlgo algo : {WriteAllAlgo::kV, WriteAllAlgo::kX,
                                  WriteAllAlgo::kCombinedVX}) {
    const auto program = make_writeall(algo, config);
    EngineOptions options;
    options.batch = true;
    Engine engine(*program, options);
    EXPECT_FALSE(engine.batch_active()) << to_string(algo);
  }
}

}  // namespace
}  // namespace rfsp
