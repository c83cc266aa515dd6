// Behaviour of the general-purpose adversaries, including Example 2.2's
// thrashing result: S' (charging incomplete cycles) explodes while S stays
// small — the motivation for the completed-work measure.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "fault/iteration_killer.hpp"
#include "fault/stalkers.hpp"
#include "pram/engine.hpp"
#include "replay/schedule.hpp"
#include "util/crc32.hpp"
#include "writeall/acc.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

TEST(RandomAdversary, DeterministicPerSeed) {
  const WriteAllConfig config{.n = 128, .p = 32};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.2;
  opt.restart_prob = 0.6;

  RandomAdversary a1(17, opt), a2(17, opt);
  const auto r1 = run_writeall(WriteAllAlgo::kX, config, a1);
  const auto r2 = run_writeall(WriteAllAlgo::kX, config, a2);
  EXPECT_TRUE(r1.solved);
  EXPECT_EQ(r1.run.tally.completed_work, r2.run.tally.completed_work);
  EXPECT_EQ(r1.run.tally.pattern_size(), r2.run.tally.pattern_size());
}

TEST(RandomAdversary, InjectsFailuresAndRestarts) {
  const WriteAllConfig config{.n = 256, .p = 64};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.1;
  opt.restart_prob = 0.5;
  RandomAdversary adversary(3, opt);
  const auto out = run_writeall(WriteAllAlgo::kCombinedVX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_GT(out.run.tally.failures, 0u);
  EXPECT_GT(out.run.tally.restarts, 0u);
}

TEST(RandomAdversary, PatternBudgetRespectedForFailures) {
  const WriteAllConfig config{.n = 256, .p = 64};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.5;
  opt.restart_prob = 1.0;  // immediate restarts keep the run moving
  opt.max_pattern = 40;
  RandomAdversary adversary(11, opt);
  const auto out = run_writeall(WriteAllAlgo::kX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_LE(out.run.tally.failures, 40u);
}

TEST(RandomAdversary, NeverStrandsWithPostWriteFailures) {
  // Post-write failures are not clamped, so one decision can fail every
  // started processor while older casualties stay down; the adversary must
  // then revive one itself or the next slot has no live processor.
  const WriteAllConfig config{.n = 64, .p = 4};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.3;
  opt.restart_prob = 0.5;
  opt.fail_after_frac = 0.3;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomAdversary adversary(seed, opt);
    WriteAllOutcome out;
    ASSERT_NO_THROW(out = run_writeall(WriteAllAlgo::kX, config, adversary))
        << "seed " << seed;
    EXPECT_TRUE(out.solved) << "seed " << seed;
  }
}

// Checks MachineView::failed_pids() against a full status scan, before and
// after the wrapped adversary decides, then forwards its decision.
class FailedPidsChecker final : public Adversary {
 public:
  explicit FailedPidsChecker(Adversary& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  FaultDecision decide(const MachineView& view) override {
    std::vector<Pid> scan;
    for (Pid pid = 0; pid < view.processors(); ++pid) {
      if (view.status(pid) == ProcStatus::kFailed) scan.push_back(pid);
    }
    const auto listed = [&] {
      const std::span<const Pid> failed = view.failed_pids();
      return std::vector<Pid>(failed.begin(), failed.end());
    };
    EXPECT_EQ(listed(), scan) << "slot " << view.slot();
    FaultDecision d = inner_.decide(view);
    EXPECT_EQ(listed(), scan) << "slot " << view.slot();
    if (!scan.empty()) ++slots_with_failed_;
    return d;
  }
  bool inspects_cycles() const override { return inner_.inspects_cycles(); }
  void save_state(std::vector<std::uint64_t>& out) const override {
    inner_.save_state(out);
  }
  void load_state(std::span<const std::uint64_t> data) override {
    inner_.load_state(data);
  }

  std::uint64_t slots_with_failed() const { return slots_with_failed_; }

 private:
  Adversary& inner_;
  std::uint64_t slots_with_failed_ = 0;
};

TEST(MachineView, FailedPidsMatchAStatusScan) {
  const WriteAllConfig config{.n = 256, .p = 64};
  for (const bool batch : {false, true}) {
    EngineOptions options;
    options.batch = batch;
    RandomAdversary random(17, {.fail_prob = 0.2, .restart_prob = 0.3});
    BurstAdversary burst({.period = 3, .count = 8});
    for (Adversary* inner : {static_cast<Adversary*>(&random),
                             static_cast<Adversary*>(&burst)}) {
      FailedPidsChecker checker(*inner);
      const auto program = make_writeall(WriteAllAlgo::kX, config);
      Engine engine(*program, options);
      ASSERT_EQ(engine.batch_active(), batch);
      EXPECT_TRUE(engine.run(checker).goal_met);
      EXPECT_GT(checker.slots_with_failed(), 10u)
          << inner->name() << (batch ? " batch" : " interpreter");
    }
  }
}

TEST(MachineView, FailedPidsAfterRestore) {
  // A checkpoint taken while processors are failed: restore rebuilds the
  // failed mask, so the resumed engine's views list them, and the resumed
  // run ends with the straight run's tally.
  const auto program = make_writeall(WriteAllAlgo::kX, {.n = 256, .p = 64});
  const RandomAdversaryOptions faults{.fail_prob = 0.2, .restart_prob = 0.3};
  for (const bool batch : {false, true}) {
    std::vector<EngineCheckpoint> cps;
    EngineOptions options;
    options.batch = batch;
    options.checkpoint_every = 5;
    options.on_checkpoint = [&cps](const EngineCheckpoint& cp) {
      cps.push_back(cp);
    };
    RandomAdversary first(23, faults);
    Engine engine(*program, options);
    const RunResult straight = engine.run(first);
    ASSERT_TRUE(straight.goal_met);
    const auto with_failed = std::find_if(
        cps.begin(), cps.end(), [](const EngineCheckpoint& cp) {
          return std::count(cp.status.begin(), cp.status.end(),
                            ProcStatus::kFailed) > 0;
        });
    ASSERT_NE(with_failed, cps.end());

    RandomAdversary random(0, faults);
    FailedPidsChecker checker(random);
    EngineOptions resumed_options;
    resumed_options.batch = batch;
    Engine resumed(*program, resumed_options);
    resumed.restore(*with_failed, &checker);
    const RunResult rest = resumed.run(checker);
    EXPECT_TRUE(rest.goal_met);
    EXPECT_GT(checker.slots_with_failed(), 0u);
    EXPECT_EQ(rest.tally, straight.tally) << (batch ? "batch" : "interpreter");
  }
}

TEST(BurstAdversary, ControlsPatternSizeDeterministically) {
  const WriteAllConfig config{.n = 256, .p = 64};
  BurstAdversaryOptions opt;
  opt.period = 4;
  opt.count = 8;
  BurstAdversary adversary(opt);
  const auto out = run_writeall(WriteAllAlgo::kCombinedVX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_GT(out.run.tally.failures, 0u);
  // Every burst of k failures is matched by k restarts (next decision).
  EXPECT_LE(out.run.tally.restarts, out.run.tally.failures);
}

TEST(ScheduledAdversary, ReplaysARecordedPatternExactly) {
  // Record an adaptive random run against deterministic algorithm X, then
  // replay its schedule as an off-line adversary: the executions coincide.
  const WriteAllConfig config{.n = 128, .p = 128};
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.15;
  opt.restart_prob = 0.7;
  opt.fail_after_frac = 0.0;  // off-line replay applies every failure mid-cycle

  RandomAdversary recordee(23, opt);
  FaultSchedule schedule;
  RecordingAdversary recorder(recordee, schedule);
  const auto recorded = run_writeall(WriteAllAlgo::kX, config, recorder);
  ASSERT_TRUE(recorded.solved);
  ASSERT_GT(schedule.move_count(), 0u);

  ScheduledAdversary replay(schedule);
  const auto replayed = run_writeall(WriteAllAlgo::kX, config, replay);
  EXPECT_TRUE(replayed.solved);
  EXPECT_EQ(replayed.run.tally.completed_work,
            recorded.run.tally.completed_work);
  EXPECT_EQ(replayed.run.tally.slots, recorded.run.tally.slots);
  EXPECT_EQ(replay.skipped(), 0u);
}

TEST(ScheduledAdversary, SkipsInapplicableEvents) {
  FaultSchedule schedule;
  schedule.append(0, {.fail_mid_cycle = {200},  // out of range PID
                      .restart = {0}});        // nobody failed yet
  schedule.append(1, {.fail_mid_cycle = {1},
                      .fail_after_cycle = {1},  // PID 1 already failing
                      .restart = {1, 1}});      // PID 1 already restarting
  schedule.append(  // both apply again: the marks were cleared
      2, {.fail_mid_cycle = {1}, .restart = {1}});
  ScheduledAdversary adversary(schedule);
  const WriteAllConfig config{.n = 16, .p = 4};
  const auto out = run_writeall(WriteAllAlgo::kX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(adversary.skipped(), 4u);
  EXPECT_EQ(out.run.tally.failures, 2u);
  EXPECT_EQ(out.run.tally.restarts, 2u);
}

TEST(ThrashingAdversary, InflatesAttemptedWorkQuadratically) {
  // Example 2.2 against the trivial assignment with P = N: one write lands
  // per slot, every other cycle is aborted and the casualties are revived.
  // S stays ~N while S' ~ N²/2.
  const Addr n = 64;
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n)};
  ThrashingAdversary adversary;
  const auto out = run_writeall(WriteAllAlgo::kTrivial, config, adversary);
  EXPECT_TRUE(out.solved);
  const auto& t = out.run.tally;
  EXPECT_EQ(t.completed_work, n);  // exactly one completed cycle per slot
  EXPECT_GE(t.attempted_work, n * n / 4);  // Ω(P·N)
  EXPECT_GE(t.pattern_size(), n * n / 4);
}

TEST(ThrashingAdversary, CompletedWorkStaysSubquadraticForX) {
  // With the update-cycle accounting, thrashing no longer forces quadratic
  // *completed* work on a Write-All algorithm (§2.2).
  const Addr n = 128;
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n)};
  ThrashingAdversary adversary;
  const auto out = run_writeall(WriteAllAlgo::kX, config, adversary);
  EXPECT_TRUE(out.solved);
  EXPECT_LT(out.run.tally.completed_work, n * n / 2);
}

TEST(NoFailures, ProducesEmptyPattern) {
  const WriteAllConfig config{.n = 64, .p = 16};
  NoFailures none;
  FaultSchedule schedule;
  RecordingAdversary recorder(none, schedule);
  const auto out = run_writeall(WriteAllAlgo::kV, config, recorder);
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.run.tally.pattern_size(), 0u);
  EXPECT_TRUE(schedule.moves.empty());
}

// Forwards the inner adversary's decision in a FaultDecision of its own,
// built without MachineView::blank_decision: the engine then gets fresh
// lists every slot, and the run must not change.
class OwnDecisions final : public Adversary {
 public:
  explicit OwnDecisions(Adversary& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  FaultDecision decide(const MachineView& view) override {
    const FaultDecision inner = inner_.decide(view);
    FaultDecision own;
    own.fail_mid_cycle = inner.fail_mid_cycle;
    own.fail_after_cycle = inner.fail_after_cycle;
    own.restart = inner.restart;
    own.torn = inner.torn;
    return own;
  }
  bool inspects_cycles() const override { return inner_.inspects_cycles(); }

 private:
  Adversary& inner_;
};

TEST(RecordingAdversary, RecordsAnAdversaryThatBuildsItsOwnDecisions) {
  const WriteAllConfig config{.n = 256, .p = 64};
  const RandomAdversaryOptions faults{.fail_prob = 0.2, .restart_prob = 0.6};
  for (const bool thrashing : {false, true}) {
    const auto make = [&]() -> std::unique_ptr<Adversary> {
      if (thrashing) return std::make_unique<ThrashingAdversary>();
      return std::make_unique<RandomAdversary>(17, faults);
    };
    const auto stock = make();
    FaultSchedule stock_schedule;
    RecordingAdversary stock_recorder(*stock, stock_schedule);
    const auto stock_run =
        run_writeall(WriteAllAlgo::kX, config, stock_recorder);

    const auto inner = make();
    OwnDecisions own(*inner);
    FaultSchedule own_schedule;
    RecordingAdversary own_recorder(own, own_schedule);
    const auto own_run = run_writeall(WriteAllAlgo::kX, config, own_recorder);

    ASSERT_TRUE(stock_run.solved);
    EXPECT_EQ(own_run.run.tally, stock_run.run.tally);
    EXPECT_FALSE(own_schedule.moves.empty());
    EXPECT_EQ(schedule_to_jsonl(own_schedule),
              schedule_to_jsonl(stock_schedule));
  }
}

TEST(RecordingAdversary, ForwardsInspectsCycles) {
  // Recording reads only the slot, so a batch run that records keeps the
  // started-flags-only path exactly when the recorded adversary allows it.
  FaultSchedule schedule;
  RandomAdversary random(1);
  EXPECT_FALSE(RecordingAdversary(random, schedule).inspects_cycles());
  const AlgX program({.n = 64, .p = 64});
  PostOrderStalker stalker(program.layout());
  EXPECT_TRUE(RecordingAdversary(stalker, schedule).inspects_cycles());
  EXPECT_FALSE(ReplayAdversary(schedule).inspects_cycles());
}

// ---------------------------------------------------------------------------
// Golden decision streams: the CRC-32 of one fixed run's recorded
// FaultSchedule per stock adversary. A change to how an adversary reads the
// machine must leave every decision, and every RNG draw behind it, as is.

std::uint32_t decision_digest(const Program& program, Adversary& adversary,
                              EngineOptions options = {}) {
  FaultSchedule schedule;
  RecordingAdversary recorder(adversary, schedule);
  Engine engine(program, options);
  engine.run(recorder);
  EXPECT_EQ(engine.batch_active(), options.batch);
  EXPECT_FALSE(schedule.moves.empty());
  return crc32(schedule_to_jsonl(schedule));
}

std::uint32_t writeall_digest(WriteAllAlgo algo, const WriteAllConfig& config,
                              Adversary& adversary,
                              EngineOptions options = {}) {
  return decision_digest(*make_writeall(algo, config), adversary, options);
}

// A restart of a PID that the same decision fails: restarts are drawn only
// from PIDs failed before the slot, so such a move is the strand guard's.
bool strand_guard_fired(const FaultSchedule& schedule) {
  const std::vector<Move>& moves = schedule.moves;
  for (std::size_t b = 0, e = 0; b < moves.size(); b = e) {
    e = schedule.slot_end(b);
    for (std::size_t r = b; r < e; ++r) {
      if (moves[r].kind != Move::Kind::kRestart) continue;
      for (std::size_t f = b; f < e; ++f) {
        if ((moves[f].kind == Move::Kind::kMid ||
             moves[f].kind == Move::Kind::kAfter) &&
            moves[f].target == moves[r].target) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(GoldenDecisions, Random) {
  // fail_after_frac == 0: every failure is clamped mid-cycle, so the
  // strand guard never fires.
  RandomAdversaryOptions opt;
  opt.fail_prob = 0.2;
  opt.restart_prob = 0.6;
  const WriteAllConfig config{.n = 256, .p = 64};
  RandomAdversary interp(17, opt);
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, config, interp), 0xced903dau);
  // The batch backend shows the adversary started flags only.
  RandomAdversary batch(17, opt);
  EngineOptions batch_options;
  batch_options.batch = true;
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, config, batch, batch_options),
            0xced903dau);

  // A finite |F| budget: the started-set loop breaks once it is spent.
  RandomAdversaryOptions budget = opt;
  budget.max_pattern = 150;
  RandomAdversary budgeted(17, budget);
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, config, budgeted), 0x4692896cu);

  // restart_prob == 1 decides without a draw, as Rng::chance does; a stray
  // draw would shift every later failure.
  RandomAdversaryOptions certain_opt = opt;
  certain_opt.restart_prob = 1;
  RandomAdversary certain(17, certain_opt);
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, config, certain), 0x18982983u);

  // fail_prob == 0 draws nothing at all.
  RandomAdversary quiet(17, {.fail_prob = 0, .restart_prob = 0.5});
  const auto out = run_writeall(WriteAllAlgo::kX, {.n = 64, .p = 16}, quiet);
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.run.tally.pattern_size(), 0u);
  std::vector<std::uint64_t> after, fresh;
  quiet.save_state(after);
  RandomAdversary(17).save_state(fresh);
  EXPECT_EQ(after, fresh);

  // fail_after_frac > 0: a second draw per failure, and post-write failures
  // that may take every started cycle, so the strand guard fires.
  RandomAdversaryOptions post_write;
  post_write.fail_prob = 0.3;
  post_write.restart_prob = 0.3;
  post_write.fail_after_frac = 0.25;
  RandomAdversary guarded(5, post_write);
  FaultSchedule schedule;
  RecordingAdversary recorder(guarded, schedule);
  EXPECT_TRUE(
      run_writeall(WriteAllAlgo::kX, {.n = 128, .p = 4}, recorder).solved);
  EXPECT_TRUE(strand_guard_fired(schedule));
  EXPECT_EQ(crc32(schedule_to_jsonl(schedule)), 0x493565e1u);
}

TEST(GoldenDecisions, Burst) {
  BurstAdversary adversary({.period = 4, .count = 8});
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kCombinedVX, {.n = 256, .p = 64},
                            adversary),
            0xf2d20aa9u);
}

TEST(GoldenDecisions, Thrashing) {
  ThrashingAdversary adversary;
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, {.n = 64, .p = 64}, adversary),
            0x5ceb92bdu);
}

TEST(GoldenDecisions, Scheduled) {
  // Failures and restarts on a fixed stride, some of them inapplicable
  // (skipped) when their slot arrives.
  FaultSchedule schedule;
  for (Slot t = 0; t < 60; ++t) {
    FaultDecision moves;
    moves.fail_mid_cycle = {static_cast<Pid>((t * 7) % 16),
                            static_cast<Pid>((t * 3 + 1) % 16)};
    if (t >= 2) moves.restart = {static_cast<Pid>(((t - 2) * 7) % 16)};
    schedule.append(t, moves);
  }
  ScheduledAdversary adversary(std::move(schedule));
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, {.n = 128, .p = 16}, adversary),
            0x0ab046b3u);
  EXPECT_GT(adversary.skipped(), 0u);
}

TEST(GoldenDecisions, IterationKiller) {
  const CombinedVX program({.n = 64, .p = 8});
  IterationKiller adversary(2 * program.layout().v.iteration);
  EXPECT_EQ(decision_digest(program, adversary), 0xa060a781u);
}

TEST(GoldenDecisions, Halving) {
  HalvingAdversary adversary(0, 64);
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, {.n = 64, .p = 64}, adversary),
            0x104b442eu);
  HalvingAdversary no_revive(0, 64, {.revive = false});
  EXPECT_EQ(writeall_digest(WriteAllAlgo::kX, {.n = 64, .p = 64}, no_revive),
            0x63a031f9u);
}

TEST(GoldenDecisions, PostOrderStalker) {
  const AlgX program({.n = 64, .p = 64});
  PostOrderStalker adversary(program.layout());
  EXPECT_EQ(decision_digest(program, adversary), 0x573a197au);
}

TEST(GoldenDecisions, LeafStalker) {
  const AccWriteAll fail_stop_program({.n = 128, .p = 128, .seed = 7});
  LeafStalker fail_stop(fail_stop_program.layout(),
                        {.restart_variant = false});
  EXPECT_EQ(decision_digest(fail_stop_program, fail_stop), 0x58d61d7du);
  const AccWriteAll restart_program({.n = 64, .p = 64, .seed = 3});
  LeafStalker restart(restart_program.layout(), {.restart_variant = true});
  EXPECT_EQ(decision_digest(restart_program, restart), 0xc527a04cu);
  EXPECT_TRUE(restart.released());
}

}  // namespace
}  // namespace rfsp
