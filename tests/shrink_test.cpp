// Failure shrinking (replay/shrink.hpp): a planted violation buried in
// noise reduces to a minimal reproducer, the weaken stage simplifies move
// kinds, the probe budget is honored, and passing inputs are rejected.
#include <gtest/gtest.h>

#include <algorithm>

#include "replay/repro.hpp"
#include "replay/shrink.hpp"
#include "test_util.hpp"

namespace rfsp {
namespace {

// A schedule with lots of legal noise and one illegal move (restarting a
// live processor) at slot 11.
FaultSchedule planted_violation() {
  FaultSchedule s;
  const ReproSpec spec{.algo = WriteAllAlgo::kX, .n = 64, .p = 8};
  write_meta(spec, s, ProbeStatus::kAdversaryViolation, "planted");
  s.append(0, {.fail_mid_cycle = {1, 2, 3}});
  s.append(1, {.restart = {1, 2}});
  s.append(2, {.fail_after_cycle = {4}});
  s.append(3, {.fail_mid_cycle = {5, 6}});
  s.append(4, {.restart = {3, 4, 5, 6}});
  s.append(7, {.fail_mid_cycle = {0, 1}});
  s.append(8, {.restart = {0, 1}});
  s.append(11, {.fail_mid_cycle = {2}, .restart = {7}});  // 7 is live
  s.append(12, {.fail_after_cycle = {3}});
  s.append(14, {.fail_mid_cycle = {4}});
  s.append(15, {.restart = {3, 4}});
  return s;
}

TEST(Shrink, PlantedViolationReducesToMinimalReproducer) {
  const FaultSchedule input = planted_violation();
  const ReproSpec spec = spec_from_meta(input);
  ASSERT_EQ(probe(spec, input).status, ProbeStatus::kAdversaryViolation);

  const ShrinkResult r = shrink_schedule(input, [&](const FaultSchedule& s) {
    return probe(spec, s).status == ProbeStatus::kAdversaryViolation;
  });

  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_LE(r.schedule.slot_count(), 3u);  // acceptance bound
  EXPECT_EQ(r.final_moves, 1u);            // in fact: one bad restart
  ASSERT_EQ(r.schedule.slot_count(), 1u);
  EXPECT_EQ(r.schedule.moves[0].kind, Move::Kind::kRestart);
  EXPECT_LE(r.final_moves, r.initial_moves);
  EXPECT_EQ(probe(spec, r.schedule).status,
            ProbeStatus::kAdversaryViolation);
  // Meta rides along untouched, so the minimized schedule is still a
  // self-describing reproducer.
  EXPECT_EQ(r.schedule.meta.at("algo"), "X");
}

TEST(Shrink, WeakenStageSimplifiesMoveKinds) {
  // The predicate only cares that pid 0 fails at slot 0 — any kind of
  // failure. Stage C must then weaken the torn move to a plain mid-cycle
  // failure and onward to an after-cycle failure, the least adversarial
  // move that still satisfies the predicate.
  FaultSchedule s;
  s.append(0, {.torn = {{0, 0, 13}}});
  const auto pid0_fails = [](const FaultSchedule& cand) {
    return std::any_of(cand.moves.begin(), cand.moves.end(), [](auto& m) {
      return m.slot == 0 && (m.kind == Move::Kind::kMid ||
                             m.kind == Move::Kind::kAfter ||
                             m.kind == Move::Kind::kTorn);
    });
  };
  const ShrinkResult r = shrink_schedule(s, pid0_fails);
  ASSERT_EQ(r.schedule.slot_count(), 1u);
  ASSERT_EQ(r.schedule.move_count(), 1u);
  EXPECT_EQ(r.schedule.moves[0], (Move{.target = 0,
                                       .kind = Move::Kind::kAfter}));
}

TEST(Shrink, RecordedChaosScheduleShrinksToPinnedBytes) {
  // A recorded random schedule with several kinds per slot, torn writes
  // included, under a predicate that needs some failures, restarts and one
  // torn write to survive. Every stage changes the schedule, so the pinned
  // bytes and probe count hold each stage's order and each move's place.
  const ReproSpec spec{.algo = WriteAllAlgo::kX, .n = 64, .p = 16,
                       .seed = 5, .bit_atomic_writes = true};
  FaultSchedule input;
  testing::ChaosAdversary chaos(7, /*allow_torn=*/true);
  RecordingAdversary recorder(chaos, input);
  EngineOptions options;
  options.bit_atomic_writes = true;
  ASSERT_TRUE(run_writeall(spec.algo, {.n = spec.n, .p = spec.p,
                                       .seed = spec.seed},
                           recorder, options)
                  .solved);
  write_meta(spec, input, ProbeStatus::kSolved);
  ASSERT_TRUE(input.has_torn_moves());

  const ShrinkResult r = shrink_schedule(input, [&](const FaultSchedule& s) {
    const ProbeResult p = probe(spec, s);
    return p.status == ProbeStatus::kSolved && p.tally.failures >= 6 &&
           p.tally.restarts >= 3 && s.has_torn_moves();
  });
  EXPECT_EQ(r.initial_moves, 595u);
  EXPECT_EQ(r.probes, 69u);
  EXPECT_EQ(schedule_to_jsonl(r.schedule),
            R"({"format":"rfsp-fault-schedule","version":1,"meta":{"algo":"X",)"
            R"("bit_atomic":"1","max_slots":"1048576","n":"64","p":"16",)"
            R"("seed":"5","status":"solved"}})"
            "\n"
            R"({"t":0,"after":[6,14]})"
            "\n"
            R"({"t":1,"after":[4,13,3],"restart":[3,4,13],)"
            R"("torn":[{"pid":15,"w":0,"keep":4}]})"
            "\n");
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(Shrink, ScheduleIndependentFailureShrinksToEmpty) {
  // When the predicate fails for every schedule, the minimum is empty.
  FaultSchedule s = planted_violation();
  const ShrinkResult r =
      shrink_schedule(s, [](const FaultSchedule&) { return true; });
  EXPECT_TRUE(r.schedule.moves.empty());
  EXPECT_EQ(r.final_moves, 0u);
}

TEST(Shrink, PassingInputIsRejected) {
  const FaultSchedule s = planted_violation();
  EXPECT_THROW(
      shrink_schedule(s, [](const FaultSchedule&) { return false; }),
      ConfigError);
}

TEST(Shrink, BudgetIsHonored) {
  // 1,000 after-cycle failures, every one essential: no removal keeps the
  // predicate true and none can be weakened, so ddmin alone (about two
  // probes per entry) and the per-move sweep (one per move) would need
  // about 3,000 probes to reach the fixpoint.
  FaultSchedule input;
  for (Slot t = 0; t < 1000; ++t) {
    input.append(t, {.fail_after_cycle = {Pid{0}}});
  }
  std::size_t calls = 0;
  const auto all_moves = [&](const FaultSchedule& s) {
    ++calls;
    return s.move_count() == input.move_count();
  };
  const ShrinkResult r = shrink_schedule(input, all_moves);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.probes, kShrinkMaxProbes);
  EXPECT_EQ(calls, kShrinkMaxProbes);
  // Whatever was reached must still fail.
  EXPECT_EQ(r.schedule, input);
}

}  // namespace
}  // namespace rfsp
