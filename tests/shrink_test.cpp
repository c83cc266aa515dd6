// Failure shrinking (replay/shrink.hpp): a planted violation buried in
// noise reduces to a minimal reproducer, the weaken stage simplifies move
// kinds, the probe budget is honored, and passing inputs are rejected.
#include <gtest/gtest.h>

#include "replay/repro.hpp"
#include "replay/shrink.hpp"

namespace rfsp {
namespace {

// A schedule with lots of legal noise and one illegal move (restarting a
// live processor) at slot 11.
FaultSchedule planted_violation() {
  FaultSchedule s;
  const ReproSpec spec{.algo = WriteAllAlgo::kX, .n = 64, .p = 8};
  write_meta(spec, s, ProbeStatus::kAdversaryViolation, "planted");
  const auto entry = [&](Slot t) -> ScheduleEntry& {
    s.entries.push_back({t, {}});
    return s.entries.back();
  };
  entry(0).decision.fail_mid_cycle = {1, 2, 3};
  entry(1).decision.restart = {1, 2};
  entry(2).decision.fail_after_cycle = {4};
  entry(3).decision.fail_mid_cycle = {5, 6};
  entry(4).decision.restart = {3, 4, 5, 6};
  entry(7).decision.fail_mid_cycle = {0, 1};
  entry(8).decision.restart = {0, 1};
  entry(11).decision = {.fail_mid_cycle = {2}, .restart = {7}};  // 7 is live
  entry(12).decision.fail_after_cycle = {3};
  entry(14).decision.fail_mid_cycle = {4};
  entry(15).decision.restart = {3, 4};
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
  EXPECT_LE(r.schedule.entries.size(), 3u);  // acceptance bound
  EXPECT_EQ(r.final_moves, 1u);              // in fact: one bad restart
  ASSERT_EQ(r.schedule.entries.size(), 1u);
  EXPECT_EQ(r.schedule.entries[0].decision.restart.size(), 1u);
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
  s.entries.push_back({0, {.torn = {{0, 0, 13}}}});
  const auto pid0_fails = [](const FaultSchedule& cand) {
    if (cand.entries.empty()) return false;
    const FaultDecision& d = cand.entries[0].decision;
    return !d.fail_mid_cycle.empty() || !d.fail_after_cycle.empty() ||
           !d.torn.empty();
  };
  const ShrinkResult r = shrink_schedule(s, pid0_fails);
  ASSERT_EQ(r.schedule.entries.size(), 1u);
  const FaultDecision& d = r.schedule.entries[0].decision;
  EXPECT_TRUE(d.torn.empty());
  EXPECT_TRUE(d.fail_mid_cycle.empty());
  EXPECT_EQ(d.fail_after_cycle, std::vector<Pid>{0});
}

TEST(Shrink, ScheduleIndependentFailureShrinksToEmpty) {
  // When the predicate fails for every schedule, the minimum is empty.
  FaultSchedule s = planted_violation();
  const ShrinkResult r =
      shrink_schedule(s, [](const FaultSchedule&) { return true; });
  EXPECT_TRUE(r.schedule.entries.empty());
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
    input.entries.push_back({t, {.fail_after_cycle = {Pid{0}}}});
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
