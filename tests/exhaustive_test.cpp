// Systematic small-instance sweeps: instead of sampling adversities, walk
// grids of scripted fault patterns (every victim × every strike slot ×
// several restart delays) against every fault-tolerant algorithm, plus
// cross-cutting accounting invariants that must hold on every run.
#include <gtest/gtest.h>

#include <tuple>

#include "fault/adversaries.hpp"
#include "obs/trace.hpp"
#include "replay/schedule.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

// One scripted failure (and optional restart) of one processor.
WriteAllOutcome run_single_fault(WriteAllAlgo algo, Addr n, Pid p, Pid victim,
                                 Slot when, Slot restart_delay,
                                 bool restart) {
  FaultSchedule schedule;
  schedule.append(when, {.fail_mid_cycle = {victim}});
  if (restart) schedule.append(when + restart_delay, {.restart = {victim}});
  ScheduledAdversary adversary(std::move(schedule));
  EngineOptions options;
  options.max_slots = 1 << 16;
  return run_writeall(algo, {.n = n, .p = p, .seed = 3}, adversary, options);
}

using SweepParam = std::tuple<WriteAllAlgo, Addr>;

class SingleFaultSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SingleFaultSweep, EveryVictimEverySlot) {
  const auto [algo, n] = GetParam();
  const Pid p = static_cast<Pid>(n < 4 ? n : n / 2);
  std::size_t runs = 0;
  for (Pid victim = 0; victim < p; ++victim) {
    for (Slot when = 0; when < 14; ++when) {
      for (const Slot delay : {Slot{1}, Slot{5}}) {
        const auto out =
            run_single_fault(algo, n, p, victim, when, delay, true);
        ASSERT_TRUE(out.solved)
            << to_string(algo) << " n=" << n << " victim=" << victim
            << " slot=" << when << " delay=" << delay;
        ++runs;
      }
      // Permanent crash (no restart): tolerated whenever p > 1; with p == 1
      // the scheduled adversary self-clamps the failure away.
      const auto out =
          run_single_fault(algo, n, p, victim, when, 0, false);
      ASSERT_TRUE(out.solved)
          << to_string(algo) << " crash-only victim=" << victim
          << " slot=" << when;
      ++runs;
    }
  }
  EXPECT_GE(runs, 14u * 3u);  // the sweep actually swept
}

INSTANTIATE_TEST_SUITE_P(
    RobustAlgos, SingleFaultSweep,
    ::testing::Combine(::testing::ValuesIn(robust_writeall_algos()),
                       ::testing::Values<Addr>(2, 9, 16)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DoubleFaultSweep, PairsOfStrikesOnX) {
  // Two scripted failures with restarts, across a slot grid: the stable
  // w[] recovery must compose.
  const Addr n = 16;
  const Pid p = 8;
  for (Slot first = 0; first < 10; first += 2) {
    for (Slot gap = 1; gap <= 7; gap += 3) {
      for (Pid v1 = 0; v1 < p; v1 += 3) {
        const Pid v2 = (v1 + 1) % p;
        FaultSchedule schedule;
        schedule.append(first, {.fail_mid_cycle = {v1}});
        schedule.append(first + gap, {.fail_mid_cycle = {v2}, .restart = {v1}});
        schedule.append(first + gap + 2, {.restart = {v2}});
        ScheduledAdversary adversary(std::move(schedule));
        const auto out = run_writeall(WriteAllAlgo::kX,
                                      {.n = n, .p = p, .seed = 1}, adversary);
        ASSERT_TRUE(out.solved)
            << "first=" << first << " gap=" << gap << " v1=" << v1;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Accounting invariants that must hold on every run of every algorithm.

TEST(AccountingInvariants, HoldAcrossAlgorithmsAndAdversaries) {
  for (WriteAllAlgo algo : robust_writeall_algos()) {
    for (const double fail : {0.0, 0.1, 0.4}) {
      RandomAdversary adversary(
          41, {.fail_prob = fail, .restart_prob = 0.6,
               .fail_after_frac = 0.25});
      CollectingTraceSink sink;
      EngineOptions options;
      options.sink = &sink;
      const auto out = run_writeall(
          algo, {.n = 200, .p = 50, .seed = 2}, adversary, options);
      ASSERT_TRUE(out.solved) << to_string(algo) << " fail=" << fail;
      const auto& t = out.run.tally;

      // S' - S = cycles aborted mid-flight <= failure events.
      EXPECT_GE(t.attempted_work, t.completed_work);
      EXPECT_LE(t.attempted_work - t.completed_work, t.failures);
      // Restarts never exceed failures (each revives a prior failure).
      EXPECT_LE(t.restarts, t.failures);
      // Peak concurrency is bounded by P; some slot ran at least 1.
      EXPECT_GE(t.peak_live, 1u);
      EXPECT_LE(t.peak_live, 50u);
      // The slot events decompose the tallies exactly.
      std::uint64_t s = 0, sp = 0;
      for (const TraceEvent& e : sink.events()) {
        if (e.kind != TraceEventKind::kSlot) continue;
        s += e.completed;
        sp += e.started;
        EXPECT_LE(e.completed, e.started);
      }
      EXPECT_EQ(s, t.completed_work);
      EXPECT_EQ(sp, t.attempted_work);
      // At least N cycles were needed to write N cells.
      EXPECT_GE(t.completed_work, 200u);
    }
  }
}

TEST(LeafSizeOverride, VSolvesAcrossTheSweep) {
  // V only records progress when a processor survives a whole iteration of
  // ~2 log L + B slots, so the failure rate is scaled to keep every swept
  // B survivable (the B ≫ log N regime under heavy failure is genuinely
  // non-terminating — that trade-off is the E11c ablation's subject, and
  // the combined VX below also covers it via the X half).
  for (Addr b : {Addr{1}, Addr{2}, Addr{5}, Addr{30}}) {
    RandomAdversary adversary(7, {.fail_prob = 0.04, .restart_prob = 0.6});
    const auto out = run_writeall(
        WriteAllAlgo::kV, {.n = 300, .p = 30, .seed = 1, .leaf_elems = b},
        adversary);
    ASSERT_TRUE(out.solved) << "V B=" << b;
  }
  // The combined algorithm tolerates even unsurvivable-for-V leaf sizes:
  // the X half terminates regardless (Theorem 4.9's point).
  for (Addr b : {Addr{64}, Addr{500}}) {
    RandomAdversary adversary(7, {.fail_prob = 0.1, .restart_prob = 0.6});
    const auto out = run_writeall(
        WriteAllAlgo::kCombinedVX,
        {.n = 300, .p = 30, .seed = 1, .leaf_elems = b}, adversary);
    ASSERT_TRUE(out.solved) << "VX B=" << b;
  }
}

TEST(LeafSizeOverride, ExtremesMatchStructure) {
  // B = n: a single leaf holding everything; B = 1: one element per leaf.
  NoFailures none;
  for (Addr b : {Addr{1}, Addr{300}}) {
    const auto out = run_writeall(
        WriteAllAlgo::kV, {.n = 300, .p = 10, .seed = 1, .leaf_elems = b},
        none);
    EXPECT_TRUE(out.solved) << "B=" << b;
  }
}

}  // namespace
}  // namespace rfsp
