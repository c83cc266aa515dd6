// Stalking adversaries: Theorem 4.8's post-order pattern against X, and the
// §5 leaf stalker that separates on-line from off-line adversaries for the
// randomized ACC stand-in.
#include <gtest/gtest.h>

#include <cmath>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "pram/engine.hpp"
#include "replay/schedule.hpp"
#include "util/bits.hpp"
#include "writeall/acc.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

std::uint64_t stalked_x_work(Addr n) {
  const AlgX program({.n = n, .p = static_cast<Pid>(n)});
  PostOrderStalker adversary(program.layout());
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met) << "n=" << n;
  EXPECT_TRUE(program.solved(engine.memory()));
  return result.tally.completed_work;
}

TEST(PostOrderStalker, ForcesSuperlinearWorkOnX) {
  // Theorem 4.8: S = Ω(N^{log₂3}) ≈ N^1.585. Check the empirical exponent
  // between successive sizes clears a conservative 1.25.
  const double s256 = static_cast<double>(stalked_x_work(256));
  const double s1024 = static_cast<double>(stalked_x_work(1024));
  const double exponent = std::log(s1024 / s256) / std::log(1024.0 / 256.0);
  EXPECT_GE(exponent, 1.25) << "s256=" << s256 << " s1024=" << s1024;
  // And far above the fault-free cost at the same size.
  NoFailures none;
  const auto faultfree = run_writeall(
      WriteAllAlgo::kX, {.n = 1024, .p = 1024}, none);
  EXPECT_GE(s1024,
            3.0 * static_cast<double>(faultfree.run.tally.completed_work));
}

TEST(LeafStalker, FailStopVariantLeavesOneSurvivor) {
  const Addr n = 128;
  const AccWriteAll program({.n = n, .p = static_cast<Pid>(n), .seed = 7});
  LeafStalker adversary(program.layout(), {.restart_variant = false});
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_TRUE(program.solved(engine.memory()));
  EXPECT_EQ(result.tally.restarts, 0u);  // fail-stop case: no restarts
  EXPECT_GT(result.tally.failures, 0u);
}

TEST(LeafStalker, RestartVariantHerdsEveryoneToTheLeaf) {
  const Addr n = 64;
  const AccWriteAll program({.n = n, .p = static_cast<Pid>(n), .seed = 3});
  LeafStalker adversary(program.layout(), {.restart_variant = true});
  Engine engine(program);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_TRUE(program.solved(engine.memory()));
  EXPECT_TRUE(adversary.released());
  EXPECT_GT(result.tally.restarts, 0u);
}

TEST(LeafStalker, OnLineBeatsOffLineAgainstAcc) {
  // §5's separation: replaying the stalker's recorded pattern as an
  // off-line schedule against a *different* coin sequence leaves ACC far
  // cheaper than the adaptive stalker itself (the pattern no longer tracks
  // where the processors actually are).
  const Addr n = 256;
  const WriteAllConfig online_config{
      .n = n, .p = static_cast<Pid>(n), .seed = 11};
  const AccWriteAll program(online_config);
  LeafStalker stalker(program.layout(), {.restart_variant = false});
  FaultSchedule schedule;
  RecordingAdversary recorder(stalker, schedule);
  Engine engine(program);
  const RunResult online = engine.run(recorder);
  ASSERT_TRUE(online.goal_met);

  // Same pattern, fresh coins: off-line in the §5 sense.
  const WriteAllConfig offline_config{
      .n = n, .p = static_cast<Pid>(n), .seed = 999};
  ScheduledAdversary offline(schedule);
  const auto replay =
      run_writeall(WriteAllAlgo::kAcc, offline_config, offline);
  ASSERT_TRUE(replay.solved);
  EXPECT_LT(replay.run.tally.completed_work, online.tally.completed_work);
}

TEST(PostOrderStalker, MuchGentlerOnCombinedVX) {
  // The combined algorithm's V half keeps global progress going, so the
  // post-order pattern cannot push it to the X-alone blow-up.
  const Addr n = 1024;
  const CombinedVX combined_prog = CombinedVX({.n = n, .p = static_cast<Pid>(n)});
  PostOrderStalker adversary(combined_prog.layout().x);
  Engine engine(combined_prog);
  const RunResult combined = engine.run(adversary);
  ASSERT_TRUE(combined.goal_met);
  const double s_combined = static_cast<double>(combined.tally.completed_work);
  const double s_x_alone = static_cast<double>(stalked_x_work(n));
  EXPECT_LT(s_combined, s_x_alone);
}

}  // namespace
}  // namespace rfsp
