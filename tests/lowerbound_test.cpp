// Theorem 3.1: the halving adversary forces Ω(N log N) completed work on
// ANY Write-All algorithm with P = N — including the snapshot algorithm
// operating under the strong unit-cost-read assumption.
#include <gtest/gtest.h>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "replay/schedule.hpp"
#include "util/bits.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

double forced_work(WriteAllAlgo algo, Addr n) {
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n), .seed = 1};
  HalvingAdversary adversary(0, n);
  const auto out = run_writeall(algo, config, adversary);
  EXPECT_TRUE(out.solved) << to_string(algo) << " n=" << n;
  return static_cast<double>(out.run.tally.completed_work);
}

TEST(LowerBound, HalvingForcesNLogNOnEveryAlgorithm) {
  // The proof guarantees ≥ ⌊N/2⌋ completed cycles for ≥ ~log₂N rounds.
  // Assert a half-strength version (engineering slack for the guard that
  // keeps constraint 2(i) when a processor writes into both halves).
  for (Addr n : {Addr{64}, Addr{256}, Addr{1024}}) {
    const double floor_bound = 0.25 * static_cast<double>(n) * floor_log2(n);
    for (WriteAllAlgo algo :
         {WriteAllAlgo::kV, WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX,
          WriteAllAlgo::kAcc, WriteAllAlgo::kSnapshot}) {
      EXPECT_GE(forced_work(algo, n), floor_bound)
          << to_string(algo) << " n=" << n;
    }
  }
}

TEST(LowerBound, HalvingRunsTheExpectedNumberOfRounds) {
  const Addr n = 1024;
  HalvingAdversary adversary(0, n);
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n)};
  const auto out = run_writeall(WriteAllAlgo::kSnapshot, config, adversary);
  ASSERT_TRUE(out.solved);
  // Halving U from N to 1 takes ≥ log₂N effective rounds.
  EXPECT_GE(adversary.rounds(), floor_log2(n));
}

TEST(LowerBound, BoundBindsOnlyCorrectAlgorithms) {
  // The trivial assignment slips under N log N against the halving
  // adversary (its processors halt after one write, so only ~U casualties
  // retry each round and S = Θ(N)) — but it is NOT a correct Write-All
  // algorithm: an adversary that kills one processor forever starves that
  // processor's cells. Theorem 3.1 quantifies over correct algorithms, so
  // this is the expected, instructive escape, not a counterexample.
  const Addr n = 256;
  const double s = forced_work(WriteAllAlgo::kTrivial, n);
  EXPECT_LE(s, 6.0 * static_cast<double>(n));  // far below N log N

  // ... and the incorrectness half: one permanent crash starves a cell.
  FaultSchedule one_death;
  one_death.entries.push_back({0, {.fail_mid_cycle = {3}}});
  ScheduledAdversary crash(one_death);
  EngineOptions options;
  options.max_slots = 4096;
  const auto out = run_writeall(WriteAllAlgo::kTrivial,
                                {.n = n, .p = static_cast<Pid>(n)}, crash);
  EXPECT_FALSE(out.solved);
}

}  // namespace
}  // namespace rfsp
