// Failure-shrinking: delta-debugging minimizer for fault schedules
// (docs/resilience.md §2).
//
// Given a schedule whose replay exhibits some failure (a violation, an
// unsolved run, a tripped invariant) and a predicate that re-checks it,
// shrink_schedule searches for a smaller schedule with the same failure:
//
//   stage A  ddmin over whole entries (remove slot-sized chunks, halving
//            granularity — Zeller & Hildebrandt's delta debugging);
//   stage B  remove individual moves within each surviving entry
//            (a pid from mid/after/restart, one torn record);
//   stage C  weaken surviving moves: torn -> fail_mid_cycle and
//            fail_mid_cycle -> fail_after_cycle — each step strictly less
//            adversarial, so a failure that survives it has a simpler cause.
//            A predicate that asks for the same outcome (ProbeStatus)
//            already rejects a weakening that changes it.
//
// Stages loop to a fixpoint within kShrinkMaxProbes predicate evaluations
// (each probe is a full engine replay). The result is 1-minimal at the
// granularity the budget allowed: a corpus reproducer small enough to
// read, not just to re-run.
#pragma once

#include <cstddef>
#include <functional>

#include "replay/schedule.hpp"

namespace rfsp {

// Upper bound on predicate evaluations across all stages.
inline constexpr std::size_t kShrinkMaxProbes = 2000;

struct ShrinkResult {
  FaultSchedule schedule;   // smallest failing schedule found
  std::size_t probes = 0;   // predicate evaluations spent
  std::uint64_t initial_moves = 0;
  std::uint64_t final_moves = 0;
  bool budget_exhausted = false;  // stopped by the budget, not by fixpoint
};

// Minimize `input` with respect to `still_fails` (true = the failure of
// interest still reproduces). The predicate must hold for `input` itself —
// ConfigError otherwise, because shrinking a passing schedule means the
// caller's repro is already broken.
ShrinkResult shrink_schedule(
    const FaultSchedule& input,
    const std::function<bool(const FaultSchedule&)>& still_fails);

}  // namespace rfsp
