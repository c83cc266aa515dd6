#include "fault/iteration_killer.hpp"

#include <span>

#include "util/error.hpp"

namespace rfsp {

IterationKiller::IterationKiller(Slot window, Slot kill_phase)
    : window_(window), kill_phase_(kill_phase) {
  if (window_ < 2 || kill_phase_ + 1 >= window_) {
    throw ConfigError("iteration killer needs kill_phase + 1 < window");
  }
}

FaultDecision IterationKiller::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  const Slot phi = view.slot() % window_;
  const std::span<const Pid> started = view.started_pids();
  if (phi == kill_phase_) {
    // First strike: fail-and-restart everyone but the lowest started PID.
    for (std::size_t i = 1; i < started.size(); ++i) {
      d.fail_mid_cycle.push_back(started[i]);
      d.restart.push_back(started[i]);
    }
  } else if (phi == kill_phase_ + 1) {
    // Second strike: the spared survivor (still the lowest started PID —
    // the restarts did not change indices). Constraint 2(i) needs another
    // completer, so with fewer than two started processors the strike is
    // skipped (a single-processor machine cannot be stalled this way).
    if (started.size() >= 2) {
      d.fail_mid_cycle.push_back(started.front());
      d.restart.push_back(started.front());
    }
  }
  return d;
}

}  // namespace rfsp
