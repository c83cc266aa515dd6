#include "replay/shrink.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rfsp {

namespace {

using Pred = std::function<bool(const FaultSchedule&)>;

class ProbeBudget {
 public:
  bool exhausted() const { return used_ >= kShrinkMaxProbes; }
  std::size_t used() const { return used_; }
  void charge() { ++used_; }

 private:
  std::size_t used_ = 0;
};

// Stage A: ddmin over whole entries — remove chunk-sized runs of slots,
// halving the chunk until single entries are tried.
bool stage_entries(FaultSchedule& current, const Pred& still_fails,
                   ProbeBudget& budget) {
  bool changed = false;
  std::size_t chunk = std::max<std::size_t>(current.entries.size() / 2, 1);
  while (!budget.exhausted() && !current.entries.empty()) {
    bool removed = false;
    std::size_t i = 0;
    while (i < current.entries.size() && !budget.exhausted()) {
      const std::size_t len = std::min(chunk, current.entries.size() - i);
      FaultSchedule cand = current;
      cand.entries.erase(cand.entries.begin() + static_cast<std::ptrdiff_t>(i),
                         cand.entries.begin() +
                             static_cast<std::ptrdiff_t>(i + len));
      budget.charge();
      if (still_fails(cand)) {
        current = std::move(cand);
        removed = changed = true;  // stay at i: the next chunk shifted here
      } else {
        i += len;
      }
    }
    if (chunk == 1) {
      if (!removed) break;  // 1-minimal at entry granularity
    } else {
      chunk = std::max<std::size_t>(chunk / 2, 1);
    }
  }
  return changed;
}

// Stage B: remove individual moves inside each surviving entry; an entry
// whose last move goes is dropped with it.
bool stage_moves(FaultSchedule& current, const Pred& still_fails,
                 ProbeBudget& budget) {
  bool changed = false;
  std::size_t e = 0;
  while (e < current.entries.size() && !budget.exhausted()) {
    bool removed_entry = false;

    const auto attempt = [&](const auto& mutate) {
      FaultSchedule cand = current;
      mutate(cand.entries[e].decision);
      if (cand.entries[e].decision.empty()) {
        cand.entries.erase(cand.entries.begin() +
                           static_cast<std::ptrdiff_t>(e));
      }
      budget.charge();
      if (!still_fails(cand)) return false;
      removed_entry = cand.entries.size() < current.entries.size();
      current = std::move(cand);
      changed = true;
      return true;
    };

    const auto sweep_pids = [&](std::vector<Pid> FaultDecision::*member) {
      std::size_t i = 0;
      while (!removed_entry && !budget.exhausted() &&
             i < (current.entries[e].decision.*member).size()) {
        const bool ok = attempt([&](FaultDecision& d) {
          (d.*member).erase((d.*member).begin() +
                            static_cast<std::ptrdiff_t>(i));
        });
        if (!ok) ++i;
      }
    };

    const auto sweep_addrs = [&](std::vector<Addr> FaultDecision::*member) {
      std::size_t i = 0;
      while (!removed_entry && !budget.exhausted() &&
             i < (current.entries[e].decision.*member).size()) {
        const bool ok = attempt([&](FaultDecision& d) {
          (d.*member).erase((d.*member).begin() +
                            static_cast<std::ptrdiff_t>(i));
        });
        if (!ok) ++i;
      }
    };

    sweep_pids(&FaultDecision::fail_mid_cycle);
    if (!removed_entry) sweep_pids(&FaultDecision::fail_after_cycle);
    if (!removed_entry) sweep_pids(&FaultDecision::restart);
    if (!removed_entry) sweep_addrs(&FaultDecision::cell_faults);
    if (!removed_entry) sweep_pids(&FaultDecision::cache_drop);
    std::size_t i = 0;
    while (!removed_entry && !budget.exhausted() &&
           i < current.entries[e].decision.torn.size()) {
      const bool ok = attempt([&](FaultDecision& d) {
        d.torn.erase(d.torn.begin() + static_cast<std::ptrdiff_t>(i));
      });
      if (!ok) ++i;
    }

    if (!removed_entry) ++e;
  }
  return changed;
}

// Stage C: weaken moves one adversarial notch — torn -> fail_mid_cycle,
// fail_mid_cycle -> fail_after_cycle. Both steps are one-directional, so
// the fixpoint loop cannot oscillate through here.
bool stage_weaken(FaultSchedule& current, const Pred& still_fails,
                  ProbeBudget& budget) {
  bool changed = false;
  for (std::size_t e = 0; e < current.entries.size() && !budget.exhausted();
       ++e) {
    std::size_t i = 0;
    while (i < current.entries[e].decision.torn.size() &&
           !budget.exhausted()) {
      FaultSchedule cand = current;
      FaultDecision& d = cand.entries[e].decision;
      const Pid pid = d.torn[i].pid;
      d.torn.erase(d.torn.begin() + static_cast<std::ptrdiff_t>(i));
      d.fail_mid_cycle.push_back(pid);
      budget.charge();
      if (still_fails(cand)) {
        current = std::move(cand);
        changed = true;
      } else {
        ++i;
      }
    }
    i = 0;
    while (i < current.entries[e].decision.fail_mid_cycle.size() &&
           !budget.exhausted()) {
      FaultSchedule cand = current;
      FaultDecision& d = cand.entries[e].decision;
      const Pid pid = d.fail_mid_cycle[i];
      d.fail_mid_cycle.erase(d.fail_mid_cycle.begin() +
                             static_cast<std::ptrdiff_t>(i));
      d.fail_after_cycle.push_back(pid);
      budget.charge();
      if (still_fails(cand)) {
        current = std::move(cand);
        changed = true;
      } else {
        ++i;
      }
    }
  }
  return changed;
}

}  // namespace

ShrinkResult shrink_schedule(const FaultSchedule& input,
                             const Pred& still_fails) {
  ShrinkResult result;
  result.initial_moves = input.move_count();

  ProbeBudget budget;
  budget.charge();
  if (!still_fails(input)) {
    throw ConfigError(
        "shrink_schedule: the input schedule does not fail the predicate — "
        "nothing to shrink");
  }

  FaultSchedule current = input;
  bool progress = true;
  while (progress && !budget.exhausted()) {
    progress = false;
    progress |= stage_entries(current, still_fails, budget);
    progress |= stage_moves(current, still_fails, budget);
    progress |= stage_weaken(current, still_fails, budget);
  }

  result.schedule = std::move(current);
  result.probes = budget.used();
  result.final_moves = result.schedule.move_count();
  result.budget_exhausted = budget.exhausted();
  return result;
}

}  // namespace rfsp
