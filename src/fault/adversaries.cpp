#include "fault/adversaries.hpp"

#include <algorithm>
#include <span>

#include "util/error.hpp"
#include "util/wordio.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// RandomAdversary

RandomAdversary::RandomAdversary(std::uint64_t seed,
                                 RandomAdversaryOptions opt)
    : rng_(seed), opt_(opt), fail_(opt.fail_prob),
      restart_(opt.restart_prob) {
  RFSP_CHECK(opt_.fail_prob >= 0 && opt_.fail_prob <= 1);
  RFSP_CHECK(opt_.restart_prob >= 0 && opt_.restart_prob <= 1);
  RFSP_CHECK(opt_.fail_after_frac >= 0 && opt_.fail_after_frac <= 1);
}

// Bernoulli trials over the started PIDs, then over the failed ones, each
// in ascending PID order. Rng::first_hit runs through the misses, so a slot
// costs its draws plus its moves.
FaultDecision RandomAdversary::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  const std::span<const Pid> started = view.started_pids();

  std::size_t mid_failures = 0;
  // The budget only changes on a hit, so checking it once per hit is
  // checking it before every draw.
  for (std::size_t i = 0; pattern_used_ < opt_.max_pattern; ++i) {
    i += rng_.first_hit(fail_, started.size() - i);
    if (i == started.size()) break;
    const Pid pid = started[i];
    if (rng_.chance(opt_.fail_after_frac)) {
      d.fail_after_cycle.push_back(pid);
    } else {
      // Self-clamp (constraint 2(i)): never abort the last surviving cycle.
      if (mid_failures + 1 >= started.size()) continue;
      d.fail_mid_cycle.push_back(pid);
      ++mid_failures;
    }
    ++pattern_used_;
  }
  const std::span<const Pid> failed = view.failed_pids();
  for (std::size_t i = 0;; ++i) {
    i += rng_.first_hit(restart_, failed.size() - i);
    if (i == failed.size()) break;
    d.restart.push_back(failed[i]);
    ++pattern_used_;
  }
  // Avoid stranding the machine: if this decision fails every live processor
  // and restarts nobody, revive one casualty. Only post-write failures can
  // take the last started cycle, so with fail_after_frac == 0 this never
  // fires.
  const std::size_t casualties =
      d.fail_mid_cycle.size() + d.fail_after_cycle.size();
  if (casualties == started.size() && !started.empty() && d.restart.empty()) {
    const Pid revive = d.fail_after_cycle.empty() ? d.fail_mid_cycle.front()
                                                  : d.fail_after_cycle.front();
    d.restart.push_back(revive);
    ++pattern_used_;
  }
  return d;
}

void RandomAdversary::save_state(std::vector<std::uint64_t>& out) const {
  U64Writer w(out);
  for (std::uint64_t word : rng_.state()) w.put(word);
  w.put(pattern_used_);
}

void RandomAdversary::load_state(std::span<const std::uint64_t> data) {
  U64Reader r(data);
  std::array<std::uint64_t, 4> s;
  for (auto& word : s) word = r.get();
  rng_.set_state(s);
  pattern_used_ = r.get();
}

// ---------------------------------------------------------------------------
// BurstAdversary

BurstAdversary::BurstAdversary(BurstAdversaryOptions opt) : opt_(opt) {
  RFSP_CHECK(opt_.period >= 1);
}

FaultDecision BurstAdversary::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  // Always revive old casualties (whether or not this is a burst slot), so
  // the machine keeps its processors when restart == false bursts pile up.
  if (opt_.restart) {
    for (Pid pid : view.failed_pids()) {
      if (pattern_used_ >= opt_.max_pattern) break;
      d.restart.push_back(pid);
      ++pattern_used_;
    }
  }
  if (view.slot() % opt_.period != 0) return d;

  const std::span<const Pid> started = view.started_pids();
  if (started.size() <= 1) return d;
  // Fail the highest-PID started processors; the lowest always survives.
  const std::size_t victims =
      std::min<std::size_t>(opt_.count, started.size() - 1);
  for (std::size_t i = 0; i < victims; ++i) {
    if (pattern_used_ >= opt_.max_pattern) break;
    d.fail_mid_cycle.push_back(started[started.size() - 1 - i]);
    ++pattern_used_;
  }
  return d;
}

void BurstAdversary::save_state(std::vector<std::uint64_t>& out) const {
  out.push_back(pattern_used_);
}

void BurstAdversary::load_state(std::span<const std::uint64_t> data) {
  U64Reader r(data);
  pattern_used_ = r.get();
}

// ---------------------------------------------------------------------------
// ThrashingAdversary

FaultDecision ThrashingAdversary::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  // Revive all previous casualties so the whole machine thrashes again.
  for (Pid pid : view.failed_pids()) {
    if (pattern_used_ >= max_pattern_) break;
    d.restart.push_back(pid);
    ++pattern_used_;
  }
  const std::span<const Pid> started = view.started_pids();
  if (started.size() <= 1) return d;
  // Abort every started cycle except the lowest PID's (Example 2.2 lets one
  // write through per slot), then revive the casualties immediately.
  for (std::size_t i = 1; i < started.size(); ++i) {
    if (pattern_used_ + 2 > max_pattern_) break;  // failure + its restart
    d.fail_mid_cycle.push_back(started[i]);
    d.restart.push_back(started[i]);
    pattern_used_ += 2;
  }
  return d;
}

void ThrashingAdversary::save_state(std::vector<std::uint64_t>& out) const {
  out.push_back(pattern_used_);
}

void ThrashingAdversary::load_state(std::span<const std::uint64_t> data) {
  U64Reader r(data);
  pattern_used_ = r.get();
}

}  // namespace rfsp
