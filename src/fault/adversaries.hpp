// General-purpose adversaries.
//
//  * NoFailures        — the fault-free baseline.
//  * RandomAdversary   — i.i.d. failures/restarts (the "particular random
//                        failure model" discussed for [KPS 90]); self-clamps
//                        to respect model constraint 2(i).
//  * BurstAdversary    — deterministically fails (and by default immediately
//                        restarts) `count` processors every `period` slots;
//                        the knob used by experiments that sweep M = |F|.
//  * ThrashingAdversary— Example 2.2: every slot, abort all but one started
//                        cycle and restart the casualties. Against *any*
//                        algorithm this drives S' toward Ω(P·N) while S
//                        stays small — the reason completed work charges
//                        only completed update cycles.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/adversary.hpp"
#include "util/rng.hpp"

namespace rfsp {

class NoFailures final : public Adversary {
 public:
  std::string_view name() const override { return "none"; }
  FaultDecision decide(const MachineView& view) override {
    return view.blank_decision();
  }
  bool inspects_cycles() const override { return false; }
};

struct RandomAdversaryOptions {
  double fail_prob = 0.05;     // per live processor per slot
  double restart_prob = 0.5;   // per failed processor per slot
  double fail_after_frac = 0;  // fraction of failures landing post-write
  // Stop injecting new failures once |F| (failures + restarts) reaches this
  // budget; restarts continue so the run can terminate.
  std::uint64_t max_pattern = UINT64_MAX;
};

class RandomAdversary final : public Adversary {
 public:
  RandomAdversary(std::uint64_t seed, RandomAdversaryOptions opt = {});

  std::string_view name() const override { return "random"; }
  FaultDecision decide(const MachineView& view) override;
  // Samples over the started set (MachineView::started_pids) only, never the
  // buffered writes, so the batched backend may skip trace materialization.
  bool inspects_cycles() const override { return false; }
  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(std::span<const std::uint64_t> data) override;

 private:
  Rng rng_;
  RandomAdversaryOptions opt_;
  // fail_prob and restart_prob as integer thresholds for Rng::first_hit,
  // fixed at construction.
  Rng::Threshold fail_, restart_;
  std::uint64_t pattern_used_ = 0;
};

struct BurstAdversaryOptions {
  Slot period = 1;          // act every `period` slots
  Pid count = 1;            // processors to fail per burst
  bool restart = true;      // revive the casualties at the next decision
  std::uint64_t max_pattern = UINT64_MAX;  // |F| budget
};

class BurstAdversary final : public Adversary {
 public:
  explicit BurstAdversary(BurstAdversaryOptions opt);

  std::string_view name() const override { return "burst"; }
  FaultDecision decide(const MachineView& view) override;
  bool inspects_cycles() const override { return false; }
  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(std::span<const std::uint64_t> data) override;

 private:
  BurstAdversaryOptions opt_;
  std::uint64_t pattern_used_ = 0;
};

class ThrashingAdversary final : public Adversary {
 public:
  // Optionally bound the number of thrashed slots (|F| grows by ~2P per
  // slot); afterwards the adversary goes quiet and the run finishes.
  explicit ThrashingAdversary(std::uint64_t max_pattern = UINT64_MAX)
      : max_pattern_(max_pattern) {}

  std::string_view name() const override { return "thrashing"; }
  FaultDecision decide(const MachineView& view) override;
  bool inspects_cycles() const override { return false; }
  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(std::span<const std::uint64_t> data) override;

 private:
  std::uint64_t max_pattern_;
  std::uint64_t pattern_used_ = 0;
};

}  // namespace rfsp
