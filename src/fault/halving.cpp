#include "fault/halving.hpp"

#include <algorithm>
#include <span>

#include "util/error.hpp"

namespace rfsp {

HalvingAdversary::HalvingAdversary(Addr x_base, Addr n, Word visited_mask,
                                   HalvingOptions options)
    : x_base_(x_base), n_(n), visited_mask_(visited_mask),
      options_(options) {
  RFSP_CHECK(n >= 1);
}

FaultDecision HalvingAdversary::decide(const MachineView& view) {
  FaultDecision d;
  if (options_.revive) {
    // "All N processors are revived."
    for (Pid pid = 0; pid < view.processors(); ++pid) {
      if (view.status(pid) == ProcStatus::kFailed) d.restart.push_back(pid);
    }
  }

  // Current unvisited set and the pending writers per unvisited cell.
  std::vector<Addr> unvisited;
  unvisited.reserve(n_);
  for (Addr i = 0; i < n_; ++i) {
    if ((view.memory().read(x_base_ + i) & visited_mask_) == 0) {
      unvisited.push_back(i);
    }
  }
  const std::size_t u = unvisited.size();
  if (u <= 1) return d;  // nothing left to halve; let the algorithm finish

  std::vector<std::uint32_t> writers(n_, 0);
  std::vector<std::uint8_t> in_unvisited(n_, 0);
  for (Addr i : unvisited) in_unvisited[i] = 1;

  const std::span<const Pid> started = view.started_pids();
  for (Pid pid : started) {
    for (const WriteOp& op : view.trace(pid).writes) {
      if (op.addr >= x_base_ && op.addr < x_base_ + n_ &&
          (op.value & visited_mask_) != 0) {
        const Addr cell = op.addr - x_base_;
        if (in_unvisited[cell]) ++writers[cell];
      }
    }
  }

  // Pick the ⌊U/2⌋ unvisited cells with the fewest pending writers.
  std::stable_sort(unvisited.begin(), unvisited.end(), [&](Addr a, Addr b) {
    return writers[a] < writers[b];
  });
  const std::size_t chosen = u / 2;
  std::vector<std::uint8_t> doomed_cell(n_, 0);
  for (std::size_t i = 0; i < chosen; ++i) doomed_cell[unvisited[i]] = 1;

  // Fail every processor writing into a chosen cell.
  std::vector<Pid> victims;
  for (Pid pid : started) {
    for (const WriteOp& op : view.trace(pid).writes) {
      if (op.addr >= x_base_ && op.addr < x_base_ + n_ &&
          (op.value & visited_mask_) != 0 &&
          doomed_cell[op.addr - x_base_] != 0) {
        victims.push_back(pid);
        break;
      }
    }
  }
  // The paper argues with one write per cycle, where victims are at most
  // half the writers. With a 2-write budget a processor can straddle both
  // halves; guard constraint 2(i) by sparing one victim if all started
  // cycles would be aborted. Without revival, also never kill the machine's
  // last processor.
  if (victims.size() == started.size() && !victims.empty()) victims.pop_back();
  for (Pid pid : victims) {
    d.fail_mid_cycle.push_back(pid);
    if (options_.revive) d.restart.push_back(pid);
  }
  if (!victims.empty()) ++rounds_;
  return d;
}

}  // namespace rfsp
