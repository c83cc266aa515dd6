#include "fault/halving.hpp"

#include <algorithm>
#include <span>

#include "util/error.hpp"

namespace rfsp {

namespace {

// A cell is visited when its low 32 bits (a stamped cell's payload) are set.
constexpr Word kVisitedMask = 0xffffffff;

}  // namespace

HalvingAdversary::HalvingAdversary(Addr x_base, Addr n, HalvingOptions options)
    : x_base_(x_base), n_(n), options_(options), writers_(n),
      in_unvisited_(n), doomed_cell_(n) {
  RFSP_CHECK(n >= 1);
  unvisited_.reserve(n);
}

FaultDecision HalvingAdversary::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  if (options_.revive) {
    // "All N processors are revived."
    const std::span<const Pid> failed = view.failed_pids();
    d.restart.assign(failed.begin(), failed.end());
  }

  // Current unvisited set; the per-cell scratch starts over.
  unvisited_.clear();
  for (Addr i = 0; i < n_; ++i) {
    const bool open = (view.memory().read(x_base_ + i) & kVisitedMask) == 0;
    if (open) unvisited_.push_back(i);
    in_unvisited_[i] = open ? 1 : 0;
    writers_[i] = 0;
    doomed_cell_[i] = 0;
  }
  const std::size_t u = unvisited_.size();
  if (u <= 1) return d;  // nothing left to halve; let the algorithm finish

  // Pending writers per unvisited cell.
  const std::span<const Pid> started = view.started_pids();
  std::uint32_t most_writers = 0;
  for (Pid pid : started) {
    for (const WriteOp& op : view.trace(pid).writes) {
      if (op.addr >= x_base_ && op.addr < x_base_ + n_ &&
          (op.value & kVisitedMask) != 0) {
        const Addr cell = op.addr - x_base_;
        if (in_unvisited_[cell]) {
          most_writers = std::max(most_writers, ++writers_[cell]);
        }
      }
    }
  }

  // Doom the ⌊U/2⌋ unvisited cells with the fewest pending writers, ties
  // to the lower index: the first half of a stable counting sort by writer
  // count, found without sorting. Count the cells per writer count, find
  // the count k where the half runs out, then doom every cell below k and
  // the lowest-indexed cells at k.
  const std::size_t chosen = u / 2;
  cells_by_writers_.assign(std::size_t{most_writers} + 1, 0);
  for (Addr i : unvisited_) ++cells_by_writers_[writers_[i]];
  std::uint32_t k = 0;
  std::size_t below_k = 0;
  while (below_k + cells_by_writers_[k] < chosen) {
    below_k += cells_by_writers_[k];
    ++k;
  }
  std::size_t at_k = chosen - below_k;
  for (Addr i : unvisited_) {
    if (writers_[i] < k) {
      doomed_cell_[i] = 1;
    } else if (writers_[i] == k && at_k > 0) {
      doomed_cell_[i] = 1;
      --at_k;
    }
  }

  // Fail every processor writing into a chosen cell.
  victims_.clear();
  for (Pid pid : started) {
    for (const WriteOp& op : view.trace(pid).writes) {
      if (op.addr >= x_base_ && op.addr < x_base_ + n_ &&
          (op.value & kVisitedMask) != 0 &&
          doomed_cell_[op.addr - x_base_] != 0) {
        victims_.push_back(pid);
        break;
      }
    }
  }
  // The paper argues with one write per cycle, where victims are at most
  // half the writers. With a 2-write budget a processor can straddle both
  // halves; guard constraint 2(i) by sparing one victim if all started
  // cycles would be aborted. Without revival, also never kill the machine's
  // last processor.
  if (victims_.size() == started.size() && !victims_.empty()) {
    victims_.pop_back();
  }
  for (Pid pid : victims_) {
    d.fail_mid_cycle.push_back(pid);
    if (options_.revive) d.restart.push_back(pid);
  }
  if (!victims_.empty()) ++rounds_;
  return d;
}

}  // namespace rfsp
