// A randomized progress-tree algorithm standing in for the "asynchronous
// coupon clipping" (ACC) algorithm of [MSP 90], used by §5's discussion of
// randomization against on-line adversaries.
//
// Substitution note (see DESIGN.md §2): we do not have [MSP 90]; this
// stand-in shares algorithm X's shared structures (a binary progress tree
// over the array) but resolves contested descents with private coin flips
// instead of PID bits. That is the property §5's *stalking adversary*
// exploits: it camps on one leaf of "a binary tree employed by ACC" and
// fails processors that touch it — under an on-line adversary the expected
// completed work blows up, while off-line (pre-scripted) patterns leave the
// algorithm efficient, reproducing the separation the paper reports.
#pragma once

#include "writeall/algx.hpp"

namespace rfsp {

class AccWriteAll final
    : public ProgramLifecycle<AccWriteAll, AlgXState, WriteAllProgram> {
 public:
  explicit AccWriteAll(WriteAllConfig config);

  std::string_view name() const override { return "ACC"; }
  Addr memory_size() const override { return layout_.aux_end(); }
  std::unique_ptr<AlgXState> make_state(Pid pid) const;
  Addr x_base() const override { return layout_.x_base; }

  // goal() is the root of the d heap turning non-zero (as algorithm X).
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.d(1), 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return payload_of(value, config_.stamp) != 0;
  }

  const XLayout& layout() const { return layout_; }

 private:
  XLayout layout_;
};

}  // namespace rfsp
