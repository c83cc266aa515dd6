// Algorithm W of [KS 89] (described in §4.1): the fail-stop no-restart
// Write-All solution that algorithm V modifies.
//
// Four synchronized phases per iteration:
//   1. count and enumerate the live processors bottom-up through a counting
//      tree with P leaves (each live processor learns its rank among the
//      live and the live total);
//   2. allocate processors to unvisited work top-down through the progress
//      tree using the *rank* (not the permanent PID) — accurate because the
//      enumeration just counted exactly the live processors;
//   3. do the work at the leaves (log N array elements per leaf);
//   4. update the progress tree bottom-up.
//
// Without restarts the live set only shrinks, the enumeration stays
// accurate, and S = O(N + P log²N) (W is within the same bounds as V;
// [Mar 91] showed W itself achieves the improved [KPRS 90] bound).
//
// With restarts W breaks, exactly as §4.1 explains: revived processors
// cannot rejoin mid-iteration (we extend W with the iteration wrap-around
// counter, as the paper suggests), and an adversary that fails every
// processor that was alive at an iteration's start *prevents termination* —
// no iteration ever completes, while waiting/partial cycles still complete
// and the counting trees go stale. Our experiments demonstrate both the
// no-restart efficiency and the restart non-termination (slot_limit).
//
// The counting tree is reused every iteration without clearing by stamping
// its cells with the iteration number (stale cells read as zero) — this is
// an accounting-free equivalent of [KS 89]'s per-iteration tree versions.
// W is a standalone baseline: it supports neither TaskSpec nor epochs
// (config.stamp must be 0).
#pragma once

#include <tuple>

#include "util/wordio.hpp"
#include "writeall/algv.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

struct WLayout {
  WLayout(Addr x_base, Addr aux_base, Addr n, Pid p);

  VLayout progress;   // reuse V's progress-tree geometry (B ≈ log N)
  Pid p_pad = 0;      // counting tree leaves (P padded to a power of two)
  unsigned p_depth = 0;
  Addr cnt_base = 0;  // cnt[1 .. 2·p_pad - 1]

  Slot phase_count = 0;  // 1 (leaf write) + p_depth (climb) + 1 (read total)
  Slot iteration = 0;

  Addr cnt(Addr node) const { return cnt_base + TreeNav::pos(node); }
  Addr cnt_leaf(Pid pid) const { return static_cast<Addr>(p_pad) + pid; }
  Addr aux_end() const { return cnt_base + (2 * static_cast<Addr>(p_pad) - 1); }
};

// W's registers: V's progress-tree registers (allocation splits by `rank`
// instead of the PID) plus the enumeration results of the counting phase.
struct WRegs : VRegs {
  Pid rank = 0;  // rank among the processors enumerated this iteration
  Pid live = 0;  // live total from the counting tree

  auto columns() { return std::tie(waiting, node, lo, hi, leaf, rank, live); }
};

struct WLane : VLane {
  static constexpr std::size_t kColumns = 7;

  WLane(SoaStore& soa, Pid pid)
      : VLane(soa, pid), rank(soa.reg(5, pid)), live(soa.reg(6, pid)) {}

  LaneReg<Pid> rank;
  LaneReg<Pid> live;
};

// `pid` mirrors Program::boot(pid); see AlgVState.
class AlgWState final : public WordStreamState<AlgWState> {
 public:
  AlgWState(const WriteAllConfig& config, const WLayout& layout, Pid pid);

  bool cycle(CycleContext& ctx) override;

  // Back to the boot registers, in place (Program::reboot).
  void reboot() { regs_ = WRegs{}; }

  // Checkpoint support (docs/resilience.md): flat word-stream round-trip.
  void save_words(WordWriter& w) const;
  void load_words(WordReader& r);

  WRegs& regs() { return regs_; }

 private:
  // By reference: see AlgXState — the referents outlive the states.
  const WriteAllConfig& config_;
  const WLayout& layout_;
  WRegs regs_;
};

class AlgW final
    : public ProgramLifecycle<AlgW, AlgWState, WriteAllProgram> {
 public:
  explicit AlgW(WriteAllConfig config);

  std::string_view name() const override { return "W"; }
  Addr memory_size() const override { return layout_.aux_end(); }
  std::unique_ptr<AlgWState> make_state(Pid pid) const;
  Addr x_base() const override { return layout_.progress.x_base; }

  // The fixed four-phase iteration of [KS 89]: count / alloc / work /
  // update, by slot mod the iteration length (observability attribution).
  std::optional<PhaseSchedule> phase_schedule() const override;

  // Batched backend: w_cycle over LaneContext (writeall/lanes.hpp); always
  // available — W is standalone-only, so no TaskSpec forces the
  // interpreter.
  std::unique_ptr<BatchKernel> batch_kernels() const override;

  // goal() is the progress-tree root reaching the leaf total (stamp 0: W
  // is standalone-only).
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.progress.c(1), 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return payload_of(value, 0) ==
           static_cast<Word>(layout_.progress.leaves_real);
  }

  const WLayout& layout() const { return layout_; }

 private:
  WLayout layout_;
};

}  // namespace rfsp
