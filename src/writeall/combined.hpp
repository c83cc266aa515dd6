// The combined algorithm of Theorem 4.9: interleave V and X.
//
// "The executions of algorithms V and X can be interleaved to yield an
// algorithm that achieves S = O(min{N + P log²N + M log N, N·P^{0.59}})
// and σ = O(log²N)."
//
// Implementation: even-numbered slots (relative to the start slot) execute
// one V update cycle, odd-numbered slots one X update cycle. Both instances
// mark the same output array x (their visits are idempotent and write equal
// values, so COMMON is respected); each maintains its own progress tree.
// Whichever instance completes its root first writes the shared done flag;
// V polls the flag once per iteration and while waiting, X terminates by
// draining through its own root, so every processor halts within O(log N)
// slots of the flag being set. Work at most doubles relative to the faster
// branch — the min{} bound up to constants.
//
// V's instance sees a virtual clock at stride 2, so its fixed-length phase
// schedule (and restart wrap-around) is preserved under interleaving.
#pragma once

#include "writeall/algv.hpp"
#include "writeall/algx.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

struct CombinedLayout {
  CombinedLayout(Addr x_base, Addr aux_base, Addr n, Pid p,
                 unsigned task_cycles, Addr leaf_elems = 0);

  Addr done = 0;  // shared completion flag (stamped)
  VLayout v;
  XLayout x;

  Addr aux_end() const { return x.aux_end(); }
};

// The interleave on the instance's relative clock `rel`: odd slots run one
// X cycle, even slots one V cycle at `v_phi` on V's stride-2 virtual clock
// (so V's fixed-length phase schedule survives the interleaving).
struct VxClock {
  bool x_slot = false;
  Slot v_phi = 0;
};

inline VxClock vx_clock(const VLayout& v, Slot rel) {
  return {rel % 2 != 0, (rel / 2) % v.iteration};
}

// One VX update cycle (single source; see writeall/lanes.hpp). Either half
// returning false means the done flag is (being) set: V halts only on
// completion, and X exits only through a done root.
template <class Ctx, class VR, class XR>
bool vx_cycle(Ctx& ctx, const VParams& v, VR& v_regs,
              std::span<Word> v_scratch, const XParams& x, XR& x_regs,
              const VxClock& clock) {
  if (clock.x_slot) return x_cycle(ctx, x, x_regs);
  return v_cycle(ctx, v, v_regs, clock.v_phi, v_scratch);
}

class CombinedState final : public WordStreamState<CombinedState> {
 public:
  CombinedState(const WriteAllConfig& config, const CombinedLayout& layout,
                Pid pid, Slot start_slot = 0);

  bool cycle(CycleContext& ctx) override;

  // Back to what the constructor builds for `start_slot`, in place
  // (Program::reboot).
  void reboot(Slot start_slot = 0);

  // Checkpoint support (docs/resilience.md): start slot + V words + X words.
  void save_words(WordWriter& w) const;
  void load_words(WordReader& r);

  // V's registers: the only private state of a VX batch lane.
  VRegs& regs() { return v_.regs(); }

 private:
  Slot start_slot_;
  AlgVState v_;
  AlgXState x_;
};

class CombinedVX final
    : public ProgramLifecycle<CombinedVX, CombinedState, WriteAllProgram> {
 public:
  explicit CombinedVX(WriteAllConfig config);

  std::string_view name() const override { return "VX"; }
  Addr memory_size() const override { return layout_.aux_end(); }
  std::unique_ptr<CombinedState> make_state(Pid pid) const;
  Addr x_base() const override { return layout_.v.x_base; }

  // The interleave's schedule: odd slots are X's ("x-descend"), even slots
  // follow V's three-phase iteration on the stride-2 virtual clock
  // ("v-alloc" / "v-work" / "v-update"). Observability attribution only.
  std::optional<PhaseSchedule> phase_schedule() const override;

  // Batched backend: vx_cycle over LaneContext (writeall/lanes.hpp);
  // nullptr when a TaskSpec is configured (task micro-cycles need the
  // per-op CycleContext).
  std::unique_ptr<BatchKernel> batch_kernels() const override;

  // goal() is the shared completion flag turning non-zero.
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.done, 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return payload_of(value, config_.stamp) != 0;
  }

  const CombinedLayout& layout() const { return layout_; }

 private:
  CombinedLayout layout_;
};

}  // namespace rfsp
