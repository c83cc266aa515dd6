// The adversary interface (Definition 2.1).
//
// Once per slot, after all live processors have produced their update cycles
// but before any write commits, the engine calls `decide`. The decision may:
//   * fail processors mid-cycle  — their cycle does not complete: buffered
//     writes are discarded, the cycle is charged to S' but not S, and the
//     processor's private memory is destroyed;
//   * fail processors after the cycle — the cycle completes normally (counts
//     toward S) and the processor then stops ("failures can occur before or
//     after a write ... but not during": word writes are atomic);
//   * restart failed processors — they boot fresh state at the next slot.
//
// Model constraint 2(i): at any time at least one processor must be
// executing an update cycle that successfully completes. The engine enforces
// this and throws AdversaryViolation on a decision that would leave a slot
// with started cycles but no completed one, or a reachable state with no
// live processor. Stochastic adversaries therefore self-clamp (see
// RandomAdversary).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "pram/types.hpp"
#include "pram/view.hpp"  // FaultDecision, TornWrite, MachineView

namespace rfsp {

class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual std::string_view name() const = 0;

  // Produce this slot's failures/restarts given full knowledge of the
  // machine. Called exactly once per slot, in slot order. Start from
  // view.blank_decision() (the engine's lists, cleared, capacity kept) so
  // the slots reuse one set of buffers; a decision built from scratch works
  // too, and allocates.
  virtual FaultDecision decide(const MachineView& view) = 0;

  // Capability declaration for the engine's batched backend: return false
  // when decide() never reads a cycle's buffered writes, snapshot/persist
  // flags, or halting flag through MachineView::trace — at most CycleTrace::started
  // (plus memory, statuses, slot, and tally, which stay fully valid). The
  // engine then skips materializing per-cycle traces in batched mode
  // entirely (it keeps the started flags maintained), removing the largest
  // per-lane cost of the slot loop. The paper's distinction applies: an
  // oblivious or position-watching adversary can say false; one that reads
  // cycle internals (stalkers, the halving strategy, torn-write chaos)
  // must keep the default true.
  virtual bool inspects_cycles() const { return true; }

  // Checkpoint hooks (src/replay, docs/resilience.md): serialize the
  // adversary's mutable state (RNG, budgets, cursors) so a run resumed from
  // an engine checkpoint sees exactly the decisions the uninterrupted run
  // would have. Stateless adversaries keep the defaults; stateful ones
  // append to `out` and must accept their own output in load_state.
  virtual void save_state(std::vector<std::uint64_t>& out) const {
    (void)out;
  }
  virtual void load_state(std::span<const std::uint64_t> data) { (void)data; }
};

}  // namespace rfsp
