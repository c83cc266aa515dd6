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
#include "pram/view.hpp"

namespace rfsp {

// A failure *between the bit writes of one word write* — only meaningful
// when the engine runs with EngineOptions::bit_atomic_writes, which drops
// the §2.1 simplifying assumption that O(log N)-bit word writes are atomic
// ("failures can occur before or after a write of a single bit but not
// during the write, i.e., bit writes are atomic"). The processor fails
// mid-cycle; its buffered writes before `write_index` commit whole, write
// `write_index` commits only its lowest `keep_bits` bits (higher bits keep
// the cell's previous contents), and later writes are discarded.
struct TornWrite {
  Pid pid = 0;
  std::size_t write_index = 0;
  unsigned keep_bits = 0;  // < 64; bit writes themselves stay atomic

  friend bool operator==(const TornWrite&, const TornWrite&) = default;
};

struct FaultDecision {
  // Live processors whose current cycle is aborted (not charged to S).
  std::vector<Pid> fail_mid_cycle;
  // Live processors that complete the current cycle and then stop.
  std::vector<Pid> fail_after_cycle;
  // Failed processors (including ones failed by this very decision) to
  // revive: they run a fresh boot state from the next slot on.
  std::vector<Pid> restart;
  // Bit-granular mid-write failures (bit-atomic mode only). The listed
  // processors are failed like fail_mid_cycle, but with partial commits.
  std::vector<TornWrite> torn;
  // Memory-model moves (pram/faults.hpp; docs/fault-models.md).
  // Faulty-cells mode only: shared cells that die at the end of this slot
  // (after the commit) — reads return seeded garbage, writes are dropped,
  // and no remapping rescues them. Duplicate or already-dead cells are
  // no-ops, so adversaries need no view of the fault map.
  std::vector<Addr> cell_faults;
  // Persistent-cache mode only: live processors whose un-persisted
  // write-back cache is discarded at the end of this slot (after any
  // persist this slot's commit performed) without failing the processor.
  std::vector<Pid> cache_drop;

  bool empty() const {
    return fail_mid_cycle.empty() && fail_after_cycle.empty() &&
           restart.empty() && torn.empty() && cell_faults.empty() &&
           cache_drop.empty();
  }

  friend bool operator==(const FaultDecision&, const FaultDecision&) = default;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual std::string_view name() const = 0;

  // Produce this slot's failures/restarts given full knowledge of the
  // machine. Called exactly once per slot, in slot order.
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
