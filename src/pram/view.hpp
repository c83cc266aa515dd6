// MachineView: everything the on-line adversary is allowed to see — which,
// per Definition 2.1, is *everything*: the adversary "knows everything about
// the algorithm and is unknown to the algorithm". The engine presents the
// view after every live processor has executed its update cycle for the
// slot but before any write has committed, so the adversary can kill cycles
// mid-flight (their buffered writes are then lost). The decision it
// answers with, FaultDecision, is declared here too: the view hands out the
// engine's decision buffers (blank_decision).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "accounting/tally.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "pram/types.hpp"

namespace rfsp {

class Engine;

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

  // Empties every list and keeps its capacity.
  void clear() {
    fail_mid_cycle.clear();
    fail_after_cycle.clear();
    restart.clear();
    torn.clear();
    cell_faults.clear();
    cache_drop.clear();
  }
};

class MachineView {
 public:
  // Shared memory as of the start of the slot (no write has committed yet).
  const SharedMemory& memory() const { return mem_; }

  // Index of the current slot.
  Slot slot() const { return slot_; }

  // Number of processors P of the running program.
  Pid processors() const { return static_cast<Pid>(traces_.size()); }

  ProcStatus status(Pid pid) const { return status_[pid]; }

  // The cycle the processor attempted this slot (started == false for
  // failed/halted processors). Includes its buffered, not-yet-committed
  // writes — the "processor assignment" that lower-bound adversaries use.
  const CycleTrace& trace(Pid pid) const { return traces_[pid]; }

  // PIDs that ran an update cycle this slot (exactly the live set), in
  // ascending order. Lets adversaries avoid an O(P) scan per slot when few
  // processors are live; trace(pid).started == true iff pid is listed here.
  std::span<const Pid> started_pids() const { return started_; }

  // PIDs whose status is kFailed, in ascending order. Filled on the first
  // call of a slot from the engine's P-bit failed mask, in O(P/64 + |F|),
  // into a buffer the engine sizes on the run's first call, so an adversary
  // that never asks pays nothing for it, neither per slot nor at setup.
  std::span<const Pid> failed_pids() const {
    if (failed_count_ == kUnfilled) {
      failed_buf_.resize(status_.size());
      std::size_t count = 0;
      for (std::size_t w = 0; w < failed_mask_.size(); ++w) {
        for (std::uint64_t bits = failed_mask_[w]; bits != 0;
             bits &= bits - 1) {
          failed_buf_[count++] =
              static_cast<Pid>(64 * w + std::countr_zero(bits));
        }
      }
      failed_count_ = count;
    }
    return {failed_buf_.data(), failed_count_};
  }

  // The engine's decision buffers, every list cleared with its capacity
  // kept: fill them and return the result from Adversary::decide, and a
  // list allocates only when it outgrows every earlier decision's. Call it
  // once per slot; a second call gets empty lists without capacity.
  FaultDecision blank_decision() const {
    decision_.clear();
    return std::move(decision_);
  }

  const WorkTally& tally() const { return tally_; }

 private:
  friend class Engine;
  // `failed_mask` has bit pid set iff pid is kFailed; `failed_buf` is the
  // engine's scratch for failed_pids(); `decision` its decision buffers.
  MachineView(const SharedMemory& mem, Slot slot,
              std::span<const ProcStatus> status,
              std::span<const CycleTrace> traces, std::span<const Pid> started,
              const WorkTally& tally,
              std::span<const std::uint64_t> failed_mask,
              std::vector<Pid>& failed_buf, FaultDecision& decision)
      : mem_(mem), slot_(slot), status_(status), traces_(traces),
        started_(started), tally_(tally), failed_mask_(failed_mask),
        failed_buf_(failed_buf), decision_(decision) {}

  static constexpr std::size_t kUnfilled = ~std::size_t{0};

  const SharedMemory& mem_;
  Slot slot_;
  std::span<const ProcStatus> status_;
  std::span<const CycleTrace> traces_;
  std::span<const Pid> started_;
  const WorkTally& tally_;
  std::span<const std::uint64_t> failed_mask_;
  std::vector<Pid>& failed_buf_;
  FaultDecision& decision_;
  mutable std::size_t failed_count_ = kUnfilled;
};

}  // namespace rfsp
