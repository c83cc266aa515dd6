// MachineView: everything the on-line adversary is allowed to see — which,
// per Definition 2.1, is *everything*: the adversary "knows everything about
// the algorithm and is unknown to the algorithm". The engine presents the
// view after every live processor has executed its update cycle for the
// slot but before any write has committed, so the adversary can kill cycles
// mid-flight (their buffered writes are then lost).
#pragma once

#include <vector>

#include "accounting/tally.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "pram/types.hpp"

namespace rfsp {

class Engine;

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
  // call of a slot by one branch-free pass over the statuses into a buffer
  // the engine sizes on the run's first call, so an adversary that never
  // asks pays nothing for it, neither per slot nor at setup.
  std::span<const Pid> failed_pids() const {
    if (failed_count_ == kUnfilled) {
      failed_buf_.resize(status_.size());
      std::size_t count = 0;
      for (Pid pid = 0; pid < status_.size(); ++pid) {
        failed_buf_[count] = pid;
        count += status_[pid] == ProcStatus::kFailed;
      }
      failed_count_ = count;
    }
    return {failed_buf_.data(), failed_count_};
  }

  const WorkTally& tally() const { return tally_; }

 private:
  friend class Engine;
  // `failed_buf` is the engine's scratch for failed_pids().
  MachineView(const SharedMemory& mem, Slot slot,
              std::span<const ProcStatus> status,
              std::span<const CycleTrace> traces, std::span<const Pid> started,
              const WorkTally& tally, std::vector<Pid>& failed_buf)
      : mem_(mem), slot_(slot), status_(status), traces_(traces),
        started_(started), tally_(tally), failed_buf_(failed_buf) {}

  static constexpr std::size_t kUnfilled = ~std::size_t{0};

  const SharedMemory& mem_;
  Slot slot_;
  std::span<const ProcStatus> status_;
  std::span<const CycleTrace> traces_;
  std::span<const Pid> started_;
  const WorkTally& tally_;
  std::vector<Pid>& failed_buf_;
  mutable std::size_t failed_count_ = kUnfilled;
};

}  // namespace rfsp
