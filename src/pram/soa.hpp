// Batched execution backend: a structure-of-arrays processor-state store
// plus the BatchKernel interface through which a Program exposes its cycle
// bodies as straight-line per-lane kernels (EngineOptions::batch).
//
// The interpreter (Program::run_cycles, pram/program.hpp) steps every live
// processor through its own state object and a per-read metered
// CycleContext; for the branch-light, phase-synchronous Write-All
// algorithms that per-PID stepping dominates the slot loop. A BatchKernel
// instead receives the whole live set as one *lane group* and executes the
// cycle body as a tight loop over SoA register columns, with everything
// uniform across the group (the slot phase, shared-memory polls of one
// cell) hoisted out of the lane loop.
//
// Bit-identity contract (the reason this is safe): an update cycle is a
// pure function of (slot-start shared memory, the processor's private
// state, the slot number). Shared memory is frozen during the cycle phase
// and every write is buffered, so the order in which lanes execute within
// a slot is unobservable. A kernel emits every lane's effects through a
// LaneEmit: the buffered writes land (PID-tagged, program order per lane)
// in the slot's LaneLog (pram/program.hpp) — the authoritative input to the
// engine's commit and transition phases — and, when the adversary inspects
// cycle internals (Adversary::inspects_cycles), mirrored into the per-PID
// CycleTrace array exactly as the interpreter would fill it. The group
// walks ascending PIDs, so the log's write order matches interpreter PID
// order. Commit order, CRCW conflict resolution, adversary view, goal
// tracking, and trace stream stay byte-for-byte identical to interpreter
// runs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pram/program.hpp"
#include "pram/types.hpp"

namespace rfsp {

// Column-major register file for the batched backend: register r of
// processor pid lives at regs[r * P + pid], so a kernel's lane loop over
// one register streams contiguous memory.
class SoaStore {
 public:
  SoaStore() = default;
  SoaStore(Pid processors, std::size_t registers);

  Pid processors() const { return p_; }
  std::size_t registers() const { return registers_; }

  Word reg(std::size_t r, Pid pid) const { return regs_[r * p_ + pid]; }
  Word& reg(std::size_t r, Pid pid) { return regs_[r * p_ + pid]; }

 private:
  Pid p_ = 0;
  std::size_t registers_ = 0;
  std::vector<Word> regs_;  // column-major: [r * p_ + pid]
};

// Everything a kernel may consult during one slot's cycle phase. `mem` is
// the slot-start shared memory (frozen until commit); `log` is the slot's
// lane log every kernel must fill through LaneEmit; `traces` is the
// engine's per-PID trace array, non-null only when the adversary (or
// torn-write mode, or trace recording) needs cycle internals — LaneEmit
// mirrors into it automatically.
struct BatchContext {
  std::span<const Word> mem;
  Slot slot = 0;
  CycleTrace* traces = nullptr;
  LaneLog* log = nullptr;
};

// Per-lane emission helper: construct one at the top of a lane's cycle
// body, then route every buffered write and the halting decision through
// it. Keeps the kernel source identical whether traces are materialized or
// not — the trace mirror compiles down to a null check that the branch
// predictor eats when traces are off.
class LaneEmit {
 public:
  LaneEmit(const BatchContext& ctx, Pid pid)
      : log_(*ctx.log),
        tr_(ctx.traces != nullptr ? &ctx.traces[pid] : nullptr),
        pid_(pid) {
    if (tr_ != nullptr) tr_->reset_for_cycle();
  }

  // `addr` must be a cell of ctx.mem: the lane log narrows it to 32 bits.
  // Kernels write through LaneContext::write (writeall/lanes.hpp), which
  // checks it first, as CycleContext::write does.
  void write(Addr addr, Word value) {
    log_.writes.push_back({static_cast<std::uint32_t>(addr), pid_, value});
    if (tr_ != nullptr) tr_->writes.push_back({addr, value});
  }

  void halt() {
    log_.halts.push_back(pid_);
    if (tr_ != nullptr) tr_->halting = true;
  }

 private:
  LaneLog& log_;
  CycleTrace* tr_;
  Pid pid_;
};

// A Program's cycle bodies compiled to straight-line per-lane kernels over
// a SoaStore. One kernel instance serves every processor of one engine;
// the engine owns the store and calls:
//
//   boot_lane  — at time 0 and after every restart (private state is lost,
//                exactly like Program::boot);
//   run        — once per slot, with control state 0 and every live PID in
//                ascending order;
//   save_lane / load_lane — checkpoint interop: the word stream must be
//                byte-identical to ProcessorState::save_state /
//                Program::load_state for the same private state, so
//                checkpoints cross freely between batch and interpreter
//                runs (EngineCheckpoint operator== holds across modes).
//
// Kernels never see the adversary, budgets, or audit hooks: the engine
// falls back to the interpreter whenever those demand per-op visibility.
class BatchKernel {
 public:
  virtual ~BatchKernel() = default;

  // SoA geometry this kernel needs: private registers per lane and the
  // number of distinct control states (lane-group keys). The engine runs
  // exactly one control state and refuses a kernel that declares another
  // count (ConfigError); control_states() and run's `ctrl` stay in the
  // interface because decorating kernels forward them.
  virtual std::size_t registers() const = 0;
  virtual std::uint32_t control_states() const = 0;

  // Reset lane `pid` to the boot state.
  virtual void boot_lane(SoaStore& soa, Pid pid) const = 0;

  // Execute one update cycle for every lane in `pids` (control state
  // `ctrl`, which is 0; ascending PID order). Each lane constructs a
  // LaneEmit and routes its buffered writes (program order) and halting
  // decision through it; ctx.log is always filled, ctx.traces only when
  // the engine materializes traces.
  virtual void run(std::uint32_t ctrl, std::span<const Pid> pids,
                   const BatchContext& ctx, SoaStore& soa) const = 0;

  // Checkpoint word-stream round-trip; see the class comment for the
  // byte-identity requirement. load_lane throws ConfigError on malformed
  // or truncated streams.
  virtual void save_lane(const SoaStore& soa, Pid pid,
                         std::vector<Word>& out) const = 0;
  virtual void load_lane(SoaStore& soa, Pid pid,
                         std::span<const Word> data) const = 0;
};

}  // namespace rfsp
