// The restartable fail-stop CRCW PRAM engine.
//
// One engine "slot" is one update cycle executed (in lock step) by every
// live processor:
//
//   1. every live processor runs ProcessorState::cycle — reads are served
//      from the slot-start memory, writes are buffered;
//   2. the adversary inspects the full machine state (MachineView) and
//      decides failures/restarts (Definition 2.1);
//   3. writes of *completed* cycles commit atomically under the configured
//      CRCW conflict rule; aborted cycles' writes are discarded;
//   4. accounting: completed cycles -> S, started cycles -> S',
//      failure/restart events -> |F| (Definitions 2.2/2.3).
//
// The engine enforces the model invariants of §2.1 and throws
// ModelViolation / AdversaryViolation when an algorithm or adversary breaks
// them; see util/error.hpp.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accounting/tally.hpp"
#include "fault/adversary.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "pram/soa.hpp"
#include "pram/types.hpp"

namespace rfsp {

class TraceSink;  // obs/trace.hpp

struct EngineOptions;

// Slot-level observer interface of the model-conformance auditor
// (src/analysis, docs/analysis.md), extending the per-operation
// CycleAuditHook of pram/program.hpp. The engine drives an installed hook
// (EngineOptions::audit) strictly on the calling thread:
//   on_run_begin   — once, from the Engine constructor;
//   on_slot_begin  — per slot, before any update cycle runs;
//   on_read/on_write/on_snapshot — per operation, via CycleContext;
//   on_cycles_done — per slot, after every live cycle ran but before the
//                    adversary decides (memory still shows slot-start
//                    state, traces hold the buffered writes — aborted
//                    cycles included);
//   on_transitions — per slot, after failures/halts/restarts took effect;
//   on_run_end     — once, when the slot loop exits normally.
// The slot-level methods default to no-ops, so a hook that only watches
// operations implements just the CycleAuditHook half.
class EngineAuditHook : public CycleAuditHook {
 public:
  virtual void on_run_begin(const Program& /*program*/,
                            const EngineOptions& /*options*/) {}
  // Memory-model backend state (pram/faults.hpp): called once from the
  // Engine constructor, after on_run_begin, when a non-reliable model is
  // active. `caches` points at the live per-processor write-back caches
  // (persistent-cache model) or is null; `faults` at the engine's cell-
  // fault map (faulty-cells model) or is null. Both stay valid for the
  // engine's lifetime. Default: ignore (hooks that predate the backends
  // keep compiling).
  virtual void on_memory_backend(const std::vector<ProcCache>* caches,
                                 const CellFaultMap* faults) {
    (void)caches;
    (void)faults;
  }
  virtual void on_slot_begin(Slot /*slot*/) {}
  virtual void on_cycles_done(const SharedMemory& /*mem*/, Slot /*slot*/,
                              std::span<const CycleTrace> /*traces*/,
                              std::span<const Pid> /*live*/) {}
  virtual void on_transitions(Slot /*slot*/,
                              const FaultDecision& /*decision*/) {}
  virtual void on_run_end() {}
};

// A complete engine state at a slot boundary (docs/resilience.md §3):
// restoring it into a fresh Engine and continuing the run is bit-identical
// to never having stopped. Private processor states serialize through
// ProcessorState::save_state / Program::load_state; the adversary's mutable
// state (RNG, budgets) rides along as an opaque word vector captured via
// Adversary::save_state. JSON persistence lives in replay/checkpoint.hpp.
struct EngineCheckpoint {
  Slot slot = 0;
  WorkTally tally;
  std::vector<Word> memory;
  std::vector<ProcStatus> status;
  // One entry per processor; engaged iff the processor is live (failed and
  // halted processors have no private memory — §2.1 point 3).
  std::vector<std::optional<std::vector<Word>>> states;
  std::vector<std::uint64_t> adversary;

  // Memory-model backend state (pram/faults.hpp); empty under the reliable
  // model.
  // `caches`: one per-processor write-back cache per PID (persistent-cache
  // model). `injected_faults`: cells the adversary killed at run time, in
  // injection order (faulty-cells model; the static fault set is derived
  // from the options, not stored).
  std::vector<ProcCache> caches;
  std::vector<Addr> injected_faults;

  // Config the run silently depends on. Engine::checkpoint writes the
  // memory-model keys (write_memory_model_meta, pram/faults.hpp; none under
  // the reliable model); a saver may add others. The CLIs restore the model
  // from it and refuse to resume under contradicting flags. Engine::restore
  // ignores it.
  std::map<std::string, std::string> meta;

  friend bool operator==(const EngineCheckpoint&,
                         const EngineCheckpoint&) = default;
};

struct EngineOptions {
  // Per-update-cycle budgets; the paper fixes "e.g. <= 4" reads and
  // "e.g. <= 2" writes (§2.1). Budgets are constants of the machine,
  // not per-algorithm knobs; they must not exceed kReadCap/kWriteCap.
  std::size_t read_budget = 4;
  std::size_t write_budget = 2;

  CrcwModel model = CrcwModel::kCommon;  // kWeak's value is kWeakValue

  // Enable the strong model of §3: a processor may read and locally process
  // the entire shared memory at unit cost (used by Theorems 3.1/3.2 only).
  bool unit_cost_snapshot = false;

  // Drop §2.1's simplifying assumption that word writes are atomic: the
  // adversary may additionally fail processors *between the bit writes of
  // one word write* (FaultDecision::torn), leaving a partially-updated
  // cell. Individual bit writes remain atomic, per the model. The [KS 89]
  // conversion that restores word-atomic writes on top of this is not
  // built (DESIGN.md §4): no Write-All algorithm here needs it.
  bool bit_atomic_writes = false;

  // --- Memory-model backend (pram/faults.hpp, docs/fault-models.md) ---------

  // Which shared-memory fault semantics the run uses. kReliable (the
  // default) is the paper's model and keeps today's inlined hot path —
  // the other backends cost one predicted test per read/write plus their
  // commit-path bookkeeping. Non-reliable models force the interpreter
  // (no batched kernels) and are incompatible with unit_cost_snapshot;
  // persistent-cache is additionally incompatible with bit_atomic_writes
  // (a torn write has no defined cache entry to tear).
  MemoryModel memory_model = MemoryModel::kReliable;
  // Parameters of the faulty-cells backend (used iff memory_model is
  // kFaultyCells): the seeded static fault set and the spare-cell budget
  // the remap planner may absorb faults into.
  FaultyCellsOptions faulty_cells;
  // Parameters of the persistent-cache backend (used iff memory_model is
  // kPersistentCache): the auto-persist cadence.
  PersistentCacheOptions persistent_cache;

  // Batched SoA execution: run the program's BatchKernel (when it offers
  // one via Program::batch_kernels) over contiguous lane groups instead of
  // the interpreter's per-processor cycle calls (Program::run_cycles).
  // Results are bit-identical to the interpreter — same WorkTally, commit
  // order, trace stream, and checkpoints — because kernels emit the same
  // PID-tagged lane logs the commit path consumes (pram/soa.hpp). When the
  // adversary declares it never inspects cycle internals (Adversary::
  // inspects_cycles) and torn writes are off, kernels skip materializing
  // per-PID CycleTraces entirely — the oblivious fast path that makes the
  // backend pay at scale. Every CRCW model batches: the lane log lists
  // writes in ascending PID order, as the interpreter does, so
  // ARBITRARY/PRIORITY's first writer is the same processor. The engine
  // silently falls back to the interpreter whenever per-op hooks demand
  // it: an installed audit hook, budgets below the paper defaults (4 reads
  // / 2 writes — kernels assume full budgets), a non-reliable memory
  // model, or a program without kernels.
  // A kernel declaring other than one control state is a ConfigError.
  // Engine::batch_active() reports which path was chosen.
  bool batch = false;

  // Safety valve: stop after this many slots even if the goal is unmet
  // (e.g. algorithm W genuinely need not terminate under restarts).
  Slot max_slots = Slot{1} << 26;

  // --- Checkpointing (src/replay, docs/resilience.md) -----------------------

  // Capture an EngineCheckpoint every this-many slots (at the slot boundary,
  // before the slot runs) and hand it to on_checkpoint. 0 (the default)
  // disables the capture entirely; the slot loop then pays one predicted
  // branch per slot. Requires a program whose ProcessorState::save_state is
  // implemented — the first capture throws ConfigError otherwise.
  Slot checkpoint_every = 0;
  std::function<void(const EngineCheckpoint&)> on_checkpoint;

  // --- Observability (src/obs, docs/observability.md) -----------------------

  // Structured event sink: slot/commit/failure/restart/halt (and, for
  // programs with a PhaseSchedule, phase-transition) events, emitted from
  // the slot loop on the calling thread. This is the engine's only
  // observation output: per-phase work and the engine.* metrics are
  // derived from the stream by a StreamAggregator (obs/stream.hpp), fed
  // directly or through a TeeTraceSink next to a trace writer. Null (the
  // default) keeps the slot loop on the fast path: the instrumentation is
  // compiled in but costs one predicted null test per slot, and nothing is
  // ever added to the per-read/per-write paths. The sink must outlive the
  // engine.
  //
  // The event stream is sink-independent: which transport is installed
  // (JsonlTraceSink, BinaryTraceWriter, StreamAggregator, ...) changes
  // only how events are encoded, never which events fire or their order,
  // so traces of the same run in different formats are interconvertible
  // bit-for-bit (obs/binary_trace.hpp) and identical across interpreter
  // and batch execution.
  TraceSink* sink = nullptr;

  // --- Conformance auditing (src/analysis, docs/analysis.md) ----------------

  // Model-conformance audit hook. Null (the default) keeps the fast path:
  // the per-read/per-write and per-slot instrumentation costs one predicted
  // null test each. When installed, the engine widens the *enforced*
  // per-cycle budgets to the storage caps (kReadCap/kWriteCap) so
  // over-budget cycles are reported by the auditor with context instead of
  // aborting the run at the first offence — the engine still throws
  // ModelViolation at the caps. The hook is the only channel for a
  // cycle's read addresses (the auditor's EREW concurrent-read check, E13's
  // traffic recorder). The hook must outlive the engine.
  EngineAuditHook* audit = nullptr;
};

struct RunResult {
  WorkTally tally;
  bool goal_met = false;    // Program::goal held
  bool deadlock = false;    // every processor halted but the goal is unmet
  bool slot_limit = false;  // max_slots exhausted
};

class Engine {
 public:
  Engine(const Program& program, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Execute the program to completion under `adversary`. Single-shot:
  // calling run twice on one Engine is a ConfigError.
  RunResult run(Adversary& adversary);

  // Capture the complete engine state at the current slot boundary (valid
  // before run() and from within an on_checkpoint callback). When
  // `adversary` is given its mutable state is embedded via
  // Adversary::save_state. Throws ConfigError if any live processor's
  // state does not implement ProcessorState::save_state.
  EngineCheckpoint checkpoint(const Adversary* adversary = nullptr) const;

  // Reload a checkpoint into this (not-yet-run) engine: shared memory,
  // statuses, private states (via Program::load_state), tally, and slot
  // counter; when `adversary` is given, its state too. A restored run then
  // continues bit-identically to the uninterrupted one. Throws ConfigError
  // after run() has started, on a shape mismatch, or when the program
  // cannot rebuild a live processor's state.
  void restore(const EngineCheckpoint& cp, Adversary* adversary = nullptr);

  // Final (or current) shared memory, for verification.
  const SharedMemory& memory() const { return mem_; }

  const EngineOptions& options() const { return options_; }

  // Whether the batched SoA backend is driving the cycle phase (true iff
  // EngineOptions::batch was set, the program offered kernels, and no
  // audit hook or budget constraint forced the interpreter).
  bool batch_active() const { return kernel_ != nullptr; }

  // Diagnostics: the incremental unsatisfied-cell count, present iff the
  // program opted in via Program::goal_cells.
  // After a run it must equal the number of goal cells failing
  // Program::goal_cell_done — the regression tests assert exactly that.
  std::optional<std::uint64_t> goal_unsatisfied() const;

 private:
  // Step 1: the slot's update cycles into traces_ plus the compact lane_
  // log, through the batch kernel or Program::run_cycles. Returns the
  // number of started cycles.
  std::size_t run_cycles();
  // Step 1 on the interpreter: Program::run_cycles over one slot context.
  // Out of line on purpose: inlined, it grows the slot loop that batched
  // runs spend their time in (rfsp-bench kernels-faultfree run_s +3.5 % on
  // a 4-vCPU Xeon, GCC 12.2, RelWithDebInfo).
  [[gnu::noinline]] void interpret_slot();
  // Per-slot event emission; called once per slot after the decision is
  // validated, only when a sink is installed.
  void observe_slot(const FaultDecision& d, std::size_t started,
                    std::size_t completed, std::size_t failure_events);
  void validate_decision(const FaultDecision& d);
  void commit_writes(const FaultDecision& d);
  // Persistent-cache commit path: completed cycles' writes append to the
  // writer's private cache; caches flush (in PID order) on an explicit
  // persist() request, the persist_every cadence, or a voluntary halt.
  void commit_writes_cached(const FaultDecision& d);
  // Replay one processor's cache into shared memory (insertion order, last
  // write wins), clear it, and charge WorkTally::persists.
  void flush_cache(Pid pid);
  bool goal_met() const;
  void commit_cell(Addr a, Word v, Pid pid);  // mem_ write + goal upkeep
  // Cold path of commit_writes: a cell already written this slot — resolve
  // the CRCW conflict against the committed value (first writer won).
  void resolve_write_conflict(Addr addr, Word value, Pid pid);
  void apply_transitions(const FaultDecision& d);

  // Per-PID scratch marks with O(1) bulk reset: a mark is valid only when
  // its stamp matches the current epoch, so "clear all marks" is one
  // counter increment instead of an O(P) fill.
  std::uint8_t mark_get(Pid pid) const {
    return mark_stamp_[pid] == mark_epoch_ ? mark_val_[pid] : 0;
  }
  void mark_set(Pid pid, std::uint8_t v) {
    mark_stamp_[pid] = mark_epoch_;
    mark_val_[pid] = v;
  }

  const Program& program_;
  EngineOptions options_;
  // Faulty-cells backend state (null otherwise). Declared before mem_ on
  // purpose: the memory sizes its spare storage off the map.
  std::unique_ptr<CellFaultMap> fault_map_;
  SharedMemory mem_;
  // Persistent-cache backend state: one write-back cache per PID (empty
  // vector under the other models).
  std::vector<ProcCache> caches_;
  // Interpreter path: one state per PID. A failed processor's state stays
  // allocated (and unused) until its restart reboots it in place; halted
  // processors' states are freed.
  std::vector<std::unique_ptr<ProcessorState>> states_;
  std::vector<ProcStatus> status_;
  std::vector<CycleTrace> traces_;
  WorkTally tally_;
  Slot slot_ = 0;
  bool ran_ = false;

  // Live PIDs in ascending order — the processors that run a cycle each
  // slot. Maintained incrementally across fail/halt/restart transitions so
  // the slot loop costs O(live + |decision|), not O(P).
  std::vector<Pid> live_pids_;
  std::vector<Pid> restart_buf_;  // sorted copy of unsorted restarts
  std::vector<Pid> merge_buf_;    // the next live list; swapped in
  // Bit pid is set iff status_[pid] == kFailed: flipped by the fail and
  // restart steps of apply_transitions, rebuilt by restore.
  // MachineView::failed_pids() expands it into failed_buf_, which it sizes
  // to P on its first call.
  std::vector<std::uint64_t> failed_mask_;
  std::vector<Pid> failed_buf_;
  // The adversary's decision, kept across slots so its lists keep their
  // capacity: MachineView::blank_decision() hands them out cleared.
  FaultDecision decision_;

  // Epoch-stamped per-PID marks (validate/commit/transition scratch).
  std::vector<std::uint64_t> mark_stamp_;
  std::vector<std::uint8_t> mark_val_;
  std::uint64_t mark_epoch_ = 0;

  // Epoch-stamped per-cell "written this slot" stamps: commit-time CRCW
  // conflict detection in O(#writes) with no sort. A cell's first writer
  // in PID order is the committed one (== lowest PID, the deterministic
  // ARBITRARY/PRIORITY winner and the COMMON/WEAK reference value).
  // 32-bit on purpose — the stamps are random-access per buffered write, so
  // halving them halves that cache footprint; commit_writes zero-fills the
  // array on the (once per 2^32 slots) epoch wrap-around.
  std::vector<std::uint32_t> cell_stamp_;
  std::uint32_t commit_epoch_ = 0;

  // The slot's compact cycle-phase log (pram/program.hpp LaneLog), filled
  // while each processor's freshly written trace is still cache-hot: every
  // buffered write (tagged with its writer) plus the would-be halters.
  // commit_writes and apply_transitions consume it instead of re-streaming
  // every live processor's trace per slot.
  LaneLog lane_;

  // Batched SoA backend (EngineOptions::batch): the program's kernel and
  // the register store it runs over. kernel_ == nullptr means the
  // interpreter path (states_) is active; in batch mode states_ stays null
  // and all private state lives in soa_.
  std::unique_ptr<BatchKernel> kernel_;
  SoaStore soa_;
  // Whether batched kernels materialize per-PID CycleTraces. False — the
  // oblivious fast path — when the adversary declares it never reads cycle
  // internals (Adversary::inspects_cycles), torn writes are off, and no
  // trace recording wants the data; the engine then maintains only the
  // `started` flags (set at boot/restart, cleared by fail/halt), which is
  // all such adversaries and validate_decision consult. Decided per run.
  bool batch_traces_ = true;

  // Observability state (EngineOptions::sink). phase_names_ is non-empty
  // iff a sink is installed and the program publishes a PhaseSchedule; the
  // kPhase events' name views point into it.
  static constexpr std::uint32_t kNoPhase = ~std::uint32_t{0};
  EngineAuditHook* audit_ = nullptr;  // EngineOptions::audit
  TraceSink* sink_ = nullptr;
  std::function<std::uint32_t(Slot)> phase_of_;
  std::vector<std::string> phase_names_;
  std::uint32_t last_phase_ = kNoPhase;

  // Incremental goal state (Program::goal_cells opt-in).
  bool track_goal_ = false;
  Addr goal_base_ = 0;
  Addr goal_end_ = 0;
  std::uint64_t goal_unsat_ = 0;
};

}  // namespace rfsp
