// Program model: how algorithms are expressed against the engine.
//
// A Program describes a P-processor computation. Each processor's behaviour
// is a ProcessorState — a small state machine whose `cycle` method performs
// exactly one *update cycle* (§2.1): up to a fixed number of shared reads
// (default 4), a bounded private computation, and up to a fixed number of
// buffered shared writes (default 2). Reads inside a cycle may depend on
// earlier reads of the same cycle (an update cycle is a short instruction
// sequence, not a single synchronous tick), and they observe the memory as
// of the start of the slot because all writes commit at slot end.
//
// Failure semantics: when the adversary fails a processor its private
// memory is lost. The engine keeps the failed ProcessorState object but never
// runs it again; a restart hands it to Program::reboot(state, pid), which
// resets it in place to exactly what Program::boot(pid) would construct —
// the restarted processor knows only its PID, P, and whatever it
// subsequently reads from shared memory. The synchronous clock
// (CycleContext::slot) is global knowledge, not private state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/phase.hpp"
#include "pram/memory.hpp"
#include "pram/types.hpp"
#include "util/error.hpp"
#include "util/fixed_vec.hpp"
#include "util/wordio.hpp"

namespace rfsp {

// Record of one attempted update cycle; the engine exposes these to the
// on-line adversary (which "knows everything about the algorithm") through
// MachineView before deciding failures, i.e. before any write commits.
// Read addresses are not kept here: a tool that needs them installs a
// CycleAuditHook, which sees every read in program order.
struct CycleTrace {
  bool started = false;        // processor was live and ran `cycle` this slot
  bool halting = false;        // `cycle` returned false (wants to halt)
  bool used_snapshot = false;  // consumed the unit-cost whole-memory read
  bool persist = false;        // requested a cache flush (persistent-cache)
  // The write log drives the commit, so it is always kept.
  FixedVec<WriteOp, kWriteCap> writes;

  // Ready the record for a fresh cycle. The engine calls this once per
  // processor per slot, so it only touches flags and the inline-array
  // size — never the (stale) payload, which `started`/size already gate.
  void reset_for_cycle() {
    started = true;
    halting = false;
    used_snapshot = false;
    persist = false;
    writes.clear();
  }

  // Forget the record entirely (processor left the live set).
  void clear() {
    reset_for_cycle();
    started = false;
  }
};

// Observer of the individual shared-memory operations of update cycles, in
// program order within each cycle — the one way to see a cycle's reads.
// The model-conformance auditor (src/analysis, docs/analysis.md) and the
// static verifier's SymbolicContext are hooks. CycleContext calls these
// only when a hook is installed (EngineOptions::audit); with no hook the
// per-read/per-write cost is one predicted test. on_read runs before
// the value is fetched, so a hook may still change the cell it names.
class CycleAuditHook {
 public:
  virtual ~CycleAuditHook() = default;
  virtual void on_read(Pid pid, Addr addr) = 0;
  virtual void on_write(Pid pid, Addr addr, Word value) = 0;
  virtual void on_snapshot(Pid pid) = 0;
};

// Per-cycle facilities handed to ProcessorState::cycle. One context serves
// a whole slot: the engine builds it once per slot and rebind()s it to each
// processor before that processor's cycle.
class CycleContext {
 public:
  CycleContext(const SharedMemory& mem, Slot slot, std::size_t read_budget,
               std::size_t write_budget, bool snapshot_allowed,
               CycleAuditHook* audit = nullptr);

  // Aim the context at processor `pid`'s cycle with a fresh read budget.
  // `trace` receives the cycle's writes and flags (the caller readies it);
  // `cache` is the processor's write-back cache under the persistent-cache
  // model, null elsewhere.
  void rebind(CycleTrace& trace, Pid pid, const ProcCache* cache) {
    trace_ = &trace;
    pid_ = pid;
    cache_ = cache;
    reads_used_ = 0;
    read_limit_ = read_budget_;
    hooked_ = always_hooked_ || cache != nullptr;
  }

  // Read one shared cell. Throws ModelViolation past the read budget (a
  // snapshot consumes all of it). Inline: one of the two per-operation hot
  // paths of the whole engine. With no audit hook, write-back cache or
  // cell-fault map the read is the budget test, the bounds test and the
  // load; read_hooked serves the rest, and an out-of-bounds address.
  Word read(Addr a) {
    if (reads_used_ >= read_limit_) [[unlikely]] throw_read_budget();
    ++reads_used_;
    if (hooked_ || a >= cells_.size()) [[unlikely]] return read_hooked(a);
    return cells_[a];
  }

  // Buffer one shared write (committed at slot end iff the cycle completes).
  // Throws ModelViolation past the write budget, and SharedMemory::write's
  // diagnostic for an address past the memory — here, inside the cycle as
  // for reads, before the lane log narrows the address to 32 bits.
  void write(Addr a, Word v) {
    if (trace_->writes.size() >= write_budget_) [[unlikely]] {
      throw_write_budget();
    }
    if (a >= cells_.size()) [[unlikely]] throw_write_out_of_bounds(a, v);
    trace_->writes.push_back({a, v});
    if (audit_ != nullptr) [[unlikely]] audit_->on_write(pid_, a, v);
  }

  // Unit-cost whole-memory read — the strong model of §3 (Theorems 3.1/3.2)
  // only; throws ModelViolation unless the engine enabled snapshot mode.
  // Consumes the entire read budget of this cycle.
  std::span<const Word> snapshot();

  // Persistent-cache model only (pram/faults.hpp): request that this
  // processor's write-back cache — including this cycle's writes — be
  // flushed to shared memory when the cycle commits. Free within the cycle
  // (the flush is accounted at commit, WorkTally::persists); throws
  // ModelViolation under any other memory model.
  void persist();

  // The global synchronous clock (slot index). See file comment.
  Slot slot() const { return slot_; }

  // The executing processor (diagnostics; algorithms already know their PID
  // from boot). Budget violations carry it in their ViolationContext.
  Pid pid() const { return pid_; }

 private:
  // The audit hook, the processor's cache, then SharedMemory::read (which
  // routes through a cell-fault map and names an out-of-bounds address).
  Word read_hooked(Addr a);
  [[noreturn]] void throw_read_budget() const;
  [[noreturn]] void throw_write_budget() const;
  // The audit hook sees the write first, as read_hooked shows it a read.
  [[noreturn]] void throw_write_out_of_bounds(Addr a, Word v);

  // Per-read fields first.
  std::span<const Word> cells_;  // the visible cells, for unhooked reads
  std::size_t reads_used_ = 0;
  std::size_t read_limit_ = 0;   // read_budget_, or 0 after a snapshot
  bool hooked_ = false;          // audit hook, cache or cell-fault map
  CycleTrace* trace_ = nullptr;
  std::size_t write_budget_;
  CycleAuditHook* audit_;
  Pid pid_ = 0;
  Slot slot_;
  const ProcCache* cache_ = nullptr;
  const SharedMemory& mem_;
  std::size_t read_budget_;
  bool snapshot_allowed_;
  bool always_hooked_;  // an audit hook or a cell-fault map
};

// The private side of one processor: its registers and control state.
class ProcessorState {
 public:
  virtual ~ProcessorState() = default;

  // Perform one update cycle. Return false to halt voluntarily (the final
  // cycle still counts as completed work if the adversary lets it finish).
  virtual bool cycle(CycleContext& ctx) = 0;

  // Checkpoint hook (src/replay, docs/resilience.md): append the private
  // state to `out` as a flat word stream that Program::load_state can turn
  // back into an identical state. Return false (the default) when the
  // state is not checkpointable — Engine::checkpoint then throws
  // ConfigError rather than producing a checkpoint that cannot resume.
  virtual bool save_state(std::vector<Word>& out) const {
    (void)out;
    return false;
  }
};

// save_state written once for the states whose checkpoint is the word
// stream of their save_words(WordWriter&), the mirror of the load_words
// that ProgramLifecycle::load_state calls.
template <class State>
class WordStreamState : public ProcessorState {
 public:
  bool save_state(std::vector<Word>& out) const override {
    WordWriter w(out);
    static_cast<const State&>(*this).save_words(w);
    return true;
  }
};

// One buffered write in the slot's lane log, tagged with its writer so the
// commit phase can resolve CRCW conflicts and charge the tally per PID.
// The address is narrowed to 32 bits on purpose: the lane logs are the
// single largest memory stream of the slot loop (written once per buffered
// write, read once at commit), and 16-byte entries cut that traffic by a
// third versus a full-width Addr. The engine enforces the implied
// shared-memory bound (< 2^32 cells, i.e. 32 GiB of Words) at
// construction, and CycleContext::write and the lanes' LaneContext::write
// refuse an address past the memory before narrowing it, so every logged
// address is a cell.
struct PendingWrite {
  std::uint32_t addr = 0;
  Pid pid = 0;
  Word value = 0;
};

// One slot's cycle-phase output: every processor's buffered writes (program
// order per processor, ascending PIDs) plus the processors that ended their
// cycle halting. This — not the trace array — is what the engine commits
// and transitions from; the interpreter (interpret_cycles) and the batch
// kernels (pram/soa.hpp LaneEmit) fill it alike.
struct LaneLog {
  std::vector<PendingWrite> writes;
  std::vector<Pid> halts;

  void clear() {
    writes.clear();
    halts.clear();
  }
};

// The interpreter's share of one slot's cycle phase (Program::run_cycles):
// the engine's per-PID states and traces, its per-PID write-back caches
// (empty unless the persistent-cache model), the slot's one context, and
// the lane log each cycle's outcome goes to.
struct InterpreterSlot {
  std::span<const std::unique_ptr<ProcessorState>> states;
  std::span<CycleTrace> traces;
  std::span<const ProcCache> caches;
  CycleContext& ctx;
  LaneLog& log;
};

// The interpreter's cycle phase: every live PID, in ascending order, runs
// one update cycle through the slot's context, and its outcome is mirrored,
// still cache-hot, into the lane log. `State` is ProcessorState (one
// virtual call per processor) or the final state class every state of the
// program has, whose cycle is then called directly.
template <class State>
void interpret_cycles(InterpreterSlot& slot, std::span<const Pid> live_pids) {
  static_assert(std::is_same_v<State, ProcessorState> ||
                    std::is_final_v<State>,
                "the typed loop needs a final state class");
  CycleContext& ctx = slot.ctx;
  LaneLog& log = slot.log;
  for (const Pid pid : live_pids) {
    CycleTrace& trace = slot.traces[pid];
    trace.reset_for_cycle();
    ctx.rebind(trace, pid, slot.caches.empty() ? nullptr : &slot.caches[pid]);
    const bool halting = !static_cast<State&>(*slot.states[pid]).cycle(ctx);
    trace.halting = halting;
    if (halting) log.halts.push_back(pid);
    for (const WriteOp& op : trace.writes) {
      log.writes.push_back({static_cast<std::uint32_t>(op.addr), pid,
                            op.value});
    }
  }
}

// The cell range a Program's goal is stated over: goal() holds exactly when
// Program::goal_cell_done(a, mem[a]) holds for every cell a in
// [base, base + count). Programs exposing this through Program::goal_cells
// let the engine maintain an unsatisfied-cell counter incrementally at
// write-commit time, turning the once-per-slot goal check into an O(1)
// counter test instead of a goal() call (which for array goals is an O(N)
// scan). The progress-tree algorithms expose their single root/done cell
// the same way, removing even the virtual goal() call from the slot loop.
struct GoalCells {
  Addr base = 0;
  Addr count = 0;
};

class BatchKernel;  // pram/soa.hpp

// A complete P-processor program: memory layout, boot states, goal.
class Program {
 public:
  virtual ~Program() = default;

  virtual std::string_view name() const = 0;

  // Number of processors P the program runs with.
  virtual Pid processors() const = 0;

  // Total shared memory the program needs (input + working structures).
  virtual Addr memory_size() const = 0;

  // Write the non-zero part of the initial configuration (inputs, padding
  // marks). Called once before the first slot; memory arrives zeroed.
  virtual void init_memory(SharedMemory& mem) const { (void)mem; }

  // Fresh private state for processor `pid`: used at time 0 and again after
  // every restart (restarts lose all private context — §2.1 point 3).
  virtual std::unique_ptr<ProcessorState> boot(Pid pid) const = 0;

  // Restart processor `pid` (§2.1 point 3): leave in `state` a state that
  // behaves exactly like boot(pid) and saves the same checkpoint words.
  // `state` is null or an object this program's boot or load_state made,
  // possibly used since. The default boots afresh; programs whose states can
  // be reset in place get the override from ProgramLifecycle (below), so
  // restarts free and allocate nothing. The auditor's amnesia twin
  // (analysis/audit.hpp) boots through boot(), so it checks every override.
  virtual void reboot(std::unique_ptr<ProcessorState>& state, Pid pid) const {
    state = boot(pid);
  }

  // Success predicate; the engine stops when it holds. A program that
  // declares goal_cells returns all_goal_cells_done(mem) here, so goal()
  // and the engine's incremental counter agree by construction; any other
  // program states its own predicate, which the engine calls every slot.
  virtual bool goal(const SharedMemory& mem) const = 0;

  // Incremental-goal opt-in (see GoalCells): the cell range whose per-cell
  // satisfaction, as judged by goal_cell_done, is the goal; nullopt (the
  // default) keeps per-slot goal() calls.
  virtual std::optional<GoalCells> goal_cells() const { return std::nullopt; }

  // Per-cell satisfaction predicate for the goal_cells range. Must be a
  // pure function of (address, value). Default: non-zero cell value.
  virtual bool goal_cell_done(Addr addr, Word value) const {
    (void)addr;
    return value != 0;
  }

  // Checkpoint hook (src/replay): reconstruct processor `pid`'s private
  // state from the words its ProcessorState::save_state produced. The
  // loaded state must behave identically to the saved one from the next
  // slot on — Engine::restore rebuilds every live processor through this.
  // Return nullptr (the default) for programs without checkpoint support.
  virtual std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const {
    (void)pid;
    (void)data;
    return nullptr;
  }

  // The interpreter's cycle phase of one slot: run one update cycle for
  // each PID of `live_pids` (ascending) as interpret_cycles does. The
  // default steps each state through a virtual ProcessorState::cycle call;
  // ProgramLifecycle runs the same loop typed on its final State.
  virtual void run_cycles(InterpreterSlot& slot,
                          std::span<const Pid> live_pids) const {
    interpret_cycles<ProcessorState>(slot, live_pids);
  }

  // Batched-backend opt-in (pram/soa.hpp, EngineOptions::batch): return a
  // BatchKernel exposing this program's cycle bodies as straight-line
  // per-lane kernels over SoA registers, or nullptr (the default) to keep
  // the per-processor interpreter. The kernel must be bit-identical to the
  // ProcessorState path: same buffered writes, halting decisions, and
  // checkpoint word streams. Consulted once, at engine construction, and
  // only when EngineOptions::batch is set and no per-op audit hook forces
  // the interpreter. Defined in pram/soa.cpp.
  virtual std::unique_ptr<BatchKernel> batch_kernels() const;

  // Obliviousness claim (§3's oblivious algorithms and the optimality
  // corollaries that need them): return true iff every processor's address
  // trace — cells read, cells written, write count, halting decision — is a
  // function of (pid, slot) alone, never of values read from shared memory.
  // The claim is *checked*, not trusted: the static verifier
  // (analysis/static/) proves it per reachable control state by differencing
  // address traces across read valuations, and the record/replay probe
  // (analysis/oblivious.hpp) cross-checks it dynamically. Default: false
  // (adaptive algorithms like W/V/X are legitimately value-driven).
  virtual bool oblivious() const { return false; }

  // Observability opt-in (see obs/phase.hpp): declare the fixed-length
  // phase schedule the program's slots follow, so the engine emits
  // phase-transition trace events (from which a StreamAggregator
  // attributes S/S'/|F| per phase). Return nullopt (the default) for
  // programs without a global phase structure. Consulted once, at engine
  // construction, and only when a sink is installed.
  virtual std::optional<PhaseSchedule> phase_schedule() const {
    return std::nullopt;
  }

 protected:
  // The goal of a program that declares goal_cells: every cell of the range
  // satisfies goal_cell_done.
  bool all_goal_cells_done(const SharedMemory& mem) const {
    const GoalCells cells = goal_cells().value();
    for (Addr a = cells.base; a < cells.base + cells.count; ++a) {
      if (!goal_cell_done(a, mem.read(a))) return false;
    }
    return true;
  }
};

// Boot, reboot and checkpoint load, written once (§2.1 point 3: a restarted
// processor knows only its PID, P and N), and the interpreter loop typed on
// `State`. `Derived` derives from this over `Base` (Program or a subclass)
// and supplies make_state(pid), returning a std::unique_ptr<State>. `State`
// is final and supplies reboot(), which resets it in place to what
// make_state built, and load_words(WordReader&), the mirror of its
// save_words (see WordStreamState).
template <class Derived, class State, class Base>
class ProgramLifecycle : public Base {
 public:
  using Base::Base;

  std::unique_ptr<ProcessorState> boot(Pid pid) const override {
    return derived().make_state(pid);
  }

  // A null state boots; any other resets in place, so a restart frees and
  // allocates nothing.
  void reboot(std::unique_ptr<ProcessorState>& state,
              Pid pid) const override {
    if (state == nullptr) {
      state = derived().make_state(pid);
    } else {
      static_cast<State&>(*state).reboot();
    }
  }

  // Every state is a State, so the typed loop calls State::cycle directly.
  void run_cycles(InterpreterSlot& slot,
                  std::span<const Pid> live_pids) const override {
    interpret_cycles<State>(slot, live_pids);
  }

  std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const override {
    std::unique_ptr<State> state = derived().make_state(pid);
    WordReader r(data);
    state->load_words(r);
    RFSP_CHECK_MSG(r.exhausted(), "trailing words in a " +
                                      std::string(this->name()) +
                                      " checkpoint state");
    return state;
  }

 private:
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }
};

}  // namespace rfsp
