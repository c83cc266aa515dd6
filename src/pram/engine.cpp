#include "pram/engine.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// CycleContext (declared in pram/program.hpp; read/write are inline there)

CycleContext::CycleContext(const SharedMemory& mem, Slot slot,
                           std::size_t read_budget, std::size_t write_budget,
                           bool snapshot_allowed, CycleAuditHook* audit)
    : cells_(mem.storage().first(mem.size())), write_budget_(write_budget),
      audit_(audit), slot_(slot), mem_(mem), read_budget_(read_budget),
      snapshot_allowed_(snapshot_allowed),
      always_hooked_(audit != nullptr || mem.faulty()) {}

namespace {
ViolationContext cycle_ctx(Slot slot, Pid pid, const char* move) {
  return {static_cast<std::int64_t>(slot), static_cast<std::int64_t>(pid),
          move};
}
}  // namespace

Word CycleContext::read_hooked(Addr a) {
  if (audit_ != nullptr) audit_->on_read(pid_, a);
  if (cache_ != nullptr) {
    if (const Word* hit = cache_->find(a)) return *hit;
  }
  return mem_.read(a, pid_);
}

void CycleContext::throw_read_budget() const {
  throw ModelViolation("update cycle exceeded its read budget of " +
                           std::to_string(read_budget_),
                       cycle_ctx(slot_, pid_, "read"));
}

void CycleContext::throw_write_budget() const {
  throw ModelViolation("update cycle exceeded its write budget of " +
                           std::to_string(write_budget_),
                       cycle_ctx(slot_, pid_, "write"));
}

std::span<const Word> CycleContext::snapshot() {
  if (!snapshot_allowed_) {
    throw ModelViolation(
        "whole-memory snapshot read requires EngineOptions::unit_cost_snapshot"
        " (the strong model of §3)",
        cycle_ctx(slot_, pid_, "snapshot"));
  }
  if (trace_->used_snapshot || reads_used_ != 0) {
    throw ModelViolation("snapshot consumes the entire read budget",
                         cycle_ctx(slot_, pid_, "snapshot"));
  }
  trace_->used_snapshot = true;
  read_limit_ = 0;
  if (audit_ != nullptr) audit_->on_snapshot(pid_);
  return mem_.words();
}

void CycleContext::persist() {
  if (cache_ == nullptr) {
    throw ModelViolation(
        "persist() requires the persistent-cache memory model "
        "(EngineOptions::memory_model)",
        cycle_ctx(slot_, pid_, "persist"));
  }
  trace_->persist = true;
}

// ---------------------------------------------------------------------------
// Engine

namespace {
// The lane logs store 32-bit cell addresses (pram/program.hpp PendingWrite).
// Checked before the engine allocates anything sized by the memory.
const Program& check_memory_size(const Program& program) {
  if (program.memory_size() > UINT32_MAX) {
    throw ConfigError("program '" + std::string(program.name()) +
                      "' needs " + std::to_string(program.memory_size()) +
                      " shared-memory cells; the engine takes at most "
                      "2^32 - 1");
  }
  return program;
}
}  // namespace

Engine::Engine(const Program& program, EngineOptions options)
    : program_(check_memory_size(program)), options_(options),
      fault_map_(options_.memory_model == MemoryModel::kFaultyCells
                     ? std::make_unique<CellFaultMap>(CellFaultMap::build(
                           options_.faulty_cells, program.memory_size()))
                     : nullptr),
      mem_(program.memory_size(), fault_map_.get()) {
  const Pid p = program_.processors();
  if (p == 0) throw ConfigError("program declares zero processors");
  if (options_.read_budget == 0 || options_.read_budget > kReadCap ||
      options_.write_budget == 0 || options_.write_budget > kWriteCap) {
    throw ConfigError("per-cycle budgets out of range");
  }
  if (options_.memory_model != MemoryModel::kReliable &&
      options_.unit_cost_snapshot) {
    throw ConfigError(
        "unit_cost_snapshot requires the reliable memory model (a flat "
        "snapshot cannot show remapped or cached cells)");
  }
  if (options_.memory_model == MemoryModel::kPersistentCache) {
    if (options_.bit_atomic_writes) {
      throw ConfigError(
          "bit_atomic_writes is incompatible with the persistent-cache "
          "memory model (a cached write has no bit-granular commit to tear)");
    }
    caches_.resize(p);
  }
  states_.resize(p);
  status_.assign(p, ProcStatus::kLive);
  traces_.resize(p);
  mark_stamp_.assign(p, 0);
  mark_val_.assign(p, 0);
  cell_stamp_.assign(mem_.size(), 0);
  live_pids_.resize(p);
  for (Pid pid = 0; pid < p; ++pid) live_pids_[pid] = pid;
  merge_buf_.reserve(p);
  failed_mask_.assign((std::size_t{p} + 63) / 64, 0);
  program_.init_memory(mem_);

  if (const std::optional<GoalCells> cells = program_.goal_cells()) {
    RFSP_CHECK_MSG(cells->base + cells->count <= mem_.size(),
                   "goal_cells range beyond shared memory");
    track_goal_ = true;
    goal_base_ = cells->base;
    goal_end_ = cells->base + cells->count;
    for (Addr a = goal_base_; a < goal_end_; ++a) {
      if (!program_.goal_cell_done(a, mem_.read(a))) ++goal_unsat_;
    }
  }
  audit_ = options_.audit;
  if (audit_ != nullptr) {
    audit_->on_run_begin(program_, options_);
    if (options_.memory_model != MemoryModel::kReliable) {
      audit_->on_memory_backend(caches_.empty() ? nullptr : &caches_,
                                fault_map_.get());
    }
  }

  // Batched SoA backend: active only when nothing demands per-op hooks.
  // Budgets below the paper defaults could make the interpreter throw
  // where a kernel (which does not meter its reads) would not, so they
  // force the interpreter too. Every CRCW model batches: the kernel runs
  // the live set as one ascending-PID group, so the lane log's write order
  // is the interpreter's and ARBITRARY/PRIORITY's first writer is the same
  // processor. Unported programs return nullptr.
  // Non-reliable memory models force the interpreter as well: kernels read
  // the flat memory span directly, which cannot show remapped cells or the
  // per-processor write-back caches.
  if (options_.batch && audit_ == nullptr &&
      options_.memory_model == MemoryModel::kReliable &&
      options_.read_budget >= 4 && options_.write_budget >= 2) {
    kernel_ = program_.batch_kernels();
  }
  if (kernel_ != nullptr) {
    // One control state: the live set is the lane group, so the kernel
    // emits the lane log in ascending-PID order (pram/soa.hpp).
    if (kernel_->control_states() != 1) {
      throw ConfigError("program '" + std::string(program_.name()) +
                        "' declares " +
                        std::to_string(kernel_->control_states()) +
                        " control states; the batched backend runs one");
    }
    soa_ = SoaStore(p, kernel_->registers());
    for (Pid pid = 0; pid < p; ++pid) kernel_->boot_lane(soa_, pid);
  } else {
    for (Pid pid = 0; pid < p; ++pid) states_[pid] = program_.boot(pid);
  }

  // Observability: resolve everything once here so the slot loop's only
  // instrumentation cost with no sink is a null test.
  sink_ = options_.sink;
  if (sink_ != nullptr) {
    if (std::optional<PhaseSchedule> schedule = program_.phase_schedule()) {
      RFSP_CHECK_MSG(schedule->phase_of != nullptr && !schedule->names.empty(),
                     "PhaseSchedule needs names and a phase_of function");
      phase_of_ = std::move(schedule->phase_of);
      phase_names_ = std::move(schedule->names);
    }
  }
}

Engine::~Engine() = default;

std::optional<std::uint64_t> Engine::goal_unsatisfied() const {
  if (!track_goal_) return std::nullopt;
  return goal_unsat_;
}

bool Engine::goal_met() const {
  return track_goal_ ? goal_unsat_ == 0 : program_.goal(mem_);
}

void Engine::commit_cell(Addr a, Word v, Pid pid) {
  if (track_goal_ && a >= goal_base_ && a < goal_end_) {
    const bool was = program_.goal_cell_done(a, mem_.read(a));
    // A dead cell (faulty-cells model) drops the write — the goal counter
    // must then not move, or it would drift from what goal() re-scans.
    if (!mem_.write(a, v, pid)) return;
    const bool now = program_.goal_cell_done(a, v);
    if (was != now) goal_unsat_ += was ? 1 : std::uint64_t(-1);
    return;
  }
  mem_.write(a, v, pid);
}

std::size_t Engine::run_cycles() {
  lane_.clear();
  if (kernel_ != nullptr) {
    // The kernel fills lane_ directly (LaneEmit), mirroring into traces_
    // only when batch_traces_ — identical to what the interpreter would
    // have produced over the same PIDs.
    const BatchContext ctx{mem_.words(), slot_,
                           batch_traces_ ? traces_.data() : nullptr, &lane_};
    kernel_->run(0, live_pids_, ctx, soa_);
  } else {
    interpret_slot();
  }
  return live_pids_.size();
}

void Engine::interpret_slot() {
  // One context for the slot; the program's loop (typed on its state
  // class for ProgramLifecycle programs) rebinds it per PID. In audit
  // mode the *enforced* budgets widen to the storage caps: the auditor
  // reports every over-budget cycle with context instead of the engine
  // aborting the run at the first offence (the caps still throw).
  CycleContext ctx(mem_, slot_,
                   audit_ != nullptr ? kReadCap : options_.read_budget,
                   audit_ != nullptr ? kWriteCap : options_.write_budget,
                   options_.unit_cost_snapshot, audit_);
  InterpreterSlot slot{states_, traces_, caches_, ctx, lane_};
  program_.run_cycles(slot, live_pids_);
}

void Engine::observe_slot(const FaultDecision& d, std::size_t started,
                          std::size_t completed, std::size_t failure_events) {
  if (!phase_names_.empty()) {
    const std::uint32_t ph = phase_of_(slot_);
    RFSP_CHECK_MSG(ph < phase_names_.size(),
                   "PhaseSchedule::phase_of returned an out-of-range id");
    if (ph != last_phase_) {
      TraceEvent event;
      event.kind = TraceEventKind::kPhase;
      event.slot = slot_;
      event.phase = ph;
      event.phase_name = phase_names_[ph];
      sink_->on_event(event);
      last_phase_ = ph;
    }
  }
  TraceEvent event;
  event.kind = TraceEventKind::kSlot;
  event.slot = slot_;
  event.started = static_cast<std::uint32_t>(started);
  event.completed = static_cast<std::uint32_t>(completed);
  event.failures = static_cast<std::uint32_t>(failure_events);
  event.restarts = static_cast<std::uint32_t>(d.restart.size());
  sink_->on_event(event);

  TraceEvent commit;
  commit.kind = TraceEventKind::kCommit;
  commit.slot = slot_;
  commit.writes = static_cast<std::uint32_t>(lane_.writes.size());
  sink_->on_event(commit);

  TraceEvent pe;
  pe.slot = slot_;
  pe.kind = TraceEventKind::kFailure;
  for (Pid pid : d.fail_mid_cycle) { pe.pid = pid; sink_->on_event(pe); }
  for (Pid pid : d.fail_after_cycle) { pe.pid = pid; sink_->on_event(pe); }
  for (const TornWrite& tear : d.torn) {
    pe.pid = tear.pid;
    sink_->on_event(pe);
  }
  pe.kind = TraceEventKind::kRestart;
  for (Pid pid : d.restart) { pe.pid = pid; sink_->on_event(pe); }
}

void Engine::validate_decision(const FaultDecision& d) {
  if (d.empty()) return;
  const Pid p = program_.processors();
  ++mark_epoch_;
  auto check_fail_target = [&](Pid pid, const char* move) {
    if (pid >= p) {
      throw AdversaryViolation("failure of out-of-range PID",
                               cycle_ctx(slot_, pid, move));
    }
    if (status_[pid] != ProcStatus::kLive || !traces_[pid].started) {
      throw AdversaryViolation("failure of a processor that is not live",
                               cycle_ctx(slot_, pid, move));
    }
    if (mark_get(pid) != 0) {
      throw AdversaryViolation("duplicate failure of one processor",
                               cycle_ctx(slot_, pid, move));
    }
    mark_set(pid, 1);
  };
  for (Pid pid : d.fail_mid_cycle) check_fail_target(pid, "fail_mid_cycle");
  for (Pid pid : d.fail_after_cycle) {
    check_fail_target(pid, "fail_after_cycle");
  }
  for (const TornWrite& tear : d.torn) {
    if (!options_.bit_atomic_writes) {
      throw AdversaryViolation(
          "torn writes require EngineOptions::bit_atomic_writes",
          cycle_ctx(slot_, tear.pid, "torn"));
    }
    check_fail_target(tear.pid, "torn");
    if (tear.write_index >= traces_[tear.pid].writes.size()) {
      throw AdversaryViolation(
          "torn write index beyond the cycle's buffered writes",
          cycle_ctx(slot_, tear.pid, "torn"));
    }
    if (tear.keep_bits >= 64) {
      throw AdversaryViolation("torn write must keep fewer than 64 bits",
                               cycle_ctx(slot_, tear.pid, "torn"));
    }
  }
  for (Pid pid : d.restart) {
    if (pid >= p) {
      throw AdversaryViolation("restart of out-of-range PID",
                               cycle_ctx(slot_, pid, "restart"));
    }
    // Restart targets must be failed, *after* this decision's failures take
    // effect (an adversary may fail and immediately restart a processor —
    // the restarted state runs from the next slot).
    if (status_[pid] != ProcStatus::kFailed && mark_get(pid) != 1) {
      throw AdversaryViolation("restart of a processor that is not failed",
                               cycle_ctx(slot_, pid, "restart"));
    }
    if (mark_get(pid) == 2) {
      throw AdversaryViolation("duplicate restart of one processor",
                               cycle_ctx(slot_, pid, "restart"));
    }
    mark_set(pid, 2);  // restart of an old failure, or fail-then-restart
  }
  for (const Addr addr : d.cell_faults) {
    if (options_.memory_model != MemoryModel::kFaultyCells) {
      throw AdversaryViolation(
          "cell-fault moves require the faulty-cells memory model",
          {static_cast<std::int64_t>(slot_), -1, "cell_fault"});
    }
    if (addr >= mem_.size()) {
      throw AdversaryViolation(
          "cell fault at out-of-range address " + std::to_string(addr),
          {static_cast<std::int64_t>(slot_), -1, "cell_fault"});
    }
  }
  for (const Pid pid : d.cache_drop) {
    if (options_.memory_model != MemoryModel::kPersistentCache) {
      throw AdversaryViolation(
          "cache-drop moves require the persistent-cache memory model",
          cycle_ctx(slot_, pid, "cache_drop"));
    }
    if (pid >= p) {
      throw AdversaryViolation("cache drop of out-of-range PID",
                               cycle_ctx(slot_, pid, "cache_drop"));
    }
    if (status_[pid] != ProcStatus::kLive || !traces_[pid].started) {
      throw AdversaryViolation("cache drop of a processor that is not live",
                               cycle_ctx(slot_, pid, "cache_drop"));
    }
  }
}

void Engine::commit_writes(const FaultDecision& d) {
  if (!caches_.empty()) {
    commit_writes_cached(d);
    return;
  }
  // Mark mid-cycle casualties: their buffered writes are discarded. Torn
  // processors are casualties too, but parts of their writes land below.
  // Fault-free slots (the common case) skip the marking entirely.
  const bool casualties = !d.fail_mid_cycle.empty() || !d.torn.empty();
  if (casualties) {
    ++mark_epoch_;
    for (Pid pid : d.fail_mid_cycle) mark_set(pid, 1);
    for (const TornWrite& tear : d.torn) mark_set(tear.pid, 1);
  }

  // One pass over the slot's buffered writes in PID order — the compact
  // lane log, filled while each trace was cache-hot, so no trace is
  // re-streamed here. A cell's stamp says whether it was already written
  // this slot: the first (lowest-PID) writer commits; later writers are
  // CRCW conflicts resolved against the committed value. This replaces the
  // seed's gather + O(W log W) sort with O(W) work and no allocation.
  if (++commit_epoch_ == 0) {  // u32 wrap: invalidate all stale stamps
    std::fill(cell_stamp_.begin(), cell_stamp_.end(), 0u);
    commit_epoch_ = 1;
  }
  // The first-writer path below is the whole slot for fault-free batched
  // runs (one buffered write per lane per slot), so it is flattened into
  // the loop: stamp check, goal-range check, raw store. Conflict
  // resolution and goal-counter upkeep stay out of line.
  const std::uint32_t epoch = commit_epoch_;
  std::uint32_t* const stamps = cell_stamp_.data();
  const bool track_goal = track_goal_;
  const Addr goal_base = goal_base_;
  const Addr goal_end = goal_end_;
  for (const PendingWrite& op : lane_.writes) {
    if (casualties && mark_get(op.pid) != 0) continue;
    const Addr addr = op.addr;
    if (stamps[addr] == epoch) {
      resolve_write_conflict(addr, op.value, op.pid);
      continue;
    }
    stamps[addr] = epoch;
    if (track_goal && addr >= goal_base && addr < goal_end) {
      commit_cell(addr, op.value, op.pid);
      continue;
    }
    mem_.write(addr, op.value, op.pid);
  }

  // Torn writes (bit-atomic mode): the casualty's earlier writes land
  // whole, the torn one lands low-bits-first, later ones are lost. They
  // apply after the intact commits, in PID order (the serialization the
  // combining network would impose on the straggler's bit stream).
  for (const TornWrite& tear : d.torn) {
    const CycleTrace& trace = traces_[tear.pid];
    for (std::size_t w = 0; w < tear.write_index; ++w) {
      commit_cell(trace.writes[w].addr, trace.writes[w].value, tear.pid);
    }
    const WriteOp& op = trace.writes[tear.write_index];
    const Word mask = (Word{1} << tear.keep_bits) - 1;
    const Word old = mem_.read(op.addr);
    commit_cell(op.addr, (old & ~mask) | (op.value & mask), tear.pid);
  }
}

void Engine::commit_writes_cached(const FaultDecision& d) {
  // Persistent-cache model: a completed cycle's writes land in the writer's
  // private cache, not in shared memory. Caches flush — in ascending PID
  // order, each in insertion order — for processors that requested
  // persist(), hit the persist_every cadence, or are halting voluntarily
  // (a halted processor has no later cycle to persist in; the implicit
  // flush is what lets unmodified algorithms still publish their final
  // writes). Un-flushed caches are what failures and cache_drop moves
  // destroy in apply_transitions.
  //
  // No CRCW conflict detection applies to flushes: entries buffered in
  // different slots are not concurrent in the model sense, so a flush
  // collision resolves deterministically by flush order (last write wins).
  // With persist_every == 1 every completed cycle flushes immediately and
  // a COMMON-disciplined run is observably identical to the reliable model.
  const bool casualties = !d.fail_mid_cycle.empty();
  if (casualties) {
    ++mark_epoch_;
    for (Pid pid : d.fail_mid_cycle) mark_set(pid, 1);
  }
  const std::uint64_t persist_every = options_.persistent_cache.persist_every;
  for (const Pid pid : live_pids_) {
    if (casualties && mark_get(pid) != 0) continue;
    const CycleTrace& trace = traces_[pid];
    ProcCache& cache = caches_[pid];
    for (const WriteOp& op : trace.writes) {
      cache.entries.push_back({op.addr, op.value});
    }
    ++cache.unpersisted_cycles;
    if (trace.persist || trace.halting ||
        (persist_every > 0 && cache.unpersisted_cycles >= persist_every)) {
      flush_cache(pid);
    }
  }
}

void Engine::flush_cache(Pid pid) {
  ProcCache& cache = caches_[pid];
  for (const CacheEntry& entry : cache.entries) {
    commit_cell(entry.addr, entry.value, pid);
  }
  cache.clear();
  ++tally_.persists;
}

void Engine::resolve_write_conflict(Addr addr, Word value, Pid pid) {
  if (fault_map_ != nullptr && fault_map_->is_dead(addr)) {
    // The first writer's commit was dropped, so the cell stamp reflects a
    // write that never landed; comparing later writers against the dead
    // cell's garbage would fabricate COMMON/WEAK conflicts. Concurrent
    // writes to a dead cell all vanish identically — no conflict exists.
    return;
  }
  switch (options_.model) {
      case CrcwModel::kCommon:
        if (value != mem_.read(addr)) {
          throw ModelViolation(
              "COMMON CRCW conflict: concurrent writers disagree at cell " +
                  std::to_string(addr),
              cycle_ctx(slot_, pid, "commit"));
        }
        break;
      case CrcwModel::kWeak:
        if (value != kWeakValue || mem_.read(addr) != kWeakValue) {
          throw ModelViolation(
              "WEAK CRCW conflict: concurrent write of a non-designated "
              "value at cell " +
                  std::to_string(addr),
              cycle_ctx(slot_, pid, "commit"));
        }
        break;
      case CrcwModel::kArbitrary:
      case CrcwModel::kPriority:
        // Deterministic resolution: the lowest PID already won.
        break;
      case CrcwModel::kCrew:
      case CrcwModel::kErew:
        throw ModelViolation("concurrent write under CREW/EREW at cell " +
                                 std::to_string(addr),
                             cycle_ctx(slot_, pid, "commit"));
  }
}

void Engine::apply_transitions(const FaultDecision& d) {
  // State transitions: failures destroy private memory (§2.1 point 3). The
  // state object stays allocated but unused; a restart resets it in place
  // (Program::reboot) ...
  ++mark_epoch_;  // marks collect this slot's departures from the live set
  auto fail = [&](Pid pid) {
    status_[pid] = ProcStatus::kFailed;
    failed_mask_[pid / 64] |= std::uint64_t{1} << (pid % 64);
    traces_[pid].clear();
    // Persistent-cache amnesia: un-persisted writes die with the processor.
    if (!caches_.empty()) caches_[pid].clear();
    mark_set(pid, 1);
  };
  for (Pid pid : d.fail_mid_cycle) fail(pid);
  for (Pid pid : d.fail_after_cycle) fail(pid);
  for (const TornWrite& tear : d.torn) fail(tear.pid);

  // ... voluntary halts take effect only for cycles that completed (the
  // halters come from the lane log, in ascending PID order; a processor the
  // adversary failed this slot is no longer kLive and stays failed, i.e.
  // restartable). A halted processor never restarts, so its state is
  // freed ...
  std::size_t halts = 0;
  for (Pid pid : lane_.halts) {
    if (status_[pid] != ProcStatus::kLive) continue;
    states_[pid].reset();
    status_[pid] = ProcStatus::kHalted;
    traces_[pid].clear();
    // A voluntary halt already flushed its cache in commit_writes_cached
    // (trace.halting forces the flush); this clear is hygiene only.
    if (!caches_.empty()) caches_[pid].clear();
    mark_set(pid, 1);
    ++halts;
    ++tally_.halted;
    if (sink_ != nullptr) {
      TraceEvent event;
      event.kind = TraceEventKind::kHalt;
      event.slot = slot_;
      event.pid = pid;
      sink_->on_event(event);
    }
  }

  // ... and restarts reboot their states, live from the next slot.
  for (Pid pid : d.restart) {
    if (kernel_ != nullptr) {
      kernel_->boot_lane(soa_, pid);
      // On the no-trace fast path the started flag stands in for the whole
      // trace (it is all the adversary and validate_decision may read);
      // fail/halt cleared it above, a restarted lane runs from next slot.
      if (!batch_traces_) traces_[pid].started = true;
    } else {
      program_.reboot(states_[pid], pid);
    }
    status_[pid] = ProcStatus::kLive;
    failed_mask_[pid / 64] &= ~(std::uint64_t{1} << (pid % 64));
  }

  // Fold the transitions into the sorted live list: drop the marked
  // departures, merge in the restarts. O(live + |decision| log |decision|),
  // and zero when the slot had no failures, restarts, or halts.
  const bool departures = halts > 0 || !d.fail_mid_cycle.empty() ||
                          !d.fail_after_cycle.empty() || !d.torn.empty();
  if (departures) {
    live_pids_.erase(std::remove_if(live_pids_.begin(), live_pids_.end(),
                                    [&](Pid pid) {
                                      return mark_get(pid) != 0;
                                    }),
                     live_pids_.end());
  }
  if (!d.restart.empty()) {
    // Merge into a member buffer and swap: std::inplace_merge would
    // heap-allocate a temporary buffer on every call. Restarts mostly come
    // ascending (failed_pids() order); only others are copied and sorted.
    std::span<const Pid> restarts = d.restart;
    if (!std::is_sorted(restarts.begin(), restarts.end())) {
      restart_buf_.assign(restarts.begin(), restarts.end());
      std::sort(restart_buf_.begin(), restart_buf_.end());
      restarts = restart_buf_;
    }
    merge_buf_.resize(live_pids_.size() + restarts.size());
    std::merge(live_pids_.begin(), live_pids_.end(), restarts.begin(),
               restarts.end(), merge_buf_.begin());
    live_pids_.swap(merge_buf_);
  }

  // Memory-model moves land last, after the slot's commit (cell_faults kill
  // cells "at the end of this slot"; cache_drop discards after any persist
  // this slot performed).
  if (fault_map_ != nullptr) {
    for (const Addr addr : d.cell_faults) {
      // A goal-range cell that dies flips to garbage: keep the incremental
      // unsatisfied counter honest on both edges.
      const bool track =
          track_goal_ && addr >= goal_base_ && addr < goal_end_;
      const bool was = track && program_.goal_cell_done(addr, mem_.read(addr));
      if (!fault_map_->inject(addr)) continue;  // already dead: no-op
      if (track) {
        const bool now = program_.goal_cell_done(addr, mem_.read(addr));
        if (was != now) goal_unsat_ += was ? 1 : std::uint64_t(-1);
      }
    }
  }
  for (const Pid pid : d.cache_drop) caches_[pid].clear();
}

EngineCheckpoint Engine::checkpoint(const Adversary* adversary) const {
  EngineCheckpoint cp;
  cp.slot = slot_;
  cp.tally = tally_;
  // Raw storage, not the program-visible window: under faulty-cells the
  // remap targets live in the spare cells past memory_size(), and a resumed
  // run must see them. Reliable runs have no spares, so their checkpoints
  // are unchanged.
  const std::span<const Word> words = mem_.storage();
  cp.memory.assign(words.begin(), words.end());
  cp.caches = caches_;
  if (fault_map_ != nullptr) cp.injected_faults = fault_map_->injected();
  cp.status = status_;
  cp.states.resize(states_.size());
  // Processors of one program mostly save as many words as each other:
  // sized from the previous blob, a blob is allocated once, not regrown
  // word by word.
  std::size_t last_words = 0;
  for (Pid pid = 0; pid < states_.size(); ++pid) {
    if (status_[pid] != ProcStatus::kLive) continue;
    std::vector<Word> blob;
    blob.reserve(last_words);
    if (kernel_ != nullptr) {
      // Batched mode: the kernel serializes the lane's SoA registers into
      // the same word stream ProcessorState::save_state would produce, so
      // checkpoints cross freely between batch and interpreter runs.
      kernel_->save_lane(soa_, pid, blob);
    } else if (!states_[pid]->save_state(blob)) {
      throw ConfigError("program '" + std::string(program_.name()) +
                        "' does not support checkpointing "
                        "(ProcessorState::save_state returned false for pid " +
                        std::to_string(pid) + ")");
    }
    last_words = blob.size();
    cp.states[pid] = std::move(blob);
  }
  if (adversary != nullptr) adversary->save_state(cp.adversary);
  write_memory_model_meta(options_.memory_model, options_.faulty_cells,
                          options_.persistent_cache, cp.meta);
  return cp;
}

void Engine::restore(const EngineCheckpoint& cp, Adversary* adversary) {
  if (ran_) throw ConfigError("Engine::restore must precede Engine::run");
  if (cp.memory.size() != mem_.storage_size() ||
      cp.status.size() != status_.size() ||
      cp.states.size() != states_.size()) {
    throw ConfigError("checkpoint shape does not match the program "
                      "(different N, P, or memory model?)");
  }
  // Memory-model state is checked in full before anything is applied: an
  // out-of-range address would otherwise surface later as an invariant
  // failure or as a ModelViolation charged to an innocent PID.
  if (!cp.caches.empty() && caches_.size() != cp.caches.size()) {
    throw ConfigError(
        "checkpoint carries per-processor caches but the engine is not "
        "running the persistent-cache memory model");
  }
  for (const ProcCache& cache : cp.caches) {
    for (const CacheEntry& entry : cache.entries) {
      if (entry.addr >= mem_.size()) {
        throw ConfigError("checkpoint cache entry address " +
                          std::to_string(entry.addr) +
                          " is outside the " + std::to_string(mem_.size()) +
                          "-cell memory");
      }
    }
  }
  if (!cp.injected_faults.empty() && fault_map_ == nullptr) {
    throw ConfigError(
        "checkpoint carries injected cell faults but the engine is not "
        "running the faulty-cells memory model");
  }
  for (const Addr addr : cp.injected_faults) {
    if (addr >= fault_map_->memory_size()) {
      throw ConfigError("checkpoint injected-fault address " +
                        std::to_string(addr) + " is outside the " +
                        std::to_string(fault_map_->memory_size()) +
                        "-cell memory");
    }
  }
  mem_.restore_storage(cp.memory);
  if (!cp.caches.empty()) {
    caches_ = cp.caches;
  } else {
    for (ProcCache& cache : caches_) cache.clear();
  }
  for (const Addr addr : cp.injected_faults) fault_map_->inject(addr);
  status_ = cp.status;
  live_pids_.clear();
  std::fill(failed_mask_.begin(), failed_mask_.end(), 0);
  for (Pid pid = 0; pid < states_.size(); ++pid) {
    traces_[pid].clear();
    if (status_[pid] == ProcStatus::kFailed) {
      failed_mask_[pid / 64] |= std::uint64_t{1} << (pid % 64);
    }
    if (status_[pid] != ProcStatus::kLive) {
      states_[pid].reset();
      continue;
    }
    if (!cp.states[pid].has_value()) {
      throw ConfigError("checkpoint lacks the private state of live pid " +
                        std::to_string(pid));
    }
    if (kernel_ != nullptr) {
      kernel_->load_lane(soa_, pid, *cp.states[pid]);
    } else {
      states_[pid] = program_.load_state(pid, *cp.states[pid]);
      if (states_[pid] == nullptr) {
        throw ConfigError("program '" + std::string(program_.name()) +
                          "' cannot rebuild processor states "
                          "(Program::load_state returned nullptr for pid " +
                          std::to_string(pid) + ")");
      }
    }
    live_pids_.push_back(pid);
  }
  slot_ = cp.slot;
  tally_ = cp.tally;
  if (track_goal_) {
    goal_unsat_ = 0;
    for (Addr a = goal_base_; a < goal_end_; ++a) {
      if (!program_.goal_cell_done(a, mem_.read(a))) ++goal_unsat_;
    }
  }
  if (adversary != nullptr) adversary->load_state(cp.adversary);
}

RunResult Engine::run(Adversary& adversary) {
  if (ran_) throw ConfigError("Engine::run is single-shot");
  ran_ = true;

  // Oblivious fast path: with kernels active, skip per-PID CycleTrace
  // materialization unless the adversary reads cycle internals or torn
  // writes need the buffered-write view. All anyone may then read from a
  // trace is `started`, which equals "ran a cycle this slot" == live — so
  // seed the flags for the current live set and keep them in step at
  // fail/halt (clear) and restart (apply_transitions) time.
  if (kernel_ != nullptr) {
    batch_traces_ =
        adversary.inspects_cycles() || options_.bit_atomic_writes;
    if (!batch_traces_) {
      for (const Pid pid : live_pids_) traces_[pid].started = true;
    }
  }

  RunResult result;
  const Slot checkpoint_every = options_.checkpoint_every;

  for (;;) {
    if (goal_met()) {
      result.goal_met = true;
      break;
    }
    if (slot_ >= options_.max_slots) {
      result.slot_limit = true;
      break;
    }
    // Slot-boundary checkpoint: captured before the slot runs, so a resumed
    // engine re-executes this very slot first and the continuation is
    // bit-identical (docs/resilience.md §3).
    if (checkpoint_every > 0 && options_.on_checkpoint &&
        slot_ % checkpoint_every == 0) {
      options_.on_checkpoint(checkpoint(&adversary));
    }

    if (audit_ != nullptr) audit_->on_slot_begin(slot_);
    const std::size_t started = run_cycles();
    if (started == 0) {
      const bool any_halted =
          std::any_of(status_.begin(), status_.end(), [](ProcStatus s) {
            return s == ProcStatus::kHalted;
          });
      if (any_halted) {
        // Part of the machine finished voluntarily and the rest is failed:
        // the algorithm believed it was done while the goal is unmet — a
        // fault-tolerance deadlock of the *algorithm* (e.g. the trivial
        // assignment after one permanent crash), reported as a result.
        result.deadlock = true;
        break;
      }
      // Nobody halted and nobody is live: the adversary stranded a running
      // computation, violating model constraint 2(i).
      throw AdversaryViolation(
          "no live processor while the computation is unfinished "
          "(model constraint 2(i))",
          {static_cast<std::int64_t>(slot_), -1, "strand"});
    }
    tally_.peak_live = std::max<std::uint64_t>(tally_.peak_live, started);

    // Audit sees the machine between the cycles and the adversary decision:
    // memory still shows slot-start state, every started trace (including
    // the ones the adversary is about to abort) holds its buffered writes.
    if (audit_ != nullptr) {
      audit_->on_cycles_done(mem_, slot_, traces_, live_pids_);
    }

    const MachineView view(mem_, slot_, status_, traces_, live_pids_, tally_,
                           failed_mask_, failed_buf_, decision_);
    decision_ = adversary.decide(view);
    const FaultDecision& decision = decision_;
    validate_decision(decision);

    const std::size_t completed =
        started - decision.fail_mid_cycle.size() - decision.torn.size();
    if (completed == 0) {
      throw AdversaryViolation(
          "adversary aborted every started update cycle "
          "(model constraint 2(i))",
          {static_cast<std::int64_t>(slot_), -1, "fail_mid_cycle"});
    }

    commit_writes(decision);

    // Accounting (Definitions 2.2/2.3).
    tally_.completed_work += completed;
    tally_.attempted_work += started;
    const std::size_t failure_events = decision.fail_mid_cycle.size() +
                                       decision.fail_after_cycle.size() +
                                       decision.torn.size();
    tally_.failures += failure_events;
    tally_.restarts += decision.restart.size();
    if (sink_ != nullptr) {
      observe_slot(decision, started, completed, failure_events);
    }
    apply_transitions(decision);
    if (audit_ != nullptr) audit_->on_transitions(slot_, decision);

    ++slot_;
    ++tally_.slots;
  }
  if (audit_ != nullptr) audit_->on_run_end();

  if (sink_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kRunEnd;
    event.slot = slot_;
    event.goal_met = result.goal_met;
    event.deadlock = result.deadlock;
    event.slot_limit = result.slot_limit;
    sink_->on_event(event);
    sink_->flush();
  }
  result.tally = tally_;
  return result;
}

}  // namespace rfsp
