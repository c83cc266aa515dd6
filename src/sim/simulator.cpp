#include "sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <variant>

#include "sim/sync_exec.hpp"
#include "util/error.hpp"
#include "writeall/algv.hpp"
#include "writeall/algx.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

namespace {

// One store of a replayed step: the absolute cell and its sim_word value.
struct OverlayWrite {
  Addr addr;
  Word value;
};

// StepContext that serves loads from a fetch cache (plus the step's own
// stores) and records stores into an overlay: a flat array of at most
// `max_writes` distinct cells, kept by the caller so a replay does not
// allocate. Deterministic given the cache, so re-running it every
// micro-cycle is safe.
//
// The first load that hits neither records its address and marks the
// replay missed. Every value the step saw before that was real, so the
// miss is exactly the cell a fault-free run would read next. From then on
// loads read 0 unchecked and stores are dropped: the step runs to its end
// on fabricated values and the executor discards whatever it produced.
// A store to one cell more than the overlay holds is dropped too, and
// marks the replay overflowed.
class ReplayContext final : public StepContext {
 public:
  ReplayContext(const SimLayout& layout, Pid j,
                std::span<const Word> pairs, std::size_t fetched,
                unsigned load_cap, std::vector<OverlayWrite>& overlay)
      : layout_(layout), j_(j), pairs_(pairs), fetched_(fetched),
        load_cap_(load_cap), overlay_(overlay) {
    overlay_.clear();
    overlay_.reserve(layout_.max_writes);
  }

  Word load(Addr a) override {
    if (miss_) return after_miss();
    RFSP_CHECK_MSG(a < layout_.data_cells, "simulated load out of bounds");
    return fetch(layout_.data + a);
  }

  void store(Addr a, Word v) override {
    if (miss_) return;
    RFSP_CHECK_MSG(a < layout_.data_cells, "simulated store out of bounds");
    put(layout_.data + a, sim_word(v));
  }

  Word reg(unsigned r) override {
    if (miss_) return after_miss();
    RFSP_CHECK_MSG(r < layout_.reg_count, "register index out of range");
    return fetch(layout_.reg_cell(j_, r));
  }

  void set_reg(unsigned r, Word v) override {
    if (miss_) return;
    RFSP_CHECK_MSG(r < layout_.reg_count, "register index out of range");
    put(layout_.reg_cell(j_, r), sim_word(v));
  }

  // The first uncached cell the step loaded, if any.
  const std::optional<Addr>& miss() const { return miss_; }

  // Whether the step stored to more than max_writes distinct cells.
  bool overflowed() const { return overflowed_; }

  // Final writes of a step that neither missed nor overflowed, one per
  // cell, in address order.
  std::span<const OverlayWrite> sorted_writes() {
    std::ranges::sort(overlay_, {}, &OverlayWrite::addr);
    return overlay_;
  }

 private:
  // Cuts short a missed replay that keeps loading: a step such as
  // `while (ctx.load(a) == 0) ++a;` never ends on zeros. Only a replay
  // already being discarded throws it.
  struct Runaway {};

  Word after_miss() {
    if (++loads_after_miss_ > load_cap_) throw Runaway{};
    return 0;
  }

  void put(Addr abs, Word v) {
    for (OverlayWrite& w : overlay_) {
      if (w.addr == abs) {
        w.value = v;
        return;
      }
    }
    if (overlay_.size() == layout_.max_writes) {
      overflowed_ = true;
      return;
    }
    overlay_.push_back({abs, v});
  }

  Word fetch(Addr abs) {
    // Read-your-own-writes within the step.
    for (const OverlayWrite& w : overlay_) {
      if (w.addr == abs) return w.value;
    }
    for (std::size_t i = 0; i < fetched_; ++i) {
      if (static_cast<Addr>(pairs_[2 * i]) == abs) return pairs_[2 * i + 1];
    }
    miss_ = abs;
    return 0;
  }

  const SimLayout& layout_;
  Pid j_;
  std::span<const Word> pairs_;
  std::size_t fetched_;
  unsigned load_cap_;
  unsigned loads_after_miss_ = 0;
  std::optional<Addr> miss_;
  std::vector<OverlayWrite>& overlay_;
  bool overflowed_ = false;
};

// Pass-A task: compute simulated processor j's step t into scratch log j.
class ComputeTask final : public TaskSpec {
 public:
  ComputeTask(const SimProgram& program, const SimLayout& layout)
      : program_(program), layout_(layout),
        fetch_cap_(program.max_loads() + layout.reg_count) {}

  // Pass 2t (even) computes step t under the pass's epoch stamp.
  void set_pass(std::uint64_t pass) {
    t_ = pass / 2;
    stamp_ = static_cast<Word>(pass) + 1;
  }

  unsigned cycles_per_task() const override {
    return layout_.compute_cycles;
  }

  std::size_t scratch_words() const override {
    return 2 + 2 * static_cast<std::size_t>(fetch_cap_);
  }

  void run(CycleContext& ctx, Addr task, unsigned /*k*/,
           std::span<Word> scratch) const override {
    Word& fetched = scratch[0];
    Word& emitted = scratch[1];
    const std::span<Word> pairs = scratch.subspan(2);
    const Pid j = static_cast<Pid>(task);

    ReplayContext replay(layout_, j, pairs,
                         static_cast<std::size_t>(fetched), fetch_cap_,
                         overlay_);
    try {
      program_.step(replay, j, t_);
    } catch (...) {
      // A missed replay computed on fabricated zeros: whatever it threw,
      // the runaway guard included, is discarded with its outcome.
      if (!replay.miss()) throw;
    }
    if (const auto& miss = replay.miss()) {
      if (fetched >= static_cast<Word>(fetch_cap_)) {
        throw ConfigError("SimProgram::step exceeds its declared load "
                          "budget (max_loads + registers)");
      }
      pairs[2 * fetched] = static_cast<Word>(*miss);
      pairs[2 * fetched + 1] = ctx.read(*miss);
      ++fetched;
      return;
    }

    if (replay.overflowed()) {
      throw ConfigError("SimProgram::step exceeds its declared store "
                        "budget (max_stores + registers)");
    }
    const std::span<const OverlayWrite> writes = replay.sorted_writes();
    const Word count = static_cast<Word>(writes.size());
    if (emitted < count) {
      // Emit write pair #emitted (address order).
      const OverlayWrite& w = writes[static_cast<std::size_t>(emitted)];
      const Addr base = layout_.scratch_base(j);
      ctx.write(base + 1 + 2 * static_cast<Addr>(emitted),
                stamped(stamp_, static_cast<Word>(w.addr)));
      ctx.write(base + 2 + 2 * static_cast<Addr>(emitted),
                stamped(stamp_, w.value));
      ++emitted;
    } else if (emitted == count) {
      // All pairs are in place: publish the log length (the commit pass
      // treats a missing/stale count as an empty log, so the count is
      // written last).
      ctx.write(layout_.scratch_base(j), stamped(stamp_, count));
      ++emitted;
    }
    // Later micro-cycles of this task are no-ops (fixed-length schedule).
  }

 private:
  const SimProgram& program_;
  const SimLayout& layout_;
  Step t_ = 0;
  Word stamp_ = 0;
  unsigned fetch_cap_;
  // The replay overlay's storage, reused by every replay of this task. The
  // task belongs to one processor's state, so nothing else touches it.
  mutable std::vector<OverlayWrite> overlay_;
};

// Pass-B task: apply scratch log j to the simulated memory.
//
// COMMON-compatible disciplines: plainly idempotent — every re-execution
// writes the same values, and concurrent writers agree by assumption.
//
// ARBITRARY: concurrent writers may disagree, so the first commit to a
// cell within the step wins, recorded in a per-cell once-marker (stamped
// with this pass's epoch). Rival writers and re-executions observe the
// marker and skip; the engine's ARBITRARY rule breaks the one genuine race
// (two unmarked commits in the same slot) and both racers then write the
// same marker value, keeping the outcome stable ever after.
class CommitTask final : public TaskSpec {
 public:
  explicit CommitTask(const SimLayout& layout) : layout_(layout) {}

  // Pass 2t+1 (odd) commits the logs pass 2t stamped.
  void set_pass(std::uint64_t pass) {
    log_stamp_ = static_cast<Word>(pass);
    wa_stamp_ = static_cast<Word>(pass) + 1;
  }

  unsigned cycles_per_task() const override { return layout_.commit_cycles; }

  std::size_t scratch_words() const override { return 1; }

  void run(CycleContext& ctx, Addr task, unsigned k,
           std::span<Word> scratch) const override {
    const Addr base = layout_.scratch_base(task);
    if (k == 0) {
      scratch[0] =
          1 + payload_of(ctx.read(base), log_stamp_);  // count + 1 marker
      return;
    }
    if (scratch[0] == 0) return;  // restarted mid-task: wrapper restarts at 0
    const Word count = scratch[0] - 1;
    const Word idx = static_cast<Word>(k) - 1;
    if (idx >= count) return;  // padding micro-cycles
    const Addr addr = static_cast<Addr>(
        payload_of(ctx.read(base + 1 + 2 * static_cast<Addr>(idx)),
                   log_stamp_));
    const Word value =
        payload_of(ctx.read(base + 2 + 2 * static_cast<Addr>(idx)),
                   log_stamp_);
    RFSP_CHECK_MSG(addr < layout_.scratch,
                   "scratch log addresses must stay in data/register space");
    if (layout_.commit_marker_cells != 0) {
      const Addr marker = layout_.commit_markers + addr;
      if (payload_of(ctx.read(marker), wa_stamp_) != 0) return;  // lost
      ctx.write(marker, stamped(wa_stamp_, 1));
    }
    ctx.write(addr, value);
  }

 private:
  const SimLayout& layout_;
  Word log_stamp_ = 0;
  Word wa_stamp_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// SimLayout

SimLayout::SimLayout(const SimProgram& program, Pid physical)
    : n(program.processors()),
      p(physical == 0 ? program.processors() : physical),
      data_cells(program.memory_cells()),
      reg_count(program.registers()),
      max_writes(program.max_stores() + program.registers()),
      compute_cycles(program.max_loads() + program.registers() +
                     program.max_stores() + program.registers() + 1),
      commit_cycles(1 + program.max_stores() + program.registers()),
      wa_compute(/*x_base=*/0, /*aux_base=*/0, 1, 1, 0),  // re-set below
      wa_commit(0, 0, 1, 1, 0) {
  if (n < 1) throw ConfigError("SimProgram needs at least one processor");
  if (p < 1 || p > n) {
    throw ConfigError("simulation requires 1 <= P <= N physical processors");
  }
  if (data_cells < 1) throw ConfigError("SimProgram needs memory");
  if (program.discipline() == CrcwModel::kPriority) {
    throw ConfigError(
        "PRIORITY CRCW programs cannot be directly simulated (Remark 4)");
  }
  data = 0;
  regs = data + data_cells;
  scratch = regs + static_cast<Addr>(n) * reg_count;
  scratch_stride = 1 + 2 * static_cast<Addr>(max_writes);
  phase = scratch + static_cast<Addr>(n) * scratch_stride;
  commit_markers = phase + 1;
  commit_marker_cells = program.discipline() == CrcwModel::kArbitrary
                            ? regs + static_cast<Addr>(n) * reg_count
                            : 0;
  const Addr markers = commit_markers + commit_marker_cells;
  const Addr aux = markers + n;
  wa_compute = CombinedLayout(markers, aux, n, p, compute_cycles);
  wa_commit = CombinedLayout(markers, aux, n, p, commit_cycles);
  RFSP_CHECK(wa_compute.aux_end() == wa_commit.aux_end());
  total = wa_compute.aux_end();
}

// ---------------------------------------------------------------------------
// The outer program: one state per physical processor that tracks the phase
// word and drives the current pass's embedded Write-All instance.

namespace {

class SimProcState;

class SimulationProgram final
    : public ProgramLifecycle<SimulationProgram, SimProcState, Program> {
 public:
  SimulationProgram(const SimProgram& sim, const SimLayout& layout,
                    SimInner inner)
      : sim_(sim), layout_(layout), inner_(inner),
        final_pass_(2 * sim.steps()) {}

  std::string_view name() const override { return "simulation"; }
  Pid processors() const override { return layout_.p; }
  Addr memory_size() const override { return layout_.total; }

  void init_memory(SharedMemory& mem) const override {
    std::vector<Word> input(layout_.data_cells, Word{0});
    sim_.init(input);
    for (Addr i = 0; i < layout_.data_cells; ++i) {
      if (input[i] != 0) mem.write(layout_.data + i, sim_word(input[i]));
    }
  }

  std::unique_ptr<SimProcState> make_state(Pid pid) const;

  bool goal(const SharedMemory& mem) const override {
    return all_goal_cells_done(mem);
  }

  // goal() is the phase word reaching the final pass.
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.phase, 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return phase_pass(value) >= final_pass_;
  }

  const SimProgram& sim() const { return sim_; }
  const SimLayout& layout() const { return layout_; }
  SimInner inner() const { return inner_; }
  std::uint64_t final_pass() const { return final_pass_; }

 private:
  const SimProgram& sim_;
  const SimLayout& layout_;
  SimInner inner_;
  std::uint64_t final_pass_;
};

// One kind of pass's machinery: the Write-All config and the inner state
// bound to it and to one task, held in place. Built at the processor's
// first pass of its kind; later passes of that kind, after a restart too,
// re-stamp the config and the task and reboot the inner state. In place,
// not on the heap: heap machines, allocated mid-run and freed together,
// left the next run's setup allocating from a fragmented heap (rfsp-bench
// sim-executor setup_s +17 to +20 %).
struct PassMachine {
  WriteAllConfig config;
  std::optional<std::variant<CombinedState, AlgXState, AlgVState>> inner;
};

class SimProcState final : public WordStreamState<SimProcState> {
 public:
  SimProcState(const SimulationProgram& outer, Pid pid)
      : outer_(outer), pid_(pid), compute_task_(outer.sim(), outer.layout()),
        commit_task_(outer.layout()) {}

  SimProcState(const SimProcState&) = delete;
  SimProcState& operator=(const SimProcState&) = delete;

  bool cycle(CycleContext& ctx) override {
    const SimLayout& layout = outer_.layout();
    const Word ph = ctx.read(layout.phase);
    const std::uint64_t pass = phase_pass(ph);
    if (pass >= outer_.final_pass()) return false;  // simulation finished

    if (advance_from_ && pass == *advance_from_) {
      // Our pass's Write-All instance reported completion last cycle:
      // advance the phase now, in a cycle of its own (the inner's final
      // cycle may already carry two writes — e.g. V's root count plus the
      // done flag — and the budget is 2). Stragglers observing completion
      // in later slots read the advanced word first and never write, so
      // all phase writes of one slot carry identical values (COMMON-safe).
      ctx.write(layout.phase, phase_encode(pass + 1, ctx.slot() + 1));
      advance_from_.reset();
      return true;
    }
    advance_from_.reset();  // someone else advanced it first

    if (active_ == nullptr || pass != pass_) enter(pass, phase_start(ph));
    if (!std::visit([&](auto& inner) { return inner.cycle(ctx); },
                    *active_->inner)) {
      active_ = nullptr;
      advance_from_ = pass;
    }
    return true;
  }

  // Back to the boot state, in place (Program::reboot): no pass is active,
  // and the next cycle enters whatever pass the phase word then names.
  void reboot() {
    active_ = nullptr;
    pass_ = kNoPass;
    inner_start_ = 0;
    advance_from_.reset();
  }

  // Checkpoint support (docs/resilience.md): the pass index plus the active
  // inner Write-All state's words. The task and config are re-stamped from
  // the pass index on load — only the inner's dynamic fields travel.
  void save_words(WordWriter& w) const {
    w.put_u64(pass_);
    w.put_bool(advance_from_.has_value());
    if (advance_from_) w.put_u64(*advance_from_);
    w.put_bool(active_ != nullptr);
    if (active_ != nullptr) {
      w.put_u64(inner_start_);
      std::visit([&](auto& inner) { inner.save_words(w); }, *active_->inner);
    }
  }

  void load_words(WordReader& r) {
    const std::uint64_t pass = r.get_u64();
    advance_from_.reset();
    if (r.get_bool()) advance_from_ = r.get_u64();
    active_ = nullptr;
    if (r.get_bool()) {
      enter(pass, static_cast<Slot>(r.get_u64()));
      std::visit([&](auto& inner) { inner.load_words(r); }, *active_->inner);
    }
    pass_ = pass;  // enter() set it when a pass is active; cover the gap
  }

 private:
  // Binds `machine` to `task` and builds its inner state; enter() reboots
  // it for the pass's start slot.
  void build(PassMachine& machine, const TaskSpec& task,
             const CombinedLayout& wa) const {
    const SimLayout& layout = outer_.layout();
    machine.config.n = layout.n;
    machine.config.p = layout.p;
    machine.config.task = &task;
    const WriteAllConfig& config = machine.config;
    switch (outer_.inner()) {
      case SimInner::kCombinedVX:
        machine.inner.emplace(std::in_place_type<CombinedState>, config, wa,
                              pid_);
        break;
      case SimInner::kX:
        machine.inner.emplace(std::in_place_type<AlgXState>, config, wa.x,
                              pid_, wa.done);
        break;
      case SimInner::kV:
        machine.inner.emplace(std::in_place_type<AlgVState>, config, wa.v,
                              pid_, wa.done);
        break;
    }
  }

  // Makes `pass`, begun at `start`, the active pass: its machine, with the
  // task and the config stamped for it and the inner state built or
  // rebooted, is what a fresh build for this pass would be.
  void enter(std::uint64_t pass, Slot start) {
    const SimLayout& layout = outer_.layout();
    const bool compute = (pass % 2) == 0;
    PassMachine& machine = compute ? compute_ : commit_;
    machine.config.stamp = static_cast<Word>(pass) + 1;
    if (compute) {
      compute_task_.set_pass(pass);
      if (!machine.inner) build(machine, compute_task_, layout.wa_compute);
    } else {
      commit_task_.set_pass(pass);
      if (!machine.inner) build(machine, commit_task_, layout.wa_commit);
    }
    std::visit(
        [&](auto& inner) {
          if constexpr (std::is_same_v<decltype(inner), AlgXState&>) {
            inner.reboot();  // X keeps no clock
          } else {
            inner.reboot(start);
          }
        },
        *machine.inner);
    active_ = &machine;
    pass_ = pass;
    inner_start_ = start;
  }

  static constexpr std::uint64_t kNoPass = ~std::uint64_t{0};

  const SimulationProgram& outer_;
  Pid pid_;
  // Referents of the machines' configs, so declared before them.
  ComputeTask compute_task_;
  CommitTask commit_task_;
  PassMachine compute_;
  PassMachine commit_;
  PassMachine* active_ = nullptr;  // the active pass's machine, if any
  std::uint64_t pass_ = kNoPass;
  Slot inner_start_ = 0;  // enter()'s start slot, for checkpointing
  std::optional<std::uint64_t> advance_from_;
};

std::unique_ptr<SimProcState> SimulationProgram::make_state(Pid pid) const {
  return std::make_unique<SimProcState>(*this, pid);
}

}  // namespace

std::unique_ptr<Program> make_simulation_program(const SimProgram& program,
                                                 const SimLayout& layout,
                                                 SimInner inner) {
  return std::make_unique<SimulationProgram>(program, layout, inner);
}

// ---------------------------------------------------------------------------
// simulate / reference_run

SimResult simulate(const SimProgram& program, Adversary& adversary,
                   SimOptions options) {
  const EngineOptions defaults;
  if (options.engine.read_budget != defaults.read_budget ||
      options.engine.write_budget != defaults.write_budget ||
      options.engine.model != defaults.model) {
    throw ConfigError(
        "simulate() sets the executor's read_budget, write_budget and model "
        "itself; leave them at their defaults in SimOptions::engine");
  }
  const SimLayout layout(program, options.physical_processors);
  const SimulationProgram outer(program, layout, options.inner);

  EngineOptions eopt = std::move(options.engine);
  // The simulation machine's update cycle: the embedded Write-All cycle
  // (<= 4 reads) plus the phase-word read. Fixed per machine (§2.1).
  eopt.read_budget = 5;
  eopt.write_budget = 2;
  // ARBITRARY programs run on a fail-stop machine "of the same type"
  // (Theorem 4.1): the engine breaks same-slot commit races arbitrarily
  // and the commit markers make the outcome stable thereafter.
  if (program.discipline() == CrcwModel::kArbitrary) {
    eopt.model = CrcwModel::kArbitrary;
  }

  Engine engine(outer, eopt);
  if (options.resume != nullptr) engine.restore(*options.resume, &adversary);
  RunResult run = engine.run(adversary);

  SimResult result;
  result.tally = run.tally;
  result.completed = run.goal_met;
  result.passes = phase_pass(engine.memory().read(layout.phase));
  result.memory.reserve(layout.data_cells);
  for (Addr i = 0; i < layout.data_cells; ++i) {
    result.memory.push_back(engine.memory().read(layout.data + i));
  }
  return result;
}

std::vector<Word> reference_run(const SimProgram& program) {
  SyncExecutor exec(program, /*record_loads=*/false);
  const bool common = program.discipline() == CrcwModel::kCommon;
  for (Step t = 0; t < program.steps(); ++t) {
    exec.step(t, [&](Pid) {
      if (common) {
        for (const WriteOp& w : exec.stores()) {
          const Word* prior = exec.pending(w.addr);
          RFSP_CHECK_MSG(prior == nullptr || *prior == w.value,
                         "simulated program violates COMMON CRCW");
        }
      }
      return true;
    });
  }
  return std::move(exec.memory());
}

}  // namespace rfsp
