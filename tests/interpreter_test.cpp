// The interpreter's cycle phase (Program::run_cycles, pram/program.hpp): the
// loop typed on a ProgramLifecycle's final state against the default virtual
// loop, and the one CycleContext a slot rebinds to each PID.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/adversaries.hpp"
#include "obs/binary_trace.hpp"
#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using testing::ChaosAdversary;
using testing::LambdaProgram;

// Forwards everything but run_cycles to `inner`. It is not a
// ProgramLifecycle, so the engine steps it through the default loop: one
// virtual ProcessorState::cycle call per processor.
class VirtualLoop final : public Program {
 public:
  explicit VirtualLoop(const Program& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  Pid processors() const override { return inner_.processors(); }
  Addr memory_size() const override { return inner_.memory_size(); }
  void init_memory(SharedMemory& mem) const override {
    inner_.init_memory(mem);
  }
  std::unique_ptr<ProcessorState> boot(Pid pid) const override {
    return inner_.boot(pid);
  }
  void reboot(std::unique_ptr<ProcessorState>& state,
              Pid pid) const override {
    inner_.reboot(state, pid);
  }
  bool goal(const SharedMemory& mem) const override {
    return inner_.goal(mem);
  }
  std::optional<GoalCells> goal_cells() const override {
    return inner_.goal_cells();
  }
  bool goal_cell_done(Addr addr, Word value) const override {
    return inner_.goal_cell_done(addr, value);
  }
  std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const override {
    return inner_.load_state(pid, data);
  }
  std::optional<PhaseSchedule> phase_schedule() const override {
    return inner_.phase_schedule();
  }

 private:
  const Program& inner_;
};

struct LoopRun {
  std::string trace;  // binary trace bytes
  WorkTally tally;
  std::vector<Word> memory;
};

LoopRun run_chaos(const Program& program, std::uint64_t seed,
                  EngineOptions options) {
  LoopRun out;
  std::ostringstream os;
  {
    BinaryTraceWriter writer(os);
    options.sink = &writer;
    options.max_slots = 3000;  // W need not terminate under restarts
    Engine engine(program, options);
    ChaosAdversary adversary(seed, /*allow_torn=*/false);
    out.tally = engine.run(adversary).tally;
    const std::span<const Word> cells = engine.memory().storage();
    out.memory.assign(cells.begin(), cells.end());
  }
  out.trace = os.str();
  return out;
}

void expect_loops_agree(const Program& program, const EngineOptions& options,
                        const std::string& what) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const LoopRun typed = run_chaos(program, seed, options);
    const LoopRun virt = run_chaos(VirtualLoop(program), seed, options);
    EXPECT_GT(typed.tally.restarts, 0u) << what << " seed " << seed;
    EXPECT_EQ(typed.trace, virt.trace) << what << " seed " << seed;
    EXPECT_EQ(typed.tally, virt.tally) << what << " seed " << seed;
    EXPECT_EQ(typed.memory, virt.memory) << what << " seed " << seed;
  }
}

TEST(InterpreterLoop, TypedLoopMatchesVirtualLoop) {
  for (const WriteAllAlgo algo :
       {WriteAllAlgo::kW, WriteAllAlgo::kV, WriteAllAlgo::kX,
        WriteAllAlgo::kCombinedVX, WriteAllAlgo::kAcc}) {
    const std::unique_ptr<WriteAllProgram> program =
        make_writeall(algo, {.n = 128, .p = 32, .seed = 3});
    expect_loops_agree(*program, {}, std::string(to_string(algo)));
  }
  // The Theorem 4.1 executor on its 5-read machine (sim/simulator.hpp).
  const PrefixSumProgram prefix({5, 3, 8, 1, 9, 2, 7, 4, 6, 10, 11, 12});
  const SimLayout layout(prefix, 6);
  const std::unique_ptr<Program> executor =
      make_simulation_program(prefix, layout, SimInner::kCombinedVX);
  expect_loops_agree(*executor, {.read_budget = 5, .write_budget = 2},
                     "prefix-sum executor");
}

// --- The reused context ------------------------------------------------------

// Runs `program` fault-free to its goal or `slots` slots.
RunResult run_plain(const Program& program, EngineOptions options,
                    Slot slots = 4) {
  options.max_slots = slots;
  Engine engine(program, options);
  NoFailures none;
  return engine.run(none);
}

// Each PID's read budget is its own: PID 0 spends all of it, and PID 1,
// one read over, is the one the violation names.
void expect_budget_per_pid() {
  const LambdaProgram program(
      2, 8, [](Pid pid, std::uint64_t, CycleContext& ctx) {
        const Addr reads = pid == 0 ? 4 : 5;
        for (Addr a = 0; a < reads; ++a) ctx.read(a);
        return true;
      });
  try {
    run_plain(program, {});
    FAIL() << "PID 1's fifth read did not throw";
  } catch (const ModelViolation& e) {
    EXPECT_EQ(e.context.pid, 1);
    EXPECT_EQ(e.context.slot, 0);
    EXPECT_EQ(e.context.move, "read");
  }
}

// A snapshot consumes its own cycle's reads only: PID 1 reads its full
// budget after PID 0's snapshot, and PID 0's read after its snapshot, in
// the next slot, throws the read-budget violation.
void expect_snapshot_per_pid() {
  const LambdaProgram program(
      2, 8, [](Pid pid, std::uint64_t cycle, CycleContext& ctx) {
        if (pid == 0) {
          (void)ctx.snapshot();
          if (cycle == 1) ctx.read(0);
        } else {
          for (Addr a = 0; a < 4; ++a) ctx.read(a);
        }
        return true;
      });
  try {
    run_plain(program, {.unit_cost_snapshot = true});
    FAIL() << "a read after a snapshot did not throw";
  } catch (const ModelViolation& e) {
    EXPECT_NE(std::string(e.what()).find("read budget"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.context.pid, 0);
    EXPECT_EQ(e.context.slot, 1);
  }
}

// Records every read the audit hook sees.
class ReadLog final : public EngineAuditHook {
 public:
  void on_read(Pid pid, Addr addr) override { reads.emplace_back(pid, addr); }
  void on_write(Pid, Addr, Word) override {}
  void on_snapshot(Pid) override {}
  std::vector<std::pair<Pid, Addr>> reads;
};

// Under audit the hook sees every read of every PID, in program order.
void expect_audit_sees_every_read() {
  const LambdaProgram program(
      3, 16, [](Pid pid, std::uint64_t cycle, CycleContext& ctx) {
        for (Addr k = 0; k <= pid; ++k) ctx.read(4 * pid + k);
        return cycle < 1;
      });
  ReadLog log;
  run_plain(program, {.audit = &log});
  std::vector<std::pair<Pid, Addr>> expected;
  for (int slot = 0; slot < 2; ++slot) {
    for (Pid pid = 0; pid < 3; ++pid) {
      for (Addr k = 0; k <= pid; ++k) expected.emplace_back(pid, 4 * pid + k);
    }
  }
  EXPECT_EQ(log.reads, expected);
}

// Under the persistent-cache model a PID reads its own unpersisted write
// from its cache; the next PID in the same slot, with its own (empty)
// cache, reads shared memory.
void expect_cache_per_pid() {
  std::vector<Word> seen(2, 99);
  const LambdaProgram program(
      2, 4, [&seen](Pid pid, std::uint64_t cycle, CycleContext& ctx) {
        if (cycle == 0) {
          if (pid == 0) ctx.write(1, 7);
          return true;
        }
        seen[pid] = ctx.read(1);
        return true;
      });
  EngineOptions options;
  options.memory_model = MemoryModel::kPersistentCache;
  options.persistent_cache.persist_every = 0;  // persist only on halt
  run_plain(program, options, 2);
  EXPECT_EQ(seen[0], 7u);
  EXPECT_EQ(seen[1], 0u);
}

// Under the faulty-cells model a read goes through the fault map: a dead
// cell returns its garbage, which no flat read of the cells would show.
void expect_faulty_cells_read_through_map() {
  constexpr Addr kCells = 64;
  const FaultyCellsOptions faults{.seed = 5, .cells = 8, .spares = 0};
  const CellFaultMap map = CellFaultMap::build(faults, kCells);
  Addr dead = kCells;
  for (Addr a = 0; a < kCells && dead == kCells; ++a) {
    if (map.is_dead(a)) dead = a;
  }
  ASSERT_LT(dead, kCells);
  ASSERT_NE(map.garbage(dead), 0u);

  std::vector<Word> seen(2, 0);
  const LambdaProgram program(
      2, kCells, [&seen, dead](Pid pid, std::uint64_t, CycleContext& ctx) {
        seen[pid] = ctx.read(dead);
        return true;
      });
  EngineOptions options;
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = faults;
  run_plain(program, options, 1);
  EXPECT_EQ(seen[0], map.garbage(dead));
  EXPECT_EQ(seen[1], map.garbage(dead));
}

// What the one context per slot must keep from a fresh context per cycle,
// beyond what the golden, cross-mode and audit suites already pin.
TEST(InterpreterLoop, ContextRebindsPerPid) {
  {
    SCOPED_TRACE("read budget");
    expect_budget_per_pid();
  }
  {
    SCOPED_TRACE("snapshot");
    expect_snapshot_per_pid();
  }
  {
    SCOPED_TRACE("audit");
    expect_audit_sees_every_read();
  }
  {
    SCOPED_TRACE("persistent cache");
    expect_cache_per_pid();
  }
  {
    SCOPED_TRACE("faulty cells");
    expect_faulty_cells_read_through_map();
  }
}

}  // namespace
}  // namespace rfsp
