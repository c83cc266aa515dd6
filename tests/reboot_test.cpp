// Program::reboot: a restart resets the failed processor's state object in
// place, and the result must be indistinguishable from Program::boot(pid) —
// same checkpoint words — for states taken mid-run, and for a null state.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/adversaries.hpp"
#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

// Three read-only micro-cycles that fill the scratch, so a used X or V state
// carries task progress (mode, micro-cycle index, scratch) for a reboot to
// wipe.
class ScratchTask final : public TaskSpec {
 public:
  unsigned cycles_per_task() const override { return 3; }
  std::size_t scratch_words() const override { return 3; }
  void run(CycleContext& ctx, Addr task, unsigned k,
           std::span<Word> scratch) const override {
    scratch[k] = ctx.read(task) + k + 1;
  }
};

std::vector<Word> saved(const ProcessorState& state) {
  std::vector<Word> words;
  EXPECT_TRUE(state.save_state(words));
  return words;
}

EngineOptions capturing(std::vector<EngineCheckpoint>& cps) {
  EngineOptions options;
  options.max_slots = 512;  // W need not terminate under restarts
  options.checkpoint_every = 8;
  options.on_checkpoint = [&cps](const EngineCheckpoint& cp) {
    cps.push_back(cp);
  };
  return options;
}

// Rebuilds every live processor of `cp` through load_state, reboots it and
// compares it with a fresh boot; a null state must reboot to a fresh boot
// too. Returns how many loaded states differed from a boot before the
// reboot.
std::size_t expect_reboots_like_boot(const Program& program,
                                     const EngineCheckpoint& cp) {
  std::size_t used = 0;
  for (Pid pid = 0; pid < cp.states.size(); ++pid) {
    if (!cp.states[pid].has_value()) continue;
    const std::vector<Word> fresh = saved(*program.boot(pid));

    std::unique_ptr<ProcessorState> state =
        program.load_state(pid, *cp.states[pid]);
    if (state == nullptr) {
      ADD_FAILURE() << program.name() << ": load_state failed, pid " << pid;
      continue;
    }
    if (saved(*state) != fresh) ++used;
    const ProcessorState* const address = state.get();
    program.reboot(state, pid);
    EXPECT_EQ(state.get(), address) << program.name() << " pid " << pid;
    EXPECT_EQ(saved(*state), fresh) << program.name() << " pid " << pid;

    std::unique_ptr<ProcessorState> none;
    program.reboot(none, pid);
    if (none == nullptr) {
      ADD_FAILURE() << program.name() << ": null reboot left null";
      continue;
    }
    EXPECT_EQ(saved(*none), fresh) << program.name() << " pid " << pid;
  }
  return used;
}

// The check over every checkpoint a run captured (mid-run ones included —
// the run's own start and end are just two of them). Requires some loaded
// state to have differed from a boot, so the check has bitten.
void expect_all_reboot_like_boot(const Program& program,
                                 const std::vector<EngineCheckpoint>& cps) {
  EXPECT_GE(cps.size(), 3u) << program.name();
  std::size_t used = 0;
  for (const EngineCheckpoint& cp : cps) {
    used += expect_reboots_like_boot(program, cp);
  }
  EXPECT_GT(used, 0u) << program.name() << ": no used state to reboot";
}

TEST(Reboot, WriteAllStatesResetToBoot) {
  const ScratchTask task;
  struct Case {
    WriteAllAlgo algo;
    const TaskSpec* task;
  };
  for (const Case c : {Case{WriteAllAlgo::kW, nullptr},
                       Case{WriteAllAlgo::kV, &task},
                       Case{WriteAllAlgo::kX, &task},
                       Case{WriteAllAlgo::kCombinedVX, &task},
                       Case{WriteAllAlgo::kAcc, nullptr}}) {
    const std::unique_ptr<WriteAllProgram> program =
        make_writeall(c.algo, {.n = 64, .p = 16, .seed = 5, .task = c.task});
    std::vector<EngineCheckpoint> cps;
    Engine engine(*program, capturing(cps));
    RandomAdversary adversary(11, {.fail_prob = 0.1, .restart_prob = 0.5});
    engine.run(adversary);
    expect_all_reboot_like_boot(*program, cps);
  }
}

TEST(Reboot, StrideStatesResetToBoot) {
  for (const WriteAllAlgo algo :
       {WriteAllAlgo::kTrivial, WriteAllAlgo::kSequential}) {
    const Pid p = algo == WriteAllAlgo::kTrivial ? 8 : 1;
    const std::unique_ptr<WriteAllProgram> program =
        make_writeall(algo, {.n = 64, .p = p});
    std::vector<EngineCheckpoint> cps;
    Engine engine(*program, capturing(cps));
    RandomAdversary adversary(17, {.fail_prob = 0.1, .restart_prob = 0.5});
    engine.run(adversary);
    expect_all_reboot_like_boot(*program, cps);
  }
}

TEST(Reboot, SimulationStatesResetToBoot) {
  const PrefixSumProgram sim({3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8});
  constexpr Pid kP = 6;
  const SimLayout layout(sim, kP);
  for (const SimInner inner :
       {SimInner::kX, SimInner::kV, SimInner::kCombinedVX}) {
    std::vector<EngineCheckpoint> cps;
    SimOptions options{.physical_processors = kP, .inner = inner};
    options.engine.checkpoint_every = 8;
    options.engine.on_checkpoint = [&cps](const EngineCheckpoint& cp) {
      cps.push_back(cp);
    };
    RandomAdversary adversary(13, {.fail_prob = 0.1, .restart_prob = 0.5});
    ASSERT_TRUE(simulate(sim, adversary, options).completed);
    const std::unique_ptr<Program> program =
        make_simulation_program(sim, layout, inner);
    expect_all_reboot_like_boot(*program, cps);
  }
}

}  // namespace
}  // namespace rfsp
