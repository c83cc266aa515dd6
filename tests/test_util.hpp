// Shared helpers for the rfsp test suite: tiny configurable programs and
// adversaries for exercising engine semantics in isolation.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "fault/adversary.hpp"
#include "pram/engine.hpp"
#include "pram/program.hpp"
#include "util/rng.hpp"

namespace rfsp::testing {

// A decision fuzzer mixing every legal adversary move: mid-cycle failures,
// post-write failures, fail-then-restart in one slot, delayed restarts, and
// (when allowed) torn writes — self-clamped to constraint 2(i). Shared by
// the chaos sweep (chaos_test) and the record/replay determinism matrix
// (replay_test); checkpoint-safe via the RNG state hooks.
class ChaosAdversary final : public Adversary {
 public:
  ChaosAdversary(std::uint64_t seed, bool allow_torn,
                 MemoryModel memory_model = MemoryModel::kReliable,
                 Addr memory_size = 0)
      : rng_(seed), allow_torn_(allow_torn), memory_model_(memory_model),
        memory_size_(memory_size) {}

  std::string_view name() const override { return "chaos"; }

  FaultDecision decide(const MachineView& view) override {
    FaultDecision d = view.blank_decision();
    std::vector<Pid> started;
    std::vector<Pid> failed;
    for (Pid pid = 0; pid < view.processors(); ++pid) {
      if (view.trace(pid).started) started.push_back(pid);
      if (view.status(pid) == ProcStatus::kFailed) failed.push_back(pid);
    }
    // The view's PID lists against the scan, every slot: the sweep searches
    // the engine's live list and failed mask over fail-then-restart,
    // delayed restarts and torn moves.
    EXPECT_TRUE(std::ranges::equal(view.started_pids(), started))
        << "started_pids() disagrees with the traces at slot " << view.slot();
    EXPECT_TRUE(std::ranges::equal(view.failed_pids(), failed))
        << "failed_pids() disagrees with the statuses at slot "
        << view.slot();

    // Keep at least one mid-cycle survivor (constraint 2(i)).
    std::size_t abortable = started.empty() ? 0 : started.size() - 1;
    for (const Pid pid : started) {
      if (!rng_.chance(0.25)) continue;
      const double move = rng_.uniform();
      if (move < 0.4 && abortable > 0) {
        d.fail_mid_cycle.push_back(pid);
        --abortable;
        if (rng_.chance(0.7)) d.restart.push_back(pid);  // same-slot revive
      } else if (move < 0.6) {
        d.fail_after_cycle.push_back(pid);
        if (rng_.chance(0.5)) d.restart.push_back(pid);
      } else if (allow_torn_ && abortable > 0 &&
                 !view.trace(pid).writes.empty()) {
        const std::size_t idx = rng_.below(view.trace(pid).writes.size());
        d.torn.push_back({pid, idx, static_cast<unsigned>(rng_.below(33))});
        --abortable;
        if (rng_.chance(0.7)) d.restart.push_back(pid);
      }
    }
    // Revive older casualties sluggishly.
    for (const Pid pid : failed) {
      if (rng_.chance(0.4)) d.restart.push_back(pid);
    }
    // Never strand the machine (constraint 2(i)): fail_after_cycle carries
    // no mid-cycle clamp, so the decision can leave zero live processors —
    // certain with p = 1. Revive one casualty if so.
    const auto in = [](const std::vector<Pid>& v, Pid pid) {
      return std::find(v.begin(), v.end(), pid) != v.end();
    };
    bool any_live = false;
    for (Pid pid = 0; pid < view.processors(); ++pid) {
      if (view.status(pid) == ProcStatus::kHalted) continue;
      const bool downed = view.status(pid) == ProcStatus::kFailed ||
                          in(d.fail_mid_cycle, pid) ||
                          in(d.fail_after_cycle, pid);
      if (!downed || in(d.restart, pid)) {
        any_live = true;
        break;
      }
    }
    if (!any_live) {
      for (Pid pid = 0; pid < view.processors(); ++pid) {
        if (view.status(pid) == ProcStatus::kHalted) continue;
        if (!in(d.restart, pid)) {
          d.restart.push_back(pid);
          break;
        }
      }
    }
    // Memory-model moves (pram/faults.hpp): kill a few random shared cells
    // under faulty-cells (duplicates and already-dead cells are legal
    // no-ops), drop a started processor's write-back cache under
    // persistent-cache. Neither interacts with the liveness clamp above.
    if (memory_model_ == MemoryModel::kFaultyCells && memory_size_ > 0 &&
        rng_.chance(0.05)) {
      const std::size_t count = 1 + rng_.below(3);
      for (std::size_t i = 0; i < count; ++i) {
        d.cell_faults.push_back(static_cast<Addr>(rng_.below(memory_size_)));
      }
    }
    if (memory_model_ == MemoryModel::kPersistentCache && rng_.chance(0.1)) {
      for (const Pid pid : started) {
        if (in(d.fail_mid_cycle, pid) || in(d.fail_after_cycle, pid)) continue;
        bool torn_victim = false;
        for (const TornWrite& tear : d.torn) torn_victim |= tear.pid == pid;
        if (torn_victim) continue;
        if (!rng_.chance(0.3)) continue;
        d.cache_drop.push_back(pid);
      }
    }
    return d;
  }

  void save_state(std::vector<std::uint64_t>& out) const override {
    for (const std::uint64_t w : rng_.state()) out.push_back(w);
  }
  void load_state(std::span<const std::uint64_t> data) override {
    if (data.size() >= 4) rng_.set_state({data[0], data[1], data[2], data[3]});
  }

 private:
  Rng rng_;
  bool allow_torn_;
  MemoryModel memory_model_;
  Addr memory_size_;
};

// A program whose per-processor behaviour is a lambda (pid, cycle#, ctx) ->
// keep_running. Cycle numbers restart from 0 after a failure (boot builds a
// fresh counter), which mirrors real private-state loss.
class LambdaProgram final : public Program {
 public:
  using Body = std::function<bool(Pid, std::uint64_t, CycleContext&)>;

  LambdaProgram(Pid processors, Addr memory, Body body,
                std::function<bool(const SharedMemory&)> goal = nullptr)
      : processors_(processors), memory_(memory), body_(std::move(body)),
        goal_(std::move(goal)) {}

  std::string_view name() const override { return "lambda"; }
  Pid processors() const override { return processors_; }
  Addr memory_size() const override { return memory_; }

  std::unique_ptr<ProcessorState> boot(Pid pid) const override {
    class State final : public ProcessorState {
     public:
      State(const LambdaProgram& program, Pid pid)
          : program_(program), pid_(pid) {}
      bool cycle(CycleContext& ctx) override {
        return program_.body_(pid_, counter_++, ctx);
      }

     private:
      const LambdaProgram& program_;
      Pid pid_;
      std::uint64_t counter_ = 0;
    };
    return std::make_unique<State>(*this, pid);
  }

  bool goal(const SharedMemory& mem) const override {
    return goal_ ? goal_(mem) : false;
  }

 private:
  Pid processors_;
  Addr memory_;
  Body body_;
  std::function<bool(const SharedMemory&)> goal_;
};

// An adversary whose per-slot decision is a lambda over the MachineView.
class LambdaAdversary final : public Adversary {
 public:
  using Decide = std::function<FaultDecision(const MachineView&)>;

  explicit LambdaAdversary(Decide decide) : decide_(std::move(decide)) {}

  std::string_view name() const override { return "lambda"; }
  FaultDecision decide(const MachineView& view) override {
    return decide_(view);
  }

 private:
  Decide decide_;
};

// Runs an example binary (RFSP_WRITEALL_CLI, RFSP_SIM_CLI) with `args`
// (shell syntax), stdout to `stdout_path`, stderr discarded. Returns the
// exit status — 128 + N when the binary dies of signal N, as the shell
// reports it — or -1 when the shell did not exit normally.
inline int run_cli(const char* binary, const std::string& args,
                   const std::filesystem::path& stdout_path) {
  const std::string cmd = std::string("'") + binary + "' " + args + " > '" +
                          stdout_path.string() + "' 2>/dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A fresh scratch directory for one test's artifacts (unique per process).
inline std::filesystem::path scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rfsp_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace rfsp::testing
