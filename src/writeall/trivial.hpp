// Non-fault-tolerant baselines.
//
//  * Trivial   — "in the absence of failures, this problem is solved by a
//    trivial and optimal parallel assignment" (§1): processor PID writes
//    cells PID, PID+P, PID+2P, ... and halts. Work N, time ⌈N/P⌉. It is
//    NOT fault-tolerant: if a processor dies without restart its cells are
//    never written (the run ends in deadlock), which is precisely the
//    motivation for the fault-tolerant algorithms.
//  * Sequential — the best sequential solution, W(|I|) = N (Remark 3's
//    denominator): one processor sweeps the array left to right. A restart
//    loses the private sweep position and resumes from 0.
//
// Both support only plain Write-All (no TaskSpec) and no stamping epochs
// beyond config.stamp pass-through.
#pragma once

#include "writeall/layout.hpp"

namespace rfsp {

// Processor `pid` writes x cells pid, pid+P, pid+2P, ... and halts; a
// restart loses the private position and starts over at pid. With P = 1
// (processor 0 alone) this is the sequential sweep.
class StrideState final : public WordStreamState<StrideState> {
 public:
  StrideState(const WriteAllConfig& config, Pid pid)
      : config_(config), pid_(pid), next_(pid) {}

  bool cycle(CycleContext& ctx) override;
  void reboot() { next_ = pid_; }
  void save_words(WordWriter& w) const { w.put_u64(next_); }
  void load_words(WordReader& r) { next_ = static_cast<Addr>(r.get_u64()); }

 private:
  const WriteAllConfig& config_;  // owned by the booting program
  Pid pid_;
  Addr next_;
};

class TrivialWriteAll final
    : public ProgramLifecycle<TrivialWriteAll, StrideState, WriteAllProgram> {
 public:
  explicit TrivialWriteAll(WriteAllConfig config);

  std::string_view name() const override { return "trivial"; }
  Addr memory_size() const override { return config_.base + config_.n; }
  std::unique_ptr<StrideState> make_state(Pid pid) const;
  // Cells PID, PID+P, ... with no shared reads at all: the address trace is
  // a pure function of (pid, cycle index). Proven by the static verifier.
  bool oblivious() const override { return true; }
  Addr x_base() const override { return config_.base; }
};

class SequentialWriteAll final
    : public ProgramLifecycle<SequentialWriteAll, StrideState,
                              WriteAllProgram> {
 public:
  explicit SequentialWriteAll(WriteAllConfig config);  // requires p == 1

  std::string_view name() const override { return "sequential"; }
  Addr memory_size() const override { return config_.base + config_.n; }
  std::unique_ptr<StrideState> make_state(Pid pid) const;
  // The left-to-right sweep never reads shared memory either.
  bool oblivious() const override { return true; }
  Addr x_base() const override { return config_.base; }
};

}  // namespace rfsp
