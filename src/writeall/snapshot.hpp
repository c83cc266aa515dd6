// The oblivious load-balancing algorithm of Theorem 3.2.
//
// Model: the strong assumption of §3 — a processor can read and locally
// process the entire shared memory at unit cost (EngineOptions::
// unit_cost_snapshot must be on; everything else of the machine model,
// including failures/restarts and the completed-work accounting, is
// unchanged). Every cycle, each live processor snapshots x[1..N], numbers
// the U unvisited cells by position, assigns itself to the ⌈PID·U/N⌉-th of
// them, and writes 1 there. Against ANY adversary the completed work is
// Θ(N log N) with P = N (matching the Theorem 3.1 lower bound, which the
// HalvingAdversary realizes).
#pragma once

#include "writeall/layout.hpp"

namespace rfsp {

class SnapshotWriteAll final : public WriteAllProgram {
 public:
  explicit SnapshotWriteAll(WriteAllConfig config);

  std::string_view name() const override { return "snapshot"; }
  Addr memory_size() const override { return config_.base + config_.n; }
  std::unique_ptr<ProcessorState> boot(Pid pid) const override;
  std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const override;
  Addr x_base() const override { return config_.base; }
};

}  // namespace rfsp
