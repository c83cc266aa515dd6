// Stalking adversaries: failure patterns tailored to the progress-tree
// algorithms, reproducing Theorem 4.8 and the §5 discussion.
//
// Both watch the traversal positions that algorithm X (and the ACC
// stand-in) keep in the shared w[] array — which an on-line adversary may
// do, since it "knows everything about the algorithm". They decode cells
// as a standalone run stamps them (epoch 0, writeall/layout.hpp): a cell
// carrying another epoch's stamp reads as 0.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/adversary.hpp"
#include "writeall/algx.hpp"

namespace rfsp {

// Theorem 4.8: forces algorithm X (P = N) to S = Ω(N^{log₂3}).
//
//   "The processor with PID 0 will be allowed to sequentially traverse the
//    progress tree in post-order ... The processors that find themselves at
//    the same leaf as the processor 0 are (re)started, while the rest are
//    failed. All processors with PIDs smaller than the index of the last
//    leaf visited by processor 0 are allowed to traverse the progress tree
//    until they reach a leaf. When processors reach a leaf, the
//    failure/restart procedure is repeated."
//
// Concretely, per slot: any processor (other than PID 0) sitting at an
// unfinished leaf different from PID 0's position is failed mid-cycle;
// failed processors with PID below the last element PID 0 completed are
// restarted (they resume from their stable w[] position and migrate toward
// the remaining work, re-paying traversal cycles — the N^{log₂3} recursion).
class PostOrderStalker final : public Adversary {
 public:
  explicit PostOrderStalker(XLayout layout);

  std::string_view name() const override { return "postorder-stalker"; }
  FaultDecision decide(const MachineView& view) override;
  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(std::span<const std::uint64_t> data) override;

 private:
  XLayout layout_;
  Addr last_visited_ = 0;  // 1 + max element index whose x-write committed
  Addr last_release_mark_ = 0;  // last_visited_ value at the last release
  // PIDs this adversary has failed and not yet restarted, ascending. Only
  // decide() fails/restarts processors, so this mirrors the engine's
  // kFailed set without an O(P) status scan per release slot.
  std::vector<Pid> failed_;
  std::vector<Pid> merge_buf_;  // the next failed_; swapped in
};

// §5: the stalking adversary against the randomized ACC algorithm.
//
//   "... choosing a single leaf in a binary tree employed by ACC, and
//    failing all processors that touch that leaf until only one processor
//    remains in the fail-stop case, or until all processors simultaneously
//    touch the leaf in the fail-stop/restart case."
//
// The stalked leaf is the last element's (n - 1).
struct LeafStalkerOptions {
  bool restart_variant = false;  // false: fail-stop case (no restarts)
};

class LeafStalker final : public Adversary {
 public:
  explicit LeafStalker(XLayout layout, LeafStalkerOptions opt = {});

  std::string_view name() const override { return "leaf-stalker"; }
  FaultDecision decide(const MachineView& view) override;

  bool released() const { return released_; }

 private:
  XLayout layout_;
  LeafStalkerOptions opt_;
  Addr target_node_ = 0;
  bool released_ = false;  // termination condition reached; gone passive
};

}  // namespace rfsp
