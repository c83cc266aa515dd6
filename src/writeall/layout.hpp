// Shared conventions for every Write-All algorithm in this library.
//
// The Write-All problem (§1): given P processors and a 0-valued array of
// size N, write 1 into all N cells. It captures the unit of progress a
// fault-free PRAM makes in one step, and Theorem 4.1 reduces executing any
// PRAM program to iterated Write-All. To support that reduction directly,
// our algorithms generalize the leaf work from "write x[i] = 1" to an
// arbitrary fixed-length idempotent TaskSpec, and tag every bookkeeping
// cell with an epoch stamp so the same memory region can host many passes
// without un-accounted clearing.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "pram/types.hpp"
#include "util/bits.hpp"

namespace rfsp {

// --- Epoch-stamped cells ----------------------------------------------------
//
// A stamped cell packs (stamp << 32) | payload. Readers supply the stamp of
// the epoch they are working in; values written in earlier epochs then read
// as payload 0 — exactly what a cleared structure would contain. Epoch 0
// makes stamping the identity on payloads, so standalone runs produce plain
// values (x[i] == 1).

inline constexpr Word kPayloadBits = 32;
inline constexpr Word kPayloadMask = (Word{1} << kPayloadBits) - 1;

constexpr Word stamped(Word stamp, Word payload) {
  return (stamp << kPayloadBits) | (payload & kPayloadMask);
}

constexpr Word payload_of(Word cell, Word stamp) {
  return (cell >> kPayloadBits) == stamp ? (cell & kPayloadMask) : Word{0};
}

// --- Leaf tasks --------------------------------------------------------------

// What "visiting element i" means. Standalone Write-All uses no TaskSpec
// (the visit is a single write of 1 into x[i]); the PRAM simulator supplies
// tasks that execute one simulated processor's step (§4.3).
//
// Contract: `cycles_per_task` is one fixed T for every task (algorithm V
// needs fixed phase lengths); `run(ctx, i, k, scratch)` performs micro-cycle
// k of task i within the machine's update-cycle budget, deterministically
// given (i, k, shared memory); distinct micro-cycles of one task write
// disjoint cells (so processors attempting the same task at different k
// never produce a COMMON conflict). `scratch` carries private state between
// micro-cycles of one attempt; it is zeroed at k == 0 and lost on failure,
// hence tasks must be idempotent and restartable from k == 0.
class TaskSpec {
 public:
  virtual ~TaskSpec() = default;
  virtual unsigned cycles_per_task() const = 0;
  virtual void run(CycleContext& ctx, Addr task, unsigned k,
                   std::span<Word> scratch) const = 0;
  virtual std::size_t scratch_words() const { return 16; }
};

// --- Progress-tree navigation ---------------------------------------------------
//
// The paper's progress/allocation/counting trees are full binary heaps,
// 1-indexed: node v has children 2v/2v+1 and parent v/2, stored in BFS order
// (cell(v) = v - 1). Algorithm code asks TreeNav instead of computing 2i /
// i/2 / node - 1 inline.
//
// TreeOrder names the values of the "tree_order" meta key that schedules
// and checkpoints may carry. BFS ("heap") is the only storage order; a van
// Emde Boas order was measured and removed (EXPERIMENTS.md E19), so any
// other value is a ConfigError.
enum class TreeOrder : std::uint8_t {
  kHeap,  // BFS order: cell(v) = v - 1
};

std::string_view to_string(TreeOrder order);
TreeOrder tree_order_from_string(std::string_view text);  // throws ConfigError

struct TreeNav {
  static constexpr Addr root() { return 1; }
  static constexpr Addr parent(Addr node) { return node >> 1; }
  static constexpr Addr left(Addr node) { return 2 * node; }
  static constexpr Addr right(Addr node) { return 2 * node + 1; }
  // The depth-(depth(node) - up) ancestor; ancestor(v, 1) == parent(v).
  static constexpr Addr ancestor(Addr node, unsigned up) {
    return node >> up;
  }
  // Storage position of `node` inside its tree's cell range.
  static constexpr Addr pos(Addr node) { return node - 1; }
};

// --- Configuration -----------------------------------------------------------

struct WriteAllConfig {
  Addr n = 0;  // array size N (>= 1; algorithms pad to powers of two)
  Pid p = 0;   // initial processors P (1 <= P <= N)

  std::uint64_t seed = 0;  // randomized algorithms (ACC) only
  Word stamp = 0;          // epoch for embedded use; 0 for standalone
  Addr base = 0;           // first shared cell the algorithm may use

  // Leaf work; nullptr = plain Write-All (visit == write 1).
  const TaskSpec* task = nullptr;

  // Remark 5(i): space initial processor positions N/P leaves apart instead
  // of packing them onto the first P leaves. Worst case is unaffected.
  bool spaced_placement = false;

  // Override algorithm V's elements-per-leaf B (0 = the paper's ≈ log₂N).
  // Exposed for the design-choice ablation: B trades allocation work
  // (≈ P·(log L)² per iteration over L = ⌈N/B⌉ leaves) against leaf work.
  Addr leaf_elems = 0;

  void validate() const;  // throws ConfigError

  // 0 when task == nullptr. Inline: called once per work cycle.
  unsigned task_cycles() const {
    return task == nullptr ? 0u : task->cycles_per_task();
  }
};

// --- Base class for the algorithm Programs ----------------------------------

class WriteAllProgram : public Program {
 public:
  explicit WriteAllProgram(WriteAllConfig config);

  Pid processors() const override { return config_.p; }

  const WriteAllConfig& config() const { return config_; }

  // Where the output array x[0..n) lives.
  virtual Addr x_base() const = 0;

  // Whether the Write-All postcondition holds (every x payload non-zero).
  bool solved(const SharedMemory& mem) const;

  // Every Write-All goal is its goal cells, each satisfying goal_cell_done.
  bool goal(const SharedMemory& mem) const override {
    return all_goal_cells_done(mem);
  }

  // Goal cells for the algorithms whose goal IS the array postcondition
  // (trivial, sequential, snapshot): x[0..n), a cell is done when its
  // epoch-stamped payload is non-zero. The progress-tree algorithms
  // override both methods with their single root/done cell — their goal is
  // that cell, not the array (the tree root fills strictly after the last x
  // write, so the two predicates flip at different slots and must not be
  // mixed up).
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{x_base(), config_.n};
  }
  bool goal_cell_done(Addr addr, Word value) const override {
    (void)addr;
    return payload_of(value, config_.stamp) != 0;
  }

 protected:
  WriteAllConfig config_;
};

}  // namespace rfsp
