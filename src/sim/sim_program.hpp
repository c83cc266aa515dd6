// User-facing model of a synchronous N-processor PRAM program to be
// executed, fault-tolerantly, on a restartable fail-stop P-processor
// machine (Theorem 4.1).
//
// A SimProgram is a classic synchronous PRAM computation: τ lock-step
// steps; at step t simulated processor j reads a few shared cells,
// computes, and writes a few shared cells. Simulated private registers are
// part of the simulated configuration (they live in simulated shared
// memory, as the simulation technique of [KPS 90, Shv 89] requires — a
// simulated processor's state must survive the death of whichever physical
// processor happened to be executing it).
//
// Restrictions (documented simulator contract):
//  * `step` must be deterministic given (j, t, simulated memory) and must
//    perform its loads/stores only through the StepContext;
//  * at most max_loads() data loads and max_stores() data stores per step
//    (register accesses are additional and bounded by registers());
//  * simulated words are 32-bit unsigned values (they travel stamped);
//  * concurrent writes in one simulated step must follow COMMON CRCW (or
//    be conflict-free: EREW/CREW programs qualify trivially);
//  * `step` must terminate and stay well-defined when loaded words read 0:
//    the executor discovers the read set by replaying the step, and after
//    a replay's first uncached load every load reads 0, every store is
//    dropped and the outcome is discarded (docs/simulation.md);
//  * `step` must let exceptions propagate (a replay that keeps loading on
//    those zeros past its load budget is cut short by an internal
//    exception).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "pram/types.hpp"

namespace rfsp {

using Step = std::uint64_t;

// Simulated words are 32-bit; helpers keep user code honest.
inline constexpr Word kSimWordMask = 0xffffffff;
constexpr Word sim_word(Word v) { return v & kSimWordMask; }

// Word sum and product modulo 2^64. A step may see any 64-bit value (the
// static verifier feeds it arbitrary reads), where the plain signed
// operators would overflow; wherever they do not, the results are equal.
constexpr Word wrap_add(Word a, Word b) {
  return static_cast<Word>(static_cast<std::uint64_t>(a) +
                           static_cast<std::uint64_t>(b));
}
constexpr Word wrap_mul(Word a, Word b) {
  return static_cast<Word>(static_cast<std::uint64_t>(a) *
                           static_cast<std::uint64_t>(b));
}

// Per-step facilities available to SimProgram::step.
class StepContext {
 public:
  virtual ~StepContext() = default;

  // Read a simulated shared cell (value as of the step's start, except that
  // a processor observes its own earlier stores within the same step).
  virtual Word load(Addr a) = 0;

  // Write a simulated shared cell; visible machine-wide from the next step.
  virtual void store(Addr a, Word v) = 0;

  // The simulated processor's private registers (persisted for it by the
  // simulation between steps).
  virtual Word reg(unsigned r) = 0;
  virtual void set_reg(unsigned r, Word v) = 0;
};

class SimProgram {
 public:
  virtual ~SimProgram() = default;

  virtual std::string_view name() const = 0;

  virtual Pid processors() const = 0;    // N simulated processors
  virtual Addr memory_cells() const = 0; // simulated shared memory size
  virtual Step steps() const = 0;        // τ synchronous steps

  // Write the input into the (zero-initialized) simulated memory.
  virtual void init(std::span<Word> memory) const { (void)memory; }

  // One synchronous step of simulated processor j at time t.
  virtual void step(StepContext& ctx, Pid j, Step t) const = 0;

  // Bounds the executor sizes micro-cycle schedules with.
  virtual unsigned registers() const { return 2; }
  virtual unsigned max_loads() const { return 4; }
  virtual unsigned max_stores() const { return 2; }

  // Memory discipline of the simulated algorithm (Theorem 4.1): EREW,
  // CREW, and COMMON run on the default COMMON fail-stop machine;
  // ARBITRARY runs on an ARBITRARY fail-stop machine (the executor then
  // adds per-cell commit markers so exactly one writer wins per step,
  // stable under re-execution). PRIORITY is not supported (Remark 4).
  virtual CrcwModel discipline() const { return CrcwModel::kCommon; }
};

// Fault-free reference execution (plain two-phase synchronous semantics),
// for verifying the fault-tolerant executor: returns the final simulated
// memory. Registers are internal and not returned.
std::vector<Word> reference_run(const SimProgram& program);

}  // namespace rfsp
