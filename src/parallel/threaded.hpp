// A real-concurrency runtime for algorithm X: OS threads over std::atomic
// shared words, with a failure injector that models restartable fail-stop
// workers.
//
// Why this exists (§2.3): the paper argues its algorithms run on an actual
// multiprocessor built from fail-stop processors, reliable shared memory,
// and a combining network. Algorithm X in particular needs *no* global
// synchrony: every decision is local, every shared write is monotone
// (0 → 1 progress marks) or processor-private (the w[] position), so the
// algorithm stays correct under arbitrary interleaving — asynchrony is
// just another adversary. This runtime demonstrates that claim: worker
// threads execute the Figure 5 loop against atomic memory while an
// injector "fails" them (a failed worker abandons its private state and
// recovers from its stable w[] cell, exactly the [SS 83] semantics).
//
// The deterministic cycle-level engine in src/pram remains the measurement
// instrument (work counts need a clock); this runtime is the existence
// proof on real hardware. Both run the same single-source x_cycle body
// (writeall/algx.hpp): the engine over CycleContext or batch lanes, this
// runtime over an atomic-memory context whose clock is the worker's own
// loop count — its workers are genuinely asynchronous and have no common
// slot to batch over.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "pram/types.hpp"

namespace rfsp {

// Shared memory of atomic words; all accesses are seq_cst (the combining
// network of §2.3 serializes concurrent access; seq_cst is its moral
// equivalent and keeps the reasoning simple).
class AtomicMemory {
 public:
  explicit AtomicMemory(Addr size);

  Word load(Addr a) const;
  void store(Addr a, Word v);
  Addr size() const { return static_cast<Addr>(cells_.size()); }

 private:
  std::vector<std::atomic<Word>> cells_;
};

struct ThreadedOptions {
  Addr n = 1024;          // Write-All instance size
  unsigned workers = 4;   // OS threads (the P processors)
  std::uint64_t seed = 1;

  // Failure injection: mean injections per worker over the whole run
  // (Poisson-ish via per-iteration coin flips); 0 disables.
  double failures_per_worker = 0.0;
};

struct ThreadedResult {
  bool solved = false;            // x[0..n) all ones at the end
  std::uint64_t loop_iterations = 0;  // total Figure 5 iterations executed
  std::uint64_t injected_failures = 0;
  double wall_seconds = 0.0;
  // Per-worker breakdowns (index = worker PID): how evenly the descent
  // spread the work, and which workers absorbed the injected failures.
  std::vector<std::uint64_t> worker_iterations;
  std::vector<std::uint64_t> worker_failures;
};

ThreadedResult run_threaded_writeall(const ThreadedOptions& options);

}  // namespace rfsp
