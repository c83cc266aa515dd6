// The fault-tolerant executor of Theorem 4.1: any N-processor PRAM program
// runs on a restartable fail-stop P-processor CRCW PRAM (P ≤ N) with
//   S = O(min{N + P log²N + M log N, N·P^{0.59}}) per simulated step and
//   σ = O(log²N),
// by reducing each simulated step to two Write-All passes over N tasks
// (the iterated Write-All paradigm of [KPS 90, Shv 89], §4.3):
//
//   pass A (epoch 2t+1): task j *computes* simulated processor j's step t —
//     the executor replays the user's step function, fetching its read set
//     one cell per update cycle, then emits the resulting writes into a
//     per-task scratch log (stamped with the pass epoch, so no clearing is
//     ever needed);
//   pass B (epoch 2t+2): task j *commits* scratch log j into the simulated
//     memory. Separating compute from commit makes every task idempotent:
//     re-executions (by co-located processors or after restarts) write the
//     same values, so the COMMON discipline and the simulated synchronous
//     semantics both survive arbitrary failures.
//
// Pass sequencing uses a single monotone phase word packing (pass index,
// pass start slot); every physical processor reads it each update cycle
// (the simulation machine runs 5-read update cycles — the paper fixes the
// cycle parameters per machine, and constants do not affect the theorems)
// and the processors that observe their pass's completion advance it.
// Within a pass, the Write-All instance is the combined V+X algorithm of
// Theorem 4.9 (or plain X/V for ablation), with the epoch stamp isolating
// it from every earlier pass's residue in the same cells.
#pragma once

#include <memory>
#include <vector>

#include "fault/adversary.hpp"
#include "pram/engine.hpp"
#include "sim/sim_program.hpp"
#include "writeall/combined.hpp"

namespace rfsp {

enum class SimInner { kCombinedVX, kX, kV };

struct SimOptions {
  Pid physical_processors = 0;  // P (1 <= P <= N); 0 = P = N
  SimInner inner = SimInner::kCombinedVX;

  // The physical machine's engine options, passed straight through:
  // max_slots, the sink (the run's observation channel: a
  // StreamAggregator there yields the engine.* metrics; no kPhase events —
  // passes advance dynamically, so the run has no fixed phase
  // structure), the memory
  // model (faulty cells hit the simulator's own structures too; the
  // persistent cache delays its commits), checkpointing, and the audit
  // hook (which audits the simulator's own cycles, not the simulated
  // program's). simulate() fixes the machine constants itself — 5-read,
  // 2-write update cycles and the CRCW model from SimProgram::discipline()
  // — and throws ConfigError if read_budget, write_budget or model is set.
  EngineOptions engine;

  // Resume from a previously captured checkpoint (src/replay,
  // docs/resilience.md); must outlive the simulate() call.
  const EngineCheckpoint* resume = nullptr;
};

struct SimResult {
  WorkTally tally;
  bool completed = false;        // all τ steps simulated
  std::vector<Word> memory;      // final simulated shared memory
  std::uint64_t passes = 0;      // Write-All passes executed (2τ)
};

// Memory map of a simulation run (exposed for tests and adversaries).
struct SimLayout {
  SimLayout(const SimProgram& program, Pid physical);

  Pid n = 0;          // simulated processors
  Pid p = 0;          // physical processors
  Addr data = 0;      // simulated memory [data, data + data_cells)
  Addr data_cells = 0;
  Addr regs = 0;      // registers, n · reg_count cells
  unsigned reg_count = 0;
  Addr scratch = 0;   // per-task logs: n · scratch_stride cells
  Addr scratch_stride = 0;
  unsigned max_writes = 0;  // stores + registers: log capacity per task
  Addr phase = 0;     // the phase word
  // Per-cell once-markers for ARBITRARY simulated programs (0 cells for
  // COMMON-compatible disciplines): the first commit to a cell in a step
  // wins; re-executions and rival writers observe the marker and skip.
  Addr commit_markers = 0;
  Addr commit_marker_cells = 0;
  Addr total = 0;     // whole machine memory size

  unsigned compute_cycles = 0;  // micro-cycles of a pass-A task
  unsigned commit_cycles = 0;   // micro-cycles of a pass-B task

  CombinedLayout wa_compute;  // Write-All geometry for pass A
  CombinedLayout wa_commit;   // ... and pass B (same cells, other schedule)

  Addr reg_cell(Pid j, unsigned r) const {
    return regs + static_cast<Addr>(j) * reg_count + r;
  }
  Addr scratch_base(Pid j) const {
    return scratch + static_cast<Addr>(j) * scratch_stride;
  }
};

// Phase-word packing: (pass index, pass start slot).
constexpr Word phase_encode(std::uint64_t pass, Slot start) {
  return static_cast<Word>((pass << 40) | (start & ((Slot{1} << 40) - 1)));
}
constexpr std::uint64_t phase_pass(Word w) {
  return static_cast<std::uint64_t>(w) >> 40;
}
constexpr Slot phase_start(Word w) {
  return static_cast<Slot>(w) & ((Slot{1} << 40) - 1);
}

// Execute `program` on the fault-tolerant machine under `adversary`.
SimResult simulate(const SimProgram& program, Adversary& adversary,
                   SimOptions options = {});

// Build the outer executor Program that simulate() would run — the machine
// of Theorem 4.1 with `program`'s tasks embedded — without running it, so
// tools like the static verifier (analysis/static/) can inspect it. The
// returned object holds references to `program` and `layout`; both must
// outlive it. Remember the executor's own cycle budget is 5 reads (the
// embedded Write-All cycle plus the phase-word poll).
std::unique_ptr<Program> make_simulation_program(const SimProgram& program,
                                                 const SimLayout& layout,
                                                 SimInner inner);

}  // namespace rfsp
