// Complexity accounting (Definitions 2.2 / 2.3 of the paper).
//
//  * completed work  S  = c · Σ_i P_i(I, F), where P_i is the number of
//    processors *completing* an update cycle at slot i (c = 1 here);
//  * attempted work  S' additionally charges cycles the adversary killed
//    mid-flight (Remark 2: S' <= S + |F|; Example 2.2 shows S' admits a
//    trivial quadratic adversary, which motivates charging only S);
//  * overhead ratio  σ = S / (|I| + |F|)  (Definition 2.3(ii)).
#pragma once

#include <cstdint>
#include <string>

namespace rfsp {

struct WorkTally {
  std::uint64_t completed_work = 0;  // S
  std::uint64_t attempted_work = 0;  // S' (>= S)
  std::uint64_t failures = 0;        // # of <failure, PID, t> events
  std::uint64_t restarts = 0;        // # of <restart, PID, t> events
  std::uint64_t slots = 0;           // parallel time (update-cycle slots)
  std::uint64_t halted = 0;          // processors that finished voluntarily
  std::uint64_t peak_live = 0;       // max live processors in any slot
  std::uint64_t persists = 0;        // cache flushes (persistent-cache only)

  // |F| — the size of the failure pattern (Definition 2.1 counts both
  // failure and restart triples).
  std::uint64_t pattern_size() const { return failures + restarts; }

  // σ = S / (input_size + |F|). Well-defined for input_size >= 1.
  double overhead_ratio(std::uint64_t input_size) const;

  // Bit-exact equality — the determinism oracle of the record/replay and
  // checkpoint/restore tests (src/replay, docs/resilience.md).
  friend bool operator==(const WorkTally&, const WorkTally&) = default;
};

// One phase's slice of a run's accounting, attributed slot-by-slot through
// the program's PhaseSchedule (obs/phase.hpp) by StreamAggregator
// (obs/stream.hpp). Over a run,
// Σ completed_work == WorkTally::completed_work (and likewise for S', |F|,
// and slots) — every slot belongs to exactly one phase.
struct PhaseWork {
  std::string name;
  std::uint64_t completed_work = 0;  // S landing in this phase's slots
  std::uint64_t attempted_work = 0;  // S' landing in this phase's slots
  std::uint64_t failures = 0;
  std::uint64_t restarts = 0;
  std::uint64_t slots = 0;

  std::uint64_t pattern_size() const { return failures + restarts; }
};

}  // namespace rfsp
