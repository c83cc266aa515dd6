// Audited run drivers: record + replay + fingerprint diff.
//
// The per-run checks of analysis/audit.hpp (budgets, phase order, write
// agreement, amnesia twins) watch a single execution. The obliviousness
// probe needs two: it records the adversary's fault schedule while auditing
// the run, then replays the schedule bit-exactly (replay/schedule.hpp)
// through a second engine and compares the two runs' cycle fingerprints.
// The engine is deterministic given (program, options, decisions), so any
// divergence means the program's address/value trace depends on something
// other than (pid, slot, values read) — a global mutable, wall-clock
// randomness, address-as-data leakage: behaviour §2.1's model does not
// admit, reported as AuditCheck::kOblivious with the first diverging
// (slot, pid).
#pragma once

#include "analysis/audit.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "writeall/runner.hpp"

namespace rfsp {

// A fully audited Write-All run: the outcome of the recorded (first)
// execution, the replayable schedule it produced, and the merged report —
// the first run's findings plus any obliviousness divergence found by the
// replay. The replay runs only when AuditOptions::fingerprint is set.
struct AuditedRun {
  WriteAllOutcome outcome;
  FaultSchedule schedule;
  AuditReport report;
};

AuditedRun audit_writeall(WriteAllAlgo algo, const WriteAllConfig& config,
                          Adversary& adversary, EngineOptions options = {},
                          AuditOptions audit = {});

// Same protocol for the Theorem 4.1 simulator (SimOptions::engine.audit is
// the engine passthrough; this function owns the record/replay double run).
struct AuditedSimRun {
  SimResult result;
  FaultSchedule schedule;
  AuditReport report;
};

AuditedSimRun audit_simulation(const SimProgram& program, Adversary& adversary,
                               SimOptions options = {},
                               AuditOptions audit = {});

// Compare two runs' fingerprint streams and append the first divergence (if
// any) to `report` as AuditCheck::kOblivious. Exposed for tests and for
// callers driving their own engines.
void diff_fingerprints(const Auditor& recorded, const Auditor& replayed,
                       AuditReport& report);

}  // namespace rfsp
