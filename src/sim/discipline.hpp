// Static (pre-execution) verification of a simulated program's memory
// discipline, per the PRAM variants of Theorem 4.1: "EREW, CREW, and WEAK
// and COMMON CRCW PRAM algorithms are simulated on fail-stop COMMON CRCW
// PRAMs; ARBITRARY ... on fail-stop CRCW PRAMs of the same type."
//
// The checker executes the program fault-free (sim/sync_exec.hpp, the
// executor reference_run uses) while recording every simulated
// processor's per-step load/store sets and validates them
// against the requested discipline:
//   kErew    — no two processors touch one cell in a step (read or write);
//   kCrew    — concurrent reads allowed, concurrent writes not;
//   kCommon  — concurrent writes must carry equal values;
//   kWeak    — concurrent writes only of the designated value kWeakValue
//              (Theorem 4.1 lists WEAK among the simulable variants;
//              Write-All itself is the canonical WEAK program);
//   kArbitrary / kPriority — any concurrent writes allowed.
// Registers are private by construction and are not checked.
//
// A program that passes for discipline D executes correctly under
// simulate(), which picks the engine's CRCW model from the program's
// declared discipline (COMMON for the COMMON-compatible ones; ARBITRARY
// for ARBITRARY).
#pragma once

#include <string>

#include "analysis/report.hpp"
#include "pram/types.hpp"
#include "sim/sim_program.hpp"

namespace rfsp {

struct DisciplineReport {
  bool ok = true;
  // First violation found (empty when ok).
  std::string violation;
  Step step = 0;
  Addr cell = 0;
  // The same violation-context shape the run-time auditor reports
  // (analysis/report.hpp): context.slot is the synchronous step index,
  // context.pids the colliding processors (readers for a read conflict,
  // writers otherwise), context.values the written values aligned with
  // pids where the check compares them.
  AuditContext context;
};

DisciplineReport check_discipline(const SimProgram& program,
                                  CrcwModel discipline);

}  // namespace rfsp
