// Structured results of the model-conformance auditor (docs/analysis.md).
//
// The auditor verifies that a Program actually obeys the machine model its
// correctness rests on — Definition 2.1's update-cycle discipline and the
// fail-stop rule that a failure wipes private memory. Each finding is an
// AuditViolation: which check fired, at which slot, involving which
// processors/cell/values. The same AuditContext struct is shared with the
// fault-free simulated-PRAM checker (sim/discipline.hpp), so every
// discipline tool in the library reports violations in one shape.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "pram/types.hpp"

namespace rfsp {

// The conformance checks the auditor performs (docs/analysis.md maps each
// to the model clause it verifies).
enum class AuditCheck : std::uint8_t {
  kReadBudget,      // an update cycle issued more shared reads than §2.1's
                    // budget (default <= 4)
  kWriteBudget,     // ... more shared writes than the budget (default <= 2)
  kPhaseOrder,      // a shared read after a shared write within one cycle
                    // (an update cycle is read*, compute, write*)
  kAmnesia,         // a restarted processor's behaviour depends on private
                    // state that should have been wiped (§2.1 point 3)
  kWriteAgreement,  // concurrent same-slot writers disagree at a cell
                    // (COMMON), or write a non-designated value (WEAK) —
                    // checked across *all* started cycles, aborted included
  kOblivious,       // the address/value trace changed between a recorded
                    // run and its bit-exact replay: hidden nondeterminism
  kDeadWrite,       // a cycle wrote to a dead shared cell (faulty-cells
                    // memory model) — the write is silently dropped, so a
                    // fault-aware algorithm should have routed around it
  kReadConflict,    // two processors read one cell in the same slot under
                    // EREW — checked across all started cycles
};
inline constexpr std::size_t kAuditCheckCount = 8;

std::string_view to_string(AuditCheck check);

// Where a violation happened. Shared between AuditViolation and the
// simulated-PRAM DisciplineReport; `slot` doubles as the synchronous step
// index of the fault-free checker. Sentinels: -1 = not applicable.
struct AuditContext {
  std::int64_t slot = -1;
  std::int64_t cell = -1;
  std::vector<Pid> pids;     // involved processors, primary first
  std::vector<Word> values;  // conflicting values, aligned with pids where
                             // the check compares per-writer values

  // Primary processor (first of pids), or -1.
  std::int64_t pid() const {
    return pids.empty() ? -1 : static_cast<std::int64_t>(pids.front());
  }

  friend bool operator==(const AuditContext&, const AuditContext&) = default;
};

// Append the context's set fields (t, cell, pids, values) as JSON members
// to a JSONL line; the audit and static reports share this rendering.
void append_context(std::string& line, const AuditContext& ctx);

struct AuditViolation {
  AuditCheck check = AuditCheck::kReadBudget;
  std::string detail;  // human-readable specifics
  AuditContext context;
};

// Stored-violation cap of an AuditReport.
inline constexpr std::size_t kMaxViolations = 64;

// Everything one audited run produced. Violations are capped by
// kMaxViolations; the per-check counters keep counting past the cap so
// `count(check)` is always the true total.
struct AuditReport {
  std::vector<AuditViolation> violations;
  std::array<std::uint64_t, kAuditCheckCount> counts{};  // per AuditCheck
  std::uint64_t dropped_violations = 0;  // recorded beyond the cap

  // Audit coverage / per-program maxima (reported even when clean).
  std::uint64_t slots_audited = 0;
  std::uint64_t cycles_audited = 0;
  std::size_t max_reads_in_cycle = 0;
  std::size_t max_writes_in_cycle = 0;
  std::size_t read_budget = 0;   // the configured budgets audited against
  std::size_t write_budget = 0;
  std::uint64_t restarts_watched = 0;  // amnesia twins booted
  std::uint64_t twin_cycles = 0;       // amnesia twin cycles executed
  bool fingerprints_truncated = false;  // obliviousness compare is a prefix

  // Record one finding: the per-check counter always increments; the
  // violation itself is stored only while under kMaxViolations (excess
  // findings bump dropped_violations instead).
  void add(AuditCheck check, std::string detail, AuditContext context);

  std::uint64_t count(AuditCheck check) const {
    return counts[static_cast<std::size_t>(check)];
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts) sum += c;
    return sum;
  }
  bool ok() const { return total() == 0; }

  // One JSON object per line via the obs sink conventions: a {"e":"audit-
  // violation",...} line per finding and a final {"e":"audit-summary",...}
  // line with the coverage counters (docs/analysis.md §4).
  void write_jsonl(std::ostream& out) const;

  // Multi-line human-readable rendering (the CLIs print this).
  std::string to_text() const;
};

}  // namespace rfsp
