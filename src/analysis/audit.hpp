// The model-conformance auditor (docs/analysis.md).
//
// An Auditor is an EngineAuditHook: installed through EngineOptions::audit
// it watches one run and checks, per update cycle and across faults, that
// the program actually obeys the machine model of §2.1:
//
//   * budget/phase lint — every cycle issues at most the configured number
//     of shared reads and writes, and all reads precede all writes. The
//     engine widens its enforced budgets to the storage caps in audit mode,
//     so the auditor reports *every* offending cycle (with slot/pid) and
//     the per-program maxima, instead of the run dying at the first one.
//   * amnesia check — after each restart the auditor boots a fresh "twin"
//     state via Program::boot(pid) and steps it against the same slot-start
//     memory as the real processor, whose state the engine reset in place
//     through Program::reboot (so the twin checks reboot against boot). Any
//     divergence (addresses read, writes, halting) means the restarted
//     processor's behaviour depends on private memory that the failure
//     should have wiped.
//   * CRCW write agreement — concurrent same-slot writers must agree at
//     every cell (COMMON) or write the designated value (WEAK), across
//     *all started* cycles — including ones the adversary then aborts,
//     which the engine's commit-time check never sees.
//   * EREW exclusive reads — under the EREW model no two processors may
//     read one cell in the same slot, again across all started cycles.
//   * dead writes — under the faulty-cells model, a write to a dead cell
//     (silently dropped by the memory) is flagged.
//   * obliviousness fingerprints — a compact hash per attempted cycle of
//     (slot, pid, addresses read, writes, snapshot, halting). Comparing the
//     fingerprints of a recorded run and its bit-exact replay (see
//     analysis/oblivious.hpp) exposes hidden nondeterminism: state outside
//     (pid, slot, values read) that steers the address trace.
//
// The auditor never mutates the run it watches: twins read the same
// slot-start memory through a scratch trace, and all bookkeeping is local.
// The read addresses come from the per-operation hook (on_read) — the
// engine keeps no read log of its own.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/report.hpp"
#include "pram/engine.hpp"

namespace rfsp {

struct AuditOptions {
  bool fingerprint = true;  // per-cycle fingerprints for obliviousness
};

// One attempted update cycle, digested: the hash mixes the addresses read
// (in order), the writes (address and value, in order), snapshot use, and
// the halting flag. Equal machine behaviour => equal fingerprints.
struct CycleFingerprint {
  Slot slot = 0;
  Pid pid = 0;
  std::uint64_t hash = 0;

  friend bool operator==(const CycleFingerprint&,
                         const CycleFingerprint&) = default;
};

class Auditor final : public EngineAuditHook {
 public:
  explicit Auditor(AuditOptions options = {});

  // --- EngineAuditHook -------------------------------------------------------
  void on_run_begin(const Program& program,
                    const EngineOptions& options) override;
  void on_memory_backend(const std::vector<ProcCache>* caches,
                         const CellFaultMap* faults) override;
  void on_slot_begin(Slot slot) override;
  void on_read(Pid pid, Addr addr) override;
  void on_write(Pid pid, Addr addr, Word value) override;
  void on_snapshot(Pid pid) override;
  void on_cycles_done(const SharedMemory& mem, Slot slot,
                      std::span<const CycleTrace> traces,
                      std::span<const Pid> live) override;
  void on_transitions(Slot slot, const FaultDecision& decision) override;
  void on_run_end() override;

  // The findings so far. Valid mid-run too: the report is built
  // incrementally, so it is usable even when the audited run throws.
  const AuditReport& report() const { return report_; }
  AuditReport& report_mutable() { return report_; }
  AuditReport take_report() { return std::move(report_); }

  const std::vector<CycleFingerprint>& fingerprints() const {
    return fingerprints_;
  }

 private:
  // Fingerprint storage cap; past it AuditReport::fingerprints_truncated is
  // set and the obliviousness comparison covers only the recorded prefix.
  static constexpr std::size_t kMaxFingerprints = std::size_t{1} << 20;

  // Per-processor within-cycle state, lazily reset by slot stamp (no O(P)
  // work per slot): an entry is current iff stamp_ == slot_ + 1.
  struct PidCycle {
    Slot stamp = 0;  // current slot + 1; 0 = never used
    FixedVec<Addr, kReadCap> reads;  // addresses read, program order
    std::uint32_t writes = 0;
    bool wrote = false;
    bool flagged_reads = false;
    bool flagged_writes = false;
    bool flagged_phase = false;
  };

  PidCycle& cycle_state(Pid pid);
  // The addresses `pid` read this slot (empty if its cycle read nothing).
  std::span<const Addr> reads_of(Pid pid) const;
  void add(AuditCheck check, std::string detail, AuditContext context);
  void check_write_agreement(Slot slot, std::span<const CycleTrace> traces,
                             std::span<const Pid> live);
  void check_exclusive_reads(Slot slot, std::span<const CycleTrace> traces,
                             std::span<const Pid> live);
  void run_twins(const SharedMemory& mem, Slot slot,
                 std::span<const CycleTrace> traces);

  AuditOptions options_;
  AuditReport report_;
  std::vector<CycleFingerprint> fingerprints_;

  // Machine parameters captured at on_run_begin.
  const Program* program_ = nullptr;
  CrcwModel model_ = CrcwModel::kCommon;
  bool snapshot_allowed_ = false;
  std::size_t read_budget_ = 0;
  std::size_t write_budget_ = 0;

  // Memory-model backend views (engine-owned, set via on_memory_backend;
  // null under the reliable model). The fault map is live — it reflects
  // adversary injections as they land — so the dead-write check naturally
  // covers both static and injected faults.
  const std::vector<ProcCache>* caches_ = nullptr;
  const CellFaultMap* fault_map_ = nullptr;

  Slot slot_ = 0;
  std::vector<PidCycle> cycles_;

  // Write-agreement scratch: first writer per cell this slot.
  struct FirstWrite {
    Word value = 0;
    Pid pid = 0;
    bool value_flagged = false;  // WEAK: first value already reported
  };
  std::unordered_map<Addr, FirstWrite> cell_writes_;

  // EREW scratch: first reader per cell this slot.
  struct FirstRead {
    Pid pid = 0;
    bool flagged = false;  // the cell's conflict already reported
  };
  std::unordered_map<Addr, FirstRead> cell_reads_;

  // Amnesia twins, keyed by PID (ordered: deterministic report order).
  std::map<Pid, std::unique_ptr<ProcessorState>> twins_;
};

}  // namespace rfsp
