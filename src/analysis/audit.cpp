#include "analysis/audit.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

namespace rfsp {

namespace {

// Order-sensitive accumulation (boost::hash_combine-style): the same
// operations in a different order hash differently, which is exactly what
// the obliviousness comparison needs.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::uint64_t fingerprint_cycle(Slot slot, Pid pid,
                                std::span<const Addr> reads,
                                const CycleTrace& t) {
  std::uint64_t h = mix(mix(0x243f6a8885a308d3ULL, slot), pid);
  h = mix(h, reads.size());
  for (const Addr a : reads) h = mix(h, a);
  h = mix(h, t.writes.size());
  for (const WriteOp& op : t.writes) {
    h = mix(h, op.addr);
    h = mix(h, static_cast<std::uint64_t>(op.value));
  }
  h = mix(h, (t.used_snapshot ? 2u : 0u) | (t.halting ? 1u : 0u));
  return h;
}

// The twin's own read log: a hook that keeps the addresses and nothing else.
struct ReadCollector final : CycleAuditHook {
  FixedVec<Addr, kReadCap> reads;
  void on_read(Pid /*pid*/, Addr addr) override { reads.push_back(addr); }
  void on_write(Pid /*pid*/, Addr /*addr*/, Word /*value*/) override {}
  void on_snapshot(Pid /*pid*/) override {}
};

// First behavioural difference between the real restarted processor's cycle
// and its fresh-boot twin's, or "" when identical.
std::string diff_cycles(std::span<const Addr> real_reads,
                        const CycleTrace& real,
                        std::span<const Addr> twin_reads,
                        const CycleTrace& twin) {
  if (real.used_snapshot != twin.used_snapshot) {
    return twin.used_snapshot ? "twin used the snapshot read, processor "
                                "did not"
                              : "processor used the snapshot read, twin did "
                                "not";
  }
  const std::size_t reads = std::min(real_reads.size(), twin_reads.size());
  for (std::size_t i = 0; i < reads; ++i) {
    if (real_reads[i] != twin_reads[i]) {
      return "read #" + std::to_string(i) + ": processor read cell " +
             std::to_string(real_reads[i]) + ", twin read cell " +
             std::to_string(twin_reads[i]);
    }
  }
  if (real_reads.size() != twin_reads.size()) {
    return "processor issued " + std::to_string(real_reads.size()) +
           " reads, twin issued " + std::to_string(twin_reads.size());
  }
  const std::size_t writes = std::min(real.writes.size(), twin.writes.size());
  for (std::size_t i = 0; i < writes; ++i) {
    if (real.writes[i].addr != twin.writes[i].addr ||
        real.writes[i].value != twin.writes[i].value) {
      return "write #" + std::to_string(i) + ": processor wrote " +
             std::to_string(real.writes[i].value) + " to cell " +
             std::to_string(real.writes[i].addr) + ", twin wrote " +
             std::to_string(twin.writes[i].value) + " to cell " +
             std::to_string(twin.writes[i].addr);
    }
  }
  if (real.writes.size() != twin.writes.size()) {
    return "processor issued " + std::to_string(real.writes.size()) +
           " writes, twin issued " + std::to_string(twin.writes.size());
  }
  if (real.halting != twin.halting) {
    return real.halting ? "processor halted, twin did not"
                        : "twin halted, processor did not";
  }
  if (real.persist != twin.persist) {
    return real.persist ? "processor requested persist(), twin did not"
                        : "twin requested persist(), processor did not";
  }
  return {};
}

}  // namespace

Auditor::Auditor(AuditOptions options) : options_(options) {}

void Auditor::add(AuditCheck check, std::string detail, AuditContext context) {
  report_.add(check, std::move(detail), std::move(context));
}

Auditor::PidCycle& Auditor::cycle_state(Pid pid) {
  PidCycle& c = cycles_[pid];
  if (c.stamp != slot_ + 1) {
    // Field by field: the stale read payload stays (its size gates it).
    c.stamp = slot_ + 1;
    c.reads.clear();
    c.writes = 0;
    c.wrote = c.flagged_reads = c.flagged_writes = c.flagged_phase = false;
  }
  return c;
}

std::span<const Addr> Auditor::reads_of(Pid pid) const {
  const PidCycle& c = cycles_[pid];
  if (c.stamp != slot_ + 1) return {};
  return {c.reads.begin(), c.reads.end()};
}

void Auditor::on_run_begin(const Program& program,
                           const EngineOptions& options) {
  program_ = &program;
  model_ = options.model;
  snapshot_allowed_ = options.unit_cost_snapshot;
  read_budget_ = options.read_budget;
  write_budget_ = options.write_budget;
  report_.read_budget = read_budget_;
  report_.write_budget = write_budget_;
  cycles_.assign(program.processors(), PidCycle{});
}

void Auditor::on_memory_backend(const std::vector<ProcCache>* caches,
                                const CellFaultMap* faults) {
  caches_ = caches;
  fault_map_ = faults;
}

void Auditor::on_slot_begin(Slot slot) {
  slot_ = slot;
  ++report_.slots_audited;
}

void Auditor::on_read(Pid pid, Addr addr) {
  PidCycle& c = cycle_state(pid);
  c.reads.push_back(addr);
  if (c.wrote && !c.flagged_phase) {
    c.flagged_phase = true;
    AuditContext ctx;
    ctx.slot = static_cast<std::int64_t>(slot_);
    ctx.pids = {pid};
    add(AuditCheck::kPhaseOrder,
        "shared read after a shared write within one update cycle "
        "(an update cycle is read*, compute, write*)",
        std::move(ctx));
  }
  if (c.reads.size() > read_budget_ && !c.flagged_reads) {
    c.flagged_reads = true;
    AuditContext ctx;
    ctx.slot = static_cast<std::int64_t>(slot_);
    ctx.pids = {pid};
    add(AuditCheck::kReadBudget,
        "update cycle exceeded the read budget of " +
            std::to_string(read_budget_),
        std::move(ctx));
  }
}

void Auditor::on_write(Pid pid, Addr addr, Word value) {
  PidCycle& c = cycle_state(pid);
  ++c.writes;
  c.wrote = true;
  if (fault_map_ != nullptr && fault_map_->is_dead(addr)) {
    AuditContext ctx;
    ctx.slot = static_cast<std::int64_t>(slot_);
    ctx.cell = static_cast<std::int64_t>(addr);
    ctx.pids = {pid};
    ctx.values = {value};
    add(AuditCheck::kDeadWrite,
        "write to a dead shared cell is silently dropped (faulty-cells "
        "memory model) — a fault-aware algorithm should route around the "
        "fault metadata",
        std::move(ctx));
  }
  if (c.writes > write_budget_ && !c.flagged_writes) {
    c.flagged_writes = true;
    AuditContext ctx;
    ctx.slot = static_cast<std::int64_t>(slot_);
    ctx.pids = {pid};
    add(AuditCheck::kWriteBudget,
        "update cycle exceeded the write budget of " +
            std::to_string(write_budget_),
        std::move(ctx));
  }
}

void Auditor::on_snapshot(Pid pid) {
  PidCycle& c = cycle_state(pid);
  if (c.wrote && !c.flagged_phase) {
    c.flagged_phase = true;
    AuditContext ctx;
    ctx.slot = static_cast<std::int64_t>(slot_);
    ctx.pids = {pid};
    add(AuditCheck::kPhaseOrder,
        "whole-memory snapshot read after a shared write within one update "
        "cycle",
        std::move(ctx));
  }
}

void Auditor::on_cycles_done(const SharedMemory& mem, Slot slot,
                             std::span<const CycleTrace> traces,
                             std::span<const Pid> live) {
  for (const Pid pid : live) {
    const CycleTrace& t = traces[pid];
    if (!t.started) continue;
    const std::span<const Addr> reads = reads_of(pid);
    ++report_.cycles_audited;
    report_.max_reads_in_cycle =
        std::max(report_.max_reads_in_cycle, reads.size());
    report_.max_writes_in_cycle =
        std::max(report_.max_writes_in_cycle, t.writes.size());
    if (options_.fingerprint) {
      if (fingerprints_.size() < kMaxFingerprints) {
        fingerprints_.push_back(
            {slot, pid, fingerprint_cycle(slot, pid, reads, t)});
      } else {
        report_.fingerprints_truncated = true;
      }
    }
  }
  if (model_ == CrcwModel::kCommon || model_ == CrcwModel::kWeak) {
    check_write_agreement(slot, traces, live);
  }
  if (model_ == CrcwModel::kErew) check_exclusive_reads(slot, traces, live);
  if (!twins_.empty()) run_twins(mem, slot, traces);
}

void Auditor::check_write_agreement(Slot slot,
                                    std::span<const CycleTrace> traces,
                                    std::span<const Pid> live) {
  cell_writes_.clear();
  for (const Pid pid : live) {
    const CycleTrace& t = traces[pid];
    if (!t.started) continue;
    for (const WriteOp& op : t.writes) {
      auto [it, inserted] =
          cell_writes_.try_emplace(op.addr, FirstWrite{op.value, pid, false});
      if (inserted) continue;
      FirstWrite& first = it->second;
      if (model_ == CrcwModel::kCommon) {
        if (op.value != first.value) {
          AuditContext ctx;
          ctx.slot = static_cast<std::int64_t>(slot);
          ctx.cell = static_cast<std::int64_t>(op.addr);
          ctx.pids = {first.pid, pid};
          ctx.values = {first.value, op.value};
          add(AuditCheck::kWriteAgreement,
              "COMMON CRCW writers disagree at a cell (checked across all "
              "started cycles, aborted ones included)",
              std::move(ctx));
        }
        continue;
      }
      // WEAK: with >= 2 concurrent writers, every written value must be the
      // designated one. The first writer's value is checked when a second
      // writer reveals the concurrency, and only once.
      if (!first.value_flagged && first.value != kWeakValue) {
        first.value_flagged = true;
        AuditContext ctx;
        ctx.slot = static_cast<std::int64_t>(slot);
        ctx.cell = static_cast<std::int64_t>(op.addr);
        ctx.pids = {first.pid, pid};
        ctx.values = {first.value, op.value};
        add(AuditCheck::kWriteAgreement,
            "WEAK CRCW concurrent write of a non-designated value",
            std::move(ctx));
      }
      if (op.value != kWeakValue) {
        AuditContext ctx;
        ctx.slot = static_cast<std::int64_t>(slot);
        ctx.cell = static_cast<std::int64_t>(op.addr);
        ctx.pids = {pid, first.pid};
        ctx.values = {op.value, first.value};
        add(AuditCheck::kWriteAgreement,
            "WEAK CRCW concurrent write of a non-designated value",
            std::move(ctx));
      }
    }
  }
}

void Auditor::check_exclusive_reads(Slot slot,
                                    std::span<const CycleTrace> traces,
                                    std::span<const Pid> live) {
  cell_reads_.clear();
  for (const Pid pid : live) {
    if (!traces[pid].started) continue;
    for (const Addr addr : reads_of(pid)) {
      auto [it, inserted] = cell_reads_.try_emplace(addr, FirstRead{pid});
      FirstRead& first = it->second;
      // A processor re-reading its own cell is not a concurrent read.
      if (inserted || first.pid == pid || first.flagged) continue;
      first.flagged = true;
      AuditContext ctx;
      ctx.slot = static_cast<std::int64_t>(slot);
      ctx.cell = static_cast<std::int64_t>(addr);
      ctx.pids = {first.pid, pid};
      add(AuditCheck::kReadConflict,
          "EREW concurrent read: two processors read one cell in the same "
          "slot (checked across all started cycles, aborted ones included)",
          std::move(ctx));
    }
  }
}

void Auditor::run_twins(const SharedMemory& mem, Slot slot,
                        std::span<const CycleTrace> traces) {
  for (auto it = twins_.begin(); it != twins_.end();) {
    const Pid pid = it->first;
    const CycleTrace& real = traces[pid];
    if (!real.started) {
      // The processor left the live set without a cycle this slot (e.g. it
      // halted last slot); failures erase their twin in on_transitions.
      it = twins_.erase(it);
      continue;
    }
    ++report_.twin_cycles;
    // Step the fresh-boot twin against the same slot-start memory the real
    // processor saw. The scratch trace keeps the twin's operations out of
    // the engine's commit, and the local hook keeps its reads out of this
    // auditor's own counters/hashes.
    CycleTrace scratch;
    scratch.reset_for_cycle();
    ReadCollector twin_reads;
    // Under the persistent-cache model the twin reads through the *real*
    // processor's write-back cache: both must see the same memory view, or
    // every cached algorithm would false-positive as amnesiac. The engine
    // calls on_cycles_done before this slot's commit mutates the caches, so
    // the view is exactly what the real cycle read.
    const ProcCache* cache =
        caches_ != nullptr ? &(*caches_)[pid] : nullptr;
    CycleContext ctx(mem, slot, kReadCap, kWriteCap, snapshot_allowed_,
                     &twin_reads);
    ctx.rebind(scratch, pid, cache);
    std::string divergence;
    try {
      scratch.halting = !it->second->cycle(ctx);
      divergence = diff_cycles(reads_of(pid), real,
                               {twin_reads.reads.begin(),
                                twin_reads.reads.end()},
                               scratch);
    } catch (const std::exception& e) {
      divergence = std::string("fresh-boot twin threw: ") + e.what();
    }
    if (!divergence.empty()) {
      AuditContext actx;
      actx.slot = static_cast<std::int64_t>(slot);
      actx.pids = {pid};
      add(AuditCheck::kAmnesia,
          "restarted processor diverges from a fresh-boot twin — behaviour "
          "depends on private state a failure should have wiped (" +
              divergence + ")",
          std::move(actx));
      it = twins_.erase(it);
      continue;
    }
    if (scratch.halting) {
      // The twin (and the matching real processor) halted cleanly: the
      // restart has been shadowed to completion.
      it = twins_.erase(it);
      continue;
    }
    ++it;
  }
}

void Auditor::on_transitions(Slot slot, const FaultDecision& decision) {
  (void)slot;
  // Failures wipe the real processor's state, so the shadow dies with it.
  for (const Pid pid : decision.fail_mid_cycle) twins_.erase(pid);
  for (const Pid pid : decision.fail_after_cycle) twins_.erase(pid);
  for (const TornWrite& tear : decision.torn) twins_.erase(tear.pid);
  // Restarts boot a twin alongside the engine's rebooted state; from the
  // next slot on both run the same cycles against the same memory.
  for (const Pid pid : decision.restart) {
    twins_[pid] = program_->boot(pid);
    ++report_.restarts_watched;
  }
}

void Auditor::on_run_end() { twins_.clear(); }

}  // namespace rfsp
