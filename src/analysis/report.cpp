#include "analysis/report.hpp"

#include <ostream>
#include <sstream>

#include "replay/json.hpp"

namespace rfsp {

std::string_view to_string(AuditCheck check) {
  switch (check) {
    case AuditCheck::kReadBudget: return "read-budget";
    case AuditCheck::kWriteBudget: return "write-budget";
    case AuditCheck::kPhaseOrder: return "phase-order";
    case AuditCheck::kAmnesia: return "amnesia";
    case AuditCheck::kWriteAgreement: return "write-agreement";
    case AuditCheck::kOblivious: return "oblivious";
    case AuditCheck::kDeadWrite: return "dead-write";
    case AuditCheck::kReadConflict: return "read-conflict";
  }
  return "?";
}

void append_context(std::string& line, const AuditContext& ctx) {
  if (ctx.slot >= 0) {
    line += ",\"t\":";
    json::append_i64(line, ctx.slot);
  }
  if (ctx.cell >= 0) {
    line += ",\"cell\":";
    json::append_i64(line, ctx.cell);
  }
  if (!ctx.pids.empty()) {
    line += ",\"pids\":[";
    for (std::size_t i = 0; i < ctx.pids.size(); ++i) {
      if (i > 0) line += ',';
      json::append_u64(line, ctx.pids[i]);
    }
    line += ']';
  }
  if (!ctx.values.empty()) {
    line += ",\"values\":[";
    for (std::size_t i = 0; i < ctx.values.size(); ++i) {
      if (i > 0) line += ',';
      json::append_i64(line, ctx.values[i]);
    }
    line += ']';
  }
}

void AuditReport::add(AuditCheck check, std::string detail,
                      AuditContext context) {
  ++counts[static_cast<std::size_t>(check)];
  if (violations.size() < kMaxViolations) {
    violations.push_back({check, std::move(detail), std::move(context)});
  } else {
    ++dropped_violations;
  }
}

void AuditReport::write_jsonl(std::ostream& out) const {
  std::string line;
  for (const AuditViolation& v : violations) {
    line = "{\"e\":\"audit-violation\",\"check\":";
    json::append_string(line, to_string(v.check));
    append_context(line, v.context);
    line += ",\"detail\":";
    json::append_string(line, v.detail);
    line += '}';
    out << line << '\n';
  }
  line = "{\"e\":\"audit-summary\",\"violations\":";
  json::append_u64(line, total());
  line += ",\"dropped\":";
  json::append_u64(line, dropped_violations);
  for (std::size_t i = 0; i < kAuditCheckCount; ++i) {
    if (counts[i] == 0) continue;
    line += ',';
    json::append_string(line, to_string(static_cast<AuditCheck>(i)));
    line += ':';
    json::append_u64(line, counts[i]);
  }
  line += ",\"slots\":";
  json::append_u64(line, slots_audited);
  line += ",\"cycles\":";
  json::append_u64(line, cycles_audited);
  line += ",\"max_reads\":";
  json::append_u64(line, max_reads_in_cycle);
  line += ",\"max_writes\":";
  json::append_u64(line, max_writes_in_cycle);
  line += ",\"read_budget\":";
  json::append_u64(line, read_budget);
  line += ",\"write_budget\":";
  json::append_u64(line, write_budget);
  line += ",\"restarts_watched\":";
  json::append_u64(line, restarts_watched);
  line += ",\"twin_cycles\":";
  json::append_u64(line, twin_cycles);
  line += ",\"fingerprints_truncated\":";
  line += fingerprints_truncated ? "true" : "false";
  line += '}';
  out << line << '\n';
}

std::string AuditReport::to_text() const {
  std::ostringstream os;
  os << "audit: " << (ok() ? "clean" : "VIOLATIONS") << " (" << total()
     << " findings over " << slots_audited << " slots, " << cycles_audited
     << " cycles; max " << max_reads_in_cycle << "/" << read_budget
     << " reads, " << max_writes_in_cycle << "/" << write_budget
     << " writes per cycle; " << restarts_watched << " restarts watched)\n";
  for (const AuditViolation& v : violations) {
    os << "  [" << to_string(v.check) << "]";
    const AuditContext& c = v.context;
    if (c.slot >= 0) os << " slot " << c.slot;
    if (c.pid() >= 0) {
      os << " pid";
      for (const Pid pid : c.pids) os << ' ' << pid;
    }
    if (c.cell >= 0) os << " cell " << c.cell;
    os << ": " << v.detail << '\n';
  }
  if (dropped_violations > 0) {
    os << "  ... and " << dropped_violations << " more (capped)\n";
  }
  return os.str();
}

}  // namespace rfsp
