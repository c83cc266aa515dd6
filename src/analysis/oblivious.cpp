#include "analysis/oblivious.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rfsp {

namespace {

// The replay run exists only to reproduce the machine behaviour: it keeps
// the caller's machine-model options but drops every side channel, so one
// audited run emits one event stream, one checkpoint sequence, one report.
EngineOptions replay_options(EngineOptions options, Auditor& auditor) {
  options.audit = &auditor;
  options.sink = nullptr;
  options.checkpoint_every = 0;
  options.on_checkpoint = nullptr;
  return options;
}

void report_replay_failure(const std::exception& e, AuditReport& report) {
  report.add(AuditCheck::kOblivious,
             std::string("bit-exact replay of the recorded fault schedule "
                         "failed: ") +
                 e.what(),
             AuditContext{});
}

}  // namespace

void diff_fingerprints(const Auditor& recorded, const Auditor& replayed,
                       AuditReport& report) {
  const std::vector<CycleFingerprint>& a = recorded.fingerprints();
  const std::vector<CycleFingerprint>& b = replayed.fingerprints();
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] == b[i]) continue;
    AuditContext ctx;
    ctx.slot = static_cast<std::int64_t>(a[i].slot);
    ctx.pids = {a[i].pid};
    report.add(
        AuditCheck::kOblivious,
        "cycle fingerprint diverges between a recorded run and its bit-exact "
        "replay (fingerprint #" +
            std::to_string(i) + ", replay slot " +
            std::to_string(b[i].slot) + " pid " + std::to_string(b[i].pid) +
            "): the address/value trace depends on state outside "
            "(pid, slot, values read)",
        std::move(ctx));
    return;  // later entries diverge in cascade; the first one is the finding
  }
  if (a.size() != b.size()) {
    AuditContext ctx;
    const std::vector<CycleFingerprint>& longer = a.size() > b.size() ? a : b;
    ctx.slot = static_cast<std::int64_t>(longer[common].slot);
    ctx.pids = {longer[common].pid};
    report.add(AuditCheck::kOblivious,
               "recorded run produced " + std::to_string(a.size()) +
                   " cycles, its bit-exact replay " + std::to_string(b.size()),
               std::move(ctx));
  }
  report.fingerprints_truncated |=
      recorded.report().fingerprints_truncated ||
      replayed.report().fingerprints_truncated;
}

AuditedRun audit_writeall(WriteAllAlgo algo, const WriteAllConfig& config,
                          Adversary& adversary, EngineOptions options,
                          AuditOptions audit) {
  AuditedRun out;
  Auditor first(audit);
  {
    RecordingAdversary recorder(adversary, out.schedule);
    EngineOptions opt = options;
    opt.audit = &first;
    out.outcome = run_writeall(algo, config, recorder, opt);
  }
  if (audit.fingerprint) {
    Auditor second(audit);
    ReplayAdversary replayer(out.schedule);
    try {
      run_writeall(algo, config, replayer, replay_options(options, second));
      diff_fingerprints(first, second, first.report_mutable());
    } catch (const std::exception& e) {
      report_replay_failure(e, first.report_mutable());
    }
  }
  out.report = first.take_report();
  return out;
}

AuditedSimRun audit_simulation(const SimProgram& program, Adversary& adversary,
                               SimOptions options, AuditOptions audit) {
  AuditedSimRun out;
  Auditor first(audit);
  {
    RecordingAdversary recorder(adversary, out.schedule);
    SimOptions opt = options;
    opt.engine.audit = &first;
    out.result = simulate(program, recorder, opt);
  }
  if (audit.fingerprint) {
    Auditor second(audit);
    ReplayAdversary replayer(out.schedule);
    SimOptions opt = options;
    opt.engine = replay_options(options.engine, second);
    opt.resume = nullptr;
    try {
      simulate(program, replayer, opt);
      diff_fingerprints(first, second, first.report_mutable());
    } catch (const std::exception& e) {
      report_replay_failure(e, first.report_mutable());
    }
  }
  out.report = first.take_report();
  return out;
}

}  // namespace rfsp
