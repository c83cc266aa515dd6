// E16 — conformance-audit overhead (src/analysis, docs/analysis.md).
//
// Three modes over the E1 instance (fault-free Write-All at N = 2^16):
//   off    — plain run_writeall; EngineOptions::audit is a null pointer and
//            the engine's hot paths take the untaken-branch cost only.
//   audit  — Auditor attached, obliviousness probe off: per-cycle budget,
//            phase and write-agreement checks over the per-access hook,
//            one run.
//   probe  — audit_writeall: the full protocol, i.e. the audited run is
//            recorded and then replayed bit-exactly for the fingerprint
//            diff, so expect ~2x the audited run plus hashing.
// The faulty rows (smaller N, so the suite stays quick) add restart
// pressure: every restart boots an amnesia twin that shadows the processor
// until it halts.
#include <benchmark/benchmark.h>

#include <string>

#include "analysis/oblivious.hpp"
#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "util/table.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

enum Mode { kOff, kAudit, kProbe };
constexpr const char* kModeNames[] = {"off", "audit", "probe"};

std::unique_ptr<Adversary> make_adversary(bool faulty, std::uint64_t seed) {
  if (!faulty) return std::make_unique<NoFailures>();
  return std::make_unique<RandomAdversary>(
      seed, RandomAdversaryOptions{.fail_prob = 0.05, .restart_prob = 0.6});
}

struct ModeRun {
  WriteAllOutcome out;
  AuditReport report;  // empty in kOff mode
};

ModeRun run_mode(Mode mode, WriteAllAlgo algo, Addr n, bool faulty) {
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n / 16 + 1),
                              .seed = 3};
  const auto adversary = make_adversary(faulty, 17);
  ModeRun r;
  switch (mode) {
    case kOff:
      r.out = run_writeall(algo, config, *adversary);
      break;
    case kAudit: {
      Auditor auditor(AuditOptions{.fingerprint = false});
      EngineOptions options;
      options.audit = &auditor;
      r.out = run_writeall(algo, config, *adversary, options);
      r.report = auditor.take_report();
      break;
    }
    case kProbe: {
      AuditedRun audited = audit_writeall(algo, config, *adversary);
      r.out = std::move(audited.outcome);
      r.report = std::move(audited.report);
      break;
    }
  }
  return r;
}

void BM_Audit(benchmark::State& state) {
  const Mode mode = static_cast<Mode>(state.range(0));
  const WriteAllAlgo algo =
      state.range(1) != 0 ? WriteAllAlgo::kCombinedVX : WriteAllAlgo::kW;
  const Addr n = static_cast<Addr>(state.range(2));
  const bool faulty = state.range(3) != 0;
  ModeRun r;
  for (auto _ : state) {
    r = run_mode(mode, algo, n, faulty);
    benchmark::DoNotOptimize(r.out.run.tally.completed_work);
  }
  if (!r.out.solved) state.SkipWithError("postcondition failed");
  if (mode != kOff && !r.report.ok()) {
    state.SkipWithError("audit found violations in a shipped algorithm");
  }
  bench::report(state, r.out.run.tally, n);
  if (mode != kOff) {
    state.counters["cycles_audited"] =
        static_cast<double>(r.report.cycles_audited);
    state.counters["twin_cycles"] = static_cast<double>(r.report.twin_cycles);
  }
  state.SetLabel(std::string(kModeNames[mode]) +
                 (faulty ? "/random" : "/fault-free"));
}

void register_benches() {
  for (const bool faulty : {false, true}) {
    // Acceptance row: fault-free N = 2^16 (the E1 instance). The faulty
    // rows exercise the amnesia twins without dominating the suite.
    const Addr n = faulty ? Addr{4096} : Addr{65536};
    for (const bool vx : {false, true}) {
      if (faulty && !vx) continue;  // W is not restart-safe
      for (const Mode mode : {kOff, kAudit, kProbe}) {
        benchmark::RegisterBenchmark(
            ("E16/" + std::string(vx ? "VX" : "W") + "/" + kModeNames[mode] +
             (faulty ? "/random" : "/fault-free") + "/n:" + std::to_string(n))
                .c_str(),
            BM_Audit)
            ->Args({static_cast<long>(mode), vx ? 1 : 0,
                    static_cast<long>(n), faulty ? 1 : 0})
            ->Iterations(faulty ? 3 : 1);
      }
    }
  }
}

void print_report() {
  Table table({"algo", "adversary", "N", "mode", "S", "slots",
               "cycles audited", "twins"});
  for (const bool faulty : {false, true}) {
    const Addr n = faulty ? Addr{4096} : Addr{16384};
    for (const bool vx : {false, true}) {
      if (faulty && !vx) continue;
      const WriteAllAlgo algo = vx ? WriteAllAlgo::kCombinedVX
                                   : WriteAllAlgo::kW;
      for (const Mode mode : {kOff, kAudit, kProbe}) {
        const ModeRun r = run_mode(mode, algo, n, faulty);
        if (!r.out.solved) continue;
        table.add_row({std::string(to_string(algo)),
                       faulty ? "random" : "none", fmt_int(n),
                       kModeNames[mode],
                       fmt_int(r.out.run.tally.completed_work),
                       fmt_int(r.out.run.tally.slots),
                       mode == kOff ? std::string("-")
                                    : fmt_int(r.report.cycles_audited),
                       mode == kOff ? std::string("-")
                                    : fmt_int(r.report.twin_cycles)});
      }
    }
  }
  bench::print_table(
      "E16: conformance-audit overhead (off / audit / record+replay probe)",
      table);
}

}  // namespace
}  // namespace rfsp

int main(int argc, char** argv) {
  rfsp::print_report();
  rfsp::register_benches();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
