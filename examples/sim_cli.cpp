// sim_cli — run a simulated PRAM workload on the fault-tolerant machine
// from the command line (the Theorem 4.1 executor), with a choice of
// workload, size, physical processors, embedded Write-All algorithm, and
// failure intensity. Results are verified against the fault-free reference
// execution before reporting. --audit 1 additionally runs the model-
// conformance auditor over the physical machine (docs/analysis.md),
// including the record/replay obliviousness probe, and exits 6 on findings.
//
// The flags shared with writeall_cli are parsed by examples/cli.hpp.
// Schedules and checkpoints carry the run spec (program, n, p, inner, seed,
// fail, restart, the memory model), so `--replay FILE` or `--resume FILE`
// alone re-runs the recorded machine; a checkpoint saved under --replay
// resumes with that --replay FILE (docs/resilience.md §3).
//
// Examples:
//   sim_cli --program prefix-sum --n 1024 --p 64 --fail 0.1
//   sim_cli --program bitonic-sort --n 256 --p 32 --inner X
//   sim_cli --program leader-elect --n 64 --p 16      (ARBITRARY CRCW)
//   sim_cli --program sort-scan --n 128 --p 32        (chained pipeline)
#include <iostream>
#include <memory>
#include <string>

#include "analysis/oblivious.hpp"
#include "cli.hpp"
#include "fault/adversaries.hpp"
#include "sim/discipline.hpp"
#include "sim/simulator.hpp"
#include "sim_workloads.hpp"
#include "util/bits.hpp"

namespace {

using namespace rfsp;

std::vector<cli::Flag> flags() {
  return cli::RunFlags::table({
      {"program", "NAME",
       "prefix-sum|max-reduce|list-ranking|\n"
       "odd-even-sort|bitonic-sort|stencil|matmul|\n"
       "leader-elect|components|sort-scan\n"
       "(default prefix-sum)"},
      {"n", "N",
       "simulated size, at least 1 (default 256;\n"
       "bitonic-sort needs a power of two, matmul\n"
       "a square, stencil at least 3)"},
      {"p", "P", "physical processors (default N/8+1)"},
      {"inner", "NAME", "VX|X|V embedded Write-All (default VX)"},
      {"fail", "PROB", "per-slot failure probability (default 0.05)"},
      {"restart", "PROB", "per-slot restart probability (default 0.5)"},
  });
}

// The simulated size each workload accepts; anything else is a usage error
// caught before the workload is built (make_sim_workload would round it).
// Unknown names are refused after the flags are parsed.
void check_size(const cli::Args& args, const std::string& program, Addr n) {
  if (n < 1) args.usage("--n must be at least 1");
  if (program == "bitonic-sort" && !is_pow2(n)) {
    args.usage("bitonic-sort needs --n a power of two, not " + std::to_string(n));
  }
  if (program == "stencil" && n < 3) {
    args.usage("stencil needs --n at least 3 (interior cells)");
  }
  if (program == "matmul") {
    const Addr m = cli::matmul_side(n);
    if (m * m != n) {
      args.usage("matmul needs --n a square (m*m), not " + std::to_string(n));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args("usage: sim_cli [options]\n", flags(), argc, argv);
  cli::RunFlags run(args, cli::RunKind::kSimulation);
  const std::string name = run.take("program", "prefix-sum");
  const Addr n = run.take_u64("n", "256", UINT32_MAX);
  check_size(args, name, n);
  const Pid p = static_cast<Pid>(
      run.take_u64("p", std::to_string(n / 8 + 1), UINT32_MAX));
  const std::string inner_name = run.take("inner", "VX");
  const double fail = run.take_double("fail", "0.05");
  const double restart = run.take_double("restart", "0.5");
  const std::uint64_t seed = run.seed;
  args.finish();

  SimInner inner = SimInner::kCombinedVX;
  if (inner_name == "X") inner = SimInner::kX;
  else if (inner_name == "V") inner = SimInner::kV;
  else if (inner_name != "VX") args.usage("unknown inner " + inner_name);
  if (!cli::is_sim_workload(name)) args.usage("unknown program " + name);

  try {
    const cli::SimWorkload workload = cli::make_sim_workload(name, n, seed);
    const SimProgram& program = *workload.program;

    const DisciplineReport discipline =
        check_discipline(program, program.discipline());
    std::cout << "program          " << program.name() << " (N="
              << program.processors() << ", " << program.steps()
              << " steps)\n"
              << "discipline check " << (discipline.ok ? "ok" : "VIOLATION")
              << '\n';
    if (!discipline.ok) return 1;

    std::unique_ptr<Adversary> adversary;
    if (run.replay) {
      adversary = std::make_unique<ReplayAdversary>(*run.replay);
    } else if (fail <= 0) {
      adversary = std::make_unique<NoFailures>();
    } else {
      adversary = std::make_unique<RandomAdversary>(
          seed ^ 0xadde, RandomAdversaryOptions{.fail_prob = fail,
                                                 .restart_prob = restart});
    }

    FaultSchedule recorded;
    Adversary* active = adversary.get();
    std::unique_ptr<RecordingAdversary> recorder;
    if (!run.record.empty()) {
      recorder = std::make_unique<RecordingAdversary>(*adversary, recorded);
      active = recorder.get();
    }

    SimOptions sim_options{.physical_processors = p, .inner = inner};
    run.configure(sim_options.engine);
    sim_options.resume = run.resume_checkpoint();
    SimResult r;
    AuditReport audit_report;
    if (run.audit) {
      AuditedSimRun audited =
          audit_simulation(program, *active, sim_options);
      r = std::move(audited.result);
      audit_report = std::move(audited.report);
    } else {
      r = simulate(program, *active, sim_options);
    }
    const bool correct = r.completed && workload.correct(r.memory);
    const auto& t = r.tally;
    std::cout << "physical P       " << p << " (inner " << inner_name
              << ")\n"
              << "completed        " << (r.completed ? "yes" : "NO") << '\n'
              << "matches fault-free reference: "
              << (correct ? "yes" : "NO") << '\n'
              << "completed work S " << t.completed_work << '\n'
              << "|F|              " << t.pattern_size() << '\n'
              << "parallel time    " << t.slots << " update cycles\n"
              << "overhead sigma   "
              << t.overhead_ratio(program.processors()) << '\n';
    run.save_recording(recorded, correct ? ProbeStatus::kSolved
                                         : ProbeStatus::kUnsolved);
    run.write_outputs(t, SimLayout(program, p).p);
    if (run.audit && !run.write_audit(audit_report)) return 6;
    return correct ? 0 : 1;
  } catch (const ModelViolation& mv) {
    std::cerr << "model violation: " << mv.what() << '\n';
    return 3;
  } catch (const AdversaryViolation& av) {
    std::cerr << "adversary violation: " << av.what() << '\n';
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 5;
  }
}
