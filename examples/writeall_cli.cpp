// writeall_cli — run any Write-All algorithm against any adversary from
// the command line; stream the run's events (--trace-out: per-slot S/S'
// and every failure/restart, as JSONL, CSV or binary).
//
// Resilience tooling (docs/resilience.md): --record captures the run's
// fault schedule as a portable JSONL reproducer, --replay re-runs one
// exactly, --pattern-in runs one as an off-line adversary (§5) under the
// flags' own config, --checkpoint/--checkpoint-every/--resume drive engine
// checkpointing (with --crash-at-slot simulating a kill for
// scripts/kill_resume.sh), and --shrink-out minimizes a recorded violation
// before archiving it.
//
// The flags shared with sim_cli (seed, record/replay, checkpoints,
// outputs, audit, memory model) are parsed by examples/cli.hpp. Schedules
// and checkpoints carry the run spec (algo, n, p, seed, max-slots, the
// adversary and the memory model), so `--replay FILE` or `--resume FILE`
// alone re-runs the recorded run; a checkpoint saved under --replay
// resumes with that --replay FILE (docs/resilience.md §3).
//
// Conformance auditing (docs/analysis.md): --audit 1 runs the model-
// conformance auditor over the run (budgets, phase order, write agreement,
// amnesia twins) plus the record/replay obliviousness probe, prints the
// report, and exits 6 on violations; --audit-out FILE saves it as JSONL.
//
// Exit codes: 0 solved, 1 unsolved, 2 usage, 3 model violation,
// 4 adversary violation, 5 other error, 6 audit violations.
//
// Examples:
//   writeall_cli --algo X --n 4096 --p 256 --adversary random --fail 0.1
//   writeall_cli --algo VX --n 1024 --p 1024 --adversary halving
//                --trace-out run.csv
//   writeall_cli --algo X --n 1024 --p 64 --adversary random
//                --record run.schedule.jsonl
//   writeall_cli --replay run.schedule.jsonl
//   writeall_cli --algo X --n 1024 --p 64 --seed 2
//                --pattern-in run.schedule.jsonl
//   writeall_cli --algo VX --n 4096 --p 256 --adversary thrashing
//                --checkpoint ck.rfck --checkpoint-every 64
//   writeall_cli --resume ck.rfck
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analysis/oblivious.hpp"
#include "cli.hpp"
#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "fault/iteration_killer.hpp"
#include "fault/stalkers.hpp"
#include "replay/repro.hpp"
#include "replay/shrink.hpp"
#include "util/table.hpp"
#include "writeall/algv.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"
#include "writeall/runner.hpp"

namespace {

using namespace rfsp;

std::vector<cli::Flag> flags() {
  return cli::RunFlags::table({
      {"algo", "NAME",
       "trivial|sequential|W|V|X|VX|snapshot|ACC (default VX)"},
      {"n", "N", "array size (default 1024)"},
      {"p", "P", "processors (default N)"},
      {"max-slots", "K", "stop unsolved after K slots (engine default)"},
      {"adversary", "NAME",
       "none|random|burst|thrashing|halving|\n"
       "postorder-stalker|leaf-stalker|iteration-killer\n"
       "(default none)"},
      {"fail", "PROB", "random adversary per-slot failure prob (0.05)"},
      {"restart", "PROB", "random adversary restart prob (0.5)"},
      {"burst-period", "K", "burst adversary period (4)"},
      {"burst-count", "K", "burst adversary victims per burst (P/4)"},
      {"pattern-in", "FILE",
       "run a recorded schedule as an off-line adversary\n"
       "under these flags' config (its meta is not\n"
       "applied; moves that no longer apply are skipped)"},
      {"crash-at-slot", "S",
       "simulate a kill at the first checkpoint with\n"
       "slot >= S (the file keeps the previous one)"},
      {"shrink-out", "FILE",
       "on a violation, minimize the recorded schedule\n"
       "and save the reproducer (needs --record)"},
      {"phases", "1", "print the per-phase work breakdown"},
      {"batch", "1",
       "batched SoA backend for ported algorithms\n"
       "(falls back to the interpreter under --audit,\n"
       "task programs, or per-op hooks; bit-identical)"},
  });
}

std::map<std::string, WriteAllAlgo> algo_names() {
  std::map<std::string, WriteAllAlgo> m;
  for (WriteAllAlgo algo : all_writeall_algos()) {
    m.emplace(std::string(to_string(algo)), algo);
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args("usage: writeall_cli [options]\n", flags(), argc, argv);
  cli::RunFlags run(args, cli::RunKind::kWriteAll);
  const std::string algo_name = run.take("algo", "VX");
  const Addr n = run.take_u64("n", "1024", UINT32_MAX);
  const Pid p =
      static_cast<Pid>(run.take_u64("p", std::to_string(n), UINT32_MAX));
  const std::uint64_t seed = run.seed;
  const Slot max_slots =
      run.take_u64("max-slots", std::to_string(Slot{1} << 26));
  const std::string adversary_name = run.take("adversary", "none");
  const double fail = run.take_double("fail", "0.05");
  const double restart = run.take_double("restart", "0.5");
  const Slot burst_period = run.take_u64("burst-period", "4");
  const Pid burst_count = static_cast<Pid>(run.take_u64(
      "burst-count", std::to_string(std::max(1u, p / 4)), UINT32_MAX));
  const std::string pattern_in = run.take_path("pattern-in");
  const Slot crash_at = args.take_u64("crash-at-slot", "0");
  const std::string shrink_out = args.take("shrink-out", "");
  const bool show_phases = args.take_bool("phases", false);
  const bool batch_on = args.take_bool("batch", false);
  args.finish();
  if (crash_at > 0 && run.checkpoint_every == 0) {
    args.usage("--crash-at-slot needs --checkpoint-every");
  }
  if (!shrink_out.empty() && run.record.empty()) {
    args.usage("--shrink-out needs --record");
  }
  if (!pattern_in.empty() && adversary_name != "none") {
    args.usage("--pattern-in is the run's adversary: it excludes "
               "--adversary");
  }

  const auto algos = algo_names();
  const auto algo_it = algos.find(algo_name);
  if (algo_it == algos.end()) args.usage("unknown algorithm " + algo_name);
  const WriteAllAlgo algo = algo_it->second;
  const WriteAllConfig config{.n = n, .p = p, .seed = seed};

  // The stalkers need the X-family layout; derive it where applicable.
  std::unique_ptr<Adversary> adversary;
  try {
    auto x_layout = [&]() -> XLayout {
      if (algo == WriteAllAlgo::kCombinedVX) {
        return CombinedVX(config).layout().x;
      }
      return AlgX(config).layout();
    };
    if (run.replay) {
      adversary = std::make_unique<ReplayAdversary>(*run.replay);
    } else if (!pattern_in.empty()) {
      adversary =
          std::make_unique<ScheduledAdversary>(load_schedule(pattern_in));
    } else if (adversary_name == "none") {
      adversary = std::make_unique<NoFailures>();
    } else if (adversary_name == "random") {
      adversary = std::make_unique<RandomAdversary>(
          seed ^ 0x5eed, RandomAdversaryOptions{.fail_prob = fail,
                                                .restart_prob = restart});
    } else if (adversary_name == "burst") {
      adversary = std::make_unique<BurstAdversary>(
          BurstAdversaryOptions{.period = burst_period, .count = burst_count});
    } else if (adversary_name == "thrashing") {
      adversary = std::make_unique<ThrashingAdversary>();
    } else if (adversary_name == "halving") {
      adversary = std::make_unique<HalvingAdversary>(config.base, n);
    } else if (adversary_name == "postorder-stalker") {
      adversary = std::make_unique<PostOrderStalker>(x_layout());
    } else if (adversary_name == "leaf-stalker") {
      adversary = std::make_unique<LeafStalker>(x_layout());
    } else if (adversary_name == "iteration-killer") {
      const VLayout probe(0, n, n, p, 0);
      adversary = std::make_unique<IterationKiller>(
          algo == WriteAllAlgo::kCombinedVX ? 2 * probe.iteration
                                            : probe.iteration);
    } else {
      args.usage("unknown adversary " + adversary_name);
    }

    // Recording wraps whichever adversary was chosen (replay included, so a
    // replayed run can be re-recorded to a fresh file).
    FaultSchedule recorded;
    Adversary* active = adversary.get();
    std::unique_ptr<RecordingAdversary> recorder;
    if (!run.record.empty()) {
      recorder = std::make_unique<RecordingAdversary>(*adversary, recorded);
      active = recorder.get();
    }

    EngineOptions options;
    options.max_slots = max_slots;
    options.batch = batch_on;
    options.bit_atomic_writes = run.replay && run.replay->has_torn_moves();

    // What the shrinker's probes run: the run spec, read back.
    ReproSpec spec = spec_from_meta(FaultSchedule{.meta = run.spec()});
    spec.bit_atomic_writes = options.bit_atomic_writes;

    // Saves the recorded schedule stamped with its observed outcome; on a
    // violation the offending decision is already in `recorded`.
    const auto dump_recording = [&](ProbeStatus status,
                                    const std::string& note) {
      write_meta(spec, recorded, status, note);
      run.save_recording(recorded, status);
    };

    // The crash check runs *before* the save: the file keeps the previous
    // checkpoint and a resumed run re-executes the gap — exactly the
    // torn-down state scripts/kill_resume.sh exercises.
    std::optional<Slot> saved_slot;
    // --trace-out implies the per-phase table.
    run.report_phases = show_phases || !run.trace_out.empty();
    run.configure(options, [&](const EngineCheckpoint& cp) {
      if (crash_at > 0 && cp.slot >= crash_at) {
        std::cout << "simulated crash at slot " << cp.slot
                  << " (checkpoint on disk: "
                  << (saved_slot ? std::to_string(*saved_slot) : "none")
                  << ")\n";
        std::exit(0);
      }
      saved_slot = cp.slot;
    });

    // Violation path: diagnose, dump the recorded reproducer, optionally
    // shrink it, exit with the class-specific code.
    const auto handle_violation = [&](int exit_code, const char* kind,
                                      const char* what,
                                      const ViolationContext& ctx,
                                      ProbeStatus status) {
      std::cerr << kind << ": " << what << '\n';
      if (ctx.slot >= 0) std::cerr << "  slot: " << ctx.slot << '\n';
      if (ctx.pid >= 0) std::cerr << "  pid:  " << ctx.pid << '\n';
      if (!ctx.move.empty()) std::cerr << "  move: " << ctx.move << '\n';
      dump_recording(status, what);
      if (!shrink_out.empty()) {
        const ShrinkResult shrunk = shrink_schedule(
            recorded,
            [&](const FaultSchedule& s) {
              return probe(spec, s).status == status;
            });
        FaultSchedule minimal = shrunk.schedule;
        write_meta(spec, minimal, status, what);
        save_schedule(minimal, shrink_out);
        std::cout << "minimized " << shrunk.initial_moves << " -> "
                  << shrunk.final_moves << " moves in " << shrunk.probes
                  << " probes; reproducer saved to " << shrink_out << '\n';
      }
      return exit_code;
    };

    WriteAllOutcome out;
    AuditReport audit_report;
    try {
      if (run.audit) {
        AuditedRun audited = audit_writeall(algo, config, *active, options);
        out = std::move(audited.outcome);
        audit_report = std::move(audited.report);
      } else {
        out = run_writeall(algo, config, *active, options,
                           run.resume_checkpoint());
      }
    } catch (const ModelViolation& mv) {
      return handle_violation(3, "model violation", mv.what(), mv.context,
                              ProbeStatus::kModelViolation);
    } catch (const AdversaryViolation& av) {
      return handle_violation(4, "adversary violation", av.what(), av.context,
                              ProbeStatus::kAdversaryViolation);
    }

    if (out.unsolvable) {
      std::cout << "algorithm        " << to_string(algo) << "\n"
                << "N / P            " << n << " / " << p << "\n"
                << "solved           NO (unsolvable: "
                << run.faulty_cells.cells
                << " stuck cells exceed the remap capacity of "
                << (run.faulty_cells.spares == kSparesAuto
                        ? run.faulty_cells.cells
                        : run.faulty_cells.spares)
                << " spares)\n";
      dump_recording(ProbeStatus::kUnsolved, "unsolvable fault density");
      return 1;
    }

    const auto& t = out.run.tally;
    std::cout << "algorithm        " << to_string(algo) << "\n"
              << "N / P            " << n << " / " << p << "\n"
              << "adversary        " << active->name() << "\n"
              << "solved           " << (out.solved ? "yes" : "NO") << "\n"
              << "completed S      " << t.completed_work << "\n"
              << "attempted S'     " << t.attempted_work << "\n"
              << "|F|              " << t.pattern_size() << " ("
              << t.failures << " failures, " << t.restarts << " restarts)\n"
              << "parallel time    " << t.slots << " update cycles\n"
              << "overhead sigma   " << t.overhead_ratio(n) << "\n";
    if (run.memory_model == MemoryModel::kPersistentCache) {
      std::cout << "persists         " << t.persists << " cache flushes\n";
    }

    dump_recording(out.solved ? ProbeStatus::kSolved : ProbeStatus::kUnsolved,
                   "");
    run.write_outputs(t, p);
    const std::optional<PhaseSchedule> schedule =
        run.report_phases ? make_writeall(algo, config)->phase_schedule()
                          : std::nullopt;
    if (schedule) {
      Table table({"phase", "S", "S'", "failures", "restarts", "slots"});
      for (const PhaseWork& phase :
           run.stream()->phase_table(schedule->names)) {
        table.add_row({phase.name, fmt_int(phase.completed_work),
                       fmt_int(phase.attempted_work), fmt_int(phase.failures),
                       fmt_int(phase.restarts), fmt_int(phase.slots)});
      }
      std::cout << "\nper-phase breakdown\n";
      table.print(std::cout);
    }
    if (run.audit && !run.write_audit(audit_report)) return 6;
    return out.solved ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 5;
  }
}
