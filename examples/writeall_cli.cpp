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
//   writeall_cli --algo VX --n 4096 --p 256 --adversary thrashing
//                --resume ck.rfck
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "analysis/oblivious.hpp"
#include "analysis/static/verify.hpp"
#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "fault/iteration_killer.hpp"
#include "fault/stalkers.hpp"
#include "obs/binary_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay/checkpoint.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "replay/shrink.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "writeall/algv.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"
#include "writeall/runner.hpp"

namespace {

using namespace rfsp;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: writeall_cli [options]\n"
      "  --algo NAME        trivial|sequential|W|V|X|VX|snapshot|ACC "
      "(default VX)\n"
      "  --n N              array size (default 1024)\n"
      "  --p P              processors (default N)\n"
      "  --seed S           seed for randomized pieces (default 1)\n"
      "  --max-slots K      stop unsolved after K slots (engine default)\n"
      "  --adversary NAME   none|random|burst|thrashing|halving|\n"
      "                     postorder-stalker|leaf-stalker|iteration-killer\n"
      "                     (default none)\n"
      "  --fail PROB        random adversary per-slot failure prob (0.05)\n"
      "  --restart PROB     random adversary restart prob (0.5)\n"
      "  --burst-period K   burst adversary period (4)\n"
      "  --burst-count K    burst adversary victims per burst (P/4)\n"
      "  --record FILE      record the fault schedule (JSONL reproducer)\n"
      "  --replay FILE      replay a recorded schedule; its meta supplies\n"
      "                     algo/n/p/seed defaults\n"
      "  --pattern-in FILE  run a recorded schedule as an off-line adversary\n"
      "                     under these flags' config (its meta is not\n"
      "                     applied; moves that no longer apply are skipped)\n"
      "  --checkpoint FILE  save engine checkpoints to FILE (rfsp-checkpoint\n"
      "                     v2: JSON header line, binary body)\n"
      "  --checkpoint-every K  checkpoint cadence in slots (with --checkpoint)\n"
      "  --resume FILE      restore a checkpoint and continue the run\n"
      "  --crash-at-slot S  simulate a kill at the first checkpoint with\n"
      "                     slot >= S (the file keeps the previous one)\n"
      "  --shrink-out FILE  on a violation, minimize the recorded schedule\n"
      "                     and save the reproducer (needs --record)\n"
      "  --trace-out FILE   stream engine events to FILE (format from the\n"
      "                     extension: .csv -> csv, .bin/.rft -> binary,\n"
      "                     else JSONL; see --trace-format)\n"
      "  --trace-format F   force the --trace-out encoding:\n"
      "                     jsonl|binary|csv (binary is the compact\n"
      "                     transport trace_cli reads and converts)\n"
      "  --metrics-out FILE save the run's metrics registry as JSON\n"
      "  --phases 1         print the per-phase work breakdown\n"
      "  --batch 1          batched SoA backend for ported algorithms\n"
      "                     (falls back to the interpreter under --audit,\n"
      "                     task programs, or per-op hooks; bit-identical)\n"
      "  --memory-model M   reliable|faulty-cells|persistent-cache shared-\n"
      "                     memory backend (default reliable; docs/\n"
      "                     fault-models.md). Recorded schedules and\n"
      "                     checkpoints stamp the model — --replay/--resume\n"
      "                     restore it and refuse a contradicting flag\n"
      "  --fault-seed S     faulty-cells: seed of the static stuck-cell set\n"
      "  --fault-cells K    faulty-cells: number of stuck cells (default 0)\n"
      "  --fault-spares K   faulty-cells: spare cells for remapping\n"
      "                     (default = fault-cells, masking every fault;\n"
      "                     fewer than needed => the run is unsolvable)\n"
      "  --persist-every K  persistent-cache: flush each processor's write-\n"
      "                     back cache every K completed cycles (default 1 =\n"
      "                     reliable-equivalent; 0 = only persist()/halt)\n"
      "  --audit 1          run the model-conformance auditor (budgets,\n"
      "                     phase order, write agreement, amnesia twins,\n"
      "                     record/replay obliviousness); exit 6 on findings\n"
      "  --audit-out FILE   save the audit report as JSONL (with --audit)\n"
      "  --static-check 1   statically verify the configured program\n"
      "                     instead of running it (analysis/static/): prove\n"
      "                     budgets, phase order, agreement shape, kernel\n"
      "                     equivalence over every reachable state; print\n"
      "                     the report and exit 0 clean / 6 on findings.\n"
      "                     verify_cli exposes the full option set\n";
  std::exit(2);
}

std::map<std::string, WriteAllAlgo> algo_names() {
  std::map<std::string, WriteAllAlgo> m;
  for (WriteAllAlgo algo : all_writeall_algos()) {
    m.emplace(std::string(to_string(algo)), algo);
  }
  return m;
}

bool schedule_has_torn(const FaultSchedule& s) {
  for (const ScheduleEntry& e : s.entries) {
    if (!e.decision.torn.empty()) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    key = key.substr(2);
    if (i + 1 >= argc) usage("missing value for --" + key);
    args[key] = argv[++i];
  }
  auto take = [&](const std::string& key, const std::string& fallback) {
    const auto it = args.find(key);
    if (it == args.end()) return fallback;
    std::string value = it->second;
    args.erase(it);
    return value;
  };
  // Numeric flags: a malformed or out-of-range value is a usage error.
  auto take_u64 = [&](const std::string& key, const std::string& fallback,
                      std::uint64_t max = UINT64_MAX) {
    try {
      return parse_u64("--" + key, take(key, fallback), max);
    } catch (const ConfigError& e) {
      usage(e.what());
    }
  };
  auto take_double = [&](const std::string& key, const std::string& fallback) {
    try {
      return parse_double("--" + key, take(key, fallback));
    } catch (const ConfigError& e) {
      usage(e.what());
    }
  };

  // Load a replay schedule up front: its meta map supplies algo/n/p/seed
  // defaults, so `writeall_cli --replay repro.jsonl` alone re-runs a
  // self-describing reproducer.
  const std::string replay_file = take("replay", "");
  FaultSchedule replay_schedule;
  bool have_replay = false;
  if (!replay_file.empty()) {
    try {
      replay_schedule = load_schedule(replay_file);
      have_replay = true;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 5;
    }
  }
  auto meta_or = [&](const char* key, std::string fallback) {
    if (have_replay) {
      const auto it = replay_schedule.meta.find(key);
      if (it != replay_schedule.meta.end()) return it->second;
    }
    return fallback;
  };

  const std::string algo_name = take("algo", meta_or("algo", "VX"));
  const Addr n = take_u64("n", meta_or("n", "1024"));
  const Pid p = static_cast<Pid>(
      take_u64("p", meta_or("p", std::to_string(n)), UINT32_MAX));
  const std::uint64_t seed = take_u64("seed", meta_or("seed", "1"));
  const Slot max_slots = take_u64(
      "max-slots", meta_or("max_slots", std::to_string(Slot{1} << 26)));
  // Empty when the flag is absent (no failures): --pattern-in refuses an
  // explicit one.
  const std::string adversary_name = take("adversary", "");
  const double fail = take_double("fail", "0.05");
  const double restart = take_double("restart", "0.5");
  const Slot burst_period = take_u64("burst-period", "4");
  const Pid burst_count = static_cast<Pid>(take_u64(
      "burst-count", std::to_string(std::max(1u, p / 4)), UINT32_MAX));
  const std::string pattern_in = take("pattern-in", "");
  const std::string record_file = take("record", "");
  const std::string checkpoint_file = take("checkpoint", "");
  const Slot checkpoint_every = take_u64("checkpoint-every", "0");
  const std::string resume_file = take("resume", "");
  const Slot crash_at = take_u64("crash-at-slot", "0");
  const std::string shrink_out = take("shrink-out", "");
  const std::string trace_out = take("trace-out", "");
  const std::string trace_format = take("trace-format", "");
  const std::string metrics_out = take("metrics-out", "");
  const bool show_phases = take("phases", "0") != "0";
  const bool batch_on = take("batch", "0") != "0";
  // Memory-model flags start empty: a recorded schedule's or a resumed
  // checkpoint's meta supplies the value, and an explicit flag that
  // contradicts the meta is a usage error.
  std::string memory_model_name = take("memory-model", "");
  std::string fault_seed_s = take("fault-seed", "");
  std::string fault_cells_s = take("fault-cells", "");
  std::string fault_spares_s = take("fault-spares", "");
  std::string persist_every_s = take("persist-every", "");
  const bool audit_on = take("audit", "0") != "0";
  const std::string audit_out = take("audit-out", "");
  const bool static_check = take("static-check", "0") != "0";
  if (!args.empty()) usage("unknown option --" + args.begin()->first);
  if (!audit_out.empty() && !audit_on) usage("--audit-out needs --audit 1");
  if (audit_on && (!resume_file.empty() || !checkpoint_file.empty() ||
                   crash_at > 0)) {
    usage("--audit is incompatible with --resume/--checkpoint/--crash-at-slot "
          "(the audit replays the run from slot 0)");
  }
  if (checkpoint_every > 0 && checkpoint_file.empty()) {
    usage("--checkpoint-every needs --checkpoint FILE");
  }
  if (crash_at > 0 && checkpoint_every == 0) {
    usage("--crash-at-slot needs --checkpoint-every");
  }
  if (!shrink_out.empty() && record_file.empty()) {
    usage("--shrink-out needs --record");
  }
  if (!pattern_in.empty() && (have_replay || !adversary_name.empty())) {
    usage("--pattern-in is the run's adversary: it excludes --replay and "
          "--adversary");
  }

  // Resume checkpoints load before the config is built: the run silently
  // depends on config the flags may not repeat (the memory model), so the
  // checkpoint's meta supplies the default and a contradicting flag is an
  // error rather than a misread run.
  EngineCheckpoint resume_cp;
  const EngineCheckpoint* resume_ptr = nullptr;
  if (!resume_file.empty()) {
    try {
      resume_cp = load_checkpoint(resume_file);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 5;
    }
    resume_ptr = &resume_cp;
  }

  // Reconcile the memory-model flags against the replay schedule's and the
  // resume checkpoint's meta: the meta supplies missing values (the run is
  // semantically tied to its model), a contradicting flag is refused.
  const auto reconcile = [](std::string& value, const char* flag,
                            const std::map<std::string, std::string>& meta,
                            const char* key, const char* source) {
    const auto it = meta.find(key);
    if (it == meta.end()) return;
    if (value.empty()) {
      value = it->second;
    } else if (value != it->second) {
      usage(std::string(source) + " was produced under --" + flag + " " +
            it->second + "; it replays/resumes only under the same value");
    }
  };
  const auto reconcile_all = [&](const std::map<std::string, std::string>& meta,
                                 const char* source) {
    // "tree_order" names the trees' storage order; "heap" is the only one.
    if (const auto it = meta.find("tree_order"); it != meta.end()) {
      try {
        tree_order_from_string(it->second);
      } catch (const ConfigError& e) {
        usage(std::string(source) + ": " + e.what());
      }
    }
    reconcile(memory_model_name, "memory-model", meta, "memory_model", source);
    reconcile(fault_seed_s, "fault-seed", meta, "fault_seed", source);
    reconcile(fault_cells_s, "fault-cells", meta, "fault_cells", source);
    reconcile(fault_spares_s, "fault-spares", meta, "fault_spares", source);
    reconcile(persist_every_s, "persist-every", meta, "persist_every", source);
  };
  if (have_replay) reconcile_all(replay_schedule.meta, "the replay schedule");
  if (resume_ptr != nullptr) reconcile_all(resume_cp.meta, "the checkpoint");

  const auto algos = algo_names();
  const auto algo_it = algos.find(algo_name);
  if (algo_it == algos.end()) usage("unknown algorithm " + algo_name);
  const WriteAllAlgo algo = algo_it->second;
  MemoryModel memory_model = MemoryModel::kReliable;
  FaultyCellsOptions faulty_cells;
  PersistentCacheOptions persistent_cache;
  try {
    if (!memory_model_name.empty()) {
      memory_model = memory_model_from_string(memory_model_name);
    }
    if (!fault_seed_s.empty()) {
      faulty_cells.seed = parse_u64("--fault-seed", fault_seed_s);
    }
    if (!fault_cells_s.empty()) {
      faulty_cells.cells = parse_u64("--fault-cells", fault_cells_s);
    }
    if (!fault_spares_s.empty()) {
      faulty_cells.spares = parse_u64("--fault-spares", fault_spares_s);
    }
    if (!persist_every_s.empty()) {
      persistent_cache.persist_every =
          parse_u64("--persist-every", persist_every_s);
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }
  const WriteAllConfig config{.n = n, .p = p, .seed = seed};

  // --static-check: prove the cycle contract over the program's reachable
  // state space instead of running it. Adversaries are irrelevant here —
  // restarts are modelled by seeding boot states at every slot.
  if (static_check) {
    try {
      analysis::VerifyOptions vopts;
      vopts.unit_cost_snapshot = algo == WriteAllAlgo::kSnapshot;
      const std::unique_ptr<WriteAllProgram> program =
          make_writeall(algo, config);
      const analysis::StaticReport report =
          analysis::verify_program(*program, vopts);
      std::cout << report.to_text();
      return report.ok() ? 0 : 6;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 5;
    }
  }

  // The stalkers need the X-family layout; derive it where applicable.
  std::unique_ptr<Adversary> adversary;
  try {
    auto x_layout = [&]() -> XLayout {
      if (algo == WriteAllAlgo::kCombinedVX) {
        return CombinedVX(config).layout().x;
      }
      return AlgX(config).layout();
    };
    if (have_replay) {
      adversary = std::make_unique<ReplayAdversary>(replay_schedule);
    } else if (!pattern_in.empty()) {
      adversary =
          std::make_unique<ScheduledAdversary>(load_schedule(pattern_in));
    } else if (adversary_name.empty() || adversary_name == "none") {
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
      usage("unknown adversary " + adversary_name);
    }

    // Recording wraps whichever adversary was chosen (replay included, so a
    // replayed run can be re-recorded to a fresh file).
    FaultSchedule recorded;
    Adversary* active = adversary.get();
    std::unique_ptr<RecordingAdversary> recorder;
    if (!record_file.empty()) {
      recorder = std::make_unique<RecordingAdversary>(*adversary, recorded);
      active = recorder.get();
    }

    EngineOptions options;
    options.max_slots = max_slots;
    options.batch = batch_on;
    options.bit_atomic_writes = have_replay && schedule_has_torn(replay_schedule);
    options.memory_model = memory_model;
    options.faulty_cells = faulty_cells;
    options.persistent_cache = persistent_cache;

    ReproSpec spec;
    spec.algo = algo;
    spec.n = n;
    spec.p = p;
    spec.seed = seed;
    spec.max_slots = max_slots;
    spec.bit_atomic_writes = options.bit_atomic_writes;
    spec.memory_model = memory_model;
    spec.faulty_cells = faulty_cells;
    spec.persistent_cache = persistent_cache;

    // Saves the recorded schedule stamped with its observed outcome; on a
    // violation the offending decision is already in `recorded`.
    const auto dump_recording = [&](ProbeStatus status,
                                    const std::string& note) {
      if (record_file.empty()) return;
      write_meta(spec, recorded, status, note);
      save_schedule(recorded, record_file);
      std::cout << "schedule saved to " << record_file << " ("
                << recorded.entries.size() << " slots, "
                << recorded.move_count() << " moves)\n";
    };

    Slot last_saved_slot = 0;
    bool have_saved_checkpoint = false;
    if (checkpoint_every > 0) {
      options.checkpoint_every = checkpoint_every;
      options.on_checkpoint = [&](const EngineCheckpoint& cp) {
        // The crash check runs *before* the save: the file keeps the
        // previous checkpoint and a resumed run re-executes the gap —
        // exactly the torn-down state scripts/kill_resume.sh exercises.
        if (crash_at > 0 && cp.slot >= crash_at) {
          std::cout << "simulated crash at slot " << cp.slot
                    << " (checkpoint on disk: "
                    << (have_saved_checkpoint ? std::to_string(last_saved_slot)
                                              : std::string("none"))
                    << ")\n";
          std::exit(0);
        }
        EngineCheckpoint stamped_cp = cp;
        if (memory_model != MemoryModel::kReliable) {
          stamped_cp.meta["memory_model"] =
              std::string(to_string(memory_model));
        }
        if (memory_model == MemoryModel::kFaultyCells) {
          stamped_cp.meta["fault_seed"] = std::to_string(faulty_cells.seed);
          stamped_cp.meta["fault_cells"] = std::to_string(faulty_cells.cells);
          if (faulty_cells.spares != kSparesAuto) {
            stamped_cp.meta["fault_spares"] =
                std::to_string(faulty_cells.spares);
          }
        }
        if (memory_model == MemoryModel::kPersistentCache) {
          stamped_cp.meta["persist_every"] =
              std::to_string(persistent_cache.persist_every);
        }
        save_checkpoint(stamped_cp, checkpoint_file);
        last_saved_slot = cp.slot;
        have_saved_checkpoint = true;
      };
    }

    std::ofstream event_os;
    std::unique_ptr<TraceSink> sink;
    if (!trace_out.empty()) {
      event_os.open(trace_out, std::ios::binary);
      if (!event_os) usage("cannot write " + trace_out);
      sink = make_trace_sink(event_os, trace_format.empty()
                                           ? trace_format_for_path(trace_out)
                                           : trace_format);
      options.sink = sink.get();
    }
    MetricsRegistry metrics;
    std::ofstream metrics_os;
    if (!metrics_out.empty()) {
      metrics_os.open(metrics_out);
      if (!metrics_os) usage("cannot write " + metrics_out);
      options.metrics = &metrics;
    }
    options.attribute_phases = show_phases;

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
      if (audit_on) {
        AuditedRun audited = audit_writeall(algo, config, *active, options);
        out = std::move(audited.outcome);
        audit_report = std::move(audited.report);
      } else {
        out = run_writeall(algo, config, *active, options, resume_ptr);
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
                << "solved           NO (unsolvable: " << faulty_cells.cells
                << " stuck cells exceed the remap capacity of "
                << (faulty_cells.spares == kSparesAuto
                        ? faulty_cells.cells
                        : faulty_cells.spares)
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
    if (memory_model == MemoryModel::kPersistentCache) {
      std::cout << "persists         " << t.persists << " cache flushes\n";
    }

    dump_recording(out.solved ? ProbeStatus::kSolved : ProbeStatus::kUnsolved,
                   "");
    if (!trace_out.empty()) {
      std::cout << "events saved to  " << trace_out << "\n";
    }
    if (!metrics_out.empty()) {
      metrics.write_json(metrics_os);
      metrics_os << "\n";
      std::cout << "metrics saved to " << metrics_out << "\n";
    }
    if (!out.run.phases.empty()) {
      Table table({"phase", "S", "S'", "failures", "restarts", "slots"});
      for (const PhaseWork& phase : out.run.phases) {
        table.add_row({phase.name, fmt_int(phase.completed_work),
                       fmt_int(phase.attempted_work), fmt_int(phase.failures),
                       fmt_int(phase.restarts), fmt_int(phase.slots)});
      }
      std::cout << "\nper-phase breakdown\n";
      table.print(std::cout);
    }
    if (audit_on) {
      std::cout << '\n' << audit_report.to_text();
      if (!audit_out.empty()) {
        std::ofstream os(audit_out);
        if (!os) usage("cannot write " + audit_out);
        audit_report.write_jsonl(os);
        std::cout << "audit report saved to " << audit_out << "\n";
      }
      if (!audit_report.ok()) return 6;
    }
    return out.solved ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 5;
  }
}
