// sim_cli — run a simulated PRAM workload on the fault-tolerant machine
// from the command line (the Theorem 4.1 executor), with a choice of
// workload, size, physical processors, embedded Write-All algorithm, and
// failure intensity. Results are verified against the fault-free reference
// execution before reporting. --audit 1 additionally runs the model-
// conformance auditor over the physical machine (docs/analysis.md),
// including the record/replay obliviousness probe, and exits 6 on findings.
//
// Examples:
//   sim_cli --program prefix-sum --n 1024 --p 64 --fail 0.1
//   sim_cli --program bitonic-sort --n 256 --p 32 --inner X
//   sim_cli --program leader-elect --n 64 --p 16      (ARBITRARY CRCW)
//   sim_cli --program sort-scan --n 128 --p 32        (chained pipeline)
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "analysis/oblivious.hpp"
#include "analysis/static/verify.hpp"
#include "fault/adversaries.hpp"
#include "obs/binary_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "programs/chain.hpp"
#include "programs/programs.hpp"
#include "replay/checkpoint.hpp"
#include "replay/schedule.hpp"
#include "sim/discipline.hpp"
#include "sim/simulator.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace rfsp;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: sim_cli [options]\n"
               "  --program NAME  prefix-sum|max-reduce|list-ranking|\n"
               "                  odd-even-sort|bitonic-sort|stencil|matmul|\n"
               "                  leader-elect|components|sort-scan\n"
               "                  (default prefix-sum)\n"
               "  --n N           simulated size, at least 1 (default 256;\n"
               "                  bitonic-sort needs a power of two, matmul\n"
               "                  a square, stencil at least 3)\n"
               "  --p P           physical processors (default N/8+1)\n"
               "  --inner NAME    VX|X|V embedded Write-All (default VX)\n"
               "  --fail PROB     per-slot failure probability (default 0.05)\n"
               "  --restart PROB  per-slot restart probability (default 0.5)\n"
               "  --seed S        seed (default 1)\n"
               "  --record F      record the fault schedule (JSONL)\n"
               "  --replay F      replay a recorded schedule instead of the\n"
               "                  random adversary\n"
               "  --checkpoint F  save engine checkpoints to F (format\n"
               "                  rfsp-checkpoint v2: JSON header line,\n"
               "                  binary body)\n"
               "  --checkpoint-every K  checkpoint cadence in slots\n"
               "  --resume F      restore a checkpoint and continue\n"
               "  --trace-out F   stream engine events to F (format from the\n"
               "                  extension: .csv -> csv, .bin/.rft -> binary,\n"
               "                  else JSONL)\n"
               "  --trace-format F  force the --trace-out encoding:\n"
               "                  jsonl|binary|csv\n"
               "  --metrics-out F save the run's metrics registry as JSON\n"
               "  --audit 1       run the model-conformance auditor on the\n"
               "                  physical machine; exit 6 on findings\n"
               "  --audit-out F   save the audit report as JSONL\n"
               "  --static-check 1  statically verify the executor that\n"
               "                  embeds this workload instead of running\n"
               "                  it (analysis/static/; exit 0 clean, 6 on\n"
               "                  findings); verify_cli has the full flags\n"
               "  --memory-model M  reliable|faulty-cells|persistent-cache\n"
               "                  backend of the physical machine's shared\n"
               "                  memory (default reliable); checkpoints\n"
               "                  stamp the model and --resume refuses a\n"
               "                  contradicting flag\n"
               "  --fault-seed S  faulty-cells: stuck-cell seed\n"
               "  --fault-cells K faulty-cells: number of stuck cells\n"
               "  --fault-spares K  faulty-cells: remap spares (default =\n"
               "                  fault-cells)\n"
               "  --persist-every K  persistent-cache: flush cadence in\n"
               "                  completed cycles (default 1; 0 = explicit)\n";
  std::exit(2);
}

std::vector<Word> random_values(std::size_t n, std::uint64_t seed,
                                Word bound) {
  Rng rng(seed);
  std::vector<Word> v(n);
  for (auto& w : v) w = static_cast<Word>(rng.below(bound));
  return v;
}

// The simulated size each workload accepts; anything else is a usage error
// caught before the workload is built. Unknown names are left to the
// workload switch below.
void check_size(const std::string& program, Addr n) {
  if (n < 1) usage("--n must be at least 1");
  if (program == "bitonic-sort" && !is_pow2(n)) {
    usage("bitonic-sort needs --n a power of two, not " + std::to_string(n));
  }
  if (program == "stencil" && n < 3) {
    usage("stencil needs --n at least 3 (interior cells)");
  }
  if (program == "matmul") {
    Addr m = 1;
    while ((m + 1) * (m + 1) <= n) ++m;
    if (m * m != n) {
      usage("matmul needs --n a square (m*m), not " + std::to_string(n));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[++i];
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

  const std::string name = take("program", "prefix-sum");
  const Addr n = take_u64("n", "256", UINT32_MAX);
  check_size(name, n);
  const Pid p =
      static_cast<Pid>(take_u64("p", std::to_string(n / 8 + 1), UINT32_MAX));
  const std::string inner_name = take("inner", "VX");
  const double fail = take_double("fail", "0.05");
  const double restart = take_double("restart", "0.5");
  const std::uint64_t seed = take_u64("seed", "1");
  const std::string record_file = take("record", "");
  const std::string replay_file = take("replay", "");
  const std::string checkpoint_file = take("checkpoint", "");
  const Slot checkpoint_every = take_u64("checkpoint-every", "0");
  const std::string resume_file = take("resume", "");
  const std::string trace_out = take("trace-out", "");
  const std::string trace_format = take("trace-format", "");
  const std::string metrics_out = take("metrics-out", "");
  const bool audit_on = take("audit", "0") != "0";
  const std::string audit_out = take("audit-out", "");
  const bool static_check = take("static-check", "0") != "0";
  std::string memory_model_name = take("memory-model", "");
  std::string fault_seed_s = take("fault-seed", "");
  std::string fault_cells_s = take("fault-cells", "");
  std::string fault_spares_s = take("fault-spares", "");
  std::string persist_every_s = take("persist-every", "");
  if (!args.empty()) usage("unknown option --" + args.begin()->first);
  if (checkpoint_every > 0 && checkpoint_file.empty()) {
    usage("--checkpoint-every needs --checkpoint FILE");
  }
  if (!audit_out.empty() && !audit_on) usage("--audit-out needs --audit 1");
  if (audit_on && (!resume_file.empty() || !checkpoint_file.empty())) {
    usage("--audit is incompatible with --resume/--checkpoint "
          "(the audit replays the run from slot 0)");
  }

  SimInner inner = SimInner::kCombinedVX;
  if (inner_name == "X") inner = SimInner::kX;
  else if (inner_name == "V") inner = SimInner::kV;
  else if (inner_name != "VX") usage("unknown inner " + inner_name);

  // Resume checkpoints load before the config is built: the checkpoint's
  // meta supplies the memory-model defaults, and a contradicting flag is an
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
    const auto meta_default = [&](std::string& value, const char* flag,
                                  const char* key) {
      const auto it = resume_cp.meta.find(key);
      if (it == resume_cp.meta.end()) return;
      if (value.empty()) {
        value = it->second;
      } else if (value != it->second) {
        usage("checkpoint was taken under --" + std::string(flag) + " " +
              it->second + "; it resumes only under the same value");
      }
    };
    // "tree_order" names the trees' storage order; "heap" is the only one.
    if (const auto it = resume_cp.meta.find("tree_order");
        it != resume_cp.meta.end()) {
      try {
        tree_order_from_string(it->second);
      } catch (const ConfigError& e) {
        usage(std::string("the checkpoint: ") + e.what());
      }
    }
    meta_default(memory_model_name, "memory-model", "memory_model");
    meta_default(fault_seed_s, "fault-seed", "fault_seed");
    meta_default(fault_cells_s, "fault-cells", "fault_cells");
    meta_default(fault_spares_s, "fault-spares", "fault_spares");
    meta_default(persist_every_s, "persist-every", "persist_every");
  }
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

  try {
    // Assemble the requested workload. `verifier` defaults to comparison
    // against the fault-free reference; ARBITRARY programs override it
    // (their legal outcomes form a set, not a single image).
    std::unique_ptr<SimProgram> owned_a, owned_b;
    std::unique_ptr<SimProgram> program;
    std::function<bool(const std::vector<Word>&)> verifier;
    if (name == "prefix-sum") {
      program = std::make_unique<PrefixSumProgram>(random_values(n, seed, 1000));
    } else if (name == "max-reduce") {
      program = std::make_unique<MaxReduceProgram>(random_values(n, seed, 1u << 20));
    } else if (name == "list-ranking") {
      std::vector<Pid> next(n);
      for (Pid j = 0; j + 1 < next.size(); ++j) next[j] = j + 1;
      next.back() = static_cast<Pid>(next.size() - 1);
      program = std::make_unique<ListRankingProgram>(next);
    } else if (name == "odd-even-sort") {
      program = std::make_unique<OddEvenSortProgram>(random_values(n, seed, 10000));
    } else if (name == "bitonic-sort") {
      program = std::make_unique<BitonicSortProgram>(random_values(n, seed, 10000));
    } else if (name == "stencil") {
      std::vector<Word> rod(n, 0);
      rod.front() = 1000;
      program = std::make_unique<StencilProgram>(rod, n / 2 + 4);
    } else if (name == "matmul") {
      Addr m = 1;
      while ((m + 1) * (m + 1) <= n) ++m;
      program = std::make_unique<MatMulProgram>(
          random_values(m * m, seed, 10), random_values(m * m, seed + 1, 10),
          static_cast<Pid>(m));
    } else if (name == "components") {
      // A random graph with ~n vertices and ~1.2n edges.
      Rng rng(seed + 17);
      std::vector<std::pair<Pid, Pid>> edges;
      for (Addr e = 0; e < n + n / 5; ++e) {
        edges.emplace_back(static_cast<Pid>(rng.below(n)),
                           static_cast<Pid>(rng.below(n)));
      }
      auto cc = std::make_unique<ConnectedComponentsProgram>(
          static_cast<Pid>(n), std::move(edges));
      const ConnectedComponentsProgram* raw = cc.get();
      verifier = [raw](const std::vector<Word>& memory) {
        return raw->verify(memory);
      };
      program = std::move(cc);
    } else if (name == "leader-elect") {
      auto leader = std::make_unique<LeaderElectProgram>(static_cast<Pid>(n));
      const LeaderElectProgram* raw = leader.get();
      verifier = [raw](const std::vector<Word>& memory) {
        return raw->verify(memory);
      };
      program = std::move(leader);
    } else if (name == "sort-scan") {
      const auto keys = random_values(n, seed, 1000);
      owned_a = std::make_unique<OddEvenSortProgram>(keys);
      owned_b = std::make_unique<PrefixSumProgram>(keys);
      program = std::make_unique<ChainedProgram>(*owned_a, *owned_b);
    } else {
      usage("unknown program " + name);
    }

    // --static-check: statically verify the Theorem 4.1 executor that
    // embeds this workload, instead of running it. The executor's machine
    // runs 5-read update cycles; its commit pass's COMMON discipline rests
    // on a cross-task invariant (all scratch logs derive from one simulated
    // step) outside the per-cell abstract domain, so the agreement shape
    // check is left to the dynamic auditor here (docs/analysis.md).
    if (static_check) {
      const SimLayout layout(*program, p);
      const std::unique_ptr<Program> outer =
          make_simulation_program(*program, layout, inner);
      analysis::VerifyOptions vopts;
      vopts.read_budget = 5;
      vopts.check_write_agreement = false;
      const analysis::StaticReport report =
          analysis::verify_program(*outer, vopts);
      std::cout << report.to_text();
      return report.ok() ? 0 : 6;
    }

    const DisciplineReport discipline =
        check_discipline(*program, program->discipline());
    std::cout << "program          " << program->name() << " (N="
              << program->processors() << ", " << program->steps()
              << " steps)\n"
              << "discipline check " << (discipline.ok ? "ok" : "VIOLATION")
              << '\n';
    if (!discipline.ok) return 1;

    std::unique_ptr<Adversary> adversary;
    if (!replay_file.empty()) {
      adversary = std::make_unique<ReplayAdversary>(load_schedule(replay_file));
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
    if (!record_file.empty()) {
      recorder = std::make_unique<RecordingAdversary>(*adversary, recorded);
      active = recorder.get();
    }

    std::ofstream event_os;
    std::unique_ptr<TraceSink> sink;
    if (!trace_out.empty()) {
      event_os.open(trace_out, std::ios::binary);
      if (!event_os) usage("cannot write " + trace_out);
      sink = make_trace_sink(event_os, trace_format.empty()
                                           ? trace_format_for_path(trace_out)
                                           : trace_format);
    }
    MetricsRegistry metrics;
    std::ofstream metrics_os;

    SimOptions sim_options{.physical_processors = p, .inner = inner};
    EngineOptions& engine = sim_options.engine;
    engine.memory_model = memory_model;
    engine.faulty_cells = faulty_cells;
    engine.persistent_cache = persistent_cache;
    engine.sink = sink.get();
    if (!metrics_out.empty()) {
      metrics_os.open(metrics_out);
      if (!metrics_os) usage("cannot write " + metrics_out);
      engine.metrics = &metrics;
    }
    if (checkpoint_every > 0) {
      engine.checkpoint_every = checkpoint_every;
      engine.on_checkpoint = [&](const EngineCheckpoint& cp) {
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
      };
    }
    sim_options.resume = resume_ptr;
    SimResult r;
    AuditReport audit_report;
    if (audit_on) {
      AuditedSimRun audited =
          audit_simulation(*program, *active, sim_options);
      r = std::move(audited.result);
      audit_report = std::move(audited.report);
    } else {
      r = simulate(*program, *active, sim_options);
    }
    const bool correct =
        r.completed && (verifier ? verifier(r.memory)
                                 : r.memory == reference_run(*program));
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
              << t.overhead_ratio(program->processors()) << '\n';
    if (!record_file.empty()) {
      recorded.meta["kind"] = "simulation";
      recorded.meta["program"] = name;
      recorded.meta["n"] = std::to_string(n);
      recorded.meta["p"] = std::to_string(p);
      recorded.meta["inner"] = inner_name;
      recorded.meta["seed"] = std::to_string(seed);
      if (memory_model != MemoryModel::kReliable) {
        recorded.meta["memory_model"] = std::string(to_string(memory_model));
      }
      if (memory_model == MemoryModel::kFaultyCells) {
        recorded.meta["fault_seed"] = std::to_string(faulty_cells.seed);
        recorded.meta["fault_cells"] = std::to_string(faulty_cells.cells);
        if (faulty_cells.spares != kSparesAuto) {
          recorded.meta["fault_spares"] = std::to_string(faulty_cells.spares);
        }
      }
      if (memory_model == MemoryModel::kPersistentCache) {
        recorded.meta["persist_every"] =
            std::to_string(persistent_cache.persist_every);
      }
      recorded.meta["status"] = correct ? "solved" : "unsolved";
      save_schedule(recorded, record_file);
      std::cout << "schedule saved to " << record_file << " ("
                << recorded.entries.size() << " slots)\n";
    }
    if (!trace_out.empty()) {
      std::cout << "events saved to  " << trace_out << '\n';
    }
    if (!metrics_out.empty()) {
      metrics.write_json(metrics_os);
      metrics_os << "\n";
      std::cout << "metrics saved to " << metrics_out << '\n';
    }
    if (audit_on) {
      std::cout << '\n' << audit_report.to_text();
      if (!audit_out.empty()) {
        std::ofstream os(audit_out);
        if (!os) usage("cannot write " + audit_out);
        audit_report.write_jsonl(os);
        std::cout << "audit report saved to " << audit_out << '\n';
      }
      if (!audit_report.ok()) return 6;
    }
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
