// verify_cli — static conformance verification from the command line
// (docs/analysis.md §"Static verification"). Where writeall_cli --audit
// watches one run, verify_cli proves the §2.1 cycle contract over every
// reachable private state of the chosen programs without running them:
// budgets, phase order, obliviousness claims, COMMON/WEAK write-agreement
// shape, interpreter/kernel bit-equivalence, bounds, and halt
// reachability (analysis/static/verify.hpp).
//
// Two target families, freely combined:
//   --algo  LIST   Write-All algorithms (the §3–4 programs);
//   --sim   LIST   simulated workloads from src/programs/, verified as the
//                  Theorem 4.1 executor that embeds them (5-read cycles).
//
// Exit codes: 0 every report clean, 2 usage, 5 error, 6 findings.
//
// Examples:
//   verify_cli                                    (W,V,X,VX)
//   verify_cli --algo X --n 16 --p 8
//   verify_cli --algo all --report-out static.jsonl
//   verify_cli --sim all --sim-n 4 --sim-p 3
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static/verify.hpp"
#include "cli.hpp"
#include "sim/simulator.hpp"
#include "sim_workloads.hpp"
#include "writeall/runner.hpp"

namespace {

using namespace rfsp;

const std::vector<cli::Flag> kFlags = {
    {"algo", "LIST",
     "comma list of Write-All algorithms to verify:\n"
     "trivial|sequential|W|V|X|VX|snapshot|ACC|all\n"
     "(default W,V,X,VX; 'all' is every algorithm)"},
    {"n", "N", "Write-All array size (default 8)"},
    {"p", "P", "processors (default 4)"},
    {"seed", "S", "seed for randomized pieces (default 1)"},
    {"sim", "LIST",
     "also verify the Theorem 4.1 executor embedding\n"
     "these src/programs/ workloads: prefix-sum|\n"
     "max-reduce|list-ranking|odd-even-sort|bitonic-sort|\n"
     "stencil|matmul|leader-elect|components|sort-scan|\n"
     "all (default none; the executor runs 5-read cycles\n"
     "so the verified read budget is 5 there)"},
    {"sim-n", "N", "simulated size for --sim (default 4)"},
    {"sim-p", "P", "physical processors for --sim (default 3)"},
    {"inner", "NAME", "VX|X|V executor's embedded Write-All (default VX)"},
    {"slots", "K", "explored slot horizon (default 48)"},
    {"rounds", "K", "feedback-widening round cap (default 10)"},
    {"max-states", "K", "interned-state cap (default 32768)"},
    {"max-paths", "K", "total path cap (default 4194304)"},
    {"arbitrary", "0|1",
     "include the arbitrary-garbage read value\n(default 1)"},
    {"kernels", "0|1", "interpreter/kernel bit-equivalence (default 1)"},
    {"agreement", "0|1",
     "write-agreement shape check (default 1 for --algo\n"
     "targets, 0 for --sim: the executor's commit pass\n"
     "is COMMON only through a cross-task invariant the\n"
     "per-cell domain cannot carry; see docs/analysis.md)"},
    {"halt-check", "0|1", "require a reachable halting cycle (default 1)"},
    {"report-out", "F", "append every report as JSONL to F"},
    {"quiet", "1",
     "one summary line per target instead of the full\n"
     "report (findings always print in full)"},
};

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args("usage: verify_cli [options]\n", kFlags, argc, argv);
  const std::string sim_list = args.take("sim", "");
  const std::string algo_list =
      args.take("algo", sim_list.empty() ? "W,V,X,VX" : "");
  const Addr n = args.take_u64("n", "8");
  const Pid p = static_cast<Pid>(args.take_u64("p", "4", UINT32_MAX));
  const std::uint64_t seed = args.take_u64("seed", "1");
  const Addr sim_n = args.take_u64("sim-n", "4", UINT32_MAX);
  const Pid sim_p = static_cast<Pid>(args.take_u64("sim-p", "3", UINT32_MAX));
  const std::string inner_name = args.take("inner", "VX");
  const Slot slots = args.take_u64("slots", "48");
  const std::size_t rounds = args.take_u64("rounds", "10");
  const std::size_t max_states = args.take_u64("max-states", "32768");
  const std::size_t max_paths = args.take_u64("max-paths", "4194304");
  const bool arbitrary = args.take_bool("arbitrary", true);
  const bool kernels = args.take_bool("kernels", true);
  const std::string agreement_s = args.take("agreement", "");
  const bool halt_check = args.take_bool("halt-check", true);
  const std::string report_out = args.take("report-out", "");
  const bool quiet = args.take_bool("quiet", false);
  args.finish();
  if (sim_n < 1) args.usage("--sim-n must be at least 1");

  SimInner inner = SimInner::kCombinedVX;
  if (inner_name == "X") inner = SimInner::kX;
  else if (inner_name == "V") inner = SimInner::kV;
  else if (inner_name != "VX") args.usage("unknown inner " + inner_name);

  std::map<std::string, WriteAllAlgo> algo_by_name;
  for (const WriteAllAlgo algo : all_writeall_algos()) {
    algo_by_name.emplace(std::string(to_string(algo)), algo);
  }
  std::vector<WriteAllAlgo> algos;
  for (const std::string& name : split_list(algo_list)) {
    if (name == "all") {
      algos = all_writeall_algos();
      break;
    }
    const auto it = algo_by_name.find(name);
    if (it == algo_by_name.end()) args.usage("unknown algorithm " + name);
    algos.push_back(it->second);
  }
  std::vector<std::string> sims;
  for (const std::string& name : split_list(sim_list)) {
    if (name == "all") {
      sims = cli::sim_workload_names();
      break;
    }
    if (!cli::is_sim_workload(name)) args.usage("unknown sim program " + name);
    sims.push_back(name);
  }
  if (algos.empty() && sims.empty()) args.usage("nothing to verify");

  std::ofstream report_stream;
  if (!report_out.empty()) {
    report_stream.open(report_out);
    if (!report_stream) args.usage("cannot open " + report_out);
  }

  auto base_options = [&] {
    analysis::VerifyOptions options;
    options.slots = slots;
    options.max_rounds = rounds;
    options.max_states = max_states;
    options.max_total_paths = max_paths;
    options.arbitrary_reads = arbitrary;
    options.check_kernels = kernels;
    options.check_halt_reachability = halt_check;
    return options;
  };

  std::uint64_t total_findings = 0;
  bool any_error = false;
  auto report_one = [&](const std::string& title, const Program& program,
                        analysis::VerifyOptions options) {
    try {
      const analysis::StaticReport report =
          analysis::verify_program(program, options);
      total_findings += report.total();
      if (!quiet || !report.ok()) {
        std::cout << "== " << title << " ==\n" << report.to_text();
      } else {
        std::cout << "== " << title << " == clean ("
                  << report.states << " states, " << report.paths
                  << " paths" << (report.truncated ? ", truncated" : "")
                  << ")\n";
      }
      if (report_stream.is_open()) {
        report_stream << "{\"e\":\"static-target\",\"target\":\"" << title
                      << "\"}\n";
        report.write_jsonl(report_stream);
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << title << ": " << e.what() << '\n';
      any_error = true;
    }
  };

  for (const WriteAllAlgo algo : algos) {
    analysis::VerifyOptions options = base_options();
    if (algo == WriteAllAlgo::kSnapshot) options.unit_cost_snapshot = true;
    if (!agreement_s.empty()) {
      options.check_write_agreement = agreement_s != "0";
    }
    const Pid algo_p = algo == WriteAllAlgo::kSequential ? Pid{1} : p;
    const WriteAllConfig config{.n = n, .p = algo_p, .seed = seed};
    std::unique_ptr<WriteAllProgram> program;
    try {
      program = make_writeall(algo, config);
    } catch (const std::exception& e) {
      std::cerr << "error: " << to_string(algo) << ": " << e.what() << '\n';
      any_error = true;
      continue;
    }
    std::ostringstream title;
    title << to_string(algo) << " n=" << n << " p=" << algo_p;
    report_one(title.str(), *program, options);
  }

  // The workload, its layout and the executor are built inside the
  // target's try, so a size the executor refuses (e.g. P > N) is this
  // target's error, not an abort.
  for (const std::string& name : sims) {
    analysis::VerifyOptions options = base_options();
    // The executor's machine runs 5-read update cycles (simulator.hpp).
    options.read_budget = 5;
    // The commit pass's COMMON discipline rests on a cross-task invariant
    // (all scratch logs derive from the same simulated step) that the
    // per-cell abstract domain cannot express; checking the shape anyway
    // would report spurious disagreements. Off unless forced.
    options.check_write_agreement =
        !agreement_s.empty() && agreement_s != "0";
    try {
      const cli::SimWorkload workload =
          cli::make_sim_workload(name, sim_n, seed);
      const SimLayout layout(*workload.program, sim_p);
      const std::unique_ptr<Program> program =
          make_simulation_program(*workload.program, layout, inner);
      std::ostringstream title;
      title << "sim:" << name << " n=" << sim_n << " p=" << sim_p
            << " inner=" << inner_name;
      report_one(title.str(), *program, options);
    } catch (const std::exception& e) {
      std::cerr << "error: " << name << ": " << e.what() << '\n';
      any_error = true;
    }
  }

  if (any_error) return 5;
  return total_findings == 0 ? 0 : 6;
}
