// E21 — static verifier wall-clock per program (docs/analysis.md
// §"Static verification", docs/api.md §14).
//
// The verifier is a CI gate (the `static-verify` job), so its cost per
// target is a budget the repo lives inside; this bench records it. Rows
// are the gate's own matrix: W/V/X/VX, the snapshot/sequential/trivial
// variants, and one src/programs
// workload (prefix-sum) wrapped in the Theorem 4.1 executor. Every row
// must verify *clean* — a finding is a failed postcondition, not a slow
// run. Timings are the median of 3 runs after one warmup; the exported
// counters carry the coverage numbers (states, configs, paths) that give
// a wall-clock figure its denominator.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/static/verify.hpp"
#include "bench_common.hpp"
#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

// The gate's Write-All shape: small enough to converge un-truncated,
// large enough that the trees have interior structure.
constexpr Addr kN = 8;
constexpr Pid kP = 4;

struct Row {
  std::string name;
  // Builds the target and returns its report; built fresh per run so
  // program construction is part of the measured verifier cost, exactly
  // as verify_cli pays it.
  analysis::StaticReport (*run)();
};

template <WriteAllAlgo Algo>
analysis::StaticReport run_writeall_row() {
  const WriteAllConfig config{
      .n = kN, .p = Algo == WriteAllAlgo::kSequential ? Pid{1} : kP, .seed = 1};
  analysis::VerifyOptions options;
  options.unit_cost_snapshot = Algo == WriteAllAlgo::kSnapshot;
  const std::unique_ptr<WriteAllProgram> program = make_writeall(Algo, config);
  return analysis::verify_program(*program, options);
}

analysis::StaticReport run_sim_row() {
  const PrefixSumProgram inner_program({3, 1, 4, 1});
  const SimLayout layout(inner_program, /*physical=*/3);
  const std::unique_ptr<Program> outer =
      make_simulation_program(inner_program, layout, SimInner::kX);
  analysis::VerifyOptions options;
  options.read_budget = 5;  // the executor's contract (docs/api.md §3)
  // The commit pass's COMMON discipline rests on a cross-cell invariant
  // the per-cell domain cannot express (docs/analysis.md).
  options.check_write_agreement = false;
  options.max_total_paths = std::size_t{1} << 20;
  return analysis::verify_program(*outer, options);
}

std::vector<Row> rows() {
  return {{"W", run_writeall_row<WriteAllAlgo::kW>},
          {"V", run_writeall_row<WriteAllAlgo::kV>},
          {"X", run_writeall_row<WriteAllAlgo::kX>},
          {"VX", run_writeall_row<WriteAllAlgo::kCombinedVX>},
          {"snapshot", run_writeall_row<WriteAllAlgo::kSnapshot>},
          {"sequential", run_writeall_row<WriteAllAlgo::kSequential>},
          {"trivial", run_writeall_row<WriteAllAlgo::kTrivial>},
          {"sim-prefix-sum/X", run_sim_row}};
}

void BM_Verify(benchmark::State& state) {
  const Row row = rows()[static_cast<std::size_t>(state.range(0))];
  analysis::StaticReport report;
  for (auto _ : state) {
    const double secs = bench::median_seconds([&] {
      report = row.run();
      benchmark::DoNotOptimize(report.paths);
    });
    state.SetIterationTime(secs);
  }
  if (!report.ok()) state.SkipWithError("verifier reported findings");
  state.counters["states"] = static_cast<double>(report.states);
  state.counters["configs"] = static_cast<double>(report.configs);
  state.counters["paths"] = static_cast<double>(report.paths);
  state.counters["rounds"] = static_cast<double>(report.rounds);
  state.counters["converged"] = report.converged ? 1.0 : 0.0;
  state.SetLabel(row.name);
}

void register_benches() {
  const std::vector<Row> all = rows();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string name = "E21/" + all[i].name +
                             "/n:" + std::to_string(kN) +
                             "/p:" + std::to_string(kP);
    benchmark::RegisterBenchmark(name.c_str(), BM_Verify)
        ->Args({static_cast<long>(i)})
        ->Iterations(1)
        ->UseManualTime();
  }
}

// Human-readable summary with the clean-report gate: a row that verifies
// with findings (or fails to converge where convergence is expected)
// prints its defect instead of a time.
void print_report() {
  Table table({"target", "states", "configs", "paths", "rounds", "ms"});
  for (const Row& row : rows()) {
    analysis::StaticReport report;
    const double ms =
        1e3 * bench::median_seconds([&] { report = row.run(); });
    std::string status;
    if (!report.ok()) status = "FINDINGS";
    table.add_row({row.name, status.empty() ? fmt_int(report.states) : status,
                   fmt_int(report.configs), fmt_int(report.paths),
                   fmt_int(report.rounds), fmt_fixed(ms, 1)});
  }
  bench::print_table(
      "E21: static verifier wall-clock per program (all rows must be clean)",
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
