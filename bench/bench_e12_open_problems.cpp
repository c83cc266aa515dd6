// E12 — probes for the paper's §5 open problems (extensions, not claims).
//
//  (a) "Upper bounds without restarts: what is the worst case completed
//      work of algorithm X in the case of fail-stop errors without
//      restarts?" The paper conjectures S = O(N log N log log N) and
//      reports the [KS 89]-adversary value O(N log N log log N / logloglog)
//      — we probe with the crash-only halving adversary and report the
//      empirical exponent (it should sit just above 1: N·polylog, far
//      below the restartable Ω(N^{1.585}) worst case).
//  (b) Update-cycle parameters: "what is the minimum number of reads and
//      writes sufficient for efficient solutions?" We sweep the engine's
//      read budget below the default 4 and report which algorithms still
//      fit (a structural probe: X's contested-node cycle needs 4 reads; V
//      fits in 3).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

void print_no_restart_x() {
  Table table({"N", "S (crash-only halving)", "S/(N*log2N)",
               "exponent vs prev", "S with restarts (same adversary family)"});
  double prev_s = 0;
  Addr prev_n = 0;
  for (Addr n : {Addr{256}, Addr{1024}, Addr{4096}, Addr{16384}}) {
    HalvingAdversary crash(0, n, {.revive = false});
    const auto out = run_writeall(
        WriteAllAlgo::kX, {.n = n, .p = static_cast<Pid>(n), .seed = 1},
        crash);
    if (!out.solved) continue;
    const double s = static_cast<double>(out.run.tally.completed_work);

    HalvingAdversary revive(0, n);
    const auto with_restarts = run_writeall(
        WriteAllAlgo::kX, {.n = n, .p = static_cast<Pid>(n), .seed = 1},
        revive);

    std::string exponent = "-";
    if (prev_n != 0) {
      exponent = fmt_fixed(
          std::log(s / prev_s) / std::log(double(n) / double(prev_n)), 3);
    }
    table.add_row({fmt_int(n), fmt_int(static_cast<std::uint64_t>(s)),
                   fmt_fixed(s / (double(n) * floor_log2(n)), 3), exponent,
                   fmt_int(with_restarts.run.tally.completed_work)});
    prev_s = s;
    prev_n = n;
  }
  bench::print_table(
      "E12a: §5 open problem — X under fail-stop WITHOUT restarts "
      "(conjecture: N·polylog, far below the restartable N^1.585)",
      table);
}

void print_budget_probe() {
  Table table({"read budget", "V", "X", "VX"});
  for (std::size_t reads : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    std::vector<std::string> row = {fmt_int(reads)};
    for (WriteAllAlgo algo :
         {WriteAllAlgo::kV, WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
      EngineOptions options;
      options.read_budget = reads;
      NoFailures none;
      std::string cell;
      try {
        const auto out = run_writeall(
            algo, {.n = 256, .p = 64, .seed = 1}, none, options);
        cell = out.solved ? "fits (S=" + fmt_int(out.run.tally.completed_work) +
                                ")"
                          : "incomplete";
      } catch (const ModelViolation&) {
        cell = "exceeds budget";
      }
      row.push_back(cell);
    }
    table.add_row(std::move(row));
  }
  bench::print_table(
      "E12b: §5 open problem — update-cycle read budget needed per "
      "algorithm (writes fixed at 2)",
      table);
}

void BM_CrashOnlyX(benchmark::State& state) {
  const Addr n = static_cast<Addr>(state.range(0));
  WriteAllOutcome out;
  for (auto _ : state) {
    HalvingAdversary crash(0, n, {.revive = false});
    out = run_writeall(WriteAllAlgo::kX,
                       {.n = n, .p = static_cast<Pid>(n), .seed = 1}, crash);
  }
  if (!out.solved) state.SkipWithError("postcondition failed");
  state.counters["S"] = static_cast<double>(out.run.tally.completed_work);
}

}  // namespace
}  // namespace rfsp

int main(int argc, char** argv) {
  rfsp::print_no_restart_x();
  rfsp::print_budget_probe();
  for (long n : {1024L, 4096L}) {
    benchmark::RegisterBenchmark(
        ("E12/X-crash-only/n:" + std::to_string(n)).c_str(),
        rfsp::BM_CrashOnlyX)
        ->Args({n})
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
