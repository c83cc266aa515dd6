// E17 — batched SoA backend vs the interpreter (DESIGN.md, "Batched
// execution"; docs/api.md §10).
//
// Same algorithms, same cycles, same WorkTally — the only thing that may
// change is wall-clock time, so every row here reports real time for the
// interpreter and the batched backend side by side. Model metrics (S, S',
// |F|, σ, slots) are attached as counters exactly like every other bench;
// they must match between the two modes of a row (the batch_test suite
// proves bit-identity, the report below spot-checks the tallies again).
//
// Rows: fault-free {W, V, X, VX} at N = 2^16 (both at P = 256 and at the
// E1 configuration P = N) and N = 2^20 in both modes, a random
// fail/restart row at N = 2^16 in both modes, and batch-only headline
// rows at N = 2^24 (the interpreter is deliberately not timed at that
// size — the point of the backend is to make that row routine).
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "util/table.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

struct Row {
  WriteAllAlgo algo;
  Addr n;
  Pid p;
  bool faults;  // random fail/restart adversary instead of fault-free
};

std::unique_ptr<Adversary> make_adversary(const Row& row) {
  if (!row.faults) return std::make_unique<NoFailures>();
  // W is the no-restart algorithm; everyone else gets restarts too.
  const double restart = row.algo == WriteAllAlgo::kW ? 0.0 : 0.5;
  return std::make_unique<RandomAdversary>(
      11, RandomAdversaryOptions{.fail_prob = 0.02,
                                 .restart_prob = restart,
                                 .max_pattern = 2000});
}

WriteAllOutcome run_row(const Row& row, bool batch) {
  const auto adversary = make_adversary(row);
  EngineOptions options;
  options.batch = batch;
  return run_writeall(row.algo, {.n = row.n, .p = row.p, .seed = 1},
                      *adversary, options);
}

void BM_Batch(benchmark::State& state) {
  const Row row{static_cast<WriteAllAlgo>(state.range(0)),
                static_cast<Addr>(state.range(1)),
                static_cast<Pid>(state.range(2)),
                state.range(3) != 0};
  const bool batch = state.range(4) != 0;
  WriteAllOutcome out;
  for (auto _ : state) {
    out = run_row(row, batch);
    benchmark::DoNotOptimize(out.run.tally.completed_work);
  }
  if (!out.solved) state.SkipWithError("postcondition failed");
  bench::report(state, out.run.tally, row.n);
  state.SetLabel(std::string(to_string(row.algo)) +
                 (batch ? "/batch" : "/interp"));
}

const std::vector<WriteAllAlgo> kAlgos = {
    WriteAllAlgo::kW, WriteAllAlgo::kV, WriteAllAlgo::kX,
    WriteAllAlgo::kCombinedVX};

void register_row(const Row& row, bool batch) {
  const std::string name =
      "E17/" + std::string(to_string(row.algo)) +
      (row.faults ? "-faulty" : "") + (batch ? "/batch" : "/interp") +
      "/n:" + std::to_string(row.n) + "/p:" + std::to_string(row.p);
  benchmark::RegisterBenchmark(name.c_str(), BM_Batch)
      ->Args({static_cast<long>(row.algo), static_cast<long>(row.n),
              static_cast<long>(row.p), row.faults ? 1 : 0, batch ? 1 : 0})
      ->Iterations(1);
}

void register_benches() {
  for (WriteAllAlgo algo : kAlgos) {
    for (bool batch : {false, true}) {
      register_row({algo, Addr{1} << 16, Pid{256}, false}, batch);
      // The E1 configuration (P = N): the headline speedup row.
      register_row({algo, Addr{1} << 16, Pid{1} << 16, false}, batch);
      register_row({algo, Addr{1} << 20, Pid{1024}, false}, batch);
      register_row({algo, Addr{1} << 16, Pid{256}, true}, batch);
    }
    // Headline: N = 2^24 is batch-only (the whole point of the backend).
    register_row({algo, Addr{1} << 24, Pid{4096}, false}, true);
  }
}

void print_report() {
  Table table({"algorithm", "N", "P", "S", "interp ms", "batch ms", "x"});
  for (WriteAllAlgo algo : kAlgos) {
    const Row row{algo, Addr{1} << 16, Pid{1} << 16, false};
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const auto interp = run_row(row, false);
    const auto t1 = clock::now();
    const auto batched = run_row(row, true);
    const auto t2 = clock::now();
    const double interp_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double batch_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    // The backend must be invisible in the model: identical tallies or the
    // row is lying about measuring the same computation.
    if (!(interp.run.tally == batched.run.tally)) {
      table.add_row({std::string(to_string(algo)), "TALLY MISMATCH", "", "",
                     "", "", ""});
      continue;
    }
    table.add_row({std::string(to_string(algo)), fmt_int(row.n),
                   fmt_int(row.p), fmt_int(interp.run.tally.completed_work),
                   fmt_fixed(interp_ms, 1), fmt_fixed(batch_ms, 1),
                   fmt_fixed(interp_ms / batch_ms, 2)});
  }
  bench::print_table(
      "E17: interpreter vs batched SoA backend (fault-free, N = P = 2^16)",
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
