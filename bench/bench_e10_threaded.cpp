// E10 — §2.3 architecture ablation (not a paper table): algorithm X on
// real OS threads over atomic shared memory, with and without injected
// restart failures. Demonstrates that the algorithm's correctness argument
// needs no synchrony, and records wall-clock scaling.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "parallel/threaded.hpp"
#include "util/table.hpp"

namespace rfsp {
namespace {

void print_report() {
  Table table({"workers", "inject", "solved", "loop iterations", "wall ms"});
  for (const bool inject : {false, true}) {
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
      const ThreadedResult r = run_threaded_writeall(
          {.n = 1 << 17,
           .workers = workers,
           .seed = 7 + workers,
           .failures_per_worker = inject ? 4.0 : 0.0});
      table.add_row({fmt_int(workers), inject ? "yes" : "no",
                     r.solved ? "yes" : "NO", fmt_int(r.loop_iterations),
                     fmt_fixed(r.wall_seconds * 1e3, 2)});
    }
  }
  bench::print_table(
      "E10: threaded algorithm X (N = 131072) — asynchrony + injected "
      "restarts (§2.3 architecture claim)",
      table);
}

void BM_Threaded(benchmark::State& state) {
  const unsigned workers = static_cast<unsigned>(state.range(0));
  const bool inject = state.range(1) != 0;
  ThreadedResult r;
  for (auto _ : state) {
    r = run_threaded_writeall({.n = 1 << 17,
                               .workers = workers,
                               .seed = 7 + workers,
                               .failures_per_worker = inject ? 4.0 : 0.0});
    benchmark::DoNotOptimize(r.loop_iterations);
  }
  if (!r.solved) state.SkipWithError("postcondition failed");
  state.counters["loop_iterations"] =
      static_cast<double>(r.loop_iterations);
  state.counters["failures"] = static_cast<double>(r.injected_failures);
}

}  // namespace
}  // namespace rfsp

int main(int argc, char** argv) {
  rfsp::print_report();
  for (long workers : {1L, 2L, 4L, 8L}) {
    for (long inject : {0L, 1L}) {
      benchmark::RegisterBenchmark(
          ("E10/threaded/workers:" + std::to_string(workers) +
           (inject ? "/inject" : ""))
              .c_str(),
          rfsp::BM_Threaded)
          ->Args({workers, inject})
          ->Iterations(3);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
