// E4 — Lemma 4.2 / Theorem 4.3 (claim rows R4/R5): algorithm V's completed
// work tracks N + P log²N without restarts and N + P log²N + M log N with
// M = |F| failures/restarts. Also reproduces the §4.1 narrative: W matches
// V fault-free and crash-only, but an iteration-killer pattern stops W
// (and V) from terminating, which Theorem 4.9's combined algorithm fixes.
//
// Paper shape: S / (N + P log²N + M log N) flat in all three parameters.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "fault/iteration_killer.hpp"
#include "obs/stream.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"
#include "writeall/algv.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

double v_bound(Addr n, Pid p, std::uint64_t m) {
  const double logn = floor_log2(n);
  return static_cast<double>(n) + p * logn * logn + static_cast<double>(m) * logn;
}

void print_faultfree() {
  Table table({"algorithm", "N", "P", "S", "S/(N+P*log2^2N)"});
  for (WriteAllAlgo algo : {WriteAllAlgo::kV, WriteAllAlgo::kW}) {
    for (Addr n : {Addr{1024}, Addr{4096}, Addr{16384}}) {
      const unsigned logn = floor_log2(n);
      for (Pid p : {static_cast<Pid>(n / (logn * logn)),
                    static_cast<Pid>(n / logn), static_cast<Pid>(n)}) {
        if (p < 1) continue;
        NoFailures none;
        const auto out =
            run_writeall(algo, {.n = n, .p = p, .seed = 1}, none);
        if (!out.solved) continue;
        table.add_row(
            {std::string(to_string(algo)), fmt_int(n), fmt_int(p),
             fmt_int(out.run.tally.completed_work),
             fmt_fixed(out.run.tally.completed_work / v_bound(n, p, 0), 3)});
      }
    }
  }
  bench::print_table("E4a: V and W fault-free — S vs N + P log²N (Lemma 4.2)",
                     table);
}

void print_restarts() {
  Table table({"N", "P", "M=|F|", "S", "S/(N+Plog2^2N+Mlog2N)"});
  const Addr n = 4096;
  const Pid p = 256;
  for (Slot period : {Slot{64}, Slot{16}, Slot{4}, Slot{1}}) {
    BurstAdversary adversary({.period = period, .count = p / 4});
    const auto out = run_writeall(WriteAllAlgo::kV,
                                  {.n = n, .p = p, .seed = 1}, adversary);
    if (!out.solved) continue;
    const auto& t = out.run.tally;
    table.add_row({fmt_int(n), fmt_int(p), fmt_int(t.pattern_size()),
                   fmt_int(t.completed_work),
                   fmt_fixed(t.completed_work /
                                 v_bound(n, p, t.pattern_size()),
                             3)});
  }
  bench::print_table(
      "E4b: V under burst failure/restart storms — S vs "
      "N + P log²N + M log N (Theorem 4.3)",
      table);
}

void print_termination() {
  // The §4.1 iteration-killer: no processor alive at an iteration start is
  // allowed to complete it. W and V stall (slot limit); VX terminates.
  Table table({"algorithm", "terminated", "slots", "S"});
  const Addr n = 256;
  const Pid p = 16;
  for (WriteAllAlgo algo :
       {WriteAllAlgo::kW, WriteAllAlgo::kV, WriteAllAlgo::kCombinedVX}) {
    const WriteAllConfig config{.n = n, .p = p, .seed = 1};
    // Window = V's iteration (stride 2 for the combined interleave).
    const VLayout probe(0, n, n, p, 0);
    IterationKiller killer(algo == WriteAllAlgo::kCombinedVX
                               ? 2 * probe.iteration
                               : probe.iteration);
    EngineOptions options;
    options.max_slots = 200000;
    const auto out = run_writeall(algo, config, killer, options);
    table.add_row({std::string(to_string(algo)),
                   out.run.goal_met ? "yes" : "NO (slot limit)",
                   fmt_int(out.run.tally.slots),
                   fmt_int(out.run.tally.completed_work)});
  }
  bench::print_table(
      "E4c: the §4.1 iteration-killer — W and V stall; Theorem 4.9's VX "
      "terminates",
      table);
}

void BM_VBurst(benchmark::State& state) {
  const Addr n = static_cast<Addr>(state.range(0));
  const Slot period = static_cast<Slot>(state.range(1));
  const Pid p = static_cast<Pid>(n / 16);
  WriteAllOutcome out;
  for (auto _ : state) {
    BurstAdversary adversary({.period = period, .count = p / 4});
    out = run_writeall(WriteAllAlgo::kV, {.n = n, .p = p, .seed = 1},
                       adversary);
  }
  if (!out.solved) state.SkipWithError("postcondition failed");
  bench::report(state, out.run.tally, n);
  state.counters["S_over_bound"] =
      out.run.tally.completed_work /
      v_bound(n, p, out.run.tally.pattern_size());

  // One extra un-timed run with an aggregating sink: per-phase completed
  // work and the engine metrics ride along as counters without touching
  // the timed loop above.
  BurstAdversary adversary({.period = period, .count = p / 4});
  StreamAggregator stream;
  EngineOptions options;
  options.sink = &stream;
  const auto observed = run_writeall(
      WriteAllAlgo::kV, {.n = n, .p = p, .seed = 1}, adversary, options);
  MetricsRegistry metrics;
  stream.write_engine_metrics(observed.run.tally, p, metrics);
  bench::report_phases(state, stream.phases());
  bench::attach_metrics(state, metrics);
}

}  // namespace
}  // namespace rfsp

int main(int argc, char** argv) {
  rfsp::print_faultfree();
  rfsp::print_restarts();
  rfsp::print_termination();
  for (long n : {1024L, 4096L}) {
    for (long period : {16L, 4L}) {
      benchmark::RegisterBenchmark(
          ("E4/V/n:" + std::to_string(n) + "/burst:" + std::to_string(period))
              .c_str(),
          rfsp::BM_VBurst)
          ->Args({n, period})
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
