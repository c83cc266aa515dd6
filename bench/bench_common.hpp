// Shared scaffolding for the experiment benches (bench_e*.cpp; see
// DESIGN.md §5 and EXPERIMENTS.md).
//
// Each bench binary regenerates one experiment: it prints a table of the
// model-level metrics the paper's theorems are about (completed work S,
// attempted work S', pattern size |F|, overhead ratio σ, slots) and also
// registers google-benchmark timings with those metrics attached as
// counters, so `--benchmark_format=json` exports machine-readable series.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <vector>

#include "accounting/tally.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace rfsp::bench {

// Run fn() `warmup` un-timed times, then `k` timed times, and return the
// median wall-clock seconds. Single-shot timings on a shared machine lie by
// double-digit percentages run to run; the median of a small odd k is
// stable without multiplying the suite's cost much, and the warmup run
// pages in the shared-memory image so no measured run pays first-touch
// faults. Feed the result to state.SetIterationTime under UseManualTime —
// the exported real_time then IS the median, and every downstream consumer
// (scripts/run_benches.sh, the JSON tables) keeps its row shape unchanged.
template <typename Fn>
double median_seconds(Fn&& fn, int k = 3, int warmup = 1) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto t0 = clock::now();
    fn();
    secs.push_back(std::chrono::duration<double>(clock::now() - t0).count());
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

// Attach the model metrics to a google-benchmark state.
inline void report(benchmark::State& state, const WorkTally& tally,
                   std::uint64_t n) {
  state.counters["S"] = static_cast<double>(tally.completed_work);
  state.counters["S_prime"] = static_cast<double>(tally.attempted_work);
  state.counters["F"] = static_cast<double>(tally.pattern_size());
  state.counters["slots"] = static_cast<double>(tally.slots);
  state.counters["sigma"] = tally.overhead_ratio(n);
  state.counters["peak_live"] = static_cast<double>(tally.peak_live);
  state.counters["halted"] = static_cast<double>(tally.halted);
}

// Attach per-phase completed-work counters (StreamAggregator::phases) as
// S_<phase-name>. Call from an extra un-timed run so the attribution
// machinery never sits inside the timed loop.
inline void report_phases(benchmark::State& state,
                          std::span<const PhaseWork> phases) {
  for (const PhaseWork& phase : phases) {
    state.counters["S_" + phase.name] =
        static_cast<double>(phase.completed_work);
  }
}

// Attach a metrics registry's counters and gauges as benchmark counters
// (histograms surface as <name>_mean / <name>_max). Same caveat: fill the
// registry outside the timed loop.
inline void attach_metrics(benchmark::State& state,
                           const MetricsRegistry& registry) {
  for (const auto& [name, counter] : registry.counters()) {
    state.counters[name] = static_cast<double>(counter.value());
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    state.counters[name] = gauge.value();
  }
  for (const auto& [name, hist] : registry.histograms()) {
    if (hist.count() == 0) continue;
    state.counters[name + "_mean"] = hist.mean();
    state.counters[name + "_max"] = static_cast<double>(hist.max());
  }
}

// Print a titled experiment table to stdout (once per binary run).
inline void print_table(const std::string& title, const Table& table) {
  std::cout << "\n=== " << title << " ===\n";
  table.print(std::cout);
  std::cout.flush();
}

}  // namespace rfsp::bench
