// E9 — §5 (claim row R10): randomization does not help against on-line
// adversaries. A stalking adversary that camps on one progress-tree leaf
// makes the randomized ACC stand-in expensive, while the *same* pattern
// replayed off-line (fresh coins) — or plain random noise — leaves it
// cheap. Algorithm X under the leaf stalker is shown for contrast.
//
// Paper shape: on-line stalker ≫ off-line replay ≈ no-failure baseline
// for the randomized algorithm, in both the fail-stop and restart cases.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "pram/engine.hpp"
#include "replay/schedule.hpp"
#include "util/table.hpp"
#include "writeall/acc.hpp"
#include "writeall/algx.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

struct Outcome {
  std::uint64_t s = 0;
  std::uint64_t f = 0;
  std::uint64_t slots = 0;
  FaultSchedule schedule;  // the on-line run's recorded moves
};

Outcome run_acc_online(Addr n, bool restart_variant, std::uint64_t seed) {
  const AccWriteAll program({.n = n, .p = static_cast<Pid>(n), .seed = seed});
  LeafStalker adversary(program.layout(), {.restart_variant = restart_variant});
  FaultSchedule schedule;
  RecordingAdversary recorder(adversary, schedule);
  Engine engine(program);
  const RunResult result = engine.run(recorder);
  Outcome o;
  if (!result.goal_met) return o;
  o.s = result.tally.completed_work;
  o.f = result.tally.pattern_size();
  o.slots = result.tally.slots;
  o.schedule = std::move(schedule);
  return o;
}

Outcome run_acc_offline(Addr n, const FaultSchedule& schedule,
                        std::uint64_t fresh_seed) {
  ScheduledAdversary adversary(schedule);
  const auto out = run_writeall(
      WriteAllAlgo::kAcc, {.n = n, .p = static_cast<Pid>(n), .seed = fresh_seed},
      adversary);
  Outcome o;
  if (!out.solved) return o;
  o.s = out.run.tally.completed_work;
  o.f = out.run.tally.pattern_size();
  o.slots = out.run.tally.slots;
  return o;
}

void print_report() {
  Table table({"N", "variant", "ACC on-line S", "off-line S (same pattern)",
               "no-failure S", "on/off S", "on/off slots"});
  for (Addr n : {Addr{256}, Addr{1024}}) {
    for (const bool restart : {false, true}) {
      double online_sum = 0, offline_sum = 0;
      double online_slots = 0, offline_slots = 0;
      constexpr int kTrials = 3;
      for (int trial = 0; trial < kTrials; ++trial) {
        const Outcome online = run_acc_online(n, restart, 100 + trial);
        const Outcome offline =
            run_acc_offline(n, online.schedule, 900 + trial);
        online_sum += static_cast<double>(online.s);
        offline_sum += static_cast<double>(offline.s);
        online_slots += static_cast<double>(online.slots);
        offline_slots += static_cast<double>(offline.slots);
      }
      NoFailures none;
      const auto clean = run_writeall(
          WriteAllAlgo::kAcc, {.n = n, .p = static_cast<Pid>(n), .seed = 5},
          none);
      table.add_row(
          {fmt_int(n), restart ? "restart" : "fail-stop",
           fmt_int(static_cast<std::uint64_t>(online_sum / kTrials)),
           fmt_int(static_cast<std::uint64_t>(offline_sum / kTrials)),
           fmt_int(clean.run.tally.completed_work),
           fmt_fixed(online_sum / std::max(1.0, offline_sum), 2),
           fmt_fixed(online_slots / std::max(1.0, offline_slots), 2)});
    }
  }
  bench::print_table(
      "E9a: §5 stalking adversary vs randomized ACC — on-line (adaptive) vs "
      "off-line (same pattern, fresh coins), mean of 3 coin seeds",
      table);

  // Contrast: deterministic X under the same stalker (its PID descent gives
  // the adversary nothing extra to adapt to beyond Theorem 4.8's pattern).
  Table xtab({"N", "variant", "X under leaf stalker S", "X no-failure S"});
  for (Addr n : {Addr{256}, Addr{1024}}) {
    for (const bool restart : {false, true}) {
      const AlgX program({.n = n, .p = static_cast<Pid>(n)});
      LeafStalker adversary(program.layout(), {.restart_variant = restart});
      Engine engine(program);
      const RunResult result = engine.run(adversary);
      NoFailures none;
      const auto clean = run_writeall(
          WriteAllAlgo::kX, {.n = n, .p = static_cast<Pid>(n)}, none);
      xtab.add_row({fmt_int(n), restart ? "restart" : "fail-stop",
                    result.goal_met ? fmt_int(result.tally.completed_work)
                                    : std::string("did not finish"),
                    fmt_int(clean.run.tally.completed_work)});
    }
  }
  bench::print_table("E9b: the same leaf stalker against deterministic X",
                     xtab);
}

void BM_AccStalked(benchmark::State& state) {
  const Addr n = static_cast<Addr>(state.range(0));
  const bool restart = state.range(1) != 0;
  Outcome o;
  for (auto _ : state) o = run_acc_online(n, restart, 100);
  if (o.s == 0) state.SkipWithError("run did not complete");
  state.counters["S"] = static_cast<double>(o.s);
  state.counters["F"] = static_cast<double>(o.f);
}

}  // namespace
}  // namespace rfsp

int main(int argc, char** argv) {
  rfsp::print_report();
  for (long n : {256L, 1024L}) {
    for (long restart : {0L, 1L}) {
      benchmark::RegisterBenchmark(
          ("E9/ACC-stalked/n:" + std::to_string(n) +
           (restart ? "/restart" : "/failstop"))
              .c_str(),
          rfsp::BM_AccStalked)
          ->Args({n, restart})
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
