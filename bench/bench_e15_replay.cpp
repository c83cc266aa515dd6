// E15 — resilience-harness overhead (docs/resilience.md §4).
//
// Cost of the record/replay/checkpoint machinery on top of the engine:
//   * record     — RecordingAdversary wrapping the run's adversary. On the
//                  fault-free E1 configuration (X, P = N, N = 2^16) every
//                  decision is empty, so recording must be within noise of
//                  the baseline (nothing is appended, one virtual hop).
//   * replay     — ReplayAdversary re-running a recorded schedule (cursor
//                  lookups instead of RNG draws; typically *cheaper* than
//                  the adversary it replaces).
//   * checkpoint — EngineCheckpoint capture every 64 slots, discarded (the
//                  serialization cost without the file I/O).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "replay/schedule.hpp"
#include "util/table.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

enum Mode { kBaseline, kRecord, kReplay, kCheckpoint };
constexpr const char* kModeNames[] = {"baseline", "record", "replay",
                                      "checkpoint64"};

std::unique_ptr<Adversary> make_adversary(bool faulty, std::uint64_t seed) {
  if (!faulty) return std::make_unique<NoFailures>();
  return std::make_unique<RandomAdversary>(
      seed, RandomAdversaryOptions{.fail_prob = 0.05, .restart_prob = 0.5});
}

// One measured run; `prerecorded` backs the replay mode.
WriteAllOutcome run_mode(Mode mode, Addr n, bool faulty,
                         const FaultSchedule& prerecorded,
                         FaultSchedule* record_into) {
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n), .seed = 1};
  EngineOptions options;
  std::uint64_t checkpoints = 0;
  if (mode == kCheckpoint) {
    options.checkpoint_every = 64;
    options.on_checkpoint = [&](const EngineCheckpoint& cp) {
      ++checkpoints;
      benchmark::DoNotOptimize(cp.memory.data());
    };
  }
  if (mode == kReplay) {
    ReplayAdversary replay(prerecorded);
    return run_writeall(WriteAllAlgo::kX, config, replay, options);
  }
  const auto inner = make_adversary(faulty, 7);
  if (mode == kRecord) {
    record_into->moves.clear();
    RecordingAdversary recorder(*inner, *record_into);
    return run_writeall(WriteAllAlgo::kX, config, recorder, options);
  }
  return run_writeall(WriteAllAlgo::kX, config, *inner, options);
}

FaultSchedule prerecord(Addr n, bool faulty) {
  FaultSchedule schedule;
  const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n), .seed = 1};
  const auto inner = make_adversary(faulty, 7);
  RecordingAdversary recorder(*inner, schedule);
  run_writeall(WriteAllAlgo::kX, config, recorder);
  return schedule;
}

void BM_Replay(benchmark::State& state) {
  const Mode mode = static_cast<Mode>(state.range(0));
  const Addr n = static_cast<Addr>(state.range(1));
  const bool faulty = state.range(2) != 0;
  const FaultSchedule prerecorded =
      mode == kReplay ? prerecord(n, faulty) : FaultSchedule{};
  FaultSchedule recorded;
  WriteAllOutcome out;
  for (auto _ : state) {
    out = run_mode(mode, n, faulty, prerecorded, &recorded);
    benchmark::DoNotOptimize(out.run.tally.completed_work);
  }
  if (!out.solved) state.SkipWithError("postcondition failed");
  bench::report(state, out.run.tally, n);
  if (mode == kRecord) {
    state.counters["schedule_entries"] =
        static_cast<double>(recorded.slot_count());
    state.counters["schedule_moves"] =
        static_cast<double>(recorded.move_count());
  }
  state.SetLabel(std::string(kModeNames[mode]) +
                 (faulty ? "/random" : "/fault-free"));
}

void register_benches() {
  for (const bool faulty : {false, true}) {
    // The acceptance row is the fault-free N = 2^16 record overhead; the
    // faulty rows (smaller N, so the suite stays quick) show the cost with
    // a real decision stream.
    const Addr n = faulty ? Addr{4096} : Addr{65536};
    for (const Mode mode : {kBaseline, kRecord, kReplay, kCheckpoint}) {
      benchmark::RegisterBenchmark(
          ("E15/" + std::string(kModeNames[mode]) +
           (faulty ? "/random" : "/fault-free") + "/n:" + std::to_string(n))
              .c_str(),
          BM_Replay)
          ->Args({static_cast<long>(mode), static_cast<long>(n),
                  faulty ? 1 : 0})
          ->Iterations(faulty ? 3 : 1);
    }
  }
}

void print_report() {
  Table table({"mode", "adversary", "N", "S", "slots", "sched entries"});
  for (const bool faulty : {false, true}) {
    const Addr n = faulty ? Addr{4096} : Addr{16384};
    const FaultSchedule prerecorded = prerecord(n, faulty);
    for (const Mode mode : {kBaseline, kRecord, kReplay, kCheckpoint}) {
      FaultSchedule recorded;
      const auto out = run_mode(mode, n, faulty, prerecorded, &recorded);
      if (!out.solved) continue;
      table.add_row({kModeNames[mode], faulty ? "random" : "none", fmt_int(n),
                     fmt_int(out.run.tally.completed_work),
                     fmt_int(out.run.tally.slots),
                     mode == kRecord ? fmt_int(recorded.slot_count())
                                     : std::string("-")});
    }
  }
  bench::print_table(
      "E15: record/replay/checkpoint overhead (algorithm X, P = N)", table);
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
