// Chaos testing: a decision fuzzer that mixes every legal adversary move —
// mid-cycle failures, post-write failures, fail-then-restart in one slot,
// delayed restarts, and (in bit-atomic mode) torn writes — against the
// fault-tolerant algorithms and the simulator, across many seeds. The
// engine's validation provides the legality oracle (any AdversaryViolation
// here is a bug in the fuzzer's clamping, any ModelViolation a bug in an
// algorithm), and the postcondition provides correctness.
//
// Sweep width: seeds 1..RFSP_CHAOS_SEEDS (default 25; the nightly CI job
// raises it). A failing seed auto-records its fault schedule as a
// self-describing JSONL reproducer under $RFSP_CHAOS_RECORD_DIR (default
// ".") — replay it with `writeall_cli --replay FILE` and, once vetted, file
// the shrunk version under tests/corpus/ for the regression suite.
#include <gtest/gtest.h>

#include <cstdlib>

#include "programs/programs.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using ::rfsp::testing::ChaosAdversary;

std::uint64_t chaos_seed_limit() {
  if (const char* env = std::getenv("RFSP_CHAOS_SEEDS")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 25;
}

// Archive a failing run's schedule so the seed is reproducible without the
// fuzzer: $RFSP_CHAOS_RECORD_DIR/<name>.jsonl (best-effort — recording
// failures must not mask the original test failure).
void record_failure(const ReproSpec& spec, FaultSchedule schedule,
                    ProbeStatus status, const std::string& name) {
  const char* dir = std::getenv("RFSP_CHAOS_RECORD_DIR");
  const std::string path =
      std::string(dir != nullptr ? dir : ".") + "/" + name + ".jsonl";
  try {
    write_meta(spec, schedule, status, "auto-recorded by chaos_test");
    save_schedule(schedule, path);
    std::cerr << "chaos failure schedule recorded to " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "could not record chaos schedule: " << e.what() << "\n";
  }
}

class ChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeeds, WriteAllSurvives) {
  const std::uint64_t seed = GetParam();
  for (WriteAllAlgo algo : {WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX,
                            WriteAllAlgo::kAcc}) {
    ChaosAdversary inner(seed * 101 + 7, /*allow_torn=*/false);
    FaultSchedule schedule;
    RecordingAdversary adversary(inner, schedule);
    const WriteAllConfig config{.n = 100, .p = 25, .seed = seed};
    const ReproSpec spec{.algo = algo, .n = config.n, .p = config.p,
                         .seed = seed};
    const std::string tag = std::string("chaos_") + std::string(to_string(algo)) +
                            "_s" + std::to_string(seed);
    try {
      const auto out = run_writeall(algo, config, adversary);
      if (!out.solved) {
        record_failure(spec, schedule, ProbeStatus::kUnsolved, tag);
      }
      ASSERT_TRUE(out.solved) << to_string(algo) << " seed=" << seed;
    } catch (const ModelViolation& mv) {
      record_failure(spec, schedule, ProbeStatus::kModelViolation, tag);
      FAIL() << to_string(algo) << " seed=" << seed << ": " << mv.what();
    } catch (const AdversaryViolation& av) {
      record_failure(spec, schedule, ProbeStatus::kAdversaryViolation, tag);
      FAIL() << to_string(algo) << " seed=" << seed << ": " << av.what();
    }
  }
}

TEST_P(ChaosSeeds, SimulatorSurvives) {
  const std::uint64_t seed = GetParam();
  PrefixSumProgram program({5, 3, 8, 1, 9, 2, 7, 4, 6, 10, 11, 12});
  ChaosAdversary adversary(seed * 131 + 5, /*allow_torn=*/false);
  const SimResult r =
      simulate(program, adversary, {.physical_processors = 6});
  ASSERT_TRUE(r.completed) << "seed=" << seed;
  EXPECT_EQ(r.memory, reference_run(program)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeeds,
                         ::testing::Range<std::uint64_t>(
                             1, chaos_seed_limit() + 1),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "s" + std::to_string(i.param);
                         });

// --- Memory-model sweeps (pram/faults.hpp, docs/fault-models.md) -------------
//
// Same fuzzer, non-reliable backends: the chaos adversary additionally
// plays the model-specific moves (cell_faults / cache_drop). Suite names
// keep the Chaos prefix so the nightly `ctest -R 'Chaos'` sweep picks them
// up automatically.

class ChaosFaultyCells : public ::testing::TestWithParam<std::uint64_t> {};

// Static faults are fully remapped (auto spares), but run-time injections
// are never remapped — a fault landing on an x cell makes the instance
// unsolvable (or destroys an already-visited cell after the fact), and
// garbage in a progress-tree cell can convince every processor the root is
// done (they all halt: deadlock, goal unmet). The contract here is "solve,
// or stop loudly (slot limit / deadlock), or the recorded schedule proves
// the adversary struck the x array itself": no violation, no crash, no
// unexplained wrong answer.
TEST_P(ChaosFaultyCells, WriteAllSolvesOrStopsLoudly) {
  const std::uint64_t seed = GetParam();
  const WriteAllConfig config{.n = 100, .p = 25, .seed = seed};
  EngineOptions options;
  options.max_slots = 5000;  // injected faults can preclude the goal
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = {.seed = seed, .cells = 8};
  const auto probe_program = make_writeall(WriteAllAlgo::kX, config);
  const Addr memory_size = probe_program->memory_size();
  const Addr x_base = probe_program->x_base();
  ChaosAdversary inner(seed * 151 + 11, /*allow_torn=*/false,
                       MemoryModel::kFaultyCells, memory_size);
  FaultSchedule schedule;
  RecordingAdversary adversary(inner, schedule);
  ReproSpec spec{.algo = WriteAllAlgo::kX, .n = config.n, .p = config.p,
                 .seed = seed, .max_slots = options.max_slots};
  spec.memory_model = options.memory_model;
  spec.faulty_cells = options.faulty_cells;
  const std::string tag = "chaos_faulty_cells_s" + std::to_string(seed);
  try {
    const auto out = run_writeall(WriteAllAlgo::kX, config, adversary, options);
    const bool loud = out.run.slot_limit || out.run.deadlock;
    bool x_struck = false;
    for (const Move& m : schedule.moves) {
      x_struck |= m.kind == Move::Kind::kCell && m.target >= x_base &&
                  m.target < x_base + config.n;
    }
    if (!out.solved && !loud && !x_struck) {
      record_failure(spec, schedule, ProbeStatus::kUnsolved, tag);
    }
    ASSERT_TRUE(out.solved || loud || x_struck) << "seed=" << seed;
  } catch (const ModelViolation& mv) {
    record_failure(spec, schedule, ProbeStatus::kModelViolation, tag);
    FAIL() << "seed=" << seed << ": " << mv.what();
  } catch (const AdversaryViolation& av) {
    record_failure(spec, schedule, ProbeStatus::kAdversaryViolation, tag);
    FAIL() << "seed=" << seed << ": " << av.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFaultyCells,
                         ::testing::Range<std::uint64_t>(
                             1, chaos_seed_limit() + 1),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "s" + std::to_string(i.param);
                         });

class ChaosPersistentCache : public ::testing::TestWithParam<std::uint64_t> {};

// Amnesia only delays progress (dropped caches are re-done work), so under
// the persistent-cache model X must still solve outright.
TEST_P(ChaosPersistentCache, WriteAllSurvives) {
  const std::uint64_t seed = GetParam();
  const WriteAllConfig config{.n = 100, .p = 25, .seed = seed};
  EngineOptions options;
  options.max_slots = 20000;
  options.memory_model = MemoryModel::kPersistentCache;
  options.persistent_cache = {.persist_every = 4};
  ChaosAdversary inner(seed * 163 + 3, /*allow_torn=*/false,
                       MemoryModel::kPersistentCache, 0);
  FaultSchedule schedule;
  RecordingAdversary adversary(inner, schedule);
  ReproSpec spec{.algo = WriteAllAlgo::kX, .n = config.n, .p = config.p,
                 .seed = seed, .max_slots = options.max_slots};
  spec.memory_model = options.memory_model;
  spec.persistent_cache = options.persistent_cache;
  const std::string tag = "chaos_persistent_cache_s" + std::to_string(seed);
  try {
    const auto out = run_writeall(WriteAllAlgo::kX, config, adversary, options);
    if (!out.solved) {
      record_failure(spec, schedule, ProbeStatus::kUnsolved, tag);
    }
    ASSERT_TRUE(out.solved) << "seed=" << seed;
    EXPECT_GT(out.run.tally.persists, 0u);
  } catch (const ModelViolation& mv) {
    record_failure(spec, schedule, ProbeStatus::kModelViolation, tag);
    FAIL() << "seed=" << seed << ": " << mv.what();
  } catch (const AdversaryViolation& av) {
    record_failure(spec, schedule, ProbeStatus::kAdversaryViolation, tag);
    FAIL() << "seed=" << seed << ": " << av.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPersistentCache,
                         ::testing::Range<std::uint64_t>(
                             1, chaos_seed_limit() + 1),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "s" + std::to_string(i.param);
                         });

TEST(ChaosTorn, XSurvivesTornWritesWithBitSafeFreeStructures) {
  // Algorithm X's shared cells are all single-logical-value writes whose
  // consumers re-validate (positions are re-read, markers are 0/1, done
  // bits monotone) — but a torn write CAN leave garbage in a cell, so this
  // is strictly a robustness probe: X must either solve or fail loudly,
  // never return a wrong "solved". With payload-threatening tears capped
  // at whole-word boundaries (keep_bits 0 — drop the write entirely, the
  // only tear that cannot fabricate values X would misparse), X solves.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    class DropWrites final : public Adversary {
     public:
      explicit DropWrites(std::uint64_t seed) : rng_(seed) {}
      std::string_view name() const override { return "drop-writes"; }
      FaultDecision decide(const MachineView& view) override {
        FaultDecision d;
        std::size_t abortable = 0;
        for (Pid pid = 0; pid < view.processors(); ++pid) {
          if (view.trace(pid).started) ++abortable;
        }
        if (abortable > 0) --abortable;
        for (Pid pid = 0; pid < view.processors(); ++pid) {
          const CycleTrace& trace = view.trace(pid);
          if (!trace.started || trace.writes.empty()) continue;
          if (abortable == 0) break;
          if (!rng_.chance(0.15)) continue;
          // keep_bits = 0: the write vanishes mid-flight — a pure torn
          // failure with no fabricated bits.
          d.torn.push_back({pid, rng_.below(trace.writes.size()), 0});
          d.restart.push_back(pid);
          --abortable;
        }
        return d;
      }

     private:
      Rng rng_;
    };

    DropWrites adversary(seed);
    EngineOptions options;
    options.bit_atomic_writes = true;
    const auto out = run_writeall(WriteAllAlgo::kX,
                                  {.n = 64, .p = 16, .seed = seed},
                                  adversary, options);
    EXPECT_TRUE(out.solved) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace rfsp
