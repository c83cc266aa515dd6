// Checkpoint/restore (EngineCheckpoint, docs/resilience.md §3): JSON
// round-trips, the checkpoint-at-every-slot == straight-run determinism
// matrix, resume-composability with the simulator, and the error paths
// (shape mismatches, unserializable programs, restore-after-run).
#include <gtest/gtest.h>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "programs/programs.hpp"
#include "replay/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using ::rfsp::testing::ChaosAdversary;
using ::rfsp::testing::LambdaProgram;

TEST(CheckpointFormat, JsonRoundTripIsExact) {
  EngineCheckpoint cp;
  cp.slot = 640;
  cp.tally = {.completed_work = 10, .attempted_work = 12, .failures = 3,
              .restarts = 2, .slots = 7, .halted = 1, .peak_live = 4};
  cp.memory = {0, -5, INT64_MAX, INT64_MIN, 42};
  cp.status = {ProcStatus::kLive, ProcStatus::kFailed, ProcStatus::kHalted};
  cp.states.emplace_back(std::vector<Word>{1, -2, 3});
  cp.states.emplace_back(std::nullopt);
  cp.states.emplace_back(std::vector<Word>{});
  cp.adversary = {UINT64_MAX, 0, 7};

  const std::string text = checkpoint_to_json(cp);
  const EngineCheckpoint back = checkpoint_from_json(text);
  EXPECT_EQ(cp, back);
  EXPECT_EQ(text, checkpoint_to_json(back));  // canonical
}

// Saver-attached meta (the CLIs record the memory model so a checkpoint
// cannot be silently resumed under the wrong one): round-trips exactly, and an empty map serializes to no "meta" key at all,
// keeping meta-free documents byte-identical to the pre-meta format.
TEST(CheckpointFormat, MetaRoundTripAndAbsentWhenEmpty) {
  EngineCheckpoint cp;
  cp.slot = 3;
  cp.memory = {1};
  EXPECT_EQ(checkpoint_to_json(cp).find("\"meta\""), std::string::npos);

  cp.meta = {{"memory_model", "faulty-cells"},
             {"note", "a \"quoted\" value"}};
  const std::string text = checkpoint_to_json(cp);
  const EngineCheckpoint back = checkpoint_from_json(text);
  EXPECT_EQ(cp, back);
  EXPECT_EQ(text, checkpoint_to_json(back));  // canonical

  // A pre-meta document (no "meta" key) parses to an empty map.
  EngineCheckpoint bare = cp;
  bare.meta.clear();
  EXPECT_TRUE(checkpoint_from_json(checkpoint_to_json(bare)).meta.empty());
}

TEST(CheckpointFormat, RejectsMalformedInput) {
  EXPECT_THROW(checkpoint_from_json("{}"), ConfigError);
  EXPECT_THROW(checkpoint_from_json(R"({"format":"other","version":1})"),
               ConfigError);
  EXPECT_THROW(
      checkpoint_from_json(
          R"({"format":"rfsp-checkpoint","version":2,"slot":0})"),
      ConfigError);
}

// --- Determinism: resume == never stopped -----------------------------------

std::unique_ptr<Adversary> make_named(const std::string& name,
                                      std::uint64_t seed, Addr n) {
  if (name == "halving") return std::make_unique<HalvingAdversary>(0, n);
  if (name == "thrashing") return std::make_unique<ThrashingAdversary>();
  return std::make_unique<ChaosAdversary>(seed, /*allow_torn=*/false);
}

// Run with a checkpoint at every slot, then resume from a sample of those
// checkpoints: every continuation must land on the straight run's exact
// tally and outcome. Checkpointing itself must not perturb the run either.
void check_resume_matrix(WriteAllAlgo algo, const std::string& adversary_name,
                         Slot max_slots, Pid p = 12) {
  SCOPED_TRACE(std::string(to_string(algo)) + " x " + adversary_name);
  const WriteAllConfig config{.n = 48, .p = p, .seed = 5};
  const std::uint64_t seed = 77;
  EngineOptions options;
  options.max_slots = max_slots;

  const auto straight_adversary = make_named(adversary_name, seed, config.n);
  const WriteAllOutcome straight =
      run_writeall(algo, config, *straight_adversary, options);

  std::vector<EngineCheckpoint> checkpoints;
  EngineOptions recording = options;
  recording.checkpoint_every = 1;
  recording.on_checkpoint = [&](const EngineCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const auto observed_adversary = make_named(adversary_name, seed, config.n);
  const WriteAllOutcome observed =
      run_writeall(algo, config, *observed_adversary, recording);
  EXPECT_EQ(straight.run.tally, observed.run.tally)
      << "checkpoint capture perturbed the run";
  EXPECT_EQ(straight.solved, observed.solved);
  ASSERT_FALSE(checkpoints.empty());

  for (std::size_t i = 0; i < checkpoints.size();
       i += std::max<std::size_t>(checkpoints.size() / 6, 1)) {
    const EngineCheckpoint& cp = checkpoints[i];
    const auto resumed_adversary = make_named(adversary_name, seed, config.n);
    const WriteAllOutcome resumed =
        run_writeall(algo, config, *resumed_adversary, options, &cp);
    EXPECT_EQ(straight.run.tally, resumed.run.tally)
        << "resume from slot " << cp.slot << " diverged";
    EXPECT_EQ(straight.solved, resumed.solved);
  }
}

TEST(CheckpointResume, CoreAlgorithmsUnderHalving) {
  for (WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                            WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
    check_resume_matrix(algo, "halving", 2000);
  }
}

TEST(CheckpointResume, CoreAlgorithmsUnderThrashing) {
  for (WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                            WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
    check_resume_matrix(algo, "thrashing", 1500);
  }
}

TEST(CheckpointResume, CoreAlgorithmsUnderChaos) {
  for (WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                            WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
    check_resume_matrix(algo, "chaos", 2000);
  }
}

TEST(CheckpointResume, RemainingAlgorithms) {
  // ACC (randomized: the per-processor RNG must survive the round-trip),
  // the snapshot algorithm, and the non-fault-tolerant baselines.
  for (WriteAllAlgo algo :
       {WriteAllAlgo::kAcc, WriteAllAlgo::kSnapshot, WriteAllAlgo::kTrivial}) {
    check_resume_matrix(algo, "chaos", 2000);
  }
  // The sequential baseline insists on exactly one processor.
  check_resume_matrix(WriteAllAlgo::kSequential, "chaos", 2000, /*p=*/1);
}

TEST(CheckpointResume, SimulatorKillAndResume) {
  PrefixSumProgram program({5, 3, 8, 1, 9, 2, 7, 4, 6, 10, 11, 12});

  ChaosAdversary straight_adversary(33, /*allow_torn=*/false);
  const SimResult straight = simulate(program, straight_adversary,
                                      {.physical_processors = 5});
  ASSERT_TRUE(straight.completed);

  std::vector<EngineCheckpoint> checkpoints;
  SimOptions capture{.physical_processors = 5};
  capture.checkpoint_every = 8;
  capture.on_checkpoint = [&](const EngineCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  ChaosAdversary observed_adversary(33, /*allow_torn=*/false);
  const SimResult observed = simulate(program, observed_adversary, capture);
  EXPECT_EQ(straight.tally, observed.tally);
  ASSERT_GE(checkpoints.size(), 2u);

  for (const auto& cp :
       {checkpoints.front(), checkpoints[checkpoints.size() / 2],
        checkpoints.back()}) {
    SimOptions resume{.physical_processors = 5};
    resume.resume = &cp;
    ChaosAdversary resumed_adversary(33, /*allow_torn=*/false);
    const SimResult resumed = simulate(program, resumed_adversary, resume);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(straight.tally, resumed.tally)
        << "resume from slot " << cp.slot << " diverged";
    EXPECT_EQ(straight.memory, resumed.memory);
  }
}

// --- Error paths ------------------------------------------------------------

// Checkpoints stamped "tree_order":"heap" — as rfsp-bench writes them —
// resume on writeall_cli to the straight run's tally; one stamped with the
// removed "veb" order is a usage error (exit 2).
TEST(ArtifactCompat, TreeOrderMetaOnResume) {
  using ::rfsp::testing::read_text;
  using ::rfsp::testing::run_writeall_cli;
  const auto dir = ::rfsp::testing::scratch_dir("tree_order_resume");
  const auto ck = dir / "ck.json";
  const std::string flags =
      "--algo VX --n 512 --p 32 --adversary random --fail 0.05 --seed 3 "
      "--batch 1";
  // The tally block of the CLI report: S, S', |F| and the slot count.
  const auto tally = [](const std::string& text) {
    const std::size_t begin = text.find("completed S");
    const std::size_t end = text.find("overhead sigma");
    return begin == std::string::npos || end == std::string::npos
               ? std::string()
               : text.substr(begin, end - begin);
  };

  ASSERT_EQ(run_writeall_cli(flags, dir / "straight.txt"), 0);
  ASSERT_EQ(run_writeall_cli(flags + " --checkpoint '" + ck.string() +
                                 "' --checkpoint-every 16 --crash-at-slot 64",
                             dir / "crash.txt"),
            0);
  EngineCheckpoint cp = load_checkpoint(ck.string());
  cp.meta["tree_order"] = "heap";
  save_checkpoint(cp, ck.string());
  ASSERT_EQ(run_writeall_cli(flags + " --resume '" + ck.string() + "'",
                             dir / "resumed.txt"),
            0);
  const std::string straight = tally(read_text(dir / "straight.txt"));
  EXPECT_FALSE(straight.empty());
  EXPECT_EQ(tally(read_text(dir / "resumed.txt")), straight);

  cp.meta["tree_order"] = "veb";
  save_checkpoint(cp, ck.string());
  EXPECT_EQ(run_writeall_cli(flags + " --resume '" + ck.string() + "'",
                             dir / "veb.txt"),
            2);
  std::filesystem::remove_all(dir);
}

// Malformed or out-of-range numeric flags, and flags the CLI does not
// have, are usage errors (exit 2): no abort, and no silent narrowing of P
// to 32 bits.
TEST(CliErrors, BadNumericFlagsAreUsageErrors) {
  using ::rfsp::testing::run_writeall_cli;
  const auto dir = ::rfsp::testing::scratch_dir("cli_numeric_flags");
  for (const char* args :
       {"--n abc", "--algo X --n 1024 --p 4294967297",
        "--adversary random --fail x", "--cycle-threads 4"}) {
    EXPECT_EQ(run_writeall_cli(args, dir / "out.txt"), 2) << args;
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointErrors, ShapeMismatchIsRejected) {
  NoFailures quiet;
  EngineOptions capture;
  capture.checkpoint_every = 4;
  EngineCheckpoint cp;
  bool have = false;
  capture.on_checkpoint = [&](const EngineCheckpoint& c) {
    if (!have) { cp = c; have = true; }
  };
  ThrashingAdversary thrash;
  run_writeall(WriteAllAlgo::kX, {.n = 32, .p = 8}, thrash, capture);
  ASSERT_TRUE(have);

  // Same algorithm, different machine shape.
  NoFailures fresh;
  EXPECT_THROW(
      run_writeall(WriteAllAlgo::kX, {.n = 64, .p = 8}, fresh, {}, &cp),
      ConfigError);
  NoFailures fresh2;
  EXPECT_THROW(
      run_writeall(WriteAllAlgo::kX, {.n = 32, .p = 16}, fresh2, {}, &cp),
      ConfigError);
}

TEST(CheckpointErrors, ProgramWithoutSaveStateIsRejected) {
  // LambdaProgram's processor state has no save_state: the first capture
  // must fail loudly instead of writing a checkpoint that cannot resume.
  LambdaProgram program(2, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 1);
    return true;
  });
  EngineOptions options;
  options.max_slots = 16;
  options.checkpoint_every = 2;
  options.on_checkpoint = [](const EngineCheckpoint&) {};
  Engine engine(program, options);
  NoFailures quiet;
  EXPECT_THROW(engine.run(quiet), ConfigError);
}

TEST(CheckpointErrors, RestoreAfterRunIsRejected) {
  LambdaProgram program(2, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 1);
    return false;
  });
  Engine engine(program, {});
  NoFailures quiet;
  engine.run(quiet);
  EngineCheckpoint cp;
  cp.memory.resize(4);
  cp.status.resize(2, ProcStatus::kLive);
  cp.states.resize(2);
  EXPECT_THROW(engine.restore(cp), ConfigError);
}

}  // namespace
}  // namespace rfsp
