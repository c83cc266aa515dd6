// Checkpoint/restore (EngineCheckpoint, docs/resilience.md §3): file-format
// round-trips and hostile inputs, the checkpoint-at-every-slot ==
// straight-run determinism matrix, resume-composability with the simulator,
// and the error paths (shape mismatches, out-of-range model state,
// unserializable programs, restore-after-run).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "fault/stalkers.hpp"
#include "programs/programs.hpp"
#include "replay/checkpoint.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using ::rfsp::testing::ChaosAdversary;
using ::rfsp::testing::LambdaProgram;

// A small checkpoint touching every body array, for the format tests.
EngineCheckpoint sample_checkpoint() {
  EngineCheckpoint cp;
  cp.slot = 640;
  cp.tally = {.completed_work = 10, .attempted_work = 12, .failures = 3,
              .restarts = 2, .slots = 7, .halted = 1, .peak_live = 4,
              .persists = 5};
  cp.memory = {0, -5, INT64_MAX, INT64_MIN, 42};
  cp.status = {ProcStatus::kLive, ProcStatus::kFailed, ProcStatus::kHalted};
  cp.states.emplace_back(std::vector<Word>{1, -2, 3});
  cp.states.emplace_back(std::nullopt);
  cp.states.emplace_back(std::vector<Word>{});
  cp.adversary = {UINT64_MAX, 0, 7};
  cp.caches.push_back({.entries = {{.addr = 1, .value = -7}},
                       .unpersisted_cycles = 2});
  cp.caches.push_back({});
  cp.caches.push_back({});
  cp.injected_faults = {4, 0};
  cp.meta = {{"memory_model", "persistent-cache"}};
  return cp;
}

// Replaces the body of an encoded checkpoint and re-seals its header
// (body_bytes and crc32), so a crafted body gets past the checksum and
// reaches the body decoder.
std::string reseal(const std::string& encoded, std::string_view body) {
  std::string file =
      encoded.substr(0, encoded.find(R"("body_bytes":)")) +
      R"("body_bytes":)" + std::to_string(body.size()) + R"(,"crc32":)";
  file += std::to_string(crc32(body, crc32(file))) + "}\n";
  return file + std::string(body);
}

// The name predates the binary body; the round-trip is exact both ways.
TEST(CheckpointFormat, JsonRoundTripIsExact) {
  const EngineCheckpoint cp = sample_checkpoint();
  const std::string bytes = encode_checkpoint(cp);
  const EngineCheckpoint back = decode_checkpoint(bytes);
  EXPECT_EQ(cp, back);
  EXPECT_EQ(bytes, encode_checkpoint(back));  // canonical

  // The first line is the readable header; the body is past it.
  const std::string header = bytes.substr(0, bytes.find('\n'));
  EXPECT_EQ(header.rfind(R"({"format":"rfsp-checkpoint","version":2,)", 0),
            0u);
  EXPECT_NE(header.find(R"("persists":5)"), std::string::npos);

  // Save and load go through a temp file renamed into place.
  const auto dir = ::rfsp::testing::scratch_dir("checkpoint_file");
  const std::string path = (dir / "ck.rfck").string();
  save_checkpoint(cp, path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(load_checkpoint(path), cp);
  EXPECT_THROW(save_checkpoint(cp, (dir / "missing" / "ck.rfck").string()),
               ConfigError);
  // A failed rename (the target is a directory) removes the temp file.
  std::filesystem::create_directory(dir / "taken");
  EXPECT_THROW(save_checkpoint(cp, (dir / "taken").string()), ConfigError);
  EXPECT_FALSE(std::filesystem::exists(dir / "taken.tmp"));
  std::filesystem::remove_all(dir);
}

// Saver-attached meta (the CLIs record the memory model so a checkpoint
// cannot be silently resumed under the wrong one) round-trips exactly; an
// empty map is written as an empty object and reads back empty.
TEST(CheckpointFormat, MetaRoundTripAndAbsentWhenEmpty) {
  EngineCheckpoint cp;
  cp.slot = 3;
  cp.memory = {1};
  EXPECT_NE(encode_checkpoint(cp).find(R"("meta":{})"), std::string::npos);
  EXPECT_TRUE(decode_checkpoint(encode_checkpoint(cp)).meta.empty());

  cp.meta = {{"memory_model", "faulty-cells"},
             {"note", "a \"quoted\"\nvalue"}};
  const std::string bytes = encode_checkpoint(cp);
  const EngineCheckpoint back = decode_checkpoint(bytes);
  EXPECT_EQ(cp, back);
  EXPECT_EQ(bytes, encode_checkpoint(back));  // canonical
}

TEST(CheckpointFormat, RejectsMalformedInput) {
  EXPECT_THROW(decode_checkpoint(""), ConfigError);
  EXPECT_THROW(decode_checkpoint("{}\n"), ConfigError);
  EXPECT_THROW(decode_checkpoint("{\"format\":\"other\",\"version\":2}\n"),
               ConfigError);
  EXPECT_THROW(
      decode_checkpoint(R"({"format":"rfsp-checkpoint","version":2,"slot":0})"),
      ConfigError);

  // A version-1 document (JSON body) is refused by name.
  try {
    decode_checkpoint(
        R"({"format":"rfsp-checkpoint","version":1,"slot":0,"tally":{)"
        R"("completed":0,"attempted":0,"failures":0,"restarts":0,"slots":0,)"
        R"("halted":0,"peak_live":0},"memory":[1],"status":[],"states":[],)"
        R"("adversary":[]})"
        "\n");
    ADD_FAILURE() << "a version-1 checkpoint decoded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }

  const std::string good = encode_checkpoint(sample_checkpoint());
  const std::size_t body_at = good.find('\n') + 1;
  const std::string body = good.substr(body_at);
  ASSERT_EQ(decode_checkpoint(reseal(good, body)), sample_checkpoint());

  // Every proper prefix: a kill mid-write without the rename.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(decode_checkpoint(good.substr(0, len)), ConfigError)
        << "prefix of " << len << " bytes";
  }
  // Every single-byte flip, in the header and in the body.
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x20, 0x80, 0xff}) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      EXPECT_THROW(decode_checkpoint(bad), ConfigError)
          << "byte " << i << " (" << (i < body_at ? "header" : "body")
          << ") ^ " << int(mask);
    }
  }
  // Checksummed but hostile bodies: a length prefix of 2^62 (must not
  // reach resize), a truncated body, and trailing bytes after the arrays.
  std::string huge;
  append_varint(huge, std::uint64_t{1} << 62);
  EXPECT_THROW(decode_checkpoint(reseal(good, huge)), ConfigError);
  EXPECT_THROW(decode_checkpoint(reseal(good, body.substr(0, body.size() - 1))),
               ConfigError);
  EXPECT_THROW(decode_checkpoint(reseal(good, body + '\0')), ConfigError);
  EXPECT_THROW(decode_checkpoint(good + '\0'), ConfigError);
}

// --- Determinism: resume == never stopped -----------------------------------

std::unique_ptr<Adversary> make_named(const std::string& name,
                                      std::uint64_t seed, WriteAllAlgo algo,
                                      const WriteAllConfig& config) {
  if (name == "halving") {
    return std::make_unique<HalvingAdversary>(0, config.n);
  }
  if (name == "thrashing") return std::make_unique<ThrashingAdversary>();
  // The stalkers follow the X tree of X or of VX.
  const auto x_layout = [&] {
    return algo == WriteAllAlgo::kCombinedVX ? CombinedVX(config).layout().x
                                             : AlgX(config).layout();
  };
  if (name == "postorder-stalker") {
    return std::make_unique<PostOrderStalker>(x_layout());
  }
  if (name == "leaf-stalker") return std::make_unique<LeafStalker>(x_layout());
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

  const auto straight_adversary =
      make_named(adversary_name, seed, algo, config);
  const WriteAllOutcome straight =
      run_writeall(algo, config, *straight_adversary, options);

  std::vector<EngineCheckpoint> checkpoints;
  EngineOptions recording = options;
  recording.checkpoint_every = 1;
  recording.on_checkpoint = [&](const EngineCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const auto observed_adversary =
      make_named(adversary_name, seed, algo, config);
  const WriteAllOutcome observed =
      run_writeall(algo, config, *observed_adversary, recording);
  EXPECT_EQ(straight.run.tally, observed.run.tally)
      << "checkpoint capture perturbed the run";
  EXPECT_EQ(straight.solved, observed.solved);
  ASSERT_FALSE(checkpoints.empty());

  for (std::size_t i = 0; i < checkpoints.size();
       i += std::max<std::size_t>(checkpoints.size() / 6, 1)) {
    const EngineCheckpoint& cp = checkpoints[i];
    const auto resumed_adversary =
        make_named(adversary_name, seed, algo, config);
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

// The post-order stalker keeps state across slots (its frontier and failed
// set) that a resumed run must get back; the leaf stalker rides along.
TEST(CheckpointResume, XFamilyUnderStalkers) {
  for (WriteAllAlgo algo : {WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
    check_resume_matrix(algo, "postorder-stalker", 4000);
    check_resume_matrix(algo, "leaf-stalker", 4000);
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
  capture.engine.checkpoint_every = 8;
  capture.engine.on_checkpoint = [&](const EngineCheckpoint& cp) {
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
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("tree_order_resume");
  const auto ck = dir / "ck.rfck";
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

  ASSERT_EQ(run_cli(RFSP_WRITEALL_CLI, flags, dir / "straight.txt"), 0);
  ASSERT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    flags + " --checkpoint '" + ck.string() +
                        "' --checkpoint-every 16 --crash-at-slot 64",
                    dir / "crash.txt"),
            0);
  EngineCheckpoint cp = load_checkpoint(ck.string());
  cp.meta["tree_order"] = "heap";
  save_checkpoint(cp, ck.string());
  ASSERT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    flags + " --resume '" + ck.string() + "'",
                    dir / "resumed.txt"),
            0);
  const std::string straight = tally(read_text(dir / "straight.txt"));
  EXPECT_FALSE(straight.empty());
  EXPECT_EQ(tally(read_text(dir / "resumed.txt")), straight);

  cp.meta["tree_order"] = "veb";
  save_checkpoint(cp, ck.string());
  EXPECT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    flags + " --resume '" + ck.string() + "'",
                    dir / "veb.txt"),
            2);
  std::filesystem::remove_all(dir);
}

// §5's off-line adversary from the CLI: a schedule recorded under seed 1
// runs with --pattern-in under seed 2 (fresh ACC coins) and the run still
// solves. A failure pattern in the old text format is refused by the
// schedule decoder with a typed error (exit 5), not an abort.
TEST(ArtifactCompat, PatternInRunsRecordedScheduleOffLine) {
  using ::rfsp::testing::read_text;
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("pattern_in_offline");
  const auto schedule = dir / "s.jsonl";
  const std::string config = "--algo ACC --n 256 --p 64 ";
  ASSERT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    config + "--seed 1 --adversary random --fail 0.1 "
                             "--record '" + schedule.string() + "'",
                    dir / "online.txt"),
            0);
  ASSERT_GT(load_schedule(schedule.string()).move_count(), 0u);
  EXPECT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    config + "--seed 2 --pattern-in '" + schedule.string() +
                        "'",
                    dir / "offline.txt"),
            0);
  const std::string offline = read_text(dir / "offline.txt");
  EXPECT_NE(offline.find("adversary        scheduled"), std::string::npos);
  EXPECT_NE(offline.find("solved           yes"), std::string::npos);

  const auto text_pattern = dir / "old.pattern";
  {
    std::ofstream out(text_pattern);
    out << "F 3 0\n";
  }
  EXPECT_THROW(load_schedule(text_pattern.string()), ConfigError);
  EXPECT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    config + "--pattern-in '" + text_pattern.string() + "'",
                    dir / "old.txt"),
            5);
  std::filesystem::remove_all(dir);
}

// Schedules and checkpoints carry their memory model. On both run CLIs and
// under both non-reliable models, a --replay and a --resume that pass no
// model flags land on the straight run's tally, and a replay re-recorded
// to a new file stamps the same meta. A model flag that contradicts the
// recorded one is a usage error (exit 2).
TEST(ArtifactCompat, MemoryModelMetaOnReplayAndResume) {
  using ::rfsp::testing::read_text;
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("model_meta");
  const auto quoted = [&](const char* name) {
    return " '" + (dir / name).string() + "'";
  };
  // The tally block of either CLI's report, up to the slot count.
  const auto tally = [&](const char* name) {
    const std::string text = read_text(dir / name);
    const std::size_t begin = text.find("completed");
    const std::size_t end = text.find("overhead sigma");
    return begin == std::string::npos || end == std::string::npos
               ? std::string()
               : text.substr(begin, end - begin);
  };
  struct Cli {
    const char* binary;
    std::string config;
    std::string checkpoint;  // cadence; writeall_cli also crashes midway
  };
  const Cli clis[] = {
      {RFSP_WRITEALL_CLI,
       "--algo VX --n 512 --p 32 --adversary random --fail 0.05 --seed 3",
       " --checkpoint-every 16 --crash-at-slot 64"},
      {RFSP_SIM_CLI, "--program prefix-sum --n 64 --p 9 --fail 0.1 --seed 2",
       " --checkpoint-every 512"},
  };
  const std::pair<std::string, std::string> models[] = {
      {" --memory-model faulty-cells --fault-cells 6 --fault-seed 4",
       " --fault-cells 5"},
      {" --memory-model persistent-cache --persist-every 3",
       " --persist-every 2"},
  };
  for (const Cli& cli : clis) {
    for (const auto& [model, contradiction] : models) {
      SCOPED_TRACE(std::string(cli.binary) + model);
      ASSERT_EQ(run_cli(cli.binary,
                        cli.config + model + " --record" + quoted("s.jsonl"),
                        dir / "straight.txt"),
                0);
      const std::string straight = tally("straight.txt");
      ASSERT_FALSE(straight.empty());

      EXPECT_EQ(run_cli(cli.binary,
                        "--replay" + quoted("s.jsonl") + " --record" +
                            quoted("again.jsonl"),
                        dir / "replay.txt"),
                0);
      EXPECT_EQ(tally("replay.txt"), straight);
      EXPECT_EQ(load_schedule((dir / "again.jsonl").string()).meta,
                load_schedule((dir / "s.jsonl").string()).meta);

      ASSERT_EQ(run_cli(cli.binary,
                        cli.config + model + " --checkpoint" +
                            quoted("ck.rfck") + cli.checkpoint,
                        dir / "checkpoint.txt"),
                0);
      EXPECT_EQ(run_cli(cli.binary,
                        cli.config + " --resume" + quoted("ck.rfck"),
                        dir / "resumed.txt"),
                0);
      EXPECT_EQ(tally("resumed.txt"), straight);

      EXPECT_EQ(run_cli(cli.binary,
                        "--replay" + quoted("s.jsonl") + contradiction,
                        dir / "out.txt"),
                2);
      EXPECT_EQ(run_cli(cli.binary,
                        cli.config + " --resume" + quoted("ck.rfck") +
                            contradiction,
                        dir / "out.txt"),
                2);
    }
  }
  std::filesystem::remove_all(dir);
}

// A checkpoint carries its run spec, so `--resume ck.rfck` alone lands on
// the straight run's tally block: on writeall_cli under a random adversary,
// a post-order stalker, no adversary and a relative --pattern-in path (the
// resume runs from another directory), and on sim_cli. A checkpoint saved
// under --replay holds the replay cursor, so it resumes with its --replay
// only. On resume, a flag that contradicts the checkpoint's adversary or
// its parameters exits 2 (a number compares by value: 5e-2 is 0.05), as
// do --replay on another adversary's checkpoint and the other CLI's
// checkpoint; explicit spec flags still override (a lower --max-slots
// leaves the run unsolved, another --p mismatches the checkpoint's shape).
TEST(ArtifactCompat, ResumeAlone) {
  using ::rfsp::testing::read_text;
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("resume_alone");
  const auto elsewhere = dir / "elsewhere";
  std::filesystem::create_directories(elsewhere);
  // The resumes run from `elsewhere`; the test ends where it began.
  struct RestoreCwd {
    std::filesystem::path path = std::filesystem::current_path();
    ~RestoreCwd() { std::filesystem::current_path(path); }
  } restore_cwd;
  // The tally block of either CLI's report, up to the slot count.
  const auto tally = [&](const char* name) {
    const std::string text = read_text(dir / name);
    const std::size_t begin = text.find("completed");
    const std::size_t end = text.find("overhead sigma");
    return begin == std::string::npos || end == std::string::npos
               ? std::string()
               : text.substr(begin, end - begin);
  };
  struct Run {
    const char* binary;
    std::string config;
    std::string checkpoint;  // cadence; writeall_cli also crashes midway
    std::string file;
    std::string resume = "";  // what the resume needs beside the checkpoint
  };
  const auto file = [&](const char* name) {
    return " '" + (dir / name).string() + "'";
  };
  const std::string schedule = file("schedule.jsonl");
  ASSERT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    "--algo X --n 200 --p 16 --adversary random --record" +
                        schedule,
                    dir / "record.txt"),
            0);
  const Run runs[] = {
      {RFSP_WRITEALL_CLI,
       "--algo VX --n 512 --p 32 --adversary random --fail 0.05 --seed 3",
       " --checkpoint-every 16 --crash-at-slot 64", file("random.rfck")},
      {RFSP_WRITEALL_CLI, "--algo X --n 200 --p 16 --adversary "
                          "postorder-stalker",
       " --checkpoint-every 8 --crash-at-slot 40", file("stalker.rfck")},
      {RFSP_WRITEALL_CLI, "--algo W --n 128 --p 16",
       " --checkpoint-every 4 --crash-at-slot 8", file("none.rfck")},
      {RFSP_WRITEALL_CLI,
       "--algo X --n 200 --p 16 --seed 2 --pattern-in schedule.jsonl",
       " --checkpoint-every 8 --crash-at-slot 40", file("pattern.rfck")},
      {RFSP_WRITEALL_CLI, "--replay" + schedule,
       " --checkpoint-every 8 --crash-at-slot 40", file("replayed.rfck"),
       " --replay" + schedule},
      {RFSP_SIM_CLI, "--program prefix-sum --n 64 --p 9 --fail 0.1 --seed 2",
       " --checkpoint-every 512", file("sim.rfck")},
  };
  for (const Run& run : runs) {
    SCOPED_TRACE(run.config);
    std::filesystem::current_path(dir);
    ASSERT_EQ(run_cli(run.binary, run.config, dir / "straight.txt"), 0);
    const std::string straight = tally("straight.txt");
    ASSERT_FALSE(straight.empty());
    ASSERT_EQ(run_cli(run.binary,
                      run.config + " --checkpoint" + run.file + run.checkpoint,
                      dir / "checkpoint.txt"),
              0);
    std::filesystem::current_path(elsewhere);
    EXPECT_EQ(run_cli(run.binary, "--resume" + run.file + run.resume,
                      dir / "resumed.txt"),
              0);
    EXPECT_EQ(tally("resumed.txt"), straight);
  }

  const std::string& random = runs[0].file;
  const std::string& none = runs[2].file;
  const std::string& pattern = runs[3].file;
  const std::string& replayed = runs[4].file;
  const std::string& sim = runs[5].file;
  for (const auto& [cli, args, code] :
       std::vector<std::tuple<const char*, std::string, int>>{
           {RFSP_WRITEALL_CLI, "--resume" + random + " --adversary burst", 2},
           {RFSP_WRITEALL_CLI, "--resume" + random + " --adversary none", 2},
           {RFSP_WRITEALL_CLI, "--resume" + none + " --adversary random", 2},
           {RFSP_WRITEALL_CLI, "--resume" + random + " --fail 0.3", 2},
           {RFSP_WRITEALL_CLI, "--resume" + random + " --fail 5e-2", 0},
           {RFSP_WRITEALL_CLI,
            "--resume" + pattern + " --pattern-in schedule.jsonl", 2},
           {RFSP_WRITEALL_CLI, "--resume" + replayed, 2},
           {RFSP_WRITEALL_CLI, "--resume" + random + " --replay" + schedule,
            2},
           {RFSP_SIM_CLI, "--resume" + sim + " --fail 0.3", 2},
           {RFSP_WRITEALL_CLI, "--resume" + sim, 2},
           {RFSP_SIM_CLI, "--resume" + random, 2},
           {RFSP_WRITEALL_CLI, "--resume" + random + " --max-slots 60", 1},
           {RFSP_WRITEALL_CLI, "--resume" + random + " --p 31", 5}}) {
    EXPECT_EQ(run_cli(cli, args, dir / "out.txt"), code) << cli << args;
  }
  std::filesystem::current_path(restore_cwd.path);
  std::filesystem::remove_all(dir);
}

// Malformed or out-of-range numeric flags, flags the CLI does not have,
// and a repeated flag are usage errors (exit 2): no abort, no silent
// narrowing of P to 32 bits, no std::bad_alloc from an N beyond 2^32
// (given as a flag or by a replay schedule's meta), and no silently kept
// last value.
TEST(CliErrors, BadNumericFlagsAreUsageErrors) {
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("cli_numeric_flags");
  for (const char* args :
       {"--n abc", "--algo X --n 1024 --p 4294967297",
        "--algo X --n 1099511627776 --p 4",
        "--adversary random --fail x", "--cycle-threads 4",
        "--algo X --n 16 --n 32"}) {
    EXPECT_EQ(run_cli(RFSP_WRITEALL_CLI, args, dir / "out.txt"), 2) << args;
  }
  const auto bomb = dir / "bomb.jsonl";
  std::ofstream(bomb) << "{\"format\":\"rfsp-fault-schedule\",\"version\":1,"
                         "\"meta\":{\"algo\":\"X\",\"n\":\"1099511627776\","
                         "\"p\":\"4\"}}\n";
  EXPECT_EQ(run_cli(RFSP_WRITEALL_CLI, "--replay '" + bomb.string() + "'",
                    dir / "out.txt"),
            2);
  std::filesystem::remove_all(dir);
}

// The legacy recording flags are gone (--trace-out x.csv and --record
// replace them), and --pattern-in is the run's adversary, so it excludes
// --replay and --adversary: all usage errors (exit 2). So is any other
// adversary flag under --replay (the schedule is the adversary), and a
// --replay of the other run CLI's recording: writeall_cli refuses a
// sim_cli schedule and sim_cli a writeall_cli one.
TEST(CliErrors, RemovedRecordingFlagsAndPatternInConflicts) {
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("cli_pattern_flags");
  const std::string schedule = "'" + (dir / "s.jsonl").string() + "'";
  const std::string sim_schedule = "'" + (dir / "sim.jsonl").string() + "'";
  ASSERT_EQ(run_cli(RFSP_WRITEALL_CLI,
                    "--algo X --n 64 --p 16 --adversary random --fail 0.1 "
                    "--record " + schedule,
                    dir / "record.txt"),
            0);
  ASSERT_EQ(run_cli(RFSP_SIM_CLI,
                    "--program prefix-sum --n 16 --p 4 --record " +
                        sim_schedule,
                    dir / "record.txt"),
            0);
  for (const auto& [cli, args] :
       std::vector<std::pair<const char*, std::string>>{
           {RFSP_WRITEALL_CLI,
            "--algo X --n 64 --p 16 --trace '" + (dir / "x.csv").string() +
                "'"},
           {RFSP_WRITEALL_CLI,
            "--algo X --n 64 --p 16 --pattern-out '" +
                (dir / "p").string() + "'"},
           {RFSP_WRITEALL_CLI,
            "--pattern-in " + schedule + " --replay " + schedule},
           {RFSP_WRITEALL_CLI, "--algo X --n 64 --p 16 --pattern-in " +
                                   schedule + " --adversary random"},
           {RFSP_WRITEALL_CLI, "--replay " + schedule + " --adversary burst"},
           {RFSP_WRITEALL_CLI, "--replay " + sim_schedule},
           {RFSP_SIM_CLI, "--replay " + sim_schedule + " --fail 0.3"},
           {RFSP_SIM_CLI, "--replay " + schedule}}) {
    EXPECT_EQ(run_cli(cli, args, dir / "out.txt"), 2) << cli << " " << args;
  }
  std::filesystem::remove_all(dir);
}

// --metrics-out is opened before the run, like --trace-out: a path that
// cannot be written is a usage error, not a run that reports success.
TEST(CliErrors, UnwritableMetricsOut) {
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("cli_metrics_out");
  const std::string bad =
      " --metrics-out '" + (dir / "missing" / "m.json").string() + "'";
  EXPECT_EQ(run_cli(RFSP_WRITEALL_CLI, "--algo X --n 64 --p 16" + bad,
                    dir / "writeall.txt"),
            2);
  EXPECT_EQ(run_cli(RFSP_SIM_CLI, "--program prefix-sum --n 16 --p 4" + bad,
                    dir / "sim.txt"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir / "missing"));
  std::filesystem::remove_all(dir);
}

// A simulated size the chosen workload cannot take is a usage error
// (exit 2), caught before the workload is built: no crash on an empty
// list, no internal invariant failure, no silently smaller matrix. So is
// a repeated --n.
TEST(CliErrors, BadSimSizesAreUsageErrors) {
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("cli_sim_sizes");
  for (const char* args :
       {"--program list-ranking --n 0", "--program prefix-sum --n 0",
        "--program components --n 0", "--program bitonic-sort --n 100",
        "--program stencil --n 2", "--program matmul --n 10",
        "--program prefix-sum --n 16 --p 4 --n 32"}) {
    EXPECT_EQ(run_cli(RFSP_SIM_CLI, args, dir / "out.txt"), 2) << args;
  }
  for (const char* args :
       {"--program bitonic-sort --n 1", "--program stencil --n 3",
        "--program matmul --n 9"}) {
    EXPECT_EQ(run_cli(RFSP_SIM_CLI, args, dir / "out.txt"), 0) << args;
  }
  std::filesystem::remove_all(dir);
}

// verify_cli --sim: a zero size, or one beyond 2^32, is a usage error
// (2), and a size the executor refuses (P > N) is that target's error
// (5), never a crash.
TEST(CliErrors, DegenerateVerifySimSizesAreErrors) {
  using ::rfsp::testing::run_cli;
  const auto dir = ::rfsp::testing::scratch_dir("cli_verify_sizes");
  const std::pair<const char*, int> cases[] = {
      {"--sim list-ranking --sim-n 0", 2},
      {"--sim stencil --sim-n 0", 2},
      {"--sim matmul --sim-n 0", 2},
      {"--sim bitonic-sort --sim-n 0", 2},
      {"--sim prefix-sum --sim-n 4 --sim-p 9", 5},
      {"--sim prefix-sum --sim-n 1099511627776 --sim-p 3", 2},
  };
  for (const auto& [args, code] : cases) {
    EXPECT_EQ(run_cli(RFSP_VERIFY_CLI, args, dir / "out.txt"), code) << args;
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

// Memory-model state whose addresses fall outside memory is a typed error at
// restore, not an invariant failure (injected faults) or a ModelViolation
// at the first cache flush (cache entries). All processors are failed, so
// nothing else in the checkpoint can be the cause.
EngineCheckpoint failed_machine(Addr cells, Pid p) {
  EngineCheckpoint cp;
  cp.memory.resize(cells);
  cp.status.assign(p, ProcStatus::kFailed);
  cp.states.resize(p);
  return cp;
}

TEST(CheckpointErrors, InjectedFaultOutOfRangeIsRejected) {
  LambdaProgram program(2, 4, [](Pid, std::uint64_t, CycleContext&) {
    return true;
  });
  EngineOptions options;
  options.memory_model = MemoryModel::kFaultyCells;
  Engine engine(program, options);
  EngineCheckpoint cp = failed_machine(4, 2);
  cp.injected_faults = {1, 4};
  EXPECT_THROW(engine.restore(cp), ConfigError);
}

TEST(CheckpointErrors, CacheAddressOutOfRangeIsRejected) {
  LambdaProgram program(2, 4, [](Pid, std::uint64_t, CycleContext&) {
    return true;
  });
  EngineOptions options;
  options.memory_model = MemoryModel::kPersistentCache;
  Engine engine(program, options);
  EngineCheckpoint cp = failed_machine(4, 2);
  cp.caches.resize(2);
  cp.caches[1].entries = {{.addr = 4, .value = 1}};
  EXPECT_THROW(engine.restore(cp), ConfigError);
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
