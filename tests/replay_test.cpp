// Record/replay (src/replay): JSONL round-trips, the determinism matrix
// ({W,V,X,VX} x {random,burst,halving,thrashing,chaos} reproduced bit for
// bit from a recorded schedule), violation-context enrichment, reproducer
// meta round-trips, and the regression corpus of minimized schedules.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "obs/trace.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using ::rfsp::testing::ChaosAdversary;
using ::rfsp::testing::LambdaAdversary;

FaultSchedule random_schedule(std::uint64_t seed) {
  Rng rng(seed);
  FaultSchedule s;
  s.meta["algo"] = "X";
  s.meta["n"] = std::to_string(rng.below(1000) + 1);
  s.meta["note"] = "line1\nline \"quoted\" \\ tab\t";
  Slot slot = rng.below(4);
  const std::size_t entries = rng.below(30);
  for (std::size_t i = 0; i < entries; ++i) {
    ScheduleEntry e;
    e.slot = slot;
    slot += 1 + rng.below(5);
    const auto fill = [&](std::vector<Pid>& v) {
      const std::size_t k = rng.below(4);
      for (std::size_t j = 0; j < k; ++j) {
        v.push_back(static_cast<Pid>(rng.below(64)));
      }
    };
    fill(e.decision.fail_mid_cycle);
    fill(e.decision.fail_after_cycle);
    fill(e.decision.restart);
    const std::size_t torn = rng.below(3);
    for (std::size_t j = 0; j < torn; ++j) {
      e.decision.torn.push_back({static_cast<Pid>(rng.below(64)),
                                 rng.below(4),
                                 static_cast<unsigned>(rng.below(64))});
    }
    if (!e.decision.empty()) s.entries.push_back(std::move(e));
  }
  return s;
}

TEST(ScheduleFormat, JsonlRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultSchedule original = random_schedule(seed);
    const std::string text = schedule_to_jsonl(original);
    const FaultSchedule reparsed = schedule_from_jsonl(text);
    ASSERT_EQ(original, reparsed) << "seed=" << seed << "\n" << text;
    // Serialization is canonical: a second trip is byte-identical.
    EXPECT_EQ(text, schedule_to_jsonl(reparsed)) << "seed=" << seed;
  }
}

TEST(ScheduleFormat, RejectsMalformedInput) {
  EXPECT_THROW(schedule_from_jsonl(""), ConfigError);
  EXPECT_THROW(schedule_from_jsonl(R"({"format":"other","version":1})"),
               ConfigError);
  EXPECT_THROW(
      schedule_from_jsonl(
          R"({"format":"rfsp-fault-schedule","version":99,"meta":{}})"),
      ConfigError);
  // Out-of-order entries.
  EXPECT_THROW(
      schedule_from_jsonl(
          "{\"format\":\"rfsp-fault-schedule\",\"version\":1,\"meta\":{}}\n"
          "{\"t\":5,\"mid\":[1]}\n{\"t\":3,\"mid\":[2]}\n"),
      ConfigError);
  // Floats are not part of the format.
  EXPECT_THROW(
      schedule_from_jsonl(
          "{\"format\":\"rfsp-fault-schedule\",\"version\":1,\"meta\":{}}\n"
          "{\"t\":1.5,\"mid\":[1]}\n"),
      ConfigError);
}

TEST(ScheduleFormat, MetaSpecRoundTrip) {
  FaultSchedule s;
  ReproSpec spec{.algo = WriteAllAlgo::kCombinedVX, .n = 777, .p = 33,
                 .seed = 42, .max_slots = 12345, .bit_atomic_writes = true};
  write_meta(spec, s, ProbeStatus::kModelViolation, "a note");
  const ReproSpec back = spec_from_meta(s);
  EXPECT_EQ(back.algo, spec.algo);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.p, spec.p);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.max_slots, spec.max_slots);
  EXPECT_EQ(back.bit_atomic_writes, spec.bit_atomic_writes);
  EXPECT_EQ(probe_status_from_string(s.meta.at("status")),
            ProbeStatus::kModelViolation);
  EXPECT_EQ(s.meta.at("note"), "a note");

  FaultSchedule incomplete;
  incomplete.meta["algo"] = "X";
  EXPECT_THROW(spec_from_meta(incomplete), ConfigError);
  incomplete.meta["n"] = "not-a-number";
  incomplete.meta["p"] = "4";
  EXPECT_THROW(spec_from_meta(incomplete), ConfigError);
  // P is 32-bit: a wider value is refused, not truncated.
  incomplete.meta["n"] = "64";
  incomplete.meta["p"] = "4294967297";
  EXPECT_THROW(spec_from_meta(incomplete), ConfigError);
}

// Reproducers recorded while a van Emde Boas tree order existed carry
// "tree_order":"veb" in their meta. "heap" is the only order now: such a
// schedule is a typed ConfigError in the library and a usage error (exit 2)
// on writeall_cli, while a "heap" stamp keeps replaying.
TEST(ArtifactCompat, VebTreeOrderScheduleIsRejected) {
  FaultSchedule s;
  write_meta({.algo = WriteAllAlgo::kX, .n = 64, .p = 8}, s,
             ProbeStatus::kSolved);
  s.meta["tree_order"] = "heap";
  EXPECT_NO_THROW(spec_from_meta(s));
  s.meta["tree_order"] = "veb";
  EXPECT_THROW(spec_from_meta(s), ConfigError);

  const auto dir = ::rfsp::testing::scratch_dir("veb_schedule");
  const auto schedule = dir / "schedule.jsonl";
  save_schedule(s, schedule.string());
  EXPECT_EQ(::rfsp::testing::run_cli(RFSP_WRITEALL_CLI,
                                     "--replay '" + schedule.string() + "'",
                                     dir / "out.txt"),
            2);
  s.meta["tree_order"] = "heap";
  save_schedule(s, schedule.string());
  EXPECT_EQ(::rfsp::testing::run_cli(RFSP_WRITEALL_CLI,
                                     "--replay '" + schedule.string() + "'",
                                     dir / "out.txt"),
            0);
  std::filesystem::remove_all(dir);
}

// --- The determinism matrix -------------------------------------------------

struct RunCapture {
  WorkTally tally;
  bool solved = false;
  std::string events;  // JSONL trace-event stream
};

RunCapture run_captured(WriteAllAlgo algo, const WriteAllConfig& config,
                        Adversary& adversary, Slot max_slots) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  EngineOptions options;
  options.max_slots = max_slots;
  options.sink = &sink;
  const WriteAllOutcome out = run_writeall(algo, config, adversary, options);
  return {out.run.tally, out.solved, os.str()};
}

std::unique_ptr<Adversary> make_named(const std::string& name,
                                      std::uint64_t seed, Addr n) {
  if (name == "random") {
    return std::make_unique<RandomAdversary>(
        seed, RandomAdversaryOptions{.fail_prob = 0.2, .restart_prob = 0.5});
  }
  if (name == "burst") {
    return std::make_unique<BurstAdversary>(
        BurstAdversaryOptions{.period = 3, .count = 5});
  }
  if (name == "halving") return std::make_unique<HalvingAdversary>(0, n);
  if (name == "thrashing") return std::make_unique<ThrashingAdversary>();
  return std::make_unique<ChaosAdversary>(seed, /*allow_torn=*/false);
}

TEST(ReplayDeterminism, MatrixReproducesTallyAndTrace) {
  const WriteAllConfig config{.n = 64, .p = 16, .seed = 9};
  // Restart-heavy adversaries can legitimately starve W forever; the bound
  // makes those runs finite, and determinism must hold for the truncated
  // run too (identical unsolved outcome, identical trace).
  const Slot max_slots = 5000;
  for (WriteAllAlgo algo : {WriteAllAlgo::kW, WriteAllAlgo::kV,
                            WriteAllAlgo::kX, WriteAllAlgo::kCombinedVX}) {
    for (const std::string adversary_name :
         {"random", "burst", "halving", "thrashing", "chaos"}) {
      SCOPED_TRACE(std::string(to_string(algo)) + " x " + adversary_name);

      const auto inner = make_named(adversary_name, 9, config.n);
      FaultSchedule schedule;
      RecordingAdversary recorder(*inner, schedule);
      const RunCapture original =
          run_captured(algo, config, recorder, max_slots);

      // The schedule round-trips through its serialized form before the
      // replay, so the test covers the on-disk format, not just the
      // in-memory struct.
      const FaultSchedule reloaded =
          schedule_from_jsonl(schedule_to_jsonl(schedule));
      ReplayAdversary replay(reloaded);
      const RunCapture replayed =
          run_captured(algo, config, replay, max_slots);

      EXPECT_EQ(original.tally, replayed.tally);
      EXPECT_EQ(original.solved, replayed.solved);
      EXPECT_EQ(original.events, replayed.events);
    }
  }
}

TEST(ReplayDeterminism, ReRecordedReplayIsByteIdentical) {
  // ReplayAdversary copies each entry into the engine's decision buffers;
  // recording the replay must give back the schedule's exact bytes, on
  // either backend.
  const WriteAllConfig config{.n = 64, .p = 16, .seed = 9};
  for (const bool batch : {false, true}) {
    for (const std::string adversary_name : {"random", "thrashing", "chaos"}) {
      SCOPED_TRACE(adversary_name + (batch ? " batch" : " interpreter"));
      EngineOptions options;
      options.batch = batch;
      const auto inner = make_named(adversary_name, 9, config.n);
      FaultSchedule schedule;
      RecordingAdversary recorder(*inner, schedule);
      const WriteAllOutcome original =
          run_writeall(WriteAllAlgo::kCombinedVX, config, recorder, options);

      ReplayAdversary replay(schedule_from_jsonl(schedule_to_jsonl(schedule)));
      FaultSchedule again;
      RecordingAdversary rerecorder(replay, again);
      const WriteAllOutcome replayed =
          run_writeall(WriteAllAlgo::kCombinedVX, config, rerecorder, options);

      EXPECT_EQ(original.run.tally, replayed.run.tally);
      EXPECT_FALSE(schedule.entries.empty());
      EXPECT_EQ(schedule_to_jsonl(schedule), schedule_to_jsonl(again));
    }
  }
}

TEST(ReplayDeterminism, SnapshotAndAccAlgorithms) {
  for (WriteAllAlgo algo : {WriteAllAlgo::kSnapshot, WriteAllAlgo::kAcc}) {
    const WriteAllConfig config{.n = 64, .p = 16, .seed = 4};
    const auto inner = make_named("chaos", 21, config.n);
    FaultSchedule schedule;
    RecordingAdversary recorder(*inner, schedule);
    const RunCapture original = run_captured(algo, config, recorder, 20000);

    ReplayAdversary replay(schedule);
    const RunCapture replayed = run_captured(algo, config, replay, 20000);
    EXPECT_EQ(original.tally, replayed.tally);
    EXPECT_EQ(original.events, replayed.events);
  }
}

// --- Violations: recording and context enrichment ---------------------------

TEST(ViolationContext, RecordedScheduleKeepsTheOffendingDecision) {
  // Restarting a live processor is illegal; the recorder must capture the
  // bad decision even though the engine rejects it.
  LambdaAdversary inner([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 3) d.restart.push_back(0);
    return d;
  });
  FaultSchedule schedule;
  RecordingAdversary recorder(inner, schedule);
  try {
    run_writeall(WriteAllAlgo::kX, {.n = 32, .p = 4}, recorder);
    FAIL() << "expected AdversaryViolation";
  } catch (const AdversaryViolation& av) {
    EXPECT_EQ(av.context.slot, 3);
    EXPECT_EQ(av.context.pid, 0);
    EXPECT_EQ(av.context.move, "restart");
    EXPECT_NE(std::string(av.what()).find("slot 3"), std::string::npos);
  }
  ASSERT_FALSE(schedule.entries.empty());
  EXPECT_EQ(schedule.entries.back().slot, 3u);
  EXPECT_EQ(schedule.entries.back().decision.restart, std::vector<Pid>{0});
}

TEST(ViolationContext, ProbeClassifiesViolations) {
  FaultSchedule bad;
  ReproSpec spec{.algo = WriteAllAlgo::kX, .n = 32, .p = 4};
  write_meta(spec, bad, ProbeStatus::kAdversaryViolation, "");
  ScheduleEntry e;
  e.slot = 2;
  e.decision.restart.push_back(1);  // pid 1 is live -> illegal restart
  bad.entries.push_back(e);

  const ProbeResult r = probe(spec_from_meta(bad), bad);
  EXPECT_EQ(r.status, ProbeStatus::kAdversaryViolation);
  EXPECT_EQ(r.context.slot, 2);
  EXPECT_EQ(r.context.pid, 1);
  EXPECT_EQ(r.context.move, "restart");
  EXPECT_FALSE(r.message.empty());
}

TEST(ViolationContext, ProbeSolvesBenignSchedules) {
  FaultSchedule benign;
  ReproSpec spec{.algo = WriteAllAlgo::kX, .n = 32, .p = 4};
  write_meta(spec, benign, ProbeStatus::kSolved, "");
  ScheduleEntry e;
  e.slot = 1;
  e.decision.fail_after_cycle.push_back(2);
  benign.entries.push_back(e);

  const ProbeResult r = probe(spec_from_meta(benign), benign);
  EXPECT_EQ(r.status, ProbeStatus::kSolved);
  EXPECT_GT(r.tally.completed_work, 0u);
  EXPECT_EQ(r.tally.failures, 1u);
}

// --- Regression corpus ------------------------------------------------------

// Every archived reproducer under tests/corpus/ must still replay to the
// status its meta promises. New entries come from chaos_test auto-records
// (shrunk via writeall_cli --shrink-out) — vet, then check in.
TEST(Corpus, ArchivedReproducersReplayToTheirRecordedStatus) {
  const std::filesystem::path dir = RFSP_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t replayed = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".jsonl") continue;
    SCOPED_TRACE(file.path().filename().string());
    const FaultSchedule schedule = load_schedule(file.path().string());
    const ProbeStatus expected =
        probe_status_from_string(schedule.meta.at("status"));
    const ProbeResult r = probe(spec_from_meta(schedule), schedule);
    EXPECT_EQ(r.status, expected)
        << "message: " << r.message
        << " (expected " << to_string(expected) << ")";
    ++replayed;
  }
  EXPECT_GE(replayed, 3u) << "the seeded corpus went missing";
}

}  // namespace
}  // namespace rfsp
