// Tests for the binary trace transport (obs/binary_trace) and the online
// StreamAggregator (obs/stream): lossless binary <-> JSONL round trips and
// exact tally reconstruction across the algorithm × adversary × engine-mode
// matrix, incremental decoding, and the malformed-input error paths.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/adversaries.hpp"
#include "obs/binary_trace.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

// ---------------------------------------------------------------------------
// Round-trip matrix: algorithms × adversaries × engine modes

struct MatrixCell {
  WriteAllAlgo algo;
  const char* algo_name;
  const char* adversary;
  bool batch;  // engine mode: sequential interpreter or batch backend
};

std::unique_ptr<Adversary> make_adversary(std::string_view name) {
  if (name == "none") return std::make_unique<NoFailures>();
  if (name == "random") {
    return std::make_unique<RandomAdversary>(
        99, RandomAdversaryOptions{.fail_prob = 0.15, .restart_prob = 0.4});
  }
  if (name == "burst") {
    return std::make_unique<BurstAdversary>(
        BurstAdversaryOptions{.period = 4, .count = 8});
  }
  if (name == "thrashing") {
    return std::make_unique<ThrashingAdversary>(/*max_pattern=*/512);
  }
  if (name == "chaos") {
    return std::make_unique<testing::ChaosAdversary>(7, /*allow_torn=*/false);
  }
  ADD_FAILURE() << "unknown adversary " << name;
  return std::make_unique<NoFailures>();
}

EngineOptions mode_options(bool batch) {
  EngineOptions options;
  // W need not terminate under restarts: bound every cell so the trace is
  // finite either way (a slot_limit run round-trips just the same).
  options.max_slots = 400;
  options.batch = batch;
  return options;
}

// One engine run of the cell with `sink` installed; the run is fully
// deterministic given the cell, so repeated calls replay the same events.
WriteAllOutcome run_cell(const MatrixCell& cell, TraceSink& sink) {
  const auto adversary = make_adversary(cell.adversary);
  EngineOptions options = mode_options(cell.batch);
  options.sink = &sink;
  return run_writeall(cell.algo, {.n = 256, .p = 32, .seed = 5}, *adversary,
                      options);
}

std::string reencode(const std::string& encoded, std::string_view to) {
  std::istringstream in(encoded);
  std::ostringstream out;
  const std::unique_ptr<TraceReader> reader = open_trace_reader(in);
  const std::unique_ptr<TraceSink> sink = make_trace_sink(out, to);
  replay_trace(*reader, *sink);
  return out.str();
}

TEST(BinaryTraceRoundTrip, MatrixBitIdentical) {
  const struct { WriteAllAlgo algo; const char* name; } kAlgos[] = {
      {WriteAllAlgo::kW, "W"},
      {WriteAllAlgo::kV, "V"},
      {WriteAllAlgo::kX, "X"},
      {WriteAllAlgo::kCombinedVX, "VX"},
  };
  const char* kAdversaries[] = {"none", "random", "burst", "thrashing",
                                "chaos"};

  for (const auto& algo : kAlgos) {
    for (const char* adversary : kAdversaries) {
      // The sequential interpreter is the reference; the batch backend must
      // reproduce its bytes exactly.
      std::string reference_binary;
      for (const bool batch : {false, true}) {
        SCOPED_TRACE(std::string(algo.name) + " / " + adversary +
                     (batch ? " / batch" : " / sequential"));
        const MatrixCell cell{algo.algo, algo.name, adversary, batch};

        std::ostringstream jsonl_os;
        JsonlTraceSink jsonl_sink(jsonl_os);
        const WriteAllOutcome out = run_cell(cell, jsonl_sink);
        const std::string jsonl = jsonl_os.str();

        std::ostringstream binary_os;
        {
          BinaryTraceWriter binary_sink(binary_os);
          run_cell(cell, binary_sink);
        }
        const std::string binary = binary_os.str();

        // The compact encoding earns its keep on every cell.
        ASSERT_FALSE(jsonl.empty());
        EXPECT_LT(binary.size(), jsonl.size() / 3);

        // Lossless, byte-exact conversion both ways.
        EXPECT_EQ(reencode(binary, "jsonl"), jsonl);
        EXPECT_EQ(reencode(jsonl, "binary"), binary);

        // Bit-identical across engine modes.
        if (!batch) {
          reference_binary = binary;
        } else {
          EXPECT_EQ(binary, reference_binary);
        }

        // The aggregator's reconstruction equals the engine's tally exactly,
        // from either transport.
        for (const std::string* encoded : {&binary, &jsonl}) {
          std::istringstream in(*encoded);
          StreamAggregator aggregator;
          const std::unique_ptr<TraceReader> reader = open_trace_reader(in);
          replay_trace(*reader, aggregator);
          const WorkTally& rebuilt = aggregator.tally();
          const WorkTally& tally = out.run.tally;
          EXPECT_EQ(rebuilt.completed_work, tally.completed_work);
          EXPECT_EQ(rebuilt.attempted_work, tally.attempted_work);
          EXPECT_EQ(rebuilt.failures, tally.failures);
          EXPECT_EQ(rebuilt.restarts, tally.restarts);
          EXPECT_EQ(rebuilt.slots, tally.slots);
          EXPECT_EQ(rebuilt.halted, tally.halted);
          EXPECT_EQ(rebuilt.peak_live, tally.peak_live);
          EXPECT_TRUE(aggregator.check().empty());
          EXPECT_TRUE(aggregator.run_ended());
          EXPECT_EQ(aggregator.goal_met(), out.solved);
        }
      }
    }
  }
}

// Decoded events compare equal field-for-field with what the engine emitted
// (operator== includes phase_name by content), not just byte-for-byte.
TEST(BinaryTraceRoundTrip, DecodedEventsMatchCollectedEvents) {
  BurstAdversary adversary({.period = 4, .count = 8});
  CollectingTraceSink collected;
  EngineOptions options;
  options.sink = &collected;
  const auto out = run_writeall(WriteAllAlgo::kV, {.n = 256, .p = 32, .seed = 5},
                                adversary, options);
  ASSERT_TRUE(out.solved);

  std::ostringstream binary_os;
  {
    BinaryTraceWriter writer(binary_os);
    for (const TraceEvent& event : collected.events()) writer.on_event(event);
  }
  std::istringstream in(binary_os.str());
  BinaryTraceReader reader(in);
  TraceEvent event;
  std::size_t i = 0;
  while (reader.next(event)) {
    ASSERT_LT(i, collected.events().size());
    EXPECT_EQ(event, collected.events()[i]) << "event " << i;
    ++i;
  }
  EXPECT_EQ(i, collected.events().size());
}

// The aggregator as a direct engine sink attributes each slot to the phase
// the program's schedule assigns it. Oracle without the engine: phase id's
// slot count is the number of slots s < tally.slots with phase_of(s) == id.
TEST(StreamAggregator, PhasesMatchEngineAttribution) {
  for (const WriteAllAlgo algo :
       {WriteAllAlgo::kV, WriteAllAlgo::kW, WriteAllAlgo::kCombinedVX}) {
    const WriteAllConfig config{.n = 256, .p = 32, .seed = 5};
    BurstAdversary adversary({.period = 4, .count = 8});
    StreamAggregator aggregator;
    EngineOptions options;
    options.sink = &aggregator;
    options.max_slots = 1 << 14;  // W need not terminate under restarts
    const auto out = run_writeall(algo, config, adversary, options);
    const std::optional<PhaseSchedule> schedule =
        make_writeall(algo, config)->phase_schedule();
    ASSERT_TRUE(schedule.has_value()) << to_string(algo);
    std::vector<std::uint64_t> expected(schedule->names.size(), 0);
    for (Slot s = 0; s < out.run.tally.slots; ++s) {
      ++expected[schedule->phase_of(s)];
    }
    const std::vector<PhaseWork> phases =
        aggregator.phase_table(schedule->names);
    ASSERT_EQ(phases.size(), expected.size());
    for (std::size_t id = 0; id < phases.size(); ++id) {
      EXPECT_EQ(phases[id].slots, expected[id])
          << to_string(algo) << " phase " << schedule->names[id];
      if (id < aggregator.phases().size() && expected[id] > 0) {
        EXPECT_EQ(aggregator.phases()[id].name, schedule->names[id]);
      }
    }
    EXPECT_TRUE(aggregator.check().empty()) << to_string(algo);
  }
}

// ---------------------------------------------------------------------------
// Incremental decoding

// A trace with at least one of every record tag, built by hand.
std::string sample_binary_trace() {
  std::ostringstream os;
  {
    BinaryTraceWriter writer(os);
    TraceEvent e;
    e.kind = TraceEventKind::kPhase;
    e.slot = 0;
    e.phase = 0;
    e.phase_name = "work";
    writer.on_event(e);
    e = {};
    e.kind = TraceEventKind::kSlot;
    e.started = 300;  // multi-byte varint
    e.completed = 2;
    e.failures = 1;
    e.restarts = 1;
    writer.on_event(e);
    e = {};
    e.kind = TraceEventKind::kCommit;
    e.writes = 2;
    writer.on_event(e);
    e = {};
    e.kind = TraceEventKind::kFailure;
    e.pid = 129;
    writer.on_event(e);
    e = {};
    e.kind = TraceEventKind::kRestart;
    e.pid = 3;
    writer.on_event(e);
    e = {};
    e.kind = TraceEventKind::kHalt;
    e.slot = 1;
    e.pid = 7;
    writer.on_event(e);
    e = {};
    e.kind = TraceEventKind::kRunEnd;
    e.slot = 2;
    e.goal_met = true;
    writer.on_event(e);
  }
  return os.str();
}

TEST(BinaryTraceDecoder, ByteAtATimeMatchesWholeStream) {
  const std::string bytes = sample_binary_trace();

  std::vector<TraceEvent> whole;
  {
    BinaryTraceDecoder decoder;
    std::size_t pos = 0;
    TraceEvent event;
    while (decoder.decode(bytes, pos, event) ==
           BinaryTraceDecoder::Result::kEvent) {
      event.phase_name = {};  // views die with the decoder; compare the rest
      whole.push_back(event);
    }
    EXPECT_EQ(pos, bytes.size());
  }
  ASSERT_EQ(whole.size(), 7u);

  // Feed the same stream one byte at a time: kNeedMore must never advance
  // pos, and exactly the same events must come out.
  BinaryTraceDecoder decoder;
  std::string fed;
  std::size_t pos = 0;
  std::vector<TraceEvent> incremental;
  for (char byte : bytes) {
    fed.push_back(byte);
    TraceEvent event;
    const std::size_t before = pos;
    while (decoder.decode(fed, pos, event) ==
           BinaryTraceDecoder::Result::kEvent) {
      event.phase_name = {};
      incremental.push_back(event);
    }
    EXPECT_GE(pos, before);
  }
  EXPECT_EQ(pos, bytes.size());
  ASSERT_EQ(incremental.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(incremental[i], whole[i]) << "event " << i;
  }
}

TEST(JsonlTraceDecoder, UnterminatedLineIsNeedMore) {
  JsonlTraceDecoder decoder;
  TraceEvent event;
  std::size_t pos = 0;
  const std::string partial = "{\"e\":\"slot\",\"t\":0,\"started\":1,"
                              "\"completed\":1,\"failures\":0";
  EXPECT_EQ(decoder.decode(partial, pos, event),
            JsonlTraceDecoder::Result::kNeedMore);
  EXPECT_EQ(pos, 0u);
  const std::string whole = partial + ",\"restarts\":0}\n";
  EXPECT_EQ(decoder.decode(whole, pos, event),
            JsonlTraceDecoder::Result::kEvent);
  EXPECT_EQ(pos, whole.size());
  EXPECT_EQ(event.kind, TraceEventKind::kSlot);
  EXPECT_EQ(event.started, 1u);
}

// ---------------------------------------------------------------------------
// Malformed input

// Every truncation point of a valid stream must surface as TraceFormatError
// (mid-record) or a clean short stream (record boundary) — never garbage
// events or a hang.
TEST(BinaryTraceErrors, EveryTruncationPointIsCleanOrThrows) {
  const std::string bytes = sample_binary_trace();
  std::size_t clean = 0;
  std::size_t thrown = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    try {
      BinaryTraceReader reader(in);
      TraceEvent event;
      while (reader.next(event)) {
      }
      ++clean;
    } catch (const TraceFormatError&) {
      ++thrown;
    }
  }
  // The header and every record interior throw; only whole-record prefixes
  // (7 records + the bare header) read cleanly. cut == 0 throws too: an
  // empty stream that was supposed to be binary is a truncated header.
  EXPECT_EQ(clean, 7u);
  EXPECT_EQ(thrown, bytes.size() - 7u);
}

TEST(BinaryTraceErrors, RejectsBadMagicVersionFlagsAndTag) {
  const std::string good = sample_binary_trace();

  auto expect_throws = [](const std::string& bytes, const char* what) {
    std::istringstream in(bytes);
    BinaryTraceReader reader(in);
    TraceEvent event;
    EXPECT_THROW({ while (reader.next(event)) {} }, TraceFormatError) << what;
  };

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_throws(bad_magic, "magic");

  std::string bad_version = good;
  bad_version[4] = 9;
  expect_throws(bad_version, "version");

  std::string bad_flags = good;
  bad_flags[6] = 0x40;
  expect_throws(bad_flags, "flags");

  std::string bad_tag = good;
  bad_tag[kBinaryTraceHeaderBytes] = 0x63;
  expect_throws(bad_tag, "tag");

  // run_end carries exactly three defined flag bits.
  std::string bad_run_end = good;
  bad_run_end[bad_run_end.size() - 1] = char(0x08);
  expect_throws(bad_run_end, "run_end flags");

  // A varint of eleven continuation bytes can encode nothing.
  std::string overlong = good.substr(0, kBinaryTraceHeaderBytes);
  overlong += char(0);  // slot tag
  overlong.append(11, char(0x80));
  expect_throws(overlong, "overlong varint");
}

TEST(BinaryTraceErrors, SniffRejectsEmptyAndForeignStreams) {
  std::istringstream empty("");
  EXPECT_THROW(open_trace_reader(empty), TraceFormatError);
  std::istringstream foreign("#!/bin/sh\n");
  EXPECT_THROW(open_trace_reader(foreign), TraceFormatError);
}

TEST(BinaryTraceErrors, JsonlRejectsGarbageAndUnknownKinds) {
  auto expect_throws = [](const std::string& text) {
    std::istringstream in(text);
    JsonlTraceReader reader(in);
    TraceEvent event;
    EXPECT_THROW({ while (reader.next(event)) {} }, TraceFormatError) << text;
  };
  expect_throws("{not json}\n");
  expect_throws("{\"e\":\"warp\",\"t\":0}\n");           // unknown kind
  expect_throws("{\"e\":\"commit\",\"t\":0}\n");          // missing writes
  expect_throws("{\"e\":\"slot\",\"t\":0,\"started\":1,"  // truncated line
                "\"completed\":1,\"failures\":0");
}

TEST(BinaryTraceErrors, WriterRejectsSlotRegression) {
  std::ostringstream os;
  BinaryTraceWriter writer(os);
  TraceEvent event;
  event.kind = TraceEventKind::kSlot;
  event.slot = 5;
  writer.on_event(event);
  event.slot = 3;
  EXPECT_THROW(writer.on_event(event), TraceFormatError);
}

TEST(BinaryTraceErrors, MakeSinkRejectsUnknownFormat) {
  std::ostringstream os;
  EXPECT_NO_THROW(make_trace_sink(os, "jsonl"));
  EXPECT_NO_THROW(make_trace_sink(os, "binary"));
  EXPECT_NO_THROW(make_trace_sink(os, "csv"));
  EXPECT_THROW(make_trace_sink(os, "protobuf"), ConfigError);
}

TEST(BinaryTraceFormat, PathDefaults) {
  EXPECT_EQ(trace_format_for_path("run.bin"), "binary");
  EXPECT_EQ(trace_format_for_path("run.rft"), "binary");
  EXPECT_EQ(trace_format_for_path("run.csv"), "csv");
  EXPECT_EQ(trace_format_for_path("run.jsonl"), "jsonl");
  EXPECT_EQ(trace_format_for_path("run"), "jsonl");
}

// ---------------------------------------------------------------------------
// StreamAggregator::check on synthetic streams

TraceEvent slot_event(Slot slot, std::uint32_t started,
                      std::uint32_t completed, std::uint32_t failures = 0,
                      std::uint32_t restarts = 0) {
  TraceEvent e;
  e.kind = TraceEventKind::kSlot;
  e.slot = slot;
  e.started = started;
  e.completed = completed;
  e.failures = failures;
  e.restarts = restarts;
  return e;
}

TraceEvent commit_event(Slot slot, std::uint32_t writes) {
  TraceEvent e;
  e.kind = TraceEventKind::kCommit;
  e.slot = slot;
  e.writes = writes;
  return e;
}

TraceEvent run_end_event(Slot slot, bool goal_met = true) {
  TraceEvent e;
  e.kind = TraceEventKind::kRunEnd;
  e.slot = slot;
  e.goal_met = goal_met;
  return e;
}

TEST(StreamAggregatorCheck, CleanStreamPasses) {
  StreamAggregator agg;
  agg.on_event(slot_event(0, 4, 4));
  agg.on_event(commit_event(0, 4));
  agg.on_event(slot_event(1, 4, 3, /*failures=*/1));
  agg.on_event(commit_event(1, 3));
  TraceEvent failure;
  failure.kind = TraceEventKind::kFailure;
  failure.slot = 1;
  failure.pid = 2;
  agg.on_event(failure);
  agg.on_event(run_end_event(2));
  EXPECT_TRUE(agg.check().empty()) << agg.check().front();
  EXPECT_EQ(agg.tally().completed_work, 7u);
  EXPECT_EQ(agg.tally().failures, 1u);
}

TEST(StreamAggregatorCheck, FlagsMissingRunEnd) {
  StreamAggregator agg;
  agg.on_event(slot_event(0, 2, 2));
  agg.on_event(commit_event(0, 2));
  const auto violations = agg.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("run_end"), std::string::npos);
}

TEST(StreamAggregatorCheck, FlagsFailureEventCountMismatch) {
  StreamAggregator agg;
  agg.on_event(slot_event(0, 2, 1, /*failures=*/1));  // claims 1 failure...
  agg.on_event(commit_event(0, 1));
  agg.on_event(run_end_event(1));  // ...but no kFailure event follows
  const auto violations = agg.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("failure"), std::string::npos);
}

TEST(StreamAggregatorCheck, FlagsOutOfOrderEvents) {
  StreamAggregator agg;
  agg.on_event(slot_event(1, 2, 2));
  agg.on_event(commit_event(1, 2));
  agg.on_event(slot_event(0, 2, 2));  // slot regression
  agg.on_event(commit_event(0, 2));
  agg.on_event(run_end_event(2));
  bool flagged = false;
  for (const std::string& v : agg.check()) {
    flagged |= v.find("slot regression") != std::string::npos;
  }
  EXPECT_TRUE(flagged);
}

// A hostile phase id is a violation, not a 2^32-row table (or a wrapped
// index past its end).
TEST(StreamAggregatorCheck, FlagsPhaseIdBeyondLimit) {
  StreamAggregator agg;
  TraceEvent phase;
  phase.kind = TraceEventKind::kPhase;
  phase.phase = ~std::uint32_t{0};
  phase.phase_name = "x";
  agg.on_event(phase);
  agg.on_event(slot_event(0, 2, 2));
  agg.on_event(commit_event(0, 2));
  agg.on_event(run_end_event(1));
  EXPECT_TRUE(agg.phases().empty());
  EXPECT_EQ(agg.tally().slots, 1u);
  const auto violations = agg.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("phase id"), std::string::npos);
}

TEST(StreamAggregatorCheck, FlagsCommitSlotMismatch) {
  StreamAggregator agg;
  agg.on_event(slot_event(0, 2, 2));  // no commit for this slot
  agg.on_event(run_end_event(1));
  bool flagged = false;
  for (const std::string& v : agg.check()) {
    flagged |= v.find("commit") != std::string::npos;
  }
  EXPECT_TRUE(flagged);
}

TEST(StreamAggregatorCheck, FlagsEventsAfterRunEnd) {
  StreamAggregator agg;
  agg.on_event(slot_event(0, 2, 2));
  agg.on_event(commit_event(0, 2));
  agg.on_event(run_end_event(1));
  agg.on_event(slot_event(1, 2, 2));
  agg.on_event(commit_event(1, 2));
  bool flagged = false;
  for (const std::string& v : agg.check()) {
    flagged |= v.find("run_end") != std::string::npos;
  }
  EXPECT_TRUE(flagged);
}

TEST(StreamAggregatorWindow, RatesOverTrailingSlots) {
  StreamAggregator agg(/*window_slots=*/4);
  // Eight slots; the last four each complete 2 of 3 started with 1 failure.
  for (Slot s = 0; s < 8; ++s) {
    const bool late = s >= 4;
    agg.on_event(slot_event(s, late ? 3 : 10, late ? 2 : 10,
                            late ? 1 : 0));
    agg.on_event(commit_event(s, late ? 2 : 10));
  }
  EXPECT_EQ(agg.window_capacity(), 4u);
  EXPECT_EQ(agg.window_filled(), 4u);
  EXPECT_DOUBLE_EQ(agg.window_throughput(), 2.0);
  EXPECT_DOUBLE_EQ(agg.window_failure_rate(), 1.0);
  EXPECT_DOUBLE_EQ(agg.window_restart_rate(), 0.0);
  EXPECT_DOUBLE_EQ(agg.window_live_mean(), 3.0);
}

}  // namespace
}  // namespace rfsp
