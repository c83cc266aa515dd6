// Tests for the observability layer (src/obs): metrics primitives, sink
// event streams, per-phase attribution, and the reconstruction invariants
// documented in obs/trace.hpp — an event stream alone must re-derive the
// exact WorkTally the engine accounted.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "fault/adversaries.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "pram/engine.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "programs/programs.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

// ---------------------------------------------------------------------------
// Metrics primitives

TEST(Histogram, Log2Buckets) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
}

TEST(Histogram, Moments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.observe(0);
  h.observe(3);
  h.observe(9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.bucket(0), 1u);  // the zero
  EXPECT_EQ(h.bucket(2), 1u);  // 3 in [2,4)
  EXPECT_EQ(h.bucket(4), 1u);  // 9 in [8,16)
}

TEST(MetricsRegistry, FindOrCreateIsStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.b");
  c.add(2);
  reg.counter("a.b").add(3);
  EXPECT_EQ(c.value(), 5u);  // same object both times
  reg.gauge("g").set(1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 1.5);
}

TEST(MetricsRegistry, JsonSnapshot) {
  MetricsRegistry reg;
  reg.counter("runs").add(3);
  reg.gauge("ratio").set(2.5);
  reg.histogram("sizes").observe(5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"runs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"sizes\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("[3, 1]"), std::string::npos);  // 5 lands in bucket 3
}

// Registration order must not leak into snapshots: equal registries built
// in different orders emit byte-identical JSON (the stable-key-order
// guarantee documented on MetricsRegistry::write_json — snapshot diffs are
// regression artifacts, so any ordering noise would be a false diff).
TEST(MetricsRegistry, JsonSnapshotIsOrderIndependent) {
  MetricsRegistry forward;
  forward.counter("a.runs").add(3);
  forward.counter("z.errors").add(1);
  forward.gauge("m.ratio").set(2.5);
  forward.gauge("b.load").set(0.5);
  forward.histogram("q.sizes").observe(5);
  forward.histogram("c.waits").observe(9);

  MetricsRegistry backward;
  backward.histogram("c.waits").observe(9);
  backward.histogram("q.sizes").observe(5);
  backward.gauge("b.load").set(0.5);
  backward.gauge("m.ratio").set(2.5);
  backward.counter("z.errors").add(1);
  backward.counter("a.runs").add(3);

  std::ostringstream fwd_os;
  std::ostringstream bwd_os;
  forward.write_json(fwd_os);
  backward.write_json(bwd_os);
  EXPECT_EQ(fwd_os.str(), bwd_os.str());

  // And the keys really are lexicographic within each section.
  const std::string json = fwd_os.str();
  EXPECT_LT(json.find("\"a.runs\""), json.find("\"z.errors\""));
  EXPECT_LT(json.find("\"b.load\""), json.find("\"m.ratio\""));
  EXPECT_LT(json.find("\"c.waits\""), json.find("\"q.sizes\""));
}

// ---------------------------------------------------------------------------
// Engine event streams

WriteAllOutcome observed_run(WriteAllAlgo algo, Adversary& adversary,
                             TraceSink& sink, Addr n = 512,
                             Pid p = 64, EngineOptions options = {}) {
  options.sink = &sink;
  return run_writeall(algo, {.n = n, .p = p, .seed = 1}, adversary, options);
}

// The headline acceptance criterion: on an adversarial V run, the event
// stream alone reconstructs the exact WorkTally.
TEST(TraceSink, ReconstructsExactTallyFromEvents) {
  BurstAdversary adversary({.period = 4, .count = 16});
  CollectingTraceSink sink;
  const WriteAllOutcome out =
      observed_run(WriteAllAlgo::kV, adversary, sink);
  ASSERT_TRUE(out.solved);
  ASSERT_GT(out.run.tally.pattern_size(), 0u);

  const WorkTally rebuilt = sink.reconstruct_tally();
  EXPECT_EQ(rebuilt.completed_work, out.run.tally.completed_work);
  EXPECT_EQ(rebuilt.attempted_work, out.run.tally.attempted_work);
  EXPECT_EQ(rebuilt.failures, out.run.tally.failures);
  EXPECT_EQ(rebuilt.restarts, out.run.tally.restarts);
  EXPECT_EQ(rebuilt.slots, out.run.tally.slots);
  EXPECT_EQ(rebuilt.halted, out.run.tally.halted);
  EXPECT_EQ(rebuilt.peak_live, out.run.tally.peak_live);
}

TEST(TraceSink, EventOrderWithinSlot) {
  BurstAdversary adversary({.period = 4, .count = 16});
  CollectingTraceSink sink;
  const WriteAllOutcome out =
      observed_run(WriteAllAlgo::kV, adversary, sink);
  ASSERT_TRUE(out.solved);

  // Slots are non-decreasing, and within a slot the order is
  // kPhase?, kSlot, kCommit, kFailure*, kRestart*, kHalt*.
  auto rank = [](TraceEventKind kind) {
    switch (kind) {
      case TraceEventKind::kPhase: return 0;
      case TraceEventKind::kSlot: return 1;
      case TraceEventKind::kCommit: return 2;
      case TraceEventKind::kFailure: return 3;
      case TraceEventKind::kRestart: return 4;
      case TraceEventKind::kHalt: return 5;
      case TraceEventKind::kRunEnd: return 6;
    }
    return 7;
  };
  const auto& events = sink.events();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    ASSERT_GE(events[i].slot, events[i - 1].slot);
    if (events[i].slot == events[i - 1].slot) {
      ASSERT_GE(rank(events[i].kind), rank(events[i - 1].kind))
          << "slot " << events[i].slot;
    }
  }
  EXPECT_EQ(events.back().kind, TraceEventKind::kRunEnd);
  EXPECT_TRUE(events.back().goal_met);
}

TEST(TraceSink, JsonlLineFormat) {
  BurstAdversary adversary({.period = 4, .count = 16});
  std::ostringstream os;
  JsonlTraceSink sink(os);
  EngineOptions options;
  options.sink = &sink;
  const auto out = run_writeall(WriteAllAlgo::kV,
                                {.n = 256, .p = 32, .seed = 1}, adversary,
                                options);
  ASSERT_TRUE(out.solved);

  std::istringstream lines(os.str());
  std::string line;
  std::size_t count = 0;
  bool saw_phase = false;
  while (std::getline(lines, line)) {
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
    ASSERT_EQ(line.rfind("{\"e\":\"", 0), 0u) << line;
    if (line.find("\"e\":\"phase\"") != std::string::npos) {
      saw_phase = true;
      EXPECT_NE(line.find("\"name\":\""), std::string::npos);
    }
    ++count;
  }
  EXPECT_TRUE(saw_phase);
  // At least one slot+commit pair per slot plus the run_end line.
  EXPECT_GE(count, 2 * out.run.tally.slots + 1);
}

TEST(TraceSink, CsvHeaderAndRowShape) {
  NoFailures none;
  std::ostringstream os;
  CsvTraceSink sink(os);
  EngineOptions options;
  options.sink = &sink;
  const auto out = run_writeall(WriteAllAlgo::kSequential,
                                {.n = 8, .p = 1, .seed = 1}, none, options);
  ASSERT_TRUE(out.solved);
  std::istringstream lines(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "event,slot,pid,started,completed,failures,restarts,writes,"
            "phase,name");
  std::string row;
  std::size_t rows = 0;
  const std::size_t commas = std::count(header.begin(), header.end(), ',');
  while (std::getline(lines, row)) {
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), commas) << row;
    ++rows;
  }
  EXPECT_GE(rows, out.run.tally.slots);
}

// ---------------------------------------------------------------------------
// Per-phase attribution (StreamAggregator over the engine's event stream)

void expect_phases_sum_to_tally(const StreamAggregator& stream,
                                const WorkTally& tally,
                                std::size_t expected_phases) {
  const std::vector<PhaseWork>& phases = stream.phases();
  ASSERT_EQ(phases.size(), expected_phases);
  PhaseWork sum;
  for (const PhaseWork& phase : phases) {
    sum.completed_work += phase.completed_work;
    sum.attempted_work += phase.attempted_work;
    sum.failures += phase.failures;
    sum.restarts += phase.restarts;
    sum.slots += phase.slots;
  }
  EXPECT_EQ(sum.completed_work, tally.completed_work);
  EXPECT_EQ(sum.attempted_work, tally.attempted_work);
  EXPECT_EQ(sum.failures, tally.failures);
  EXPECT_EQ(sum.restarts, tally.restarts);
  EXPECT_EQ(sum.slots, tally.slots);
  EXPECT_TRUE(stream.check().empty());
}

TEST(PhaseAttribution, VSumsToTally) {
  BurstAdversary adversary({.period = 4, .count = 16});
  StreamAggregator stream;
  const auto out = observed_run(WriteAllAlgo::kV, adversary, stream);
  ASSERT_TRUE(out.solved);
  expect_phases_sum_to_tally(stream, out.run.tally, 3);
  const std::vector<PhaseWork>& phases = stream.phases();
  EXPECT_EQ(phases[0].name, "alloc");
  EXPECT_EQ(phases[1].name, "work");
  EXPECT_EQ(phases[2].name, "update");
  for (const PhaseWork& phase : phases) {
    EXPECT_GT(phase.slots, 0u) << phase.name;
  }
}

TEST(PhaseAttribution, WSumsToTally) {
  // W only terminates without restarts; crash-free keeps it simple.
  NoFailures none;
  StreamAggregator stream;
  const auto out = observed_run(WriteAllAlgo::kW, none, stream);
  ASSERT_TRUE(out.solved);
  expect_phases_sum_to_tally(stream, out.run.tally, 4);
  EXPECT_EQ(stream.phases()[0].name, "count");
  EXPECT_EQ(stream.phases()[3].name, "update");
}

TEST(PhaseAttribution, XSumsToTally) {
  BurstAdversary adversary({.period = 4, .count = 16});
  StreamAggregator stream;
  const auto out = observed_run(WriteAllAlgo::kX, adversary, stream);
  ASSERT_TRUE(out.solved);
  expect_phases_sum_to_tally(stream, out.run.tally, 1);
  EXPECT_EQ(stream.phases()[0].name, "descend");
}

TEST(PhaseAttribution, CombinedVXSumsToTally) {
  BurstAdversary adversary({.period = 4, .count = 16});
  StreamAggregator stream;
  const auto out = observed_run(WriteAllAlgo::kCombinedVX, adversary, stream);
  ASSERT_TRUE(out.solved);
  expect_phases_sum_to_tally(stream, out.run.tally, 4);
  EXPECT_EQ(stream.phases()[3].name, "x-descend");
  // Odd slots all belong to X: the interleave gives it ~half the slots.
  EXPECT_GE(stream.phases()[3].slots, out.run.tally.slots / 2);
}

TEST(PhaseAttribution, PhaseEventsMatchSchedule) {
  BurstAdversary adversary({.period = 4, .count = 16});
  CollectingTraceSink sink;
  const WriteAllOutcome out =
      observed_run(WriteAllAlgo::kV, adversary, sink, 256, 32);
  ASSERT_TRUE(out.solved);
  const std::optional<PhaseSchedule> schedule =
      make_writeall(WriteAllAlgo::kV, {.n = 256, .p = 32, .seed = 1})
          ->phase_schedule();
  ASSERT_TRUE(schedule.has_value());
  // kPhase events carry ids within range, copies of the schedule's names,
  // and never repeat the previous phase (transitions only).
  std::uint32_t last = ~std::uint32_t{0};
  std::size_t transitions = 0;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind != TraceEventKind::kPhase) continue;
    ASSERT_LT(event.phase, 3u);
    EXPECT_NE(event.phase, last);
    EXPECT_EQ(event.phase_name, schedule->names[event.phase]);
    last = event.phase;
    ++transitions;
  }
  EXPECT_GT(transitions, 3u);  // several iterations' worth
}

// ---------------------------------------------------------------------------
// Engine metrics (StreamAggregator::write_engine_metrics)

void expect_counters_equal(const MetricsRegistry& metrics, const WorkTally& t) {
  const auto counter = [&](const char* name) {
    return metrics.counters().at(name).value();
  };
  EXPECT_EQ(counter("engine.completed_work"), t.completed_work);
  EXPECT_EQ(counter("engine.attempted_work"), t.attempted_work);
  EXPECT_EQ(counter("engine.failures"), t.failures);
  EXPECT_EQ(counter("engine.restarts"), t.restarts);
  EXPECT_EQ(counter("engine.halted"), t.halted);
  EXPECT_EQ(counter("engine.slots_to_goal"), t.slots);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("engine.peak_live").value(),
                   static_cast<double>(t.peak_live));
}

TEST(EngineMetrics, InvariantsAgainstTally) {
  BurstAdversary burst({.period = 4, .count = 16});
  FaultSchedule schedule;
  RecordingAdversary adversary(burst, schedule);
  const Pid p = 64;
  StreamAggregator stream;
  const auto out = observed_run(WriteAllAlgo::kV, adversary, stream, 512, p);
  ASSERT_TRUE(out.solved);
  const WorkTally& t = out.run.tally;
  MetricsRegistry metrics;
  stream.write_engine_metrics(t, p, metrics);

  expect_counters_equal(metrics, t);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("engine.goal_met").value(), 1.0);
  EXPECT_EQ(metrics.counters().size(), 6u);
  EXPECT_EQ(metrics.gauges().size(), 2u);
  EXPECT_EQ(metrics.histograms().size(), 2u);

  // live_per_slot observes every slot's started count: count == slots,
  // sum == S'. restarts_per_processor observes every PID once.
  const Histogram& live = metrics.histograms().at("engine.live_per_slot");
  EXPECT_EQ(live.count(), t.slots);
  EXPECT_EQ(live.sum(), t.attempted_work);
  EXPECT_EQ(live.max(), t.peak_live);
  const Histogram& restarts =
      metrics.histograms().at("engine.restarts_per_processor");
  // Oracle outside the stream: the recorded schedule's restart moves.
  std::vector<std::uint64_t> per_pid(p, 0);
  for (const Move& m : schedule.moves) {
    if (m.kind == Move::Kind::kRestart) ++per_pid[m.target];
  }
  Histogram expected;
  for (const std::uint64_t count : per_pid) expected.observe(count);
  EXPECT_EQ(restarts.count(), p);
  EXPECT_EQ(restarts.sum(), t.restarts);
  EXPECT_EQ(restarts.max(), expected.max());
  for (unsigned k = 0; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(restarts.bucket(k), expected.bucket(k)) << "bucket " << k;
  }
}

// A resumed run's stream starts at the resume slot, but its counters are
// the whole run's: they come from the cumulative tally.
TEST(EngineMetrics, ResumedRunCountersAreCumulative) {
  const WriteAllConfig config{.n = 512, .p = 64, .seed = 1};
  const Slot resume_at = 40;
  EngineCheckpoint cp;
  EngineOptions capture;
  capture.checkpoint_every = resume_at;
  capture.on_checkpoint = [&](const EngineCheckpoint& c) {
    if (c.slot == resume_at) cp = c;
  };
  RandomAdversary straight_adversary(7, {.fail_prob = 0.1});
  const WriteAllOutcome straight = run_writeall(
      WriteAllAlgo::kCombinedVX, config, straight_adversary, capture);
  ASSERT_TRUE(straight.solved);
  ASSERT_EQ(cp.slot, resume_at);

  RandomAdversary adversary(7, {.fail_prob = 0.1});
  StreamAggregator stream;
  EngineOptions options;
  options.sink = &stream;
  const WriteAllOutcome resumed = run_writeall(
      WriteAllAlgo::kCombinedVX, config, adversary, options, &cp);
  ASSERT_TRUE(resumed.solved);
  const WorkTally& t = resumed.run.tally;
  ASSERT_EQ(t, straight.run.tally);
  EXPECT_EQ(stream.tally().slots, t.slots - resume_at);

  MetricsRegistry metrics;
  stream.write_engine_metrics(t, config.p, metrics);
  expect_counters_equal(metrics, t);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("engine.goal_met").value(), 1.0);
  // The histograms cover the stream: the slots after the resume point.
  EXPECT_EQ(metrics.histograms().at("engine.live_per_slot").count(),
            t.slots - resume_at);
  EXPECT_EQ(metrics.histograms().at("engine.restarts_per_processor").sum(),
            stream.tally().restarts);
}

// Repeated, interleaved restarts count per PID; PIDs >= P (a hostile or
// spliced stream) are dropped. The pinned histogram is {3, 2, 1, 0}.
TEST(EngineMetrics, RestartHistogramCountsRepeatsAndDropsForeignPids) {
  const Pid p = 4;
  StreamAggregator stream;
  TraceEvent restart;
  restart.kind = TraceEventKind::kRestart;
  for (const Pid pid : {2u, 0u, 7u, 2u, 3u, 4000000000u, 0u, 2u, 7u}) {
    restart.pid = pid;
    stream.on_event(restart);
  }
  MetricsRegistry metrics;
  stream.write_engine_metrics(WorkTally{}, p, metrics);
  const Histogram& restarts =
      metrics.histograms().at("engine.restarts_per_processor");
  EXPECT_EQ(restarts.count(), 4u);
  EXPECT_EQ(restarts.sum(), 6u);
  EXPECT_EQ(restarts.max(), 3u);
  EXPECT_EQ(restarts.bucket(0), 1u);  // PID 1: no restart
  EXPECT_EQ(restarts.bucket(1), 1u);  // PID 3: 1
  EXPECT_EQ(restarts.bucket(2), 2u);  // PID 0: 2, PID 2: 3
  for (unsigned k = 3; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(restarts.bucket(k), 0u) << "bucket " << k;
  }
}

// ---------------------------------------------------------------------------
// Simulator plumbing

TEST(SimObservability, SinkReconstructsTally) {
  PrefixSumProgram program({1, 2, 3, 4, 5, 6, 7, 8});
  BurstAdversary adversary({.period = 8, .count = 2});
  CollectingTraceSink collected;
  StreamAggregator stream;
  TeeTraceSink tee(collected, stream);
  SimOptions options;
  options.physical_processors = 4;
  options.engine.sink = &tee;
  const SimResult r = simulate(program, adversary, options);
  ASSERT_TRUE(r.completed);

  const WorkTally rebuilt = collected.reconstruct_tally();
  EXPECT_EQ(rebuilt.completed_work, r.tally.completed_work);
  EXPECT_EQ(rebuilt.attempted_work, r.tally.attempted_work);
  EXPECT_EQ(rebuilt.failures, r.tally.failures);
  EXPECT_EQ(rebuilt.restarts, r.tally.restarts);
  EXPECT_EQ(rebuilt.slots, r.tally.slots);
  EXPECT_EQ(stream.tally(), rebuilt);
  EXPECT_TRUE(stream.phases().empty());  // passes advance dynamically

  MetricsRegistry metrics;
  stream.write_engine_metrics(r.tally, 4, metrics);
  expect_counters_equal(metrics, r.tally);
  EXPECT_EQ(metrics.histograms().at("engine.restarts_per_processor").count(),
            4u);
}

}  // namespace
}  // namespace rfsp
