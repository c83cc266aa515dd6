// E18 — trace-sink overhead and encoding density (docs/observability.md,
// "Binary trace transport"; docs/api.md §11).
//
// The observability contract is that tracing is opt-in and that opting in
// is cheap enough to leave on at service scale. This bench measures the
// four interesting sink configurations over the same engine run:
//
//   none        — the baseline fast path (one predicted null test/slot);
//   jsonl       — the debuggable text transport;
//   binary      — the compact transport (obs/binary_trace.hpp);
//   aggregator  — StreamAggregator consuming events in-process, no bytes.
//
// Encoders write into a counting, discarding stream so the rows time the
// encoding itself rather than disk. Each row reports wall time plus the
// bytes produced and bytes/event — the binary rows must come in at least
// 3x denser than JSONL (the round-trip tests prove the two carry identical
// information). Rows: a faulty random run at N = 2^16, and the batch
// backend at N = 2^24 showing a fully traced headline-size run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <ostream>
#include <streambuf>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "obs/binary_trace.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

// Counts and discards: sized like /dev/null, timed like a sink that keeps
// up, so rows measure encoding cost and not the filesystem.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) ++bytes_;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

enum class SinkKind { kNone, kJsonl, kBinary, kAggregator };

const char* sink_name(SinkKind kind) {
  switch (kind) {
    case SinkKind::kNone: return "none";
    case SinkKind::kJsonl: return "jsonl";
    case SinkKind::kBinary: return "binary";
    case SinkKind::kAggregator: return "aggregator";
  }
  return "?";
}

struct RunStats {
  WriteAllOutcome out;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
};

RunStats run_traced(Addr n, Pid p, bool batch, SinkKind kind) {
  RandomAdversary adversary(
      11, RandomAdversaryOptions{.fail_prob = 0.02, .restart_prob = 0.5,
                                 .max_pattern = 4000});
  EngineOptions options;
  options.batch = batch;

  CountingBuf counter;
  std::ostream null_stream(&counter);
  StreamAggregator aggregator;
  std::unique_ptr<TraceSink> encoder;
  switch (kind) {
    case SinkKind::kNone:
      break;
    case SinkKind::kJsonl:
      encoder = std::make_unique<JsonlTraceSink>(null_stream);
      options.sink = encoder.get();
      break;
    case SinkKind::kBinary:
      encoder = std::make_unique<BinaryTraceWriter>(null_stream);
      options.sink = encoder.get();
      break;
    case SinkKind::kAggregator:
      options.sink = &aggregator;
      break;
  }

  RunStats stats;
  stats.out = run_writeall(WriteAllAlgo::kCombinedVX, {.n = n, .p = p, .seed = 1},
                           adversary, options);
  encoder.reset();  // drain the writer's buffer into the counter
  stats.bytes = counter.bytes();
  if (kind == SinkKind::kAggregator) stats.events = aggregator.events();
  return stats;
}

void BM_TraceSink(benchmark::State& state) {
  const Addr n = static_cast<Addr>(state.range(0));
  const Pid p = static_cast<Pid>(state.range(1));
  const bool batch = state.range(2) != 0;
  const auto kind = static_cast<SinkKind>(state.range(3));
  RunStats stats;
  for (auto _ : state) {
    stats = run_traced(n, p, batch, kind);
    benchmark::DoNotOptimize(stats.out.run.tally.completed_work);
  }
  if (!stats.out.solved) state.SkipWithError("postcondition failed");
  bench::report(state, stats.out.run.tally, n);
  state.counters["trace_bytes"] = static_cast<double>(stats.bytes);
  state.SetLabel(std::string(sink_name(kind)) + (batch ? "/batch" : ""));
}

void register_benches() {
  const struct { Addr n; Pid p; bool batch; } kSizes[] = {
      {Addr{1} << 16, Pid{256}, false},
      // Headline size: a fully traced N = 2^24 run on the batch backend.
      {Addr{1} << 24, Pid{4096}, true},
  };
  for (const auto& size : kSizes) {
    for (const SinkKind kind : {SinkKind::kNone, SinkKind::kJsonl,
                                SinkKind::kBinary, SinkKind::kAggregator}) {
      const std::string name = "E18/sink:" + std::string(sink_name(kind)) +
                               (size.batch ? "/batch" : "") +
                               "/n:" + std::to_string(size.n) +
                               "/p:" + std::to_string(size.p);
      auto* bench = benchmark::RegisterBenchmark(name.c_str(), BM_TraceSink)
                        ->Args({static_cast<long>(size.n),
                                static_cast<long>(size.p), size.batch ? 1 : 0,
                                static_cast<long>(kind)});
      // The headline row runs once; the 2^16 rows auto-iterate so the
      // sink-overhead deltas (a couple ms on a ~15 ms run) rise above
      // run-to-run noise.
      if (size.n >= (Addr{1} << 24)) bench->Iterations(1);
    }
  }
}

void print_report() {
  const Addr n = Addr{1} << 16;
  const Pid p = 256;
  Table table({"sink", "wall ms", "bytes", "bytes/event", "vs none"});
  double none_ms = 0.0;
  std::uint64_t events = 0;
  {
    // One untimed aggregator pass pins the event count for the density
    // column (every sink sees the identical stream).
    events = run_traced(n, p, false, SinkKind::kAggregator).events;
  }
  for (const SinkKind kind : {SinkKind::kNone, SinkKind::kJsonl,
                              SinkKind::kBinary, SinkKind::kAggregator}) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const RunStats stats = run_traced(n, p, false, kind);
    const auto t1 = clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (kind == SinkKind::kNone) none_ms = ms;
    table.add_row(
        {sink_name(kind), fmt_fixed(ms, 2),
         stats.bytes == 0 ? "-" : fmt_int(stats.bytes),
         stats.bytes == 0
             ? "-"
             : fmt_fixed(static_cast<double>(stats.bytes) /
                             static_cast<double>(events), 1),
         fmt_fixed(none_ms == 0.0 ? 0.0 : ms / none_ms, 2)});
  }
  bench::print_table(
      "E18: trace sink overhead (VX, random faults, N = 2^16, P = 256)",
      table);
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
