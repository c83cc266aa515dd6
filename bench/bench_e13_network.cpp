// E13 — the §2.3 architecture substrate (Figure 1): a synchronous
// combining interconnection network makes the unit-cost concurrent-access
// assumption of the CRCW PRAM physically plausible.
//
// Shape to reproduce (classic [KRS 88]/[Sch 80] argument the paper cites):
// with combining, a P-processor hot spot (everyone touching one cell)
// drains in Θ(log P) network cycles; without combining it tree-saturates
// and drains in Θ(P). Also routes algorithm X's *actual* per-slot memory
// traffic through the network, showing its real access patterns stay near
// pipe-depth latency.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "network/combining.hpp"
#include "pram/engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "writeall/algx.hpp"

namespace rfsp {
namespace {

BatchResult hot_spot(unsigned ports, bool combining) {
  CombiningNetwork net({.ports = ports, .combining = combining}, 8);
  std::vector<MemRequest> batch;
  for (Pid pid = 0; pid < ports; ++pid) {
    batch.push_back({.pid = pid, .addr = 1, .write = false});
  }
  return net.route(batch);
}

void print_hotspot() {
  Table table({"P", "stages", "ticks (combining)", "ticks (no combining)",
               "merges", "max queue (no comb.)"});
  for (unsigned ports : {16u, 64u, 256u, 1024u}) {
    const BatchResult with = hot_spot(ports, true);
    const BatchResult without = hot_spot(ports, false);
    CombiningNetwork probe({.ports = ports}, 8);
    table.add_row({fmt_int(ports), fmt_int(probe.stages()),
                   fmt_int(with.ticks), fmt_int(without.ticks),
                   fmt_int(with.merges), fmt_int(without.max_queue)});
  }
  bench::print_table(
      "E13a: P-processor hot spot — combining gives Θ(log P), without it "
      "the tree saturates at Θ(P)",
      table);
}

// Audit hook that captures each slot's shared-memory traffic. One network
// request per access; an update cycle's few accesses would issue over
// consecutive network rounds — the first read is representative of the
// per-round pattern, and writes go as writes. The interpreter runs the
// cycles in PID order, so each processor's operations arrive contiguously.
class TrafficRecorder final : public EngineAuditHook {
 public:
  void on_read(Pid pid, Addr addr) override {
    if (pid == last_reader_) return;
    last_reader_ = pid;
    batch_.push_back({.pid = pid, .addr = addr, .write = false});
  }
  void on_write(Pid pid, Addr addr, Word value) override {
    if (pid == last_writer_) return;
    last_writer_ = pid;
    batch_.push_back({.pid = pid, .addr = addr, .write = true, .value = value});
  }
  void on_snapshot(Pid /*pid*/) override {}
  void on_cycles_done(const SharedMemory& /*mem*/, Slot /*slot*/,
                      std::span<const CycleTrace> /*traces*/,
                      std::span<const Pid> /*live*/) override {
    if (!batch_.empty()) batches.push_back(std::move(batch_));
    batch_.clear();
    last_reader_ = last_writer_ = kNoPid;
  }

  std::vector<std::vector<MemRequest>> batches;

 private:
  std::vector<MemRequest> batch_;
  Pid last_reader_ = kNoPid;
  Pid last_writer_ = kNoPid;
};

void print_real_traffic() {
  const Addr n = 512;
  const AlgX program({.n = n, .p = static_cast<Pid>(n)});
  TrafficRecorder recorder;
  EngineOptions options;
  options.audit = &recorder;
  Engine engine(program, options);
  NoFailures none;
  engine.run(none);

  Table table({"traffic", "slots routed", "mean ticks", "max ticks",
               "total merges"});
  for (const bool combining : {true, false}) {
    CombiningNetwork net(
        {.ports = static_cast<unsigned>(n), .combining = combining},
        program.memory_size());
    std::vector<double> ticks;
    std::uint64_t merges = 0;
    for (const auto& batch : recorder.batches) {
      // Cap: one request per port per batch (split oversized batches).
      std::vector<MemRequest> round;
      for (const MemRequest& r : batch) {
        round.push_back(r);
        if (round.size() == n) {
          const BatchResult br = net.route(round);
          ticks.push_back(static_cast<double>(br.ticks));
          merges += br.merges;
          round.clear();
        }
      }
      if (!round.empty()) {
        const BatchResult br = net.route(round);
        ticks.push_back(static_cast<double>(br.ticks));
        merges += br.merges;
      }
    }
    const Summary s = summarize(ticks);
    table.add_row({combining ? "X, combining" : "X, no combining",
                   fmt_int(s.count), fmt_fixed(s.mean, 1),
                   fmt_fixed(s.max, 0), fmt_int(merges)});
  }
  bench::print_table(
      "E13b: algorithm X's real per-slot traffic (N=P=512, fault-free) "
      "routed through the network",
      table);
}

void BM_HotSpot(benchmark::State& state) {
  const unsigned ports = static_cast<unsigned>(state.range(0));
  const bool combining = state.range(1) != 0;
  BatchResult r;
  for (auto _ : state) r = hot_spot(ports, combining);
  state.counters["ticks"] = static_cast<double>(r.ticks);
  state.counters["merges"] = static_cast<double>(r.merges);
}

}  // namespace
}  // namespace rfsp

int main(int argc, char** argv) {
  rfsp::print_hotspot();
  rfsp::print_real_traffic();
  for (long ports : {64L, 256L, 1024L}) {
    for (long combining : {1L, 0L}) {
      benchmark::RegisterBenchmark(
          ("E13/hotspot/p:" + std::to_string(ports) +
           (combining ? "/combining" : "/naive"))
              .c_str(),
          rfsp::BM_HotSpot)
          ->Args({ports, combining})
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
