// rfsp_bench — end-to-end and per-layer benchmark of the rfsp run path.
//
//   rfsp_bench --workload NAME --seed N --seconds T --trace 0|1 --out DIR
//              [--commit SHA] [--digest HEX]
//
// Runs one workload (a closed-loop batch job: one job at a time, a single
// thread) back to back for T seconds and prints, as its last stdout line,
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// With --trace 0 every job is untraced and the metrics are the end-to-end
// ones (medians over the jobs). With --trace 1 untraced and traced jobs
// alternate: traced jobs hand the library the decorators of layers.hpp, give
// the per-layer metrics, and must reproduce the untraced job's engine runs
// (see EngineRun), outputs and artifact bytes exactly. README.md maps every
// metric to its layer and workload.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "fault/stalkers.hpp"
#include "layers.hpp"
#include "obs/binary_trace.hpp"
#include "obs/stream.hpp"
#include "programs/programs.hpp"
#include "replay/checkpoint.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "writeall/algx.hpp"
#include "writeall/runner.hpp"

namespace {

using namespace rfsp;
using namespace rfsp_bench;
namespace fs = std::filesystem;

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "check failed: " << what << '\n';
    }
  }
};

// One Engine::run as a decorator that forwards wrongly would change it: a
// missed override silently falls back to the base default (batch traces on,
// incremental goal off) while the tally stays the same.
struct EngineRun {
  WorkTally tally;
  bool batch = false;             // Engine::batch_active
  bool incremental_goal = false;  // Engine::goal_unsatisfied engaged
  bool inspects_cycles = false;   // of the adversary the engine ran
  friend bool operator==(const EngineRun&, const EngineRun&) = default;
};

// What one execution of a workload measured.
struct JobResult {
  std::int64_t setup_ns = 0;  // programs, engines, files before slot 0
  std::int64_t run_ns = 0;    // first slot through verified, closed output
  // Model values of the workload's Write-All / simulation instances.
  std::uint64_t work_s = 0;     // S
  std::uint64_t attempted = 0;  // S'
  std::uint64_t slots = 0;
  std::vector<EngineRun> runs;
  std::vector<std::vector<Word>> outputs;  // simulated memories
  std::uint64_t trace_bytes = 0;
  std::uint64_t schedule_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  // Layer figures taken around whole library calls.
  std::uint64_t load_ns = 0;           // load_checkpoint
  std::uint64_t restore_ns = 0;        // Engine::restore
  std::uint64_t schedule_save_ns = 0;  // save_schedule
  std::uint64_t passes = 0;            // simulator Write-All passes
  std::uint64_t sim_tasks = 0;         // N·τ of the simulated programs
  Checks checks;

  // A resumed run repeats its instance's tally, so it adds no model work.
  void record_run(const Engine& engine, const Adversary& adversary,
                  const WorkTally& tally, bool resumed = false) {
    runs.push_back({tally, engine.batch_active(),
                    engine.goal_unsatisfied().has_value(),
                    adversary.inspects_cycles()});
    if (resumed) return;
    work_s += tally.completed_work;
    attempted += tally.attempted_work;
    slots += tally.slots;
  }
};

// Hands the library either its own objects (untraced) or the layer
// decorators around them (traced), and owns the decorators.
class Harness {
 public:
  explicit Harness(SpanRecorder* rec) : rec_(rec) {}

  const Program& program(const Program& p) {
    if (rec_ == nullptr) return p;
    return keep(std::make_unique<TracedProgram>(p, *rec_));
  }
  const SimProgram& sim_program(const SimProgram& p) {
    if (rec_ == nullptr) return p;
    return keep(std::make_unique<TracedSimProgram>(p, *rec_));
  }
  TraceSink& sink(TraceSink& s) {
    if (rec_ == nullptr) return s;
    return keep(std::make_unique<TracedSink>(s, *rec_));
  }
  CheckpointCallback on_checkpoint(CheckpointCallback f) {
    if (rec_ == nullptr) return f;
    return traced_callback(std::move(f), *rec_);
  }
  // The adversary chain the engine sees: [boundary] -> [recorder] ->
  // [fault] -> `inner`, with the bracketed parts present when traced or
  // recording respectively.
  Adversary& adversary(Adversary& inner, FaultSchedule* record = nullptr) {
    Adversary* a = &inner;
    if (rec_ != nullptr) {
      a = &keep(std::make_unique<TracedAdversary>(*a, *rec_,
                                                  AdversaryRole::kFault));
    }
    if (record != nullptr) {
      a = &keep(std::make_unique<RecordingAdversary>(*a, *record));
      if (rec_ != nullptr) rec_->recording = true;
    }
    if (rec_ != nullptr) {
      a = &keep(std::make_unique<TracedAdversary>(*a, *rec_,
                                                  AdversaryRole::kBoundary));
    }
    return *a;
  }
  RunResult run(Engine& engine, Adversary& adversary) {
    if (rec_ != nullptr) rec_->begin_run();
    RunResult result = engine.run(adversary);
    if (rec_ != nullptr) rec_->end_run();
    return result;
  }

 private:
  template <class T>
  T& keep(std::unique_ptr<T> p) {
    T& ref = *p;
    owned_.emplace_back(std::move(p));
    return ref;
  }

  SpanRecorder* rec_;
  std::vector<std::shared_ptr<void>> owned_;
};

std::uint64_t file_bytes(const fs::path& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

// Same generator as sim_cli's inputs, so `sim_cli --seed S` reproduces a run.
std::vector<Word> random_values(std::size_t n, std::uint64_t seed,
                                Word bound) {
  Rng rng(seed);
  std::vector<Word> v(n);
  for (Word& w : v) w = static_cast<Word>(rng.below(bound));
  return v;
}

// --- Workloads ----------------------------------------------------------------

struct JobContext {
  std::uint64_t seed = 0;
  fs::path out;                 // artifact directory
  SpanRecorder* rec = nullptr;  // null: untraced
  bool first = false;           // the process's first (warm-up) job
};

// W, V, X, VX back to back on the batch kernels, no faults: kernels and the
// commit do the work; fault, obs and replay do none.
JobResult kernels_faultfree(const JobContext& ctx) {
  JobResult job;
  for (const WriteAllAlgo algo :
       {WriteAllAlgo::kW, WriteAllAlgo::kV, WriteAllAlgo::kX,
        WriteAllAlgo::kCombinedVX}) {
    Harness h(ctx.rec);
    const std::int64_t t0 = now_ns();
    const WriteAllConfig config{.n = Addr{1} << 15, .p = 128};
    const std::unique_ptr<WriteAllProgram> program =
        make_writeall(algo, config);
    Engine engine(h.program(*program), {.batch = true});
    NoFailures none;
    Adversary& adversary = h.adversary(none);
    const std::int64_t t1 = now_ns();
    const RunResult run = h.run(engine, adversary);
    job.checks.expect(run.goal_met && program->solved(engine.memory()),
                      std::string(to_string(algo)) + " solves Write-All");
    job.run_ns += now_ns() - t1;
    job.setup_ns += t1 - t0;
    job.record_run(engine, adversary, run.tally);
  }
  return job;
}

// The interpreter under adversaries that inspect every cycle: X under the
// post-order stalker at N = P = 512, then V under halving at N = P = 1024.
JobResult interp_adaptive(const JobContext& ctx) {
  JobResult job;
  const auto instance = [&](WriteAllAlgo algo, Addr n, auto make_adversary) {
    Harness h(ctx.rec);
    const std::int64_t t0 = now_ns();
    const WriteAllConfig config{.n = n, .p = static_cast<Pid>(n)};
    const std::unique_ptr<WriteAllProgram> program =
        make_writeall(algo, config);
    Engine engine(h.program(*program));
    auto adversary_impl = make_adversary(*program);
    Adversary& adversary = h.adversary(adversary_impl);
    const std::int64_t t1 = now_ns();
    const RunResult run = h.run(engine, adversary);
    job.checks.expect(run.goal_met && program->solved(engine.memory()),
                      std::string(to_string(algo)) + " solves Write-All");
    job.run_ns += now_ns() - t1;
    job.setup_ns += t1 - t0;
    job.record_run(engine, adversary, run.tally);
  };
  instance(WriteAllAlgo::kX, 512, [](const WriteAllProgram& p) {
    return PostOrderStalker(static_cast<const AlgX&>(p).layout());
  });
  instance(WriteAllAlgo::kV, Addr{1} << 10, [](const WriteAllProgram& p) {
    return HalvingAdversary(p.x_base(), p.config().n);
  });
  return job;
}

// VX on the batch kernels under random faults, writing a binary trace, a
// JSONL fault schedule and a checkpoint every 1024 slots; then re-reads the
// trace, resumes from the last checkpoint on disk and finishes. Flags,
// seeds and file formats match `writeall_cli --algo VX --n 32768 --p 256
// --batch 1 --adversary random --fail 0.02 --restart 0.5 --seed S`, which
// selftest.py relies on.
JobResult faulty_artifacts(const JobContext& ctx) {
  JobResult job;
  Harness h(ctx.rec);
  const std::uint64_t seed = ctx.seed;
  const fs::path trace_path = ctx.out / "trace.bin";
  const fs::path schedule_path = ctx.out / "schedule.jsonl";
  const fs::path checkpoint_path = ctx.out / "checkpoint.json";
  const WriteAllConfig config{.n = Addr{1} << 15, .p = 256, .seed = seed};
  const RandomAdversaryOptions faults{.fail_prob = 0.02, .restart_prob = 0.5};
  constexpr Slot kCheckpointEvery = 1024;
  // The previous job's files go before the clock starts: truncating them is
  // file-system bookkeeping for the last job, not set-up for this one.
  for (const fs::path& path : {trace_path, schedule_path, checkpoint_path}) {
    fs::remove(path);
  }

  const std::int64_t t0 = now_ns();
  const std::unique_ptr<WriteAllProgram> program =
      make_writeall(WriteAllAlgo::kCombinedVX, config);
  RandomAdversary random(seed ^ 0x5eed, faults);
  FaultSchedule recorded;
  Adversary& adversary = h.adversary(random, &recorded);
  std::ofstream trace_os(trace_path, std::ios::binary | std::ios::trunc);
  if (!trace_os) throw ConfigError("cannot write " + trace_path.string());
  const std::unique_ptr<TraceSink> sink = make_trace_sink(trace_os, "binary");
  EngineOptions options{.batch = true, .checkpoint_every = kCheckpointEvery};
  options.on_checkpoint = h.on_checkpoint([&](const EngineCheckpoint& cp) {
    EngineCheckpoint stamped = cp;
    stamped.meta["tree_order"] = std::string(to_string(TreeOrder::kHeap));
    save_checkpoint(stamped, checkpoint_path.string());
    job.checkpoint_bytes += file_bytes(checkpoint_path);
  });
  options.sink = &h.sink(*sink);
  Engine engine(h.program(*program), options);
  const std::int64_t t1 = now_ns();
  job.setup_ns = t1 - t0;

  const RunResult run = h.run(engine, adversary);
  trace_os.close();
  const bool solved = run.goal_met && program->solved(engine.memory());
  job.checks.expect(solved, "VX solves Write-All under random faults");
  const ReproSpec spec{.algo = WriteAllAlgo::kCombinedVX,
                       .n = config.n,
                       .p = config.p,
                       .seed = seed,
                       .max_slots = EngineOptions{}.max_slots};
  write_meta(spec, recorded,
             solved ? ProbeStatus::kSolved : ProbeStatus::kUnsolved);
  const std::int64_t s0 = now_ns();
  save_schedule(recorded, schedule_path.string());
  job.schedule_save_ns = static_cast<std::uint64_t>(now_ns() - s0);
  job.trace_bytes = file_bytes(trace_path);
  job.schedule_bytes = file_bytes(schedule_path);
  job.record_run(engine, adversary, run.tally);

  {
    std::ifstream in(trace_path, std::ios::binary);
    const std::unique_ptr<TraceReader> reader = open_trace_reader(in);
    StreamAggregator aggregate;
    replay_trace(*reader, aggregate);
    job.checks.expect(aggregate.tally() == run.tally,
                      "trace file re-reads to the engine tally");
    job.checks.expect(aggregate.check().empty(),
                      "trace file passes the stream checks");
  }

  const std::int64_t l0 = now_ns();
  const EngineCheckpoint cp = load_checkpoint(checkpoint_path.string());
  job.load_ns = static_cast<std::uint64_t>(now_ns() - l0);
  const std::unique_ptr<WriteAllProgram> resumed_program =
      make_writeall(WriteAllAlgo::kCombinedVX, config);
  RandomAdversary resumed_random(seed ^ 0x5eed, faults);
  Adversary& resumed_adversary = h.adversary(resumed_random);
  Engine resumed(h.program(*resumed_program), {.batch = true});
  const std::int64_t r0 = now_ns();
  resumed.restore(cp, &resumed_adversary);
  job.restore_ns = static_cast<std::uint64_t>(now_ns() - r0);
  const RunResult finish = h.run(resumed, resumed_adversary);
  job.checks.expect(
      finish.goal_met && resumed_program->solved(resumed.memory()),
      "resumed VX solves Write-All");
  job.checks.expect(finish.tally == run.tally,
                    "resumed tally equals the straight run's");
  job.record_run(resumed, resumed_adversary, finish.tally, /*resumed=*/true);
  job.run_ns = now_ns() - t1;
  return job;
}

// Theorem 4.1's executor (inner VX) under random faults: prefix sums at
// N = 256 on P = 33 and bitonic sort at N = 64 on P = 9. Inputs and
// adversary seeds match `sim_cli --seed S`. The job builds simulate()'s
// machine itself, through make_simulation_program, so that set-up and run
// time separate and the decorators can wrap it; the process's first job also
// calls simulate() and requires identical results.
JobResult sim_executor(const JobContext& ctx) {
  JobResult job;
  const RandomAdversaryOptions faults{.fail_prob = 0.05, .restart_prob = 0.5};
  // `t0`: when the simulated program's construction began.
  const auto instance = [&](const SimProgram& program, Pid p,
                            std::int64_t t0) {
    Harness h(ctx.rec);
    const SimProgram& sim = h.sim_program(program);
    const SimLayout layout(sim, p);
    const std::unique_ptr<Program> outer =
        make_simulation_program(sim, layout, SimInner::kCombinedVX);
    // simulate()'s machine: 5-read update cycles (§2.1, sim/simulator.hpp).
    Engine engine(h.program(*outer), {.read_budget = 5, .write_budget = 2});
    RandomAdversary random(ctx.seed ^ 0xadde, faults);
    Adversary& adversary = h.adversary(random);
    const std::int64_t t1 = now_ns();
    const RunResult run = h.run(engine, adversary);
    std::vector<Word> memory;
    for (Addr i = 0; i < layout.data_cells; ++i) {
      memory.push_back(engine.memory().read(layout.data + i));
    }
    job.checks.expect(run.goal_met && memory == reference_run(program),
                      std::string(program.name()) +
                          " matches the fault-free reference");
    job.run_ns += now_ns() - t1;
    job.setup_ns += t1 - t0;
    const std::uint64_t passes =
        phase_pass(engine.memory().read(layout.phase));
    if (ctx.first) {
      RandomAdversary again(ctx.seed ^ 0xadde, faults);
      const SimResult direct =
          simulate(program, again, {.physical_processors = p});
      job.checks.expect(direct.tally == run.tally &&
                            direct.memory == memory && direct.passes == passes,
                        "simulate() builds the benchmark's machine");
    }
    job.record_run(engine, adversary, run.tally);
    job.outputs.push_back(std::move(memory));
    job.passes += passes;
    job.sim_tasks += static_cast<std::uint64_t>(program.processors()) *
                     program.steps();
  };
  std::int64_t t0 = now_ns();
  const PrefixSumProgram prefix(random_values(256, ctx.seed, 1000));
  instance(prefix, 33, t0);
  t0 = now_ns();
  const BitonicSortProgram bitonic(random_values(64, ctx.seed, 10000));
  instance(bitonic, 9, t0);
  return job;
}

struct Workload {
  const char* name;
  JobResult (*job)(const JobContext& ctx);
};

constexpr Workload kWorkloads[] = {
    {"kernels-faultfree", kernels_faultfree},
    {"interp-adaptive", interp_adaptive},
    {"faulty-artifacts", faulty_artifacts},
    {"sim-executor", sim_executor},
};

// --- Metrics ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// run_s is the 1st percentile of a run's job times, not the median.
// Co-tenants on the shared host slow one core at a time, in phases of
// seconds to minutes and by up to 2x; the median follows those phases. The
// fastest few of several hundred short jobs, rotated over the process's
// CPUs (see pin_next_cpu), are what the code costs on a quiet core and
// repeat from run to run; the 1st percentile rather than the minimum keeps
// one lucky job from setting it.
constexpr double kRunQuantile = 0.01;

// Peak resident set of this process image, in MiB. Not getrusage's
// ru_maxrss: Linux folds the pre-exec image of the launching process into
// it, so a small run would report its launcher's footprint.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Moves the calling thread to the next CPU it may run on, round robin, so
// that consecutive jobs sample different cores.
void pin_next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

Metrics end_to_end(const std::vector<JobResult>& jobs) {
  std::vector<double> setup;
  std::vector<double> run;
  for (const JobResult& j : jobs) {
    setup.push_back(static_cast<double>(j.setup_ns) * 1e-9);
    run.push_back(static_cast<double>(j.run_ns) * 1e-9);
  }
  // Every job repeats the reference job's work, so the rate follows run_s.
  const double run_s = percentile(run, kRunQuantile);
  return {
      {"setup_s", {median(setup), "s"}},
      {"run_s", {run_s, "s"}},
      {"cycles_per_s", {static_cast<double>(jobs.front().work_s) / run_s,
                        "1/s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
      {"work_S", {static_cast<double>(jobs.front().work_s), "count"}},
      {"parallel_slots", {static_cast<double>(jobs.front().slots), "count"}},
  };
}

// One traced job's per-layer figures, from its spans.
Metrics per_layer(const SpanRecorder& rec, const JobResult& job) {
  SlotSpans sum = rec.outside();
  std::vector<double> cycle_phase;
  std::vector<double> post_decide;
  std::vector<double> decide;
  std::vector<double> quiet_post;  // post-decide of slots without a capture
  double boundary_ns = 0;
  for (const SlotSpans& r : rec.rows()) {
    sum.cycle_calls += r.cycle_calls;
    sum.kernel_ns += r.kernel_ns;
    sum.kernel_calls += r.kernel_calls;
    sum.lanes += r.lanes;
    sum.boot_ns += r.boot_ns;
    sum.boots += r.boots;
    sum.fault_ns += r.fault_ns;
    sum.decisions += r.decisions;
    sum.moves += r.moves;
    sum.sink_ns += r.sink_ns;
    sum.events += r.events;
    sum.flush_ns += r.flush_ns;
    sum.save_ns += r.save_ns;
    sum.saves += r.saves;
    sum.step_ns += r.step_ns;
    sum.step_calls += r.step_calls;
    if (r.pre) continue;
    cycle_phase.push_back(static_cast<double>(r.cycle_phase_ns()));
    post_decide.push_back(static_cast<double>(r.post_decide_ns()));
    decide.push_back(static_cast<double>(r.fault_ns));
    if (r.saves == 0) quiet_post.push_back(post_decide.back());
    boundary_ns += static_cast<double>(r.decide_end - r.decide_begin);
  }
  // Engine::checkpoint's capture is not behind any interface, so it is
  // derived: the excess post-decide time of the gaps that held a capture.
  const double baseline = median(quiet_post);
  double capture_ns = 0;
  for (const SlotSpans& r : rec.rows()) {
    if (r.saves == 0) continue;
    const double base = r.pre ? 0 : baseline;
    capture_ns +=
        std::max(0.0, static_cast<double>(r.post_decide_ns()) - base);
  }
  double cycle_phase_ns = 0;
  for (double v : cycle_phase) cycle_phase_ns += v;
  double post_decide_ns = 0;
  for (double v : post_decide) post_decide_ns += v;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"pram.slots", {d(cycle_phase.size()), "count"}},
      {"pram.completed_ratio", {ratio(d(job.work_s), d(job.attempted)),
                                "ratio"}},
      {"pram.cycle_phase_ns", {cycle_phase_ns, "ns"}},
      {"pram.cycle_phase_p50_ns", {percentile(cycle_phase, 0.5), "ns"}},
      {"pram.cycle_phase_p99_ns", {percentile(cycle_phase, 0.99), "ns"}},
      {"pram.dispatch_ns", {cycle_phase_ns - d(sum.kernel_ns), "ns"}},
      {"pram.post_decide_ns", {post_decide_ns, "ns"}},
      {"pram.post_decide_p99_ns", {percentile(post_decide, 0.99), "ns"}},
      {"pram.restore_ns", {d(job.restore_ns), "ns"}},
      {"writeall.kernel_ns", {d(sum.kernel_ns), "ns"}},
      {"writeall.kernel_calls", {d(sum.kernel_calls), "count"}},
      {"writeall.lanes", {d(sum.lanes), "count"}},
      {"writeall.ns_per_lane", {ratio(d(sum.kernel_ns), d(sum.lanes)),
                                "ns/lane"}},
      // Update cycles the layer executed, as interpreter calls or lanes.
      {"writeall.cycle_calls", {d(sum.cycle_calls + sum.lanes), "count"}},
      {"writeall.boot_ns", {d(sum.boot_ns), "ns"}},
      {"writeall.boots", {d(sum.boots), "count"}},
      {"fault.decide_ns", {d(sum.fault_ns), "ns"}},
      {"fault.decide_p50_ns", {percentile(decide, 0.5), "ns"}},
      {"fault.decide_p99_ns", {percentile(decide, 0.99), "ns"}},
      {"fault.decisions", {d(sum.decisions), "count"}},
      {"fault.moves", {d(sum.moves), "count"}},
      {"obs.sink_ns", {d(sum.sink_ns), "ns"}},
      {"obs.events", {d(sum.events), "count"}},
      {"obs.ns_per_event", {ratio(d(sum.sink_ns), d(sum.events)),
                            "ns/event"}},
      {"obs.flush_ns", {d(sum.flush_ns), "ns"}},
      {"obs.trace_bytes", {d(job.trace_bytes), "bytes"}},
      {"replay.save_ns", {d(sum.save_ns), "ns"}},
      {"replay.saves", {d(sum.saves), "count"}},
      {"replay.capture_ns", {capture_ns, "ns"}},
      {"replay.record_ns",
       {rec.recording ? boundary_ns - d(sum.fault_ns) : 0.0, "ns"}},
      {"replay.schedule_save_ns", {d(job.schedule_save_ns), "ns"}},
      {"replay.load_ns", {d(job.load_ns), "ns"}},
      {"replay.schedule_bytes", {d(job.schedule_bytes), "bytes"}},
      {"replay.checkpoint_bytes", {d(job.checkpoint_bytes), "bytes"}},
      {"programs.step_ns", {d(sum.step_ns), "ns"}},
      {"programs.step_calls", {d(sum.step_calls), "count"}},
      {"programs.calls_per_task",
       {ratio(d(sum.step_calls), d(job.sim_tasks)), "ratio"}},
      {"sim.passes", {d(job.passes), "count"}},
      {"sim.slots_per_pass", {ratio(d(job.slots), d(job.passes)), "slots"}},
  };
}

// A traced job must be the untraced job seen through glass.
void expect_transparent(const JobResult& traced, const JobResult& plain,
                        Checks& checks) {
  checks.expect(traced.runs == plain.runs,
                "traced engine runs equal the untraced ones (tally, backend, "
                "incremental goal, adversary capabilities)");
  checks.expect(traced.outputs == plain.outputs,
                "traced outputs equal the untraced run's");
  checks.expect(traced.trace_bytes == plain.trace_bytes &&
                    traced.schedule_bytes == plain.schedule_bytes &&
                    traced.checkpoint_bytes == plain.checkpoint_bytes,
                "traced artifact bytes equal the untraced run's");
}

// --- Output -------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string fingerprint(const std::string& commit, const std::string& digest) {
  std::ostringstream os;
  os << "{\"fingerprint\":{\"cpu\":" << json_string(cpu_model())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"compiler\":" << json_string(compiler())
     << ",\"build_type\":" << json_string(RFSP_BENCH_BUILD_TYPE)
     << ",\"rfsp_native\":" << json_string(RFSP_BENCH_NATIVE)
     << ",\"commit\":" << json_string(commit)
     << ",\"source_digest\":" << json_string(digest) << "}}";
  return os.str();
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: rfsp_bench --workload NAME --seed N --seconds T "
               "--trace 0|1 --out DIR [--commit SHA] [--digest HEX]\n"
            << "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) usage("every option takes a value");
  const auto take = [&](const std::string& key, const char* fallback) {
    const auto it = args.find(key);
    if (it == args.end()) {
      if (fallback == nullptr) usage("missing --" + key);
      return std::string(fallback);
    }
    std::string v = it->second;
    args.erase(it);
    return v;
  };
  const std::string name = take("workload", nullptr);
  const std::uint64_t seed = std::stoull(take("seed", nullptr));
  const double seconds = std::stod(take("seconds", nullptr));
  const bool trace = take("trace", nullptr) != "0";
  const fs::path out = fs::path(take("out", nullptr)) / name;
  const std::string commit = take("commit", "unknown");
  const std::string digest = take("digest", "unknown");
  if (!args.empty()) usage("unknown option --" + args.begin()->first);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + name);

  // Freed memory stays in the heap. With glibc's defaults every job maps
  // and unmaps its large buffers again, and faulting ~20 MB back in per job
  // costs a quarter of faulty-artifacts' time in the kernel, at a price the
  // host sets, not the library.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  try {
    fs::create_directories(out);
    const std::string host = fingerprint(commit, digest);
    std::cout << host << std::endl;

    // Closed loop: jobs run back to back while the next one (estimated by
    // the slowest so far) still fits the budget. The first job warms caches
    // and the allocator and is the reference every later job must
    // reproduce; it is checked but not timed into the metrics. --trace 1
    // then alternates traced and untraced jobs, at least one of each. Each
    // job starts on the next CPU in turn.
    const JobResult reference =
        workload->job({.seed = seed, .out = out, .first = true});
    std::vector<JobResult> plain;
    std::vector<JobResult> traced;
    std::vector<Metrics> layers;
    SpanRecorder last_spans;
    Checks checks;
    const std::int64_t start = now_ns();
    std::int64_t slowest = 0;
    for (;;) {
      const bool want_traced = trace && traced.size() <= plain.size();
      const bool minimum_met = !plain.empty() && (!trace || !traced.empty());
      const std::int64_t elapsed = now_ns() - start;
      if (minimum_met &&
          static_cast<double>(elapsed + slowest) > seconds * 1e9) {
        break;
      }
      pin_next_cpu();
      const std::int64_t t0 = now_ns();
      if (want_traced) {
        SpanRecorder spans;
        traced.push_back(workload->job({.seed = seed, .out = out,
                                        .rec = &spans}));
        expect_transparent(traced.back(), reference, checks);
        layers.push_back(per_layer(spans, traced.back()));
        last_spans = std::move(spans);
      } else {
        plain.push_back(workload->job({.seed = seed, .out = out}));
        checks.expect(plain.back().runs == reference.runs &&
                          plain.back().outputs == reference.outputs,
                      "repeated jobs are deterministic");
      }
      slowest = std::max(slowest, now_ns() - t0);
    }
    {
      std::ofstream jobs_os(out / "jobs.csv");
      jobs_os << "setup_ns,run_ns\n";
      for (const JobResult& j : plain) {
        jobs_os << j.setup_ns << ',' << j.run_ns << '\n';
      }
    }
    checks.attempted += reference.checks.attempted;
    checks.failed += reference.checks.failed;
    for (const auto* jobs : {&plain, &traced}) {
      for (const JobResult& j : *jobs) {
        checks.attempted += j.checks.attempted;
        checks.failed += j.checks.failed;
      }
    }

    Metrics metrics;
    if (!trace) {
      metrics = end_to_end(plain);
    } else {
      for (const auto& [key, m] : layers.front()) {
        std::vector<double> values;
        for (const Metrics& l : layers) values.push_back(l.at(key).value);
        metrics[key] = {median(values), m.unit};
      }
      const auto run_s = [](const std::vector<JobResult>& jobs) {
        std::vector<double> v;
        for (const JobResult& j : jobs) {
          v.push_back(static_cast<double>(j.run_ns));
        }
        return percentile(v, kRunQuantile);
      };
      metrics["trace.overhead_ratio"] = {run_s(traced) / run_s(plain),
                                         "ratio"};
      std::ofstream spans_os(out / "spans.csv");
      spans_os << "# " << host << '\n';
      last_spans.write_csv(spans_os);
    }

    // selftest.py compares these with the CLIs' tallies.
    for (std::size_t i = 0; i < reference.runs.size(); ++i) {
      const WorkTally& t = reference.runs[i].tally;
      std::cout << "tally " << i << ": S=" << t.completed_work
                << " S'=" << t.attempted_work << " failures=" << t.failures
                << " restarts=" << t.restarts << " slots=" << t.slots << '\n';
    }
    std::vector<double> run;
    std::vector<double> setup;
    for (const JobResult& j : plain) {
      run.push_back(static_cast<double>(j.run_ns) * 1e-9);
      setup.push_back(static_cast<double>(j.setup_ns) * 1e-9);
    }
    std::cout << "untraced jobs: run_s p1 " << percentile(run, 0.01)
              << " p10 " << percentile(run, 0.1)
              << " p50 " << percentile(run, 0.5) << " p90 "
              << percentile(run, 0.9) << ", setup_s p10 "
              << percentile(setup, 0.1) << " p50 " << percentile(setup, 0.5)
              << '\n';
    std::cout << "workload " << name << ": 1 warm-up, " << plain.size()
              << " untraced and " << traced.size() << " traced jobs, "
              << checks.failed << "/" << checks.attempted
              << " checks failed\n";
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\":" << (checks.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << checks.attempted
       << ",\"failed\":" << checks.failed << ",\"metrics\":{";
    bool first = true;
    for (const auto& [key, m] : metrics) {
      os << (first ? "" : ",") << json_string(key) << ":{\"value\":"
         << m.value << ",\"unit\":" << json_string(m.unit) << '}';
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
