// Per-slot spans at the rfsp layer boundaries, recorded from outside the
// library by thin delegating decorators — one per interface the engine
// calls through: Program/ProcessorState and BatchKernel (writeall), Adversary
// (fault), TraceSink (obs), the on_checkpoint callback (replay) and
// SimProgram (programs). The engine itself is not instrumented; its stages
// are the gaps between the decorators' spans:
//
//   cycle phase  = first cycle/kernel call of a slot -> the decide call
//   post-decide  = decide return -> next slot's first cycle, minus the sink,
//                  checkpoint-callback and boot time inside that gap
//                  (validate, commit, transitions, goal check, capture)
//
// Every decorator forwards every virtual of its interface. A missed one is
// not a compile error: the base default silently changes the run (batch fast
// path, incremental goal, phase events), which the benchmark catches by
// comparing each traced run's tally, backend and artifact bytes with the
// untraced run's.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "fault/adversary.hpp"
#include "obs/trace.hpp"
#include "pram/engine.hpp"
#include "pram/program.hpp"
#include "pram/soa.hpp"
#include "sim/sim_program.hpp"

namespace rfsp_bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What the decorators saw from one slot's first cycle (or kernel) call up to
// the next slot's first one. A `pre` row covers Engine::run's entry up to the
// first slot, where the slot-0 checkpoint capture happens.
struct SlotSpans {
  rfsp::Slot slot = 0;
  bool pre = false;
  std::int64_t cycle_begin = 0;   // first ProcessorState::cycle / kernel run
  std::int64_t decide_begin = 0;  // outermost Adversary::decide entered
  std::int64_t decide_end = 0;    // ... and returned
  std::int64_t next_begin = 0;    // next slot's cycle_begin, or run's return
  std::uint64_t cycle_calls = 0;  // interpreter update cycles
  std::uint64_t kernel_ns = 0;
  std::uint64_t kernel_calls = 0;
  std::uint64_t lanes = 0;
  std::uint64_t boot_ns = 0;  // Program::boot + BatchKernel::boot_lane
  std::uint64_t boots = 0;
  std::uint64_t fault_ns = 0;  // the innermost (real) adversary's decide
  std::uint64_t decisions = 0;
  std::uint64_t moves = 0;
  std::uint64_t sink_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t save_ns = 0;  // on_checkpoint callback
  std::uint64_t saves = 0;
  std::uint64_t step_ns = 0;  // SimProgram::step
  std::uint64_t step_calls = 0;

  // The stages between the decorators' spans (see the file comment).
  std::int64_t cycle_phase_ns() const { return decide_begin - cycle_begin; }
  std::int64_t post_decide_ns() const {
    return next_begin - decide_end -
           static_cast<std::int64_t>(sink_ns + flush_ns + save_ns + boot_ns);
  }
};

// Holds the spans of every Engine::run of one traced job, in memory.
class SpanRecorder {
 public:
  void begin_run() {
    const std::int64_t t = now_ns();
    rows_.push_back({.pre = true,
                     .cycle_begin = t,
                     .decide_begin = t,
                     .decide_end = t});
    in_run_ = true;
  }
  void end_run() {
    rows_.back().next_begin = now_ns();
    in_run_ = false;
  }

  // Called on every cycle/kernel entry; the slot's first call opens its row.
  void on_cycle_phase(rfsp::Slot slot) {
    if (rows_.back().pre || rows_.back().slot != slot) open(slot);
  }

  // The row events are charged to: the open slot, or `outside` (engine
  // construction, restore) between runs.
  SlotSpans& row() { return in_run_ ? rows_.back() : outside_; }

  const std::vector<SlotSpans>& rows() const { return rows_; }
  const SlotSpans& outside() const { return outside_; }

  // Set when a RecordingAdversary sits between the two adversary
  // decorators, so their difference is the recorder's cost.
  bool recording = false;

  // One CSV row per slot (times relative to the first row).
  void write_csv(std::ostream& out) const;

 private:
  void open(rfsp::Slot slot) {
    const std::int64_t t = now_ns();
    rows_.back().next_begin = t;
    rows_.push_back({.slot = slot, .cycle_begin = t});
  }

  std::vector<SlotSpans> rows_;
  SlotSpans outside_;
  bool in_run_ = false;
};

inline void SpanRecorder::write_csv(std::ostream& out) const {
  out << "slot,pre,cycle_begin_ns,decide_begin_ns,decide_end_ns,"
         "next_begin_ns,cycle_calls,kernel_ns,kernel_calls,lanes,boot_ns,"
         "boots,fault_ns,decisions,moves,sink_ns,events,flush_ns,save_ns,"
         "saves,step_ns,step_calls\n";
  const std::int64_t t0 = rows_.empty() ? 0 : rows_.front().cycle_begin;
  for (const SlotSpans& r : rows_) {
    out << r.slot << ',' << (r.pre ? 1 : 0) << ',' << r.cycle_begin - t0
        << ',' << r.decide_begin - t0 << ',' << r.decide_end - t0 << ','
        << r.next_begin - t0 << ',' << r.cycle_calls << ',' << r.kernel_ns
        << ',' << r.kernel_calls << ',' << r.lanes << ',' << r.boot_ns << ','
        << r.boots << ',' << r.fault_ns << ',' << r.decisions << ','
        << r.moves << ',' << r.sink_ns << ',' << r.events << ','
        << r.flush_ns << ',' << r.save_ns << ',' << r.saves << ','
        << r.step_ns << ',' << r.step_calls << '\n';
  }
}

// --- writeall: ProcessorState / Program / BatchKernel ----------------------

class TracedState final : public rfsp::ProcessorState {
 public:
  TracedState(std::unique_ptr<rfsp::ProcessorState> inner, SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  bool cycle(rfsp::CycleContext& ctx) override {
    rec_.on_cycle_phase(ctx.slot());
    ++rec_.row().cycle_calls;
    return inner_->cycle(ctx);
  }
  bool save_state(std::vector<rfsp::Word>& out) const override {
    return inner_->save_state(out);
  }

 private:
  std::unique_ptr<rfsp::ProcessorState> inner_;
  SpanRecorder& rec_;
};

class TracedKernel final : public rfsp::BatchKernel {
 public:
  TracedKernel(std::unique_ptr<rfsp::BatchKernel> inner, SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::size_t registers() const override { return inner_->registers(); }
  std::uint32_t control_states() const override {
    return inner_->control_states();
  }
  void boot_lane(rfsp::SoaStore& soa, rfsp::Pid pid) const override {
    const std::int64_t t0 = now_ns();
    inner_->boot_lane(soa, pid);
    SlotSpans& row = rec_.row();
    row.boot_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++row.boots;
  }
  void run(std::uint32_t ctrl, std::span<const rfsp::Pid> pids,
           const rfsp::BatchContext& ctx, rfsp::SoaStore& soa) const override {
    rec_.on_cycle_phase(ctx.slot);
    const std::int64_t t0 = now_ns();
    inner_->run(ctrl, pids, ctx, soa);
    SlotSpans& row = rec_.row();
    row.kernel_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++row.kernel_calls;
    row.lanes += pids.size();
  }
  void save_lane(const rfsp::SoaStore& soa, rfsp::Pid pid,
                 std::vector<rfsp::Word>& out) const override {
    inner_->save_lane(soa, pid, out);
  }
  void load_lane(rfsp::SoaStore& soa, rfsp::Pid pid,
                 std::span<const rfsp::Word> data) const override {
    inner_->load_lane(soa, pid, data);
  }

 private:
  std::unique_ptr<rfsp::BatchKernel> inner_;
  SpanRecorder& rec_;
};

class TracedProgram final : public rfsp::Program {
 public:
  TracedProgram(const rfsp::Program& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  std::string_view name() const override { return inner_.name(); }
  rfsp::Pid processors() const override { return inner_.processors(); }
  rfsp::Addr memory_size() const override { return inner_.memory_size(); }
  void init_memory(rfsp::SharedMemory& mem) const override {
    inner_.init_memory(mem);
  }
  std::unique_ptr<rfsp::ProcessorState> boot(rfsp::Pid pid) const override {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<rfsp::ProcessorState> state = inner_.boot(pid);
    SlotSpans& row = rec_.row();
    row.boot_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++row.boots;
    return std::make_unique<TracedState>(std::move(state), rec_);
  }
  bool goal(const rfsp::SharedMemory& mem) const override {
    return inner_.goal(mem);
  }
  std::optional<rfsp::GoalCells> goal_cells() const override {
    return inner_.goal_cells();
  }
  bool goal_cell_done(rfsp::Addr addr, rfsp::Word value) const override {
    return inner_.goal_cell_done(addr, value);
  }
  std::unique_ptr<rfsp::ProcessorState> load_state(
      rfsp::Pid pid, std::span<const rfsp::Word> data) const override {
    std::unique_ptr<rfsp::ProcessorState> state = inner_.load_state(pid, data);
    if (state == nullptr) return nullptr;
    return std::make_unique<TracedState>(std::move(state), rec_);
  }
  std::unique_ptr<rfsp::BatchKernel> batch_kernels() const override {
    std::unique_ptr<rfsp::BatchKernel> kernel = inner_.batch_kernels();
    if (kernel == nullptr) return nullptr;
    return std::make_unique<TracedKernel>(std::move(kernel), rec_);
  }
  bool oblivious() const override { return inner_.oblivious(); }
  std::optional<rfsp::PhaseSchedule> phase_schedule() const override {
    return inner_.phase_schedule();
  }

 private:
  const rfsp::Program& inner_;
  SpanRecorder& rec_;
};

// --- fault: Adversary -------------------------------------------------------

// kBoundary marks the engine's decide call (the pram stage boundary);
// kFault times the real adversary underneath any other wrapper.
enum class AdversaryRole { kBoundary, kFault };

class TracedAdversary final : public rfsp::Adversary {
 public:
  TracedAdversary(rfsp::Adversary& inner, SpanRecorder& rec,
                  AdversaryRole role)
      : inner_(inner), rec_(rec), role_(role) {}

  std::string_view name() const override { return inner_.name(); }
  rfsp::FaultDecision decide(const rfsp::MachineView& view) override {
    const std::int64_t t0 = now_ns();
    rfsp::FaultDecision d = inner_.decide(view);
    const std::int64_t t1 = now_ns();
    SlotSpans& row = rec_.row();
    if (role_ == AdversaryRole::kBoundary) {
      row.decide_begin = t0;
      row.decide_end = t1;
    } else {
      row.fault_ns += static_cast<std::uint64_t>(t1 - t0);
      ++row.decisions;
      row.moves += d.fail_mid_cycle.size() + d.fail_after_cycle.size() +
                   d.restart.size() + d.torn.size() + d.cell_faults.size() +
                   d.cache_drop.size();
    }
    return d;
  }
  bool inspects_cycles() const override { return inner_.inspects_cycles(); }
  void save_state(std::vector<std::uint64_t>& out) const override {
    inner_.save_state(out);
  }
  void load_state(std::span<const std::uint64_t> data) override {
    inner_.load_state(data);
  }

 private:
  rfsp::Adversary& inner_;
  SpanRecorder& rec_;
  AdversaryRole role_;
};

// --- obs: TraceSink ---------------------------------------------------------

class TracedSink final : public rfsp::TraceSink {
 public:
  TracedSink(rfsp::TraceSink& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void on_event(const rfsp::TraceEvent& event) override {
    const std::int64_t t0 = now_ns();
    inner_.on_event(event);
    SlotSpans& row = rec_.row();
    row.sink_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++row.events;
  }
  void flush() override {
    const std::int64_t t0 = now_ns();
    inner_.flush();
    rec_.row().flush_ns += static_cast<std::uint64_t>(now_ns() - t0);
  }

 private:
  rfsp::TraceSink& inner_;
  SpanRecorder& rec_;
};

// --- replay: the on_checkpoint callback ------------------------------------

using CheckpointCallback = std::function<void(const rfsp::EngineCheckpoint&)>;

inline CheckpointCallback traced_callback(CheckpointCallback inner,
                                          SpanRecorder& rec) {
  return [inner = std::move(inner), &rec](const rfsp::EngineCheckpoint& cp) {
    const std::int64_t t0 = now_ns();
    inner(cp);
    SlotSpans& row = rec.row();
    row.save_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++row.saves;
  };
}

// --- programs: SimProgram ---------------------------------------------------

class TracedSimProgram final : public rfsp::SimProgram {
 public:
  TracedSimProgram(const rfsp::SimProgram& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  std::string_view name() const override { return inner_.name(); }
  rfsp::Pid processors() const override { return inner_.processors(); }
  rfsp::Addr memory_cells() const override { return inner_.memory_cells(); }
  rfsp::Step steps() const override { return inner_.steps(); }
  void init(std::span<rfsp::Word> memory) const override {
    inner_.init(memory);
  }
  // The executor discovers read sets by letting step() throw, so the span is
  // closed by a guard on both exits.
  void step(rfsp::StepContext& ctx, rfsp::Pid j,
            rfsp::Step t) const override {
    struct Guard {
      SpanRecorder& rec;
      std::int64_t t0;
      ~Guard() {
        SlotSpans& row = rec.row();
        row.step_ns += static_cast<std::uint64_t>(now_ns() - t0);
        ++row.step_calls;
      }
    } guard{rec_, now_ns()};
    inner_.step(ctx, j, t);
  }
  unsigned registers() const override { return inner_.registers(); }
  unsigned max_loads() const override { return inner_.max_loads(); }
  unsigned max_stores() const override { return inner_.max_stores(); }
  rfsp::CrcwModel discipline() const override { return inner_.discipline(); }

 private:
  const rfsp::SimProgram& inner_;
  SpanRecorder& rec_;
};

}  // namespace rfsp_bench
