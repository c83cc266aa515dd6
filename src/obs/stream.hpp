// Streaming aggregation over the TraceEvent protocol: consume an event
// stream *online* — from an in-process sink, a file, or a pipe — and
// maintain the run's accounting without ever buffering the run.
//
// StreamAggregator is the one implementation of the reconstruction
// invariants documented in obs/trace.hpp: Σ kSlot.completed == S,
// Σ kSlot.started == S', Σ kSlot.failures + Σ kSlot.restarts == |F|,
// #kHalt == halted, #kSlot == slots, max kSlot.started == peak_live.
// CollectingTraceSink::reconstruct_tally is a one-liner over it. It is
// also the only code that attributes work to phases (a kPhase event
// announces the phase every following kSlot belongs to; the engine keeps
// no per-phase counts) and the only source of the engine.* metrics
// (write_engine_metrics below).
//
// State is O(phases + window + restart events): a trailing window of
// per-slot counts backs the windowed failure/restart/throughput rates a
// live viewer or service wants, one PID is kept per restart event, and
// everything else is a handful of counters — feeding one event is a few
// additions, no allocation outside phase discovery and the (amortized)
// growth of the restart list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accounting/tally.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rfsp {

class StreamAggregator final : public TraceSink {
 public:
  static constexpr std::size_t kDefaultWindowSlots = 64;
  // Phase ids at or above this are a stream violation (check()), not a
  // table row: a hostile stream's phase id cannot size anything.
  static constexpr std::uint32_t kMaxPhases = 1u << 16;

  explicit StreamAggregator(std::size_t window_slots = kDefaultWindowSlots);

  void on_event(const TraceEvent& event) override;

  // --- Running accounting ---------------------------------------------------

  // The tally reconstructed so far; equals the engine's WorkTally exactly
  // once the stream is fully consumed (tests/binary_trace_test.cpp asserts
  // this across the algorithm × adversary × engine-mode matrix).
  const WorkTally& tally() const { return tally_; }

  // Per-phase S/S'/|F| attribution, indexed by phase id, built from the
  // kPhase transitions: only phases the stream entered carry their name,
  // and a phase id above every entered one is absent (phase_table fills
  // in the program's full name list). Programs without a PhaseSchedule
  // produce no kPhase events and leave this empty.
  const std::vector<PhaseWork>& phases() const { return phases_; }

  // phases() over a program's whole PhaseSchedule::names: one row per
  // name, in id order, zero for a phase the stream never entered.
  std::vector<PhaseWork> phase_table(
      const std::vector<std::string>& names) const;

  std::uint64_t events() const { return events_; }
  std::uint64_t commit_writes() const { return commit_writes_; }
  Slot last_slot() const { return last_slot_; }

  // --- Run-end summary ------------------------------------------------------

  bool run_ended() const { return run_ended_; }
  bool goal_met() const { return goal_met_; }
  bool deadlock() const { return deadlock_; }
  bool slot_limit() const { return slot_limit_; }

  // --- Windowed rates (over the trailing `window_slots` kSlot events) -------

  std::size_t window_capacity() const { return window_.size(); }
  std::size_t window_filled() const { return window_filled_; }
  double window_throughput() const;    // completed cycles per slot
  double window_failure_rate() const;  // failure events per slot
  double window_restart_rate() const;  // restart events per slot
  double window_live_mean() const;     // mean started processors

  // --- Stream verification --------------------------------------------------

  // Cross-checks the stream against its own redundancy and the ordering
  // contract; returns human-readable violations (empty == consistent):
  //   * the first out-of-order event (slot regression, or a within-slot
  //     kind before one it must follow) — detected online, position exact;
  //   * Σ kSlot.failures vs #kFailure events and Σ kSlot.restarts vs
  //     #kRestart events (the |F| redundancy);
  //   * one kCommit per kSlot;
  //   * a kRunEnd present, exactly once, as the final event, with its slot
  //     equal to the slot count;
  //   * per-phase sums equal to the run totals when phases are present;
  //   * no phase id at or above kMaxPhases (such a phase is not tracked).
  // `trace_cli check` exits non-zero on any of these.
  std::vector<std::string> check() const;

  // --- Engine metrics -------------------------------------------------------

  // Records the engine.* metrics of docs/observability.md into `metrics`,
  // which holds one run's engine metrics (counters add, the histograms
  // are replaced). The counters and engine.peak_live come from
  // `run_tally`, the run's cumulative WorkTally (RunResult::tally), so a
  // resumed run reports the whole run although its stream starts at the
  // resume slot. engine.goal_met comes from the stream's kRunEnd; the two
  // histograms from the stream, engine.restarts_per_processor with one
  // observation per PID below `processors`.
  void write_engine_metrics(const WorkTally& run_tally, Pid processors,
                            MetricsRegistry& metrics) const;

 private:
  struct WindowSlot {
    std::uint32_t started = 0;
    std::uint32_t completed = 0;
    std::uint32_t failures = 0;
    std::uint32_t restarts = 0;
  };

  static constexpr std::uint32_t kNoPhase = ~std::uint32_t{0};

  WorkTally tally_;
  std::vector<PhaseWork> phases_;
  std::uint32_t current_phase_ = kNoPhase;

  std::uint64_t events_ = 0;
  std::uint64_t commit_writes_ = 0;
  std::uint64_t commit_events_ = 0;
  std::uint64_t event_failures_ = 0;  // #kFailure (vs Σ kSlot.failures)
  std::uint64_t event_restarts_ = 0;  // #kRestart (vs Σ kSlot.restarts)
  Slot last_slot_ = 0;
  int last_rank_ = -1;
  bool run_ended_ = false;
  bool goal_met_ = false;
  bool deadlock_ = false;
  bool slot_limit_ = false;
  Slot run_end_slot_ = 0;
  std::uint64_t run_end_events_ = 0;
  bool events_after_run_end_ = false;
  std::string order_error_;  // first ordering violation, recorded online
  std::string phase_error_;  // first phase id >= kMaxPhases

  Histogram live_per_slot_;  // one observation per kSlot: its `started`
  // The PID of every kRestart, in stream order: as long as the stream, so a
  // hostile stream's PID cannot size anything. write_engine_metrics sorts a
  // copy and counts its runs.
  std::vector<Pid> restarted_pids_;

  std::vector<WindowSlot> window_;  // ring buffer, one entry per kSlot
  std::size_t window_pos_ = 0;
  std::size_t window_filled_ = 0;
  // Running sums over the ring, maintained incrementally so the rate
  // accessors are O(1).
  std::uint64_t window_started_ = 0;
  std::uint64_t window_completed_ = 0;
  std::uint64_t window_failures_ = 0;
  std::uint64_t window_restarts_ = 0;
};

}  // namespace rfsp
