#include "obs/stream.hpp"

#include <algorithm>

namespace rfsp {

namespace {

// The within-slot ordering contract of obs/trace.hpp, as a comparable rank.
int rank_of(TraceEventKind kind) {
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
}

}  // namespace

StreamAggregator::StreamAggregator(std::size_t window_slots)
    : window_(std::max<std::size_t>(window_slots, 1)) {}

void StreamAggregator::on_event(const TraceEvent& e) {
  // Ordering contract, checked online so the first offender is exact.
  if (events_ > 0 && order_error_.empty()) {
    if (e.slot < last_slot_) {
      order_error_ = "slot regression: event " + std::to_string(events_) +
                     " at slot " + std::to_string(e.slot) + " after slot " +
                     std::to_string(last_slot_);
    } else if (e.slot == last_slot_ && rank_of(e.kind) < last_rank_) {
      order_error_ = "within-slot order violation at slot " +
                     std::to_string(e.slot) + ": " +
                     std::string(to_string(e.kind)) + " after a later kind";
    }
  }
  if (run_ended_) events_after_run_end_ = true;
  last_slot_ = e.slot;
  last_rank_ = rank_of(e.kind);
  ++events_;

  switch (e.kind) {
    case TraceEventKind::kSlot: {
      tally_.completed_work += e.completed;
      tally_.attempted_work += e.started;
      tally_.failures += e.failures;
      tally_.restarts += e.restarts;
      tally_.slots += 1;
      tally_.peak_live = std::max<std::uint64_t>(tally_.peak_live, e.started);
      live_per_slot_.observe(e.started);
      if (current_phase_ != kNoPhase) {
        PhaseWork& work = phases_[current_phase_];
        work.completed_work += e.completed;
        work.attempted_work += e.started;
        work.failures += e.failures;
        work.restarts += e.restarts;
        work.slots += 1;
      }
      WindowSlot& cell = window_[window_pos_];
      if (window_filled_ == window_.size()) {
        window_started_ -= cell.started;
        window_completed_ -= cell.completed;
        window_failures_ -= cell.failures;
        window_restarts_ -= cell.restarts;
      } else {
        ++window_filled_;
      }
      cell = {e.started, e.completed, e.failures, e.restarts};
      window_started_ += e.started;
      window_completed_ += e.completed;
      window_failures_ += e.failures;
      window_restarts_ += e.restarts;
      window_pos_ = (window_pos_ + 1) % window_.size();
      break;
    }
    case TraceEventKind::kCommit:
      commit_writes_ += e.writes;
      ++commit_events_;
      break;
    case TraceEventKind::kFailure:
      ++event_failures_;
      break;
    case TraceEventKind::kRestart:
      ++event_restarts_;
      restarted_pids_.push_back(e.pid);
      break;
    case TraceEventKind::kHalt:
      tally_.halted += 1;
      break;
    case TraceEventKind::kPhase:
      if (e.phase >= kMaxPhases) {
        if (phase_error_.empty()) {
          phase_error_ = "phase id " + std::to_string(e.phase) +
                         " at slot " + std::to_string(e.slot) +
                         " is beyond the " + std::to_string(kMaxPhases) +
                         "-phase limit";
        }
        current_phase_ = kNoPhase;
        break;
      }
      if (e.phase >= phases_.size()) phases_.resize(e.phase + 1);
      if (phases_[e.phase].name.empty()) {
        phases_[e.phase].name = std::string(e.phase_name);
      }
      current_phase_ = e.phase;
      break;
    case TraceEventKind::kRunEnd:
      run_ended_ = true;
      goal_met_ = e.goal_met;
      deadlock_ = e.deadlock;
      slot_limit_ = e.slot_limit;
      run_end_slot_ = e.slot;
      ++run_end_events_;
      break;
  }
}

std::vector<PhaseWork> StreamAggregator::phase_table(
    const std::vector<std::string>& names) const {
  std::vector<PhaseWork> table(names.size());
  for (std::size_t id = 0; id < names.size(); ++id) {
    if (id < phases_.size()) table[id] = phases_[id];
    table[id].name = names[id];
  }
  return table;
}

double StreamAggregator::window_throughput() const {
  return window_filled_ == 0 ? 0.0
                             : static_cast<double>(window_completed_) /
                                   static_cast<double>(window_filled_);
}

double StreamAggregator::window_failure_rate() const {
  return window_filled_ == 0 ? 0.0
                             : static_cast<double>(window_failures_) /
                                   static_cast<double>(window_filled_);
}

double StreamAggregator::window_restart_rate() const {
  return window_filled_ == 0 ? 0.0
                             : static_cast<double>(window_restarts_) /
                                   static_cast<double>(window_filled_);
}

double StreamAggregator::window_live_mean() const {
  return window_filled_ == 0 ? 0.0
                             : static_cast<double>(window_started_) /
                                   static_cast<double>(window_filled_);
}

std::vector<std::string> StreamAggregator::check() const {
  std::vector<std::string> violations;
  if (!order_error_.empty()) violations.push_back(order_error_);
  if (!phase_error_.empty()) violations.push_back(phase_error_);
  if (event_failures_ != tally_.failures) {
    violations.push_back(
        "failure events (" + std::to_string(event_failures_) +
        ") disagree with the slot summaries' failure total (" +
        std::to_string(tally_.failures) + ")");
  }
  if (event_restarts_ != tally_.restarts) {
    violations.push_back(
        "restart events (" + std::to_string(event_restarts_) +
        ") disagree with the slot summaries' restart total (" +
        std::to_string(tally_.restarts) + ")");
  }
  if (commit_events_ != tally_.slots) {
    violations.push_back("commit events (" + std::to_string(commit_events_) +
                         ") do not pair one-to-one with slot events (" +
                         std::to_string(tally_.slots) + ")");
  }
  if (!run_ended_) {
    violations.push_back("no run_end event: the stream is incomplete");
  } else {
    if (run_end_events_ > 1) {
      violations.push_back("multiple run_end events");
    }
    if (events_after_run_end_) {
      violations.push_back("events after run_end");
    }
    if (run_end_slot_ != tally_.slots) {
      violations.push_back("run_end slot (" + std::to_string(run_end_slot_) +
                           ") disagrees with the slot-event count (" +
                           std::to_string(tally_.slots) + ")");
    }
  }
  if (!phases_.empty()) {
    PhaseWork sum;
    for (const PhaseWork& phase : phases_) {
      sum.completed_work += phase.completed_work;
      sum.attempted_work += phase.attempted_work;
      sum.failures += phase.failures;
      sum.restarts += phase.restarts;
      sum.slots += phase.slots;
    }
    if (sum.completed_work != tally_.completed_work ||
        sum.attempted_work != tally_.attempted_work ||
        sum.failures != tally_.failures || sum.restarts != tally_.restarts ||
        sum.slots != tally_.slots) {
      violations.push_back(
          "per-phase sums do not add up to the run totals (a slot ran "
          "before the first phase event, or the stream was spliced)");
    }
  }
  return violations;
}

void StreamAggregator::write_engine_metrics(const WorkTally& run_tally,
                                            Pid processors,
                                            MetricsRegistry& metrics) const {
  metrics.counter("engine.completed_work").add(run_tally.completed_work);
  metrics.counter("engine.attempted_work").add(run_tally.attempted_work);
  metrics.counter("engine.failures").add(run_tally.failures);
  metrics.counter("engine.restarts").add(run_tally.restarts);
  metrics.counter("engine.halted").add(run_tally.halted);
  metrics.counter("engine.slots_to_goal").add(run_tally.slots);
  metrics.gauge("engine.peak_live")
      .set(static_cast<double>(run_tally.peak_live));
  metrics.gauge("engine.goal_met").set(goal_met_ ? 1.0 : 0.0);
  metrics.histogram("engine.live_per_slot") = live_per_slot_;
  // One observation per restarted PID below `processors` (the length of its
  // run in the sorted PID list), then a zero for every other PID. A
  // histogram does not depend on the order of its observations.
  Histogram& per_pid = metrics.histogram("engine.restarts_per_processor");
  std::vector<Pid> pids = restarted_pids_;
  std::sort(pids.begin(), pids.end());
  std::uint64_t restarted = 0;
  for (auto run = pids.begin(); run != pids.end();) {
    const auto end = std::upper_bound(run, pids.end(), *run);
    if (*run < processors) {
      per_pid.observe(static_cast<std::uint64_t>(end - run));
      ++restarted;
    }
    run = end;
  }
  for (; restarted < processors; ++restarted) per_pid.observe(0);
}

}  // namespace rfsp
