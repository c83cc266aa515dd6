// Structured event tracing for the PRAM engine.
//
// A TraceSink receives one TraceEvent per engine occurrence: a per-slot
// summary (kSlot), the commit snapshot (kCommit), each individual
// failure/restart/halt with its PID (kFailure/kRestart/kHalt), phase
// transitions when the program publishes a PhaseSchedule (kPhase), and a
// final run summary (kRunEnd). The stream is deterministic: events are
// emitted in slot order, and within a slot in the fixed order
//   kPhase?, kSlot, kCommit, kFailure*, kRestart*, kHalt*,
// with PID-ordered halts — identical under EngineOptions::batch.
//
// Cost model: with no sink installed the engine pays one predicted null
// test per slot and nothing on the per-read/per-write hot paths; the whole
// layer is compiled in but inert (see docs/observability.md for the
// measured non-regression against BENCH_PR1.json).
//
// Reconstruction invariants (asserted by tests/obs_test.cpp):
//   Σ kSlot.completed == WorkTally::completed_work   (S)
//   Σ kSlot.started   == WorkTally::attempted_work   (S')
//   #kFailure + #kRestart == WorkTally::pattern_size()  (|F|)
//   #kHalt == WorkTally::halted,  #kSlot == WorkTally::slots.
//
// Transports: the JSONL/CSV sinks below are the text formats; the compact
// binary encoding and its readers live in obs/binary_trace.hpp, and online
// (unbuffered) aggregation over any of them in obs/stream.hpp.
#pragma once

#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "accounting/tally.hpp"
#include "pram/types.hpp"

namespace rfsp {

enum class TraceEventKind : std::uint8_t {
  kSlot,     // per-slot summary: started/completed/failures/restarts
  kCommit,   // per-slot commit: buffered writes entering the commit
  kFailure,  // one <failure, PID, slot> triple (Definition 2.1)
  kRestart,  // one <restart, PID, slot> triple
  kHalt,     // a processor voluntarily finished (completed final cycle)
  kPhase,    // the machine entered a new phase (PhaseSchedule programs)
  kRunEnd,   // run finished: goal_met / deadlock / slot_limit
};

std::string_view to_string(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSlot;
  Slot slot = 0;
  Pid pid = 0;                    // kFailure / kRestart / kHalt
  std::uint32_t started = 0;      // kSlot: live processors that ran a cycle
  std::uint32_t completed = 0;    // kSlot: cycles that committed
  std::uint32_t failures = 0;     // kSlot: failure events this slot
  std::uint32_t restarts = 0;     // kSlot: restart events this slot
  std::uint32_t writes = 0;       // kCommit: buffered writes this slot
  std::uint32_t phase = 0;        // kPhase: id of the phase being entered
  std::string_view phase_name{};  // kPhase: valid only during on_event
  bool goal_met = false;          // kRunEnd
  bool deadlock = false;          // kRunEnd
  bool slot_limit = false;        // kRunEnd

  // Field-wise equality (phase_name by content) — the oracle of the
  // binary/JSONL transport round-trip tests and `trace_cli check A B`.
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

// Receiver interface. on_event is called from the engine's slot loop on
// the calling thread; implementations need no locking. Any string_view fields are valid only for the duration of the
// call — sinks that retain events must copy them (CollectingTraceSink
// does).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void flush() {}  // called once at run end
};

// One JSON object per line, e.g.
//   {"e":"slot","t":5,"started":8,"completed":7,"failures":1,"restarts":0}
//   {"e":"failure","t":5,"pid":3}
//   {"e":"phase","t":6,"phase":1,"name":"work"}
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}
  void on_event(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& out_;
};

// One header plus one row per event; inapplicable columns are left empty.
class CsvTraceSink final : public TraceSink {
 public:
  explicit CsvTraceSink(std::ostream& out) : out_(out) {}
  void on_event(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& out_;
  bool header_written_ = false;
};

// Two-way fan-out: every event, and the run-end flush, goes to `first`
// and then to `second` — one run feeds a trace writer and an in-process
// StreamAggregator at once. Both sinks must outlive this one.
class TeeTraceSink final : public TraceSink {
 public:
  TeeTraceSink(TraceSink& first, TraceSink& second)
      : first_(first), second_(second) {}
  void on_event(const TraceEvent& event) override {
    first_.on_event(event);
    second_.on_event(event);
  }
  void flush() override {
    first_.flush();
    second_.flush();
  }

 private:
  TraceSink& first_;
  TraceSink& second_;
};

// In-memory sink for tests and programmatic consumers. Copies phase names
// into stable storage so the collected events outlive the run.
class CollectingTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override;

  const std::vector<TraceEvent>& events() const { return events_; }

  // Re-derive the run's WorkTally from the event stream alone (the
  // reconstruction invariants in the file comment). peak_live comes from
  // the max kSlot.started. Delegates to StreamAggregator (obs/stream.hpp)
  // — the one implementation of the reconstruction rules — by replaying
  // the collected events through it.
  WorkTally reconstruct_tally() const;

 private:
  std::vector<TraceEvent> events_;
  std::deque<std::string> names_;  // stable referents for phase_name views
};

}  // namespace rfsp
