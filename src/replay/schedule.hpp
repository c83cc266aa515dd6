// Fault-schedule record/replay (docs/resilience.md §1-2).
//
// A FaultSchedule is the canonical, versioned capture of everything an
// adversary did to a run: one entry per slot whose FaultDecision was
// non-empty. Because the engine is deterministic given the program, the
// options, and the per-slot decisions, replaying a schedule through
// ReplayAdversary reproduces the original run bit for bit — same WorkTally,
// same memory, same trace-event stream. That turns any failing run (a chaos
// seed, a CI fuzz find, a field report) into a portable artifact that can
// be re-run, minimized (replay/shrink.hpp), and archived as a regression
// corpus entry.
//
// On-disk format ("rfsp-fault-schedule" JSONL, version 1):
//   line 1:  {"format":"rfsp-fault-schedule","version":1,"meta":{...}}
//   line 2+: {"t":12,"mid":[0,3],"after":[7],"restart":[1],
//             "torn":[{"pid":2,"w":1,"keep":17}],
//             "cells":[5,9],"drop":[4]}
// with empty move arrays omitted, entries in strictly ascending slot
// order, and `meta` a flat string-to-string map (algo, n, p, seed, ... —
// see replay/repro.hpp) that makes the file self-describing.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fault/adversary.hpp"
#include "pram/types.hpp"

namespace rfsp {

struct ScheduleEntry {
  Slot slot = 0;
  FaultDecision decision;

  friend bool operator==(const ScheduleEntry&, const ScheduleEntry&) = default;
};

struct FaultSchedule {
  static constexpr int kFormatVersion = 1;

  // Self-description (algorithm, sizes, seed, source adversary...). Flat
  // string map so the format never chases the library's type zoo.
  std::map<std::string, std::string> meta;

  // Non-empty decisions, strictly ascending by slot.
  std::vector<ScheduleEntry> entries;

  // Total number of individual moves — the shrinker's progress metric.
  std::uint64_t move_count() const;
  // Whether any move is a torn write (legal only with bit-atomic writes).
  bool has_torn_moves() const;

  friend bool operator==(const FaultSchedule&, const FaultSchedule&) = default;
};

// JSONL round-trip. schedule_from_jsonl throws ConfigError on malformed
// input, a version/format mismatch, or out-of-order entries.
std::string schedule_to_jsonl(const FaultSchedule& schedule);
FaultSchedule schedule_from_jsonl(std::string_view text);

// File I/O convenience (throws ConfigError on I/O failure).
void save_schedule(const FaultSchedule& schedule, const std::string& path);
FaultSchedule load_schedule(const std::string& path);

// Wraps any adversary and records its non-empty decisions into a
// caller-owned schedule. The schedule reference must outlive the wrapper;
// ownership stays with the caller so the recording survives an engine
// throw (the violating decision is recorded before the engine validates
// it — exactly what the shrinker needs). Recording reads nothing of the
// machine but the slot, so the wrapper inspects cycles iff `inner` does.
class RecordingAdversary final : public Adversary {
 public:
  RecordingAdversary(Adversary& inner, FaultSchedule& out)
      : inner_(inner), out_(out) {}

  std::string_view name() const override { return inner_.name(); }
  FaultDecision decide(const MachineView& view) override;
  bool inspects_cycles() const override { return inner_.inspects_cycles(); }
  void save_state(std::vector<std::uint64_t>& out) const override {
    inner_.save_state(out);
  }
  void load_state(std::span<const std::uint64_t> data) override {
    inner_.load_state(data);
  }

 private:
  Adversary& inner_;
  FaultSchedule& out_;
};

// Replays a schedule exactly: the recorded decision at each recorded slot,
// an empty decision everywhere else. Checkpoint-aware (save/load = cursor),
// so record/replay composes with checkpoint/restore. It reads only the
// slot; torn writes get their per-PID traces from bit_atomic_writes.
class ReplayAdversary final : public Adversary {
 public:
  explicit ReplayAdversary(FaultSchedule schedule)
      : schedule_(std::move(schedule)) {}

  std::string_view name() const override { return "replay"; }
  FaultDecision decide(const MachineView& view) override;
  bool inspects_cycles() const override { return false; }
  void save_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(cursor_);
  }
  void load_state(std::span<const std::uint64_t> data) override;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  FaultSchedule schedule_;
  std::uint64_t cursor_ = 0;
};

// Replays a schedule as an *off-line* (non-adaptive) adversary in §5's
// sense: e.g. a stalker's recorded schedule run against fresh coins, where
// the machine no longer matches the recording. Each entry's failures
// (mid-cycle, post-write and torn alike) apply as mid-cycle failures, in
// the order mid, after, torn, then its restarts; memory-model moves (cells,
// drop) are ignored. A move whose target is in the wrong state when its
// slot arrives is skipped (counted in `skipped()`), a second fail or
// restart of one PID in one slot included, and failures that would abort
// the last started cycle are skipped too: an off-line schedule cannot
// adapt, but the model must still hold.
class ScheduledAdversary final : public Adversary {
 public:
  explicit ScheduledAdversary(FaultSchedule schedule)
      : schedule_(std::move(schedule)) {}

  std::string_view name() const override { return "scheduled"; }
  FaultDecision decide(const MachineView& view) override;
  bool inspects_cycles() const override { return false; }
  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(std::span<const std::uint64_t> data) override;

  std::uint64_t skipped() const { return skipped_; }

 private:
  static constexpr std::uint8_t kFailing = 1;
  static constexpr std::uint8_t kRestarting = 2;

  FaultSchedule schedule_;
  std::size_t next_entry_ = 0;
  std::uint64_t skipped_ = 0;
  // Per-PID kFailing/kRestarting marks of the slot being decided, sized to
  // P once; decide clears the bytes it set before it returns.
  std::vector<std::uint8_t> marks_;
};

}  // namespace rfsp
