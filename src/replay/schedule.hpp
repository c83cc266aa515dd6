// Fault-schedule record/replay (docs/resilience.md §1-2).
//
// A FaultSchedule is the canonical, versioned capture of everything an
// adversary did to a run: the failure/restart pattern F as a flat sequence
// of single moves, plus the memory-model moves (cells, drop). Because the
// engine is deterministic given the program, the options, and the per-slot
// decisions, replaying a schedule through ReplayAdversary reproduces the
// original run bit for bit — same WorkTally, same memory, same trace-event
// stream. That turns any failing run (a chaos seed, a CI fuzz find, a field
// report) into a portable artifact that can be re-run, minimized
// (replay/shrink.hpp), and archived as a regression corpus entry.
//
// On-disk format ("rfsp-fault-schedule" JSONL, version 1):
//   line 1:  {"format":"rfsp-fault-schedule","version":1,"meta":{...}}
//   line 2+: {"t":12,"mid":[0,3],"after":[7],"restart":[1],
//             "torn":[{"pid":2,"w":1,"keep":17}],
//             "cells":[5,9],"drop":[4]}
// one line per slot that has moves, with empty move arrays omitted, lines
// in strictly ascending slot order, and `meta` a flat string-to-string map
// (algo, n, p, seed, ... — see replay/repro.hpp) that makes the file
// self-describing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/adversary.hpp"
#include "pram/types.hpp"

namespace rfsp {

// One move of a schedule: one entry of one list of a slot's FaultDecision.
// The kinds are in the order the shrinker tries to remove them
// (replay/shrink.hpp), which is also their order within a slot.
struct Move {
  enum class Kind : std::uint8_t {
    kMid, kAfter, kRestart, kCell, kDrop, kTorn
  };

  Slot slot = 0;
  std::uint64_t target = 0;       // a PID, or the cell of a kCell move
  std::uint32_t write_index = 0;  // kTorn only: TornWrite's fields
  std::uint8_t keep_bits = 0;
  Kind kind = Kind::kMid;

  friend bool operator==(const Move&, const Move&) = default;
};

struct FaultSchedule {
  static constexpr int kFormatVersion = 1;

  // Self-description (algorithm, sizes, seed, source adversary...). Flat
  // string map so the format never chases the library's type zoo.
  std::map<std::string, std::string> meta;

  // Ordered by slot, then kind, then position in the decision. The moves
  // that share a slot, [i, slot_end(i)), are that slot's decision.
  std::vector<Move> moves;

  // Appends the moves of `d` at `slot`, which follows every slot held.
  void append(Slot slot, const FaultDecision& d);
  // One past the last move that shares moves[i]'s slot.
  std::size_t slot_end(std::size_t i) const;
  std::size_t slot_count() const;
  // |F| plus the memory-model moves — the shrinker's progress metric.
  std::uint64_t move_count() const { return moves.size(); }
  // Whether any move is a torn write (legal only with bit-atomic writes).
  bool has_torn_moves() const;

  friend bool operator==(const FaultSchedule&, const FaultSchedule&) = default;
};

// JSONL round-trip. schedule_from_jsonl throws ConfigError on malformed
// input, a version/format mismatch, out-of-order slots, or a number too
// wide for its move field (a PID above 2^32 - 1, a keep of 64 or more).
std::string schedule_to_jsonl(const FaultSchedule& schedule);
FaultSchedule schedule_from_jsonl(std::string_view text);

// File I/O for schedules and checkpoints (ConfigError on I/O failure,
// naming `what`). write_file_atomically writes `path + ".tmp"`, then
// renames it over `path`, so a process killed mid-save leaves the previous
// file intact (no fsync: this survives a kill, not a power loss); a failed
// save removes the temporary file it made.
void write_file_atomically(const std::string& path, std::string_view bytes,
                           std::string_view what);
std::string read_file(const std::string& path, std::string_view what);
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
// an empty decision everywhere else. Checkpoint-aware (save/load = slots
// consumed), so record/replay composes with checkpoint/restore. It reads
// only the slot; torn writes get their per-PID traces from bit_atomic_writes.
class ReplayAdversary final : public Adversary {
 public:
  explicit ReplayAdversary(FaultSchedule schedule)
      : schedule_(std::move(schedule)) {}

  std::string_view name() const override { return "replay"; }
  FaultDecision decide(const MachineView& view) override;
  bool inspects_cycles() const override { return false; }
  void save_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(consumed_);
  }
  void load_state(std::span<const std::uint64_t> data) override;

 private:
  FaultSchedule schedule_;
  std::uint64_t consumed_ = 0;  // slots consumed
  std::size_t next_ = 0;        // the first move of slot `consumed_`
};

// Replays a schedule as an *off-line* (non-adaptive) adversary in §5's
// sense: e.g. a stalker's recorded schedule run against fresh coins, where
// the machine no longer matches the recording. Each slot's failures
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
  std::uint64_t consumed_ = 0;  // slots consumed
  std::size_t next_ = 0;        // the first move of slot `consumed_`
  std::uint64_t skipped_ = 0;
  // Per-PID kFailing/kRestarting marks of the slot being decided, sized to
  // P once; decide clears the bytes it set before it returns.
  std::vector<std::uint8_t> marks_;
};

}  // namespace rfsp
