#include "replay/schedule.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "replay/json.hpp"
#include "util/error.hpp"
#include "util/wordio.hpp"

namespace rfsp {

namespace {

// Appends `,"key":[v0,v1,...]` to `out` (nothing for an empty list).
template <typename T>
void append_array(std::string& out, const char* key,
                  const std::vector<T>& values) {
  if (values.empty()) return;
  out += ',';
  json::append_string(out, key);
  out += ":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    json::append_u64(out, values[i]);
  }
  out += ']';
}

template <typename T>
std::vector<T> read_array(const json::Value& entry, const char* key) {
  std::vector<T> out;
  if (const json::Value* arr = entry.find(key)) {
    for (const json::Value& v : arr->as_array()) {
      out.push_back(static_cast<T>(v.as_u64()));
    }
  }
  return out;
}

}  // namespace

std::uint64_t FaultSchedule::move_count() const {
  std::uint64_t count = 0;
  for (const ScheduleEntry& e : entries) {
    count += e.decision.fail_mid_cycle.size() +
             e.decision.fail_after_cycle.size() + e.decision.restart.size() +
             e.decision.torn.size() + e.decision.cell_faults.size() +
             e.decision.cache_drop.size();
  }
  return count;
}

bool FaultSchedule::has_torn_moves() const {
  return std::any_of(entries.begin(), entries.end(), [](const auto& e) {
    return !e.decision.torn.empty();
  });
}

std::string schedule_to_jsonl(const FaultSchedule& schedule) {
  std::string out;
  // An entry takes about 12 bytes plus about 7 per move; reserving a little
  // more keeps `out` from regrowing.
  out.reserve(256 + 16 * schedule.entries.size() + 8 * schedule.move_count());
  out += R"({"format":"rfsp-fault-schedule","version":)";
  out += std::to_string(FaultSchedule::kFormatVersion);
  out += R"(,"meta":{)";
  bool first = true;
  for (const auto& [key, value] : schedule.meta) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, key);
    out += ':';
    json::append_string(out, value);
  }
  out += "}}\n";

  // One line per entry, its move lists in a fixed key order.
  for (const ScheduleEntry& e : schedule.entries) {
    out += R"({"t":)";
    json::append_u64(out, e.slot);
    append_array(out, "mid", e.decision.fail_mid_cycle);
    append_array(out, "after", e.decision.fail_after_cycle);
    append_array(out, "restart", e.decision.restart);
    if (!e.decision.torn.empty()) {
      out += R"(,"torn":[)";
      for (std::size_t i = 0; i < e.decision.torn.size(); ++i) {
        const TornWrite& t = e.decision.torn[i];
        if (i != 0) out += ',';
        out += R"({"pid":)";
        json::append_u64(out, t.pid);
        out += R"(,"w":)";
        json::append_u64(out, t.write_index);
        out += R"(,"keep":)";
        json::append_u64(out, t.keep_bits);
        out += '}';
      }
      out += ']';
    }
    append_array(out, "cells", e.decision.cell_faults);
    append_array(out, "drop", e.decision.cache_drop);
    out += "}\n";
  }
  return out;
}

FaultSchedule schedule_from_jsonl(std::string_view text) {
  FaultSchedule schedule;
  bool saw_header = false;
  bool have_prev_slot = false;
  Slot prev_slot = 0;

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    const json::Value v = json::parse(line);
    if (!saw_header) {
      if (v.at("format").as_string() != "rfsp-fault-schedule") {
        throw ConfigError("not an rfsp-fault-schedule file");
      }
      if (v.at("version").as_u64() !=
          static_cast<std::uint64_t>(FaultSchedule::kFormatVersion)) {
        throw ConfigError("unsupported fault-schedule version " +
                          std::to_string(v.at("version").as_u64()));
      }
      for (const auto& [key, value] : v.at("meta").as_object()) {
        schedule.meta[key] = value.as_string();
      }
      saw_header = true;
      continue;
    }

    ScheduleEntry entry;
    entry.slot = static_cast<Slot>(v.at("t").as_u64());
    if (have_prev_slot && entry.slot <= prev_slot) {
      throw ConfigError("fault-schedule entries out of slot order at slot " +
                        std::to_string(entry.slot));
    }
    prev_slot = entry.slot;
    have_prev_slot = true;
    entry.decision.fail_mid_cycle = read_array<Pid>(v, "mid");
    entry.decision.fail_after_cycle = read_array<Pid>(v, "after");
    entry.decision.restart = read_array<Pid>(v, "restart");
    if (const json::Value* torn = v.find("torn")) {
      for (const json::Value& t : torn->as_array()) {
        TornWrite tear;
        tear.pid = static_cast<Pid>(t.at("pid").as_u64());
        tear.write_index = static_cast<std::size_t>(t.at("w").as_u64());
        tear.keep_bits = static_cast<unsigned>(t.at("keep").as_u64());
        entry.decision.torn.push_back(tear);
      }
    }
    entry.decision.cell_faults = read_array<Addr>(v, "cells");
    entry.decision.cache_drop = read_array<Pid>(v, "drop");
    if (!entry.decision.empty()) schedule.entries.push_back(std::move(entry));
  }
  if (!saw_header) throw ConfigError("empty fault-schedule file");
  return schedule;
}

void save_schedule(const FaultSchedule& schedule, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("cannot open '" + path + "' for writing");
  out << schedule_to_jsonl(schedule);
  out.flush();
  if (!out) throw ConfigError("failed writing schedule to '" + path + "'");
}

FaultSchedule load_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open schedule file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return schedule_from_jsonl(buf.str());
}

FaultDecision RecordingAdversary::decide(const MachineView& view) {
  FaultDecision d = inner_.decide(view);
  if (!d.empty()) out_.entries.push_back({view.slot(), d});
  return d;
}

FaultDecision ReplayAdversary::decide(const MachineView& view) {
  const auto& entries = schedule_.entries;
  // Skip entries behind the clock (possible only when a resume landed past
  // them without load_state — tolerated rather than replayed out of time).
  while (cursor_ < entries.size() && entries[cursor_].slot < view.slot()) {
    ++cursor_;
  }
  FaultDecision d = view.blank_decision();
  if (cursor_ < entries.size() && entries[cursor_].slot == view.slot()) {
    d = entries[cursor_++].decision;  // copies into the kept capacity
  }
  return d;
}

void ReplayAdversary::load_state(std::span<const std::uint64_t> data) {
  if (data.empty()) {
    cursor_ = 0;
    return;
  }
  cursor_ = data.front();
  if (cursor_ > schedule_.entries.size()) {
    throw ConfigError("replay cursor beyond the schedule");
  }
}

FaultDecision ScheduledAdversary::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  const auto& entries = schedule_.entries;
  if (next_entry_ >= entries.size() ||
      entries[next_entry_].slot > view.slot()) {
    return d;
  }
  const std::size_t started = view.started_pids().size();
  marks_.resize(view.processors());

  const auto fail = [&](Pid pid) {
    const bool live = pid < view.processors() &&
                      view.status(pid) == ProcStatus::kLive &&
                      view.trace(pid).started;
    // Keep at least one started cycle alive (self-clamp; see header).
    if (!live || (marks_[pid] & kFailing) ||
        d.fail_mid_cycle.size() + 1 >= started) {
      ++skipped_;
      return;
    }
    d.fail_mid_cycle.push_back(pid);
    marks_[pid] |= kFailing;
  };
  const auto restart = [&](Pid pid) {
    const bool restartable =
        pid < view.processors() &&
        (view.status(pid) == ProcStatus::kFailed || (marks_[pid] & kFailing));
    if (!restartable || (marks_[pid] & kRestarting)) {
      ++skipped_;
      return;
    }
    d.restart.push_back(pid);
    marks_[pid] |= kRestarting;
  };

  while (next_entry_ < entries.size() &&
         entries[next_entry_].slot <= view.slot()) {
    const FaultDecision& moves = entries[next_entry_++].decision;
    for (Pid pid : moves.fail_mid_cycle) fail(pid);
    for (Pid pid : moves.fail_after_cycle) fail(pid);
    for (const TornWrite& tear : moves.torn) fail(tear.pid);
    for (Pid pid : moves.restart) restart(pid);
  }
  for (Pid pid : d.fail_mid_cycle) marks_[pid] = 0;
  for (Pid pid : d.restart) marks_[pid] = 0;
  return d;
}

void ScheduledAdversary::save_state(std::vector<std::uint64_t>& out) const {
  U64Writer w(out);
  w.put(next_entry_);
  w.put(skipped_);
}

void ScheduledAdversary::load_state(std::span<const std::uint64_t> data) {
  U64Reader r(data);
  next_entry_ = static_cast<std::size_t>(r.get());
  skipped_ = r.get();
}

}  // namespace rfsp
