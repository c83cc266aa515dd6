#include "replay/schedule.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "replay/json.hpp"
#include "util/error.hpp"
#include "util/wordio.hpp"

namespace rfsp {

namespace {

using Kind = Move::Kind;

// Each kind's JSONL key, indexed by kind; the writer emits the keys in the
// format's order, the reader appends in kind order.
constexpr const char* kKeys[] = {"mid", "after", "restart",
                                 "cells", "drop", "torn"};
constexpr Kind kFileOrder[] = {Kind::kMid,  Kind::kAfter, Kind::kRestart,
                               Kind::kTorn, Kind::kCell,  Kind::kDrop};

// A number too wide for its move field is refused, never truncated.
std::uint64_t bounded(const json::Value& v, std::uint64_t max,
                      const char* what) {
  if (v.as_u64() <= max) return v.as_u64();
  throw ConfigError(std::string("fault-schedule ") + what + " " +
                    std::to_string(v.as_u64()) + " exceeds " +
                    std::to_string(max));
}

// Appends `m` to the list of `d` that its kind names.
void add_move(const Move& m, FaultDecision& d) {
  const auto p = static_cast<Pid>(m.target);
  switch (m.kind) {
    case Kind::kMid: d.fail_mid_cycle.push_back(p); break;
    case Kind::kAfter: d.fail_after_cycle.push_back(p); break;
    case Kind::kRestart: d.restart.push_back(p); break;
    case Kind::kCell: d.cell_faults.push_back(m.target); break;
    case Kind::kDrop: d.cache_drop.push_back(p); break;
    case Kind::kTorn: d.torn.push_back({p, m.write_index, m.keep_bits}); break;
  }
}

// The first move of the slot after the schedule's first `slots` slots;
// ConfigError if it has fewer (a checkpoint from another schedule).
std::size_t skip_slots(const FaultSchedule& s, std::uint64_t slots) {
  std::size_t i = 0;
  for (; slots > 0; --slots, i = s.slot_end(i)) {
    if (i == s.moves.size()) throw ConfigError("cursor beyond the schedule");
  }
  return i;
}

}  // namespace

void FaultSchedule::append(Slot slot, const FaultDecision& d) {
  const auto add = [&](Kind kind, const auto& targets) {
    for (const auto target : targets) {
      moves.push_back({.slot = slot, .target = target, .kind = kind});
    }
  };
  add(Kind::kMid, d.fail_mid_cycle);
  add(Kind::kAfter, d.fail_after_cycle);
  add(Kind::kRestart, d.restart);
  add(Kind::kCell, d.cell_faults);
  add(Kind::kDrop, d.cache_drop);
  // Saturated: a value too wide for its field stays out of range, so the
  // engine rejects the replay as it rejected the recorded decision.
  for (const TornWrite& t : d.torn) {
    moves.push_back({slot, t.pid,
                     static_cast<std::uint32_t>(
                         std::min<std::size_t>(t.write_index, UINT32_MAX)),
                     static_cast<std::uint8_t>(std::min(t.keep_bits, 255u)),
                     Kind::kTorn});
  }
}

std::size_t FaultSchedule::slot_end(std::size_t i) const {
  std::size_t end = i;
  while (end < moves.size() && moves[end].slot == moves[i].slot) ++end;
  return end;
}

std::size_t FaultSchedule::slot_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < moves.size(); i = slot_end(i)) ++count;
  return count;
}

bool FaultSchedule::has_torn_moves() const {
  return std::any_of(moves.begin(), moves.end(),
                     [](const Move& m) { return m.kind == Kind::kTorn; });
}

std::string schedule_to_jsonl(const FaultSchedule& schedule) {
  std::string out;
  // A slot's line takes about 12 bytes plus about 7 per move; reserving a
  // little more keeps `out` from regrowing.
  out.reserve(256 + 16 * schedule.slot_count() + 8 * schedule.move_count());
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

  // One line per slot, its move arrays in the format's key order.
  const std::vector<Move>& moves = schedule.moves;
  for (std::size_t b = 0, e = 0; b < moves.size(); b = e) {
    e = schedule.slot_end(b);
    out += R"({"t":)";
    json::append_u64(out, moves[b].slot);
    for (const Kind kind : kFileOrder) {
      bool opened = false;
      for (std::size_t i = b; i < e; ++i) {
        const Move& m = moves[i];
        if (m.kind != kind) continue;
        out += ',';
        if (!opened) {
          json::append_string(out, kKeys[static_cast<int>(kind)]);
          out += ":[";
          opened = true;
        }
        if (kind != Kind::kTorn) {
          json::append_u64(out, m.target);
          continue;
        }
        out += R"({"pid":)";
        json::append_u64(out, m.target);
        out += R"(,"w":)";
        json::append_u64(out, m.write_index);
        out += R"(,"keep":)";
        json::append_u64(out, m.keep_bits);
        out += '}';
      }
      if (opened) out += ']';
    }
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

    const Slot slot = v.at("t").as_u64();
    if (have_prev_slot && slot <= prev_slot) {
      throw ConfigError("fault-schedule entries out of slot order at slot " +
                        std::to_string(slot));
    }
    prev_slot = slot;
    have_prev_slot = true;
    for (int k = 0; k < static_cast<int>(std::size(kKeys)); ++k) {
      const json::Value* array = v.find(kKeys[k]);
      if (array == nullptr) continue;
      for (const json::Value& x : array->as_array()) {
        Move m{.slot = slot, .kind = static_cast<Kind>(k)};
        if (m.kind == Kind::kCell) {
          m.target = x.as_u64();
        } else if (m.kind != Kind::kTorn) {
          m.target = bounded(x, UINT32_MAX, "PID");
        } else {
          m.target = bounded(x.at("pid"), UINT32_MAX, "PID");
          m.write_index =
              static_cast<std::uint32_t>(bounded(x.at("w"), UINT32_MAX, "w"));
          m.keep_bits =
              static_cast<std::uint8_t>(bounded(x.at("keep"), 63, "keep"));
        }
        schedule.moves.push_back(m);
      }
    }
  }
  if (!saw_header) throw ConfigError("empty fault-schedule file");
  return schedule;
}

void write_file_atomically(const std::string& path, std::string_view bytes,
                           std::string_view what) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  const bool made = out.is_open();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, path, ec);  // atomic replace
  if (!out || ec) {
    std::error_code ignored;
    if (made) std::filesystem::remove(tmp, ignored);
    throw ConfigError("cannot write " + std::string(what) + " '" + path + "'" +
                      (ec ? ": " + ec.message() : std::string()));
  }
}

void save_schedule(const FaultSchedule& schedule, const std::string& path) {
  write_file_atomically(path, schedule_to_jsonl(schedule), "schedule");
}

std::string read_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  if (in) bytes << in.rdbuf();
  if (!in) {
    throw ConfigError("cannot read " + std::string(what) + " file '" + path +
                      "'");
  }
  return std::move(bytes).str();
}

FaultSchedule load_schedule(const std::string& path) {
  return schedule_from_jsonl(read_file(path, "schedule"));
}

FaultDecision RecordingAdversary::decide(const MachineView& view) {
  FaultDecision d = inner_.decide(view);
  out_.append(view.slot(), d);
  return d;
}

FaultDecision ReplayAdversary::decide(const MachineView& view) {
  const std::vector<Move>& moves = schedule_.moves;
  FaultDecision d = view.blank_decision();
  // Slots behind the clock are consumed unplayed (possible only when a
  // resume landed past them without load_state — tolerated rather than
  // replayed out of time).
  while (next_ < moves.size() && moves[next_].slot <= view.slot()) {
    const std::size_t end = schedule_.slot_end(next_);
    for (; next_ < end; ++next_) {
      if (moves[next_].slot == view.slot()) add_move(moves[next_], d);
    }
    ++consumed_;
  }
  return d;
}

void ReplayAdversary::load_state(std::span<const std::uint64_t> data) {
  consumed_ = data.empty() ? 0 : data.front();
  next_ = skip_slots(schedule_, consumed_);
}

FaultDecision ScheduledAdversary::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  const std::vector<Move>& moves = schedule_.moves;
  if (next_ >= moves.size() || moves[next_].slot > view.slot()) return d;
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

  while (next_ < moves.size() && moves[next_].slot <= view.slot()) {
    const std::size_t end = schedule_.slot_end(next_);
    // Kind order puts torn failures after the restarts: fail first.
    for (std::size_t i = next_; i < end; ++i) {
      const Kind k = moves[i].kind;
      if (k == Kind::kMid || k == Kind::kAfter || k == Kind::kTorn) {
        fail(static_cast<Pid>(moves[i].target));
      }
    }
    for (; next_ < end; ++next_) {
      if (moves[next_].kind == Kind::kRestart) {
        restart(static_cast<Pid>(moves[next_].target));
      }
    }
    ++consumed_;
  }
  for (Pid pid : d.fail_mid_cycle) marks_[pid] = 0;
  for (Pid pid : d.restart) marks_[pid] = 0;
  return d;
}

void ScheduledAdversary::save_state(std::vector<std::uint64_t>& out) const {
  U64Writer w(out);
  w.put(consumed_);
  w.put(skipped_);
}

void ScheduledAdversary::load_state(std::span<const std::uint64_t> data) {
  U64Reader r(data);
  consumed_ = r.get();
  skipped_ = r.get();
  next_ = skip_slots(schedule_, consumed_);
}

}  // namespace rfsp
