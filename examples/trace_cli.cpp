// trace_cli — inspect, convert, verify, and watch engine trace streams
// (docs/observability.md). Works on both transports: the JSONL text format
// and the compact binary encoding (obs/binary_trace.hpp); the input format
// is sniffed from the first byte, so every subcommand takes either.
//
//   trace_cli convert IN OUT [--to jsonl|binary|csv]
//       Re-encode a trace. The target format defaults from OUT's extension
//       (.csv -> csv, .bin/.rft -> binary, else jsonl). binary <-> jsonl
//       conversion is lossless and byte-exact round-trip; csv is export-
//       only (there is no csv reader).
//   trace_cli stat IN [--window K]
//       Stream IN through a StreamAggregator and print the reconstructed
//       tally, run outcome, per-phase breakdown, and trailing-window rates
//       — without ever buffering the run.
//   trace_cli check IN [IN2]
//       Verify IN against the stream's own redundancy (slot sums vs
//       failure/restart events, one commit per slot, ordering contract,
//       run_end agreement). With IN2, additionally decode both streams and
//       require event-for-event equality — the cross-format / cross-
//       engine-mode bit-identity check CI runs.
//   trace_cli tail IN [--follow 1] [--interval-ms 250] [--width 64]
//                    [--window K]
//       Render slot/phase/failure timelines of a recorded — or, with
//       --follow 1, still-growing — trace as a terminal view, reading
//       incrementally from the file.
//
// IN may be "-" (stdin) for convert/stat/check; OUT may be "-" (stdout).
// Exit codes: 0 ok, 1 check violations or stream divergence, 2 usage,
// 3 malformed stream, 5 I/O error.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "obs/binary_trace.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace rfsp;

const std::vector<cli::Flag> kFlags = {
    {"to", "F", "convert: target jsonl|binary|csv (default from OUT)"},
    {"window", "K", "stat/tail: trailing-window rates (default 64)"},
    {"follow", "1", "tail: keep polling a growing file"},
    {"interval-ms", "MS", "tail: poll interval (default 250)"},
    {"width", "K", "tail: timeline width (default 64)"},
};

constexpr const char* kUsageHead =
    "usage: trace_cli <command> [args]\n"
    "  convert IN OUT [--to F]\n"
    "                     re-encode a trace (IN format is sniffed; the\n"
    "                     target defaults from OUT's extension)\n"
    "  stat IN [--window K]\n"
    "                     reconstruct and print the tally, phases, and\n"
    "                     trailing-window rates\n"
    "  check IN [IN2]     verify stream invariants; with IN2 also require\n"
    "                     the two decoded streams to be identical\n"
    "  tail IN [--follow 1] [--interval-ms MS] [--width K] [--window K]\n"
    "                     terminal timeline view of a recorded or live\n"
    "                     trace\n"
    "IN/OUT may be '-' for stdin/stdout (except tail, which needs a\n"
    "file it can re-poll).\n"
    "options:\n";

// One event as its canonical JSONL line, for divergence messages.
std::string event_to_jsonl(const TraceEvent& event) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  sink.on_event(event);
  std::string line = os.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

// An event copied out of a decoder, with the phase-name view re-anchored
// to owned storage so whole streams can be held for comparison.
struct OwnedEvent {
  TraceEvent event;
  std::string name;

  explicit OwnedEvent(const TraceEvent& e) : event(e), name(e.phase_name) {
    event.phase_name = name;
  }
  OwnedEvent(const OwnedEvent& other) : OwnedEvent(other.event) {}
  OwnedEvent& operator=(const OwnedEvent&) = delete;
};

std::ifstream open_input_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot read " << path << '\n';
    std::exit(5);
  }
  return in;
}

// --- convert ----------------------------------------------------------------

int cmd_convert(const std::string& in_path, const std::string& out_path,
                std::string to_format) {
  if (to_format.empty()) {
    to_format = out_path == "-" ? "jsonl" : trace_format_for_path(out_path);
  }

  std::ifstream in_file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    in_file = open_input_file(in_path);
    in = &in_file;
  }
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (out_path != "-") {
    out_file.open(out_path, std::ios::binary);
    if (!out_file) {
      std::cerr << "error: cannot write " << out_path << '\n';
      return 5;
    }
    out = &out_file;
  }

  const std::unique_ptr<TraceReader> reader = open_trace_reader(*in);
  const std::unique_ptr<TraceSink> sink = make_trace_sink(*out, to_format);
  const std::uint64_t events = replay_trace(*reader, *sink);
  std::ostream& note = out_path == "-" ? std::cerr : std::cout;
  note << "converted " << events << " events to " << to_format;
  if (out_path != "-") note << " -> " << out_path;
  note << '\n';
  return 0;
}

// --- stat -------------------------------------------------------------------

void print_summary(std::ostream& os, const StreamAggregator& agg) {
  const WorkTally& t = agg.tally();
  os << "events           " << agg.events() << "\n"
     << "slots            " << t.slots << "\n"
     << "completed S      " << t.completed_work << "\n"
     << "attempted S'     " << t.attempted_work << "\n"
     << "|F|              " << t.pattern_size() << " (" << t.failures
     << " failures, " << t.restarts << " restarts)\n"
     << "halted           " << t.halted << "\n"
     << "peak live        " << t.peak_live << "\n"
     << "commit writes    " << agg.commit_writes() << "\n"
     << "outcome          ";
  if (!agg.run_ended()) {
    os << "(no run_end: stream truncated or run still in progress)";
  } else if (agg.goal_met()) {
    os << "goal met";
  } else if (agg.deadlock()) {
    os << "deadlock";
  } else if (agg.slot_limit()) {
    os << "slot limit";
  } else {
    os << "unsolved";
  }
  os << '\n';
  os << "window(" << agg.window_capacity() << ")       "
     << "throughput " << agg.window_throughput() << " S/slot, failures "
     << agg.window_failure_rate() << "/slot, restarts "
     << agg.window_restart_rate() << "/slot, live " << agg.window_live_mean()
     << '\n';
  if (!agg.phases().empty()) {
    Table table({"phase", "S", "S'", "failures", "restarts", "slots"});
    for (const PhaseWork& phase : agg.phases()) {
      table.add_row({phase.name, fmt_int(phase.completed_work),
                     fmt_int(phase.attempted_work), fmt_int(phase.failures),
                     fmt_int(phase.restarts), fmt_int(phase.slots)});
    }
    os << "\nper-phase breakdown\n";
    table.print(os);
  }
}

int cmd_stat(const std::string& in_path, std::size_t window) {
  std::ifstream in_file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    in_file = open_input_file(in_path);
    in = &in_file;
  }
  const std::unique_ptr<TraceReader> reader = open_trace_reader(*in);
  StreamAggregator agg(window);
  replay_trace(*reader, agg);
  print_summary(std::cout, agg);
  return 0;
}

// --- check ------------------------------------------------------------------

int cmd_check(const std::string& a_path, const std::string& b_path) {
  int status = 0;
  auto check_one = [&status](const std::string& path,
                             std::vector<OwnedEvent>* collect) {
    std::ifstream in_file;
    std::istream* in = &std::cin;
    if (path != "-") {
      in_file = open_input_file(path);
      in = &in_file;
    }
    const std::unique_ptr<TraceReader> reader = open_trace_reader(*in);
    StreamAggregator agg;
    TraceEvent event;
    while (reader->next(event)) {
      agg.on_event(event);
      if (collect != nullptr) collect->emplace_back(event);
    }
    const std::vector<std::string> violations = agg.check();
    if (violations.empty()) {
      std::cout << path << ": ok (" << agg.events() << " events, "
                << agg.tally().slots << " slots, S="
                << agg.tally().completed_work << ")\n";
    } else {
      status = 1;
      std::cout << path << ": " << violations.size() << " violation(s)\n";
      for (const std::string& v : violations) std::cout << "  - " << v << '\n';
    }
    return agg;
  };

  if (b_path.empty()) {
    check_one(a_path, nullptr);
    return status;
  }

  std::vector<OwnedEvent> a;
  std::vector<OwnedEvent> b;
  check_one(a_path, &a);
  check_one(b_path, &b);
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!(a[i].event == b[i].event)) {
      std::cout << "streams diverge at event " << i << ":\n  " << a_path
                << ": " << event_to_jsonl(a[i].event) << "\n  " << b_path
                << ": " << event_to_jsonl(b[i].event) << '\n';
      return 1;
    }
  }
  if (a.size() != b.size()) {
    std::cout << "streams diverge: " << a_path << " has " << a.size()
              << " events, " << b_path << " has " << b.size() << '\n';
    return 1;
  }
  if (status == 0) {
    std::cout << "streams identical (" << a.size() << " events)\n";
  }
  return status;
}

// --- tail -------------------------------------------------------------------

// Fixed-width timeline over an unbounded, growing slot count: slots are
// accumulated into equal-size buckets, and when the run outgrows the view
// adjacent buckets merge pairwise (bucket_size doubles) — O(width) memory
// however long the run, same idea as a zoomed-out profiler track.
class Timeline {
 public:
  explicit Timeline(std::size_t width) : width_(std::max<std::size_t>(width, 8)) {}

  void on_event(const TraceEvent& event) {
    if (event.kind == TraceEventKind::kPhase) {
      current_phase_glyph_ =
          event.phase_name.empty() ? '?' : event.phase_name.front();
      return;
    }
    if (event.kind != TraceEventKind::kSlot) return;
    const std::size_t index = slots_seen_ / bucket_size_;
    if (index >= buckets_.size()) buckets_.resize(index + 1);
    Bucket& bucket = buckets_[index];
    bucket.slots += 1;
    bucket.started += event.started;
    bucket.completed += event.completed;
    bucket.failures += event.failures;
    bucket.restarts += event.restarts;
    bucket.phase_glyph = current_phase_glyph_;
    ++slots_seen_;
    if (buckets_.size() > width_ && slots_seen_ % bucket_size_ == 0) {
      for (std::size_t i = 0; 2 * i < buckets_.size(); ++i) {
        Bucket merged = buckets_[2 * i];
        if (2 * i + 1 < buckets_.size()) merged.merge(buckets_[2 * i + 1]);
        buckets_[i] = merged;
      }
      buckets_.resize((buckets_.size() + 1) / 2);
      bucket_size_ *= 2;
    }
  }

  void render(std::ostream& os) const {
    if (buckets_.empty()) {
      os << "(no slots yet)\n";
      return;
    }
    os << "slots 0.." << slots_seen_ - 1 << "  (" << bucket_size_
       << " slot(s) per column)\n";
    os << "live  " << bar_row([](const Bucket& b) {
      return b.slots == 0 ? 0.0 : double(b.started) / double(b.slots);
    }) << '\n';
    os << "done  " << bar_row([](const Bucket& b) {
      return b.slots == 0 ? 0.0 : double(b.completed) / double(b.slots);
    }) << '\n';
    os << "fail  " << bar_row([](const Bucket& b) {
      return double(b.failures);
    }) << '\n';
    os << "rstr  " << bar_row([](const Bucket& b) {
      return double(b.restarts);
    }) << '\n';
    os << "phase ";
    for (const Bucket& bucket : buckets_) os << bucket.phase_glyph;
    os << '\n';
  }

 private:
  struct Bucket {
    std::uint64_t slots = 0;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t failures = 0;
    std::uint64_t restarts = 0;
    char phase_glyph = ' ';

    void merge(const Bucket& other) {
      slots += other.slots;
      started += other.started;
      completed += other.completed;
      failures += other.failures;
      restarts += other.restarts;
      if (other.phase_glyph != ' ') phase_glyph = other.phase_glyph;
    }
  };

  template <typename Fn>
  std::string bar_row(Fn value_of) const {
    static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                    "▅", "▆", "▇", "█"};
    double max_value = 0.0;
    for (const Bucket& bucket : buckets_) {
      max_value = std::max(max_value, value_of(bucket));
    }
    std::string row;
    for (const Bucket& bucket : buckets_) {
      const double v = value_of(bucket);
      if (v <= 0.0 || max_value <= 0.0) {
        row += "·";  // '·' — exact zero, distinct from the lowest bar
        continue;
      }
      const auto level = static_cast<std::size_t>((v / max_value) * 7.0);
      row += kLevels[std::min<std::size_t>(level, 7)];
    }
    return row;
  }

  std::size_t width_;
  std::vector<Bucket> buckets_;
  std::uint64_t slots_seen_ = 0;
  std::uint64_t bucket_size_ = 1;
  char current_phase_glyph_ = ' ';
};

int cmd_tail(const std::string& path, bool follow, unsigned interval_ms,
             std::size_t width, std::size_t window) {
  std::ifstream in = open_input_file(path);
  StreamAggregator agg(window);
  Timeline timeline(width);

  std::string buf;
  std::size_t pos = 0;
  BinaryTraceDecoder binary_decoder;
  JsonlTraceDecoder jsonl_decoder;
  enum class Format { kUnknown, kBinary, kJsonl };
  Format format = Format::kUnknown;

  bool first_render = true;
  while (true) {
    // Drain everything the file currently holds, then decode the complete
    // records out of it; a trailing partial record just waits for the next
    // poll.
    in.clear();
    char chunk[std::size_t{1} << 16];
    while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
      buf.append(chunk, static_cast<std::size_t>(in.gcount()));
    }
    if (format == Format::kUnknown && !buf.empty()) {
      format = buf.front() == 'R' ? Format::kBinary : Format::kJsonl;
    }
    TraceEvent event;
    while (format != Format::kUnknown) {
      const bool got =
          format == Format::kBinary
              ? binary_decoder.decode(buf, pos, event) ==
                    BinaryTraceDecoder::Result::kEvent
              : jsonl_decoder.decode(buf, pos, event) ==
                    JsonlTraceDecoder::Result::kEvent;
      if (!got) break;
      agg.on_event(event);
      timeline.on_event(event);
    }
    if (pos > (std::size_t{1} << 20)) {
      buf.erase(0, pos);
      pos = 0;
    }

    if (follow && !first_render) {
      std::cout << "\033[H\033[2J";  // cursor home + clear: live redraw
    }
    first_render = false;
    timeline.render(std::cout);
    std::cout << '\n';
    print_summary(std::cout, agg);
    std::cout.flush();

    if (agg.run_ended() || !follow) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(kUsageHead, kFlags, argc, argv, 2, /*positional=*/true);
  if (argc < 2) args.usage();
  const std::string command = argv[1];
  const std::vector<std::string>& positional = args.positional();

  try {
    int status = 0;
    if (command == "convert") {
      if (positional.size() != 2) args.usage("convert needs IN and OUT");
      const std::string to = args.take("to", "");
      args.finish();
      status = cmd_convert(positional[0], positional[1], to);
    } else if (command == "stat") {
      if (positional.size() != 1) args.usage("stat needs IN");
      const std::size_t window = args.take_u64("window", "64");
      args.finish();
      status = cmd_stat(positional[0], window);
    } else if (command == "check") {
      if (positional.empty() || positional.size() > 2) {
        args.usage("check needs IN [IN2]");
      }
      args.finish();
      status = cmd_check(positional[0],
                         positional.size() == 2 ? positional[1] : "");
    } else if (command == "tail") {
      if (positional.size() != 1) args.usage("tail needs a file argument");
      if (positional[0] == "-") {
        args.usage("tail needs a re-pollable file, not '-'");
      }
      const bool follow = args.take_bool("follow", false);
      const auto interval_ms = static_cast<unsigned>(
          args.take_u64("interval-ms", "250", UINT32_MAX));
      const std::size_t width = args.take_u64("width", "64");
      const std::size_t window = args.take_u64("window", "64");
      args.finish();
      status = cmd_tail(positional[0], follow, interval_ms, width, window);
    } else {
      args.usage("unknown command " + command);
    }
    return status;
  } catch (const TraceFormatError& e) {
    std::cerr << "malformed trace: " << e.what() << '\n';
    return 3;
  } catch (const ConfigError& e) {
    // Bad format names and the like are command-line mistakes, not I/O.
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 5;
  }
}
