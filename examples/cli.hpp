// cli.hpp — the command-line front end of the example CLIs (writeall_cli,
// sim_cli, verify_cli, trace_cli). Header-only, so each CLI still builds
// from its single .cpp.
//
// A CLI states its flags once, as a table of {name, metavar, help}.
// Parsing, the unknown-flag check and the usage text all come from that
// table, so a flag cannot be parsed without being documented:
//
//   cli::Args args("usage: tool [options]\n",
//                  {{"n", "N", "array size (default 1024)"},
//                   {"out", "FILE", "save the report to FILE"}},
//                  argc, argv);
//   const Addr n = args.take_u64("n", "1024");
//   const std::string out = args.take("out", "");
//   args.finish();
//
// Every flag takes one value ("--name value"). An unknown, repeated or
// value-less flag, and a malformed number, print the usage text and exit 2.
//
// RunFlags is the group writeall_cli and sim_cli share: the seed, record/
// replay, checkpoint/resume, the trace/metrics/audit outputs and the memory
// model. Each flag that shapes the run is taken through RunFlags::take,
// which keeps the run spec that both CLIs stamp into the schedules they
// record and the checkpoints they save, so either artifact alone re-runs
// its run. RunFlags wires the outputs and the checkpoint saver into
// EngineOptions. The engine's event stream is the run's only observation
// channel: the trace writer and a StreamAggregator (metrics, per-phase
// work) both hang off EngineOptions::sink.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "obs/binary_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "pram/engine.hpp"
#include "pram/faults.hpp"
#include "replay/checkpoint.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "writeall/layout.hpp"

namespace rfsp::cli {

struct Flag {
  std::string_view name;     // without the leading "--"
  std::string_view metavar;  // the value's placeholder in the usage text
  std::string_view help;     // '\n' starts an indented continuation line
};

class Args {
 public:
  // `head` opens the usage text. Arguments from argv[first] on are
  // "--flag value" pairs; any other argument is positional, which only a
  // CLI that asks for `positional` accepts.
  Args(std::string head, std::vector<Flag> flags, int argc, char** argv,
       int first = 1, bool positional = false)
      : head_(std::move(head)), flags_(std::move(flags)) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        if (!positional) usage("unexpected argument " + arg);
        positional_.push_back(arg);
        continue;
      }
      if (!in_table(arg.substr(2))) usage("unknown option " + arg);
      if (i + 1 >= argc) usage("missing value for " + arg);
      if (!given_.emplace(arg.substr(2), argv[++i]).second) {
        usage(arg + " is given twice");
      }
    }
  }

  [[noreturn]] void usage(const std::string& error = "") const {
    constexpr std::size_t kColumn = 21;
    if (!error.empty()) std::cerr << "error: " << error << "\n\n";
    std::cerr << head_;
    for (const Flag& flag : flags_) {
      std::string line = "  --" + std::string(flag.name) + " " +
                         std::string(flag.metavar);
      line.resize(std::max(line.size() + 1, kColumn), ' ');
      for (const char c : flag.help) {
        line += c;
        if (c == '\n') line.append(kColumn, ' ');
      }
      std::cerr << line << '\n';
    }
    std::exit(2);
  }

  // The flag's value, if it was given. Each given flag is taken once;
  // finish() refuses the ones left over.
  std::optional<std::string> take(std::string_view name) {
    RFSP_CHECK_MSG(in_table(name), "flag missing from the CLI's table");
    const auto it = given_.find(std::string(name));
    if (it == given_.end()) return std::nullopt;
    std::string value = std::move(it->second);
    given_.erase(it);
    return value;
  }
  // The flag's value, or `fallback` when it was not given.
  std::string take(std::string_view name, std::string fallback) {
    return take(name).value_or(std::move(fallback));
  }
  std::uint64_t take_u64(std::string_view name, const std::string& fallback,
                         std::uint64_t max = UINT64_MAX) {
    return to_u64(name, take(name, fallback), max);
  }
  // Flag `name`'s `value` as a number; a malformed one exits 2.
  std::uint64_t to_u64(std::string_view name, const std::string& value,
                       std::uint64_t max = UINT64_MAX) const {
    try {
      return parse_u64("--" + std::string(name), value, max);
    } catch (const ConfigError& e) {
      usage(e.what());
    }
  }
  double to_double(std::string_view name, const std::string& value) const {
    try {
      return parse_double("--" + std::string(name), value);
    } catch (const ConfigError& e) {
      usage(e.what());
    }
  }
  // "--name 0" is false, any other value true.
  bool take_bool(std::string_view name, bool fallback) {
    return take(name, fallback ? "1" : "0") != "0";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  // A given flag that nothing took does not apply to this command.
  void finish() const {
    if (!given_.empty()) usage("unknown option --" + given_.begin()->first);
  }

 private:
  bool in_table(std::string_view name) const {
    return std::any_of(flags_.begin(), flags_.end(),
                       [&](const Flag& flag) { return flag.name == name; });
  }

  std::string head_;
  std::vector<Flag> flags_;
  std::map<std::string, std::string> given_;
  std::vector<std::string> positional_;
};

// The run CLI an artifact belongs to, stamped as the run spec's "kind":
// --replay and --resume refuse the other CLI's schedules and checkpoints.
enum class RunKind { kWriteAll, kSimulation };

// The adversary's flags. A checkpoint carries the adversary's state words,
// so --resume refuses a value that contradicts its meta. A replay schedule
// is the run's adversary: --replay refuses these flags, and the adversary
// keys it recorded only describe the run.
inline constexpr std::string_view kAdversaryFlags[] = {
    "adversary", "fail", "restart", "burst-period", "burst-count",
    "pattern-in"};

inline constexpr Flag kRunFlags[] = {
    {"seed", "S", "seed for randomized pieces (default 1)"},
    {"record", "FILE", "record the fault schedule (JSONL reproducer)"},
    {"replay", "FILE",
     "replay a recorded schedule; its meta supplies the\n"
     "run spec (the schedule is the adversary, so\n"
     "adversary flags are refused)"},
    {"checkpoint", "FILE",
     "save engine checkpoints to FILE (rfsp-checkpoint\n"
     "v2: JSON header with the run spec, binary body)"},
    {"checkpoint-every", "K", "checkpoint cadence in slots (with --checkpoint)"},
    {"resume", "FILE",
     "restore a checkpoint and continue its run with\n"
     "its meta's run spec (adversary and model flags\n"
     "must match it; a --replay run's checkpoint\n"
     "needs that --replay FILE too)"},
    {"trace-out", "FILE",
     "stream engine events to FILE (format from the\n"
     "extension: .csv -> csv, .bin/.rft -> binary,\n"
     "else JSONL; see --trace-format)"},
    {"trace-format", "F",
     "force the --trace-out encoding:\n"
     "jsonl|binary|csv (binary is the compact\n"
     "transport trace_cli reads and converts)"},
    {"metrics-out", "FILE", "save the run's metrics registry as JSON"},
    {"audit", "1",
     "run the model-conformance auditor (budgets,\n"
     "phase order, write agreement, amnesia twins,\n"
     "record/replay obliviousness); exit 6 on findings"},
    {"audit-out", "FILE", "save the audit report as JSONL (with --audit)"},
    {"memory-model", "M",
     "reliable|faulty-cells|persistent-cache shared-\n"
     "memory backend (default reliable; docs/\n"
     "fault-models.md). Recorded schedules and\n"
     "checkpoints carry the model: --replay/--resume\n"
     "restore it and refuse a contradicting flag"},
    {"fault-seed", "S", "faulty-cells: seed of the static stuck-cell set"},
    {"fault-cells", "K", "faulty-cells: number of stuck cells (default 0)"},
    {"fault-spares", "K",
     "faulty-cells: spare cells for remapping\n"
     "(default = fault-cells, masking every fault;\n"
     "fewer than needed => the run is unsolvable)"},
    {"persist-every", "K",
     "persistent-cache: flush each processor's write-\n"
     "back cache every K completed cycles (default 1 =\n"
     "reliable-equivalent; 0 = only persist()/halt)"},
};

class RunFlags {
 public:
  using Meta = std::map<std::string, std::string>;

  // A run CLI's flag table: its own flags, then the shared group.
  static std::vector<Flag> table(std::vector<Flag> own) {
    own.insert(own.end(), std::begin(kRunFlags), std::end(kRunFlags));
    return own;
  }

  // Takes the group's flags. A schedule or checkpoint that does not decode
  // exits 5; an artifact of the other kind, a contradicting flag and the
  // cross-flag mistakes exit 2.
  RunFlags(Args& args, RunKind kind) : args_(args) {
    const std::string mine =
        kind == RunKind::kWriteAll ? "writeall" : "simulation";
    spec_["kind"] = mine;
    const auto load_or_exit = [](auto load) {
      try {
        return load();
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        std::exit(5);
      }
    };
    if (const std::string file = args.take("resume", ""); !file.empty()) {
      resume = load_or_exit([&] { return load_checkpoint(file); });
      artifacts_.push_back({&resume->meta, "the checkpoint"});
    }
    if (const std::string file = args.take("replay", ""); !file.empty()) {
      replay = load_or_exit([&] { return load_schedule(file); });
      artifacts_.push_back({&replay->meta, "the replay schedule"});
    }
    for (const auto& [meta_ptr, source] : artifacts_) {
      const Meta& meta = *meta_ptr;
      // Schedules recorded before the spec was stamped name just an algo.
      const auto it = meta.find("kind");
      const std::string recorded = it != meta.end() ? it->second
                                   : meta.contains("algo") ? "writeall"
                                                           : "";
      if (!recorded.empty() && recorded != mine) {
        args.usage(std::string(source) + " records a " + recorded +
                   " run, not a " + mine + " one");
      }
      // "tree_order" names the trees' storage order; "heap" is the only one.
      if (const auto order = meta.find("tree_order"); order != meta.end()) {
        try {
          tree_order_from_string(order->second);
        } catch (const ConfigError& e) {
          args.usage(std::string(source) + ": " + e.what());
        }
      }
    }
    // A checkpoint saved under --replay holds the replay cursor, which no
    // adversary flag rebuilds (configure stamps it "adversary":"replay"): it
    // resumes under --replay only, and --replay resumes no other one.
    if (resume) {
      const Meta& meta = resume->meta;
      const bool replayed = meta.contains("adversary") &&
                            meta.at("adversary") == "replay";
      const bool other = std::ranges::any_of(kAdversaryFlags, [&](auto flag) {
        return meta.contains(replaced(flag, '-', '_'));
      });
      if (replayed && !replay) {
        args.usage("the checkpoint was saved while replaying a schedule; "
                   "resume it with --replay FILE");
      }
      if (other && !replayed && replay) {
        args.usage("the checkpoint was saved under another adversary than "
                   "--replay");
      }
    }
    seed = take_u64("seed", "1");
    record = args.take("record", "");
    checkpoint = args.take("checkpoint", "");
    checkpoint_every = args.take_u64("checkpoint-every", "0");
    trace_out = args.take("trace-out", "");
    trace_format = args.take("trace-format", "");
    metrics_out = args.take("metrics-out", "");
    audit = args.take_bool("audit", false);
    audit_out = args.take("audit-out", "");
    for (const std::string_view key : memory_model_meta_keys()) {
      take(replaced(key, '_', '-'), key == "memory_model" ? "reliable" : "");
    }

    if (checkpoint_every > 0 && checkpoint.empty()) {
      args.usage("--checkpoint-every needs --checkpoint FILE");
    }
    if (!audit_out.empty() && !audit) args.usage("--audit-out needs --audit 1");
    if (audit && (resume || !checkpoint.empty())) {
      args.usage("--audit is incompatible with --resume/--checkpoint (the "
                 "audit replays the run from slot 0)");
    }
    try {
      read_memory_model_meta(spec_, memory_model, faulty_cells,
                             persistent_cache);
    } catch (const ConfigError& e) {
      args.usage(e.what());
    }
  }
  RunFlags(const RunFlags&) = delete;
  RunFlags& operator=(const RunFlags&) = delete;

  // Takes a run-spec flag: its value as given, else the artifact's meta
  // value under the flag's key ("max-slots" -> "max_slots"), else
  // `fallback`, each in the form `canonical` gives it (when set). A given
  // model or adversary value that differs from the artifact's exits 2; under
  // --replay, an adversary flag does, and the schedule alone supplies its
  // value. A non-empty value joins spec().
  std::string take(
      std::string_view flag, std::string fallback,
      const std::function<std::string(const std::string&)>& canonical = {}) {
    const std::string key = replaced(flag, '-', '_');
    const bool adversary = std::ranges::find(kAdversaryFlags, flag) !=
                           std::end(kAdversaryFlags);
    const bool pinned =
        adversary || std::ranges::find(memory_model_meta_keys(), key) !=
                         memory_model_meta_keys().end();
    const auto as_compared = [&](const std::string& value) {
      return canonical ? canonical(value) : value;
    };
    std::optional<std::string> value = args_.take(flag);
    if (value && adversary && replay) {
      args_.usage("--" + std::string(flag) + " does not apply to --replay: "
                  "the schedule is the run's adversary");
    }
    if (value) value = as_compared(*value);
    for (const auto& [meta, source] : artifacts_) {
      const auto it = meta->find(key);
      if (it == meta->end()) continue;
      // Under --replay the schedule's adversary keys only describe the run.
      if (adversary && replay && meta != &replay->meta) continue;
      const std::string recorded = as_compared(it->second);
      if (!value) {
        value = recorded;
      } else if (pinned && *value != recorded) {
        args_.usage(std::string(source) + " was produced under --" +
                    std::string(flag) + " " + it->second +
                    "; it replays/resumes only under the same value");
      }
    }
    std::string resolved = value.value_or(std::move(fallback));
    if (!resolved.empty()) spec_[key] = resolved;
    return resolved;
  }
  // A number compares, and is recorded, as the shortest text that parses
  // back to it, so "--fail 5e-2" matches a recorded 0.05.
  template <typename Number>
  Number take_number(std::string_view flag, const std::string& fallback,
                     const std::function<Number(const std::string&)>& parse) {
    return parse(take(flag, fallback, [&](const std::string& value) {
      char text[32];
      return std::string(text, std::to_chars(text, text + sizeof text,
                                             parse(value)).ptr);
    }));
  }
  std::uint64_t take_u64(std::string_view flag, const std::string& fallback,
                         std::uint64_t max = UINT64_MAX) {
    return take_number<std::uint64_t>(flag, fallback, [&](const auto& value) {
      return args_.to_u64(flag, value, max);
    });
  }
  double take_double(std::string_view flag, const std::string& fallback) {
    return take_number<double>(flag, fallback, [&](const auto& value) {
      return args_.to_double(flag, value);
    });
  }
  // A file the run reads, recorded as an absolute path, so a checkpoint
  // resumed from another directory still names the same file.
  std::string take_path(std::string_view flag) {
    return take(flag, "", [](const std::string& value) {
      return std::filesystem::absolute(value).lexically_normal().string();
    });
  }

  // The run spec: "kind" and every setting taken so far, by meta key.
  const Meta& spec() const { return spec_; }

  const EngineCheckpoint* resume_checkpoint() const {
    return resume ? &*resume : nullptr;
  }

  // Sets the memory model and opens the outputs before the run: an
  // unwritable --trace-out or --metrics-out exits 2. A StreamAggregator
  // joins the sink (next to the trace writer, through a TeeTraceSink) when
  // --metrics-out is given or `report_phases` is set. With
  // --checkpoint-every, each checkpoint is saved to --checkpoint after
  // `before_save`, its meta stamped with the run spec (next to the
  // memory-model keys the engine stamped).
  void configure(EngineOptions& options,
                 std::function<void(const EngineCheckpoint&)> before_save = {}) {
    options.memory_model = memory_model;
    options.faulty_cells = faulty_cells;
    options.persistent_cache = persistent_cache;
    if (!trace_out.empty()) {
      event_os_.open(trace_out, std::ios::binary);
      if (!event_os_) args_.usage("cannot write " + trace_out);
      sink_ = make_trace_sink(event_os_, trace_format.empty()
                                             ? trace_format_for_path(trace_out)
                                             : trace_format);
      options.sink = sink_.get();
    }
    if (!metrics_out.empty()) {
      metrics_os_.open(metrics_out);
      if (!metrics_os_) args_.usage("cannot write " + metrics_out);
    }
    if (!metrics_out.empty() || report_phases) {
      stream_ = std::make_unique<StreamAggregator>();
      if (sink_ != nullptr) {
        tee_ = std::make_unique<TeeTraceSink>(*sink_, *stream_);
        options.sink = tee_.get();
      } else {
        options.sink = stream_.get();
      }
    }
    if (checkpoint_every > 0) {
      options.checkpoint_every = checkpoint_every;
      options.on_checkpoint = [this, before_save = std::move(before_save)](
                                  const EngineCheckpoint& cp) {
        if (before_save) before_save(cp);
        EngineCheckpoint stamped = cp;
        stamped.meta.insert(spec_.begin(), spec_.end());
        if (replay) stamped.meta["adversary"] = "replay";
        save_checkpoint(stamped, checkpoint);
      };
    }
  }

  // With --record, saves the schedule stamped with the run spec and the
  // run's outcome; keys already in its meta (write_meta's) stay.
  void save_recording(FaultSchedule& schedule, ProbeStatus status) const {
    if (record.empty()) return;
    schedule.meta.insert(spec_.begin(), spec_.end());
    schedule.meta.emplace("status", to_string(status));
    save_schedule(schedule, record);
    std::cout << "schedule saved to " << record << " ("
              << schedule.entries.size() << " slots, "
              << schedule.move_count() << " moves)\n";
  }

  // The run's aggregated event stream; null unless configure installed it.
  const StreamAggregator* stream() const { return stream_.get(); }

  // After the run: names the trace file and writes the engine metrics of
  // the run whose cumulative tally is `tally`, on `processors` PIDs.
  void write_outputs(const WorkTally& tally, Pid processors) {
    if (!trace_out.empty()) {
      std::cout << "events saved to  " << trace_out << '\n';
    }
    if (!metrics_out.empty()) {
      MetricsRegistry metrics;
      stream_->write_engine_metrics(tally, processors, metrics);
      metrics.write_json(metrics_os_);
      metrics_os_ << '\n';
      std::cout << "metrics saved to " << metrics_out << '\n';
    }
  }

  // Prints the audit report and saves it to --audit-out; false on findings.
  bool write_audit(const AuditReport& report) const {
    std::cout << '\n' << report.to_text();
    if (!audit_out.empty()) {
      std::ofstream os(audit_out);
      if (!os) args_.usage("cannot write " + audit_out);
      report.write_jsonl(os);
      std::cout << "audit report saved to " << audit_out << '\n';
    }
    return report.ok();
  }

  std::uint64_t seed = 1;
  std::string record;
  std::string checkpoint;
  Slot checkpoint_every = 0;
  std::string trace_out;
  std::string trace_format;
  std::string metrics_out;
  // Set before configure when the CLI reports per-phase work (stream()).
  bool report_phases = false;
  bool audit = false;
  std::string audit_out;
  std::optional<FaultSchedule> replay;
  std::optional<EngineCheckpoint> resume;
  MemoryModel memory_model = MemoryModel::kReliable;
  FaultyCellsOptions faulty_cells;
  PersistentCacheOptions persistent_cache;

 private:
  // replaced("max-slots", '-', '_') == "max_slots".
  static std::string replaced(std::string_view name, char from, char to) {
    std::string out(name);
    std::replace(out.begin(), out.end(), from, to);
    return out;
  }

  Args& args_;
  // The artifacts given, the checkpoint first: meta and how errors name it.
  std::vector<std::pair<const Meta*, const char*>> artifacts_;
  Meta spec_;
  std::ofstream event_os_;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<StreamAggregator> stream_;
  std::unique_ptr<TeeTraceSink> tee_;
  std::ofstream metrics_os_;
};

}  // namespace rfsp::cli
