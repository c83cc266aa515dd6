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
//                   {"fail", "PROB", "per-slot failure probability"}},
//                  argc, argv);
//   const Addr n = args.take_u64("n", "1024");
//   const double fail = args.take_double("fail", "0.05");
//   args.finish();
//
// Every flag takes one value ("--name value"). An unknown, repeated or
// value-less flag, and a malformed number, print the usage text and exit 2.
//
// RunFlags is the group writeall_cli and sim_cli share: the seed, record/
// replay, checkpoint/resume, the trace/metrics/audit outputs and the memory
// model. It loads the replay schedule and the resume checkpoint, restores
// the memory model from their meta (a contradicting flag exits 2), and
// wires the outputs and the checkpoint saver into EngineOptions. The
// engine's event stream is the run's only observation channel: the trace
// writer and a StreamAggregator (metrics, per-phase work) both hang off
// EngineOptions::sink.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.hpp"
#include "obs/binary_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "pram/engine.hpp"
#include "pram/faults.hpp"
#include "replay/checkpoint.hpp"
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

  // The flag's value, or `fallback` when it was not given. Each given flag
  // is taken once; finish() refuses the ones left over.
  std::string take(std::string_view name, std::string fallback) {
    RFSP_CHECK_MSG(in_table(name), "flag missing from the CLI's table");
    const auto it = given_.find(std::string(name));
    if (it == given_.end()) return fallback;
    std::string value = std::move(it->second);
    given_.erase(it);
    return value;
  }
  std::uint64_t take_u64(std::string_view name, const std::string& fallback,
                         std::uint64_t max = UINT64_MAX) {
    try {
      return parse_u64("--" + std::string(name), take(name, fallback), max);
    } catch (const ConfigError& e) {
      usage(e.what());
    }
  }
  double take_double(std::string_view name, const std::string& fallback) {
    try {
      return parse_double("--" + std::string(name), take(name, fallback));
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

// The run CLI a recorded schedule belongs to: --replay refuses the other's.
enum class RunKind { kWriteAll, kSimulation };

inline constexpr Flag kRunFlags[] = {
    {"seed", "S", "seed for randomized pieces (default 1)"},
    {"record", "FILE", "record the fault schedule (JSONL reproducer)"},
    {"replay", "FILE",
     "replay a recorded schedule; its meta supplies the\n"
     "config defaults and the memory model"},
    {"checkpoint", "FILE",
     "save engine checkpoints to FILE (rfsp-checkpoint\n"
     "v2: JSON header line, binary body)"},
    {"checkpoint-every", "K", "checkpoint cadence in slots (with --checkpoint)"},
    {"resume", "FILE", "restore a checkpoint and continue the run"},
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
    {"static-check", "1",
     "statically verify the configured program\n"
     "instead of running it (analysis/static/): exit\n"
     "0 clean, 6 on findings; verify_cli exposes the\n"
     "full option set"},
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
  // A run CLI's flag table: its own flags, then the shared group.
  static std::vector<Flag> table(std::vector<Flag> own) {
    own.insert(own.end(), std::begin(kRunFlags), std::end(kRunFlags));
    return own;
  }

  // Takes the group's flags. A schedule or checkpoint that does not decode
  // exits 5; a replay schedule of the other kind, a contradicting model
  // flag and the cross-flag mistakes exit 2.
  RunFlags(Args& args, RunKind kind) : args_(args) {
    const auto load_or_exit = [](auto load) {
      try {
        return load();
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        std::exit(5);
      }
    };
    if (const std::string file = args.take("replay", ""); !file.empty()) {
      replay = load_or_exit([&] { return load_schedule(file); });
      const bool simulation = meta_or("kind", "") == "simulation";
      if (kind == RunKind::kWriteAll && simulation) {
        args.usage("the replay schedule is a sim_cli recording; replay it "
                   "with sim_cli");
      }
      if (kind == RunKind::kSimulation && replay->meta.contains("algo")) {
        args.usage("the replay schedule names an algo (a writeall_cli "
                   "recording); replay it with writeall_cli");
      }
    }
    seed = args.take_u64("seed", meta_or("seed", "1"));
    record = args.take("record", "");
    checkpoint = args.take("checkpoint", "");
    checkpoint_every = args.take_u64("checkpoint-every", "0");
    const std::string resume_file = args.take("resume", "");
    trace_out = args.take("trace-out", "");
    trace_format = args.take("trace-format", "");
    metrics_out = args.take("metrics-out", "");
    audit = args.take_bool("audit", false);
    audit_out = args.take("audit-out", "");
    static_check = args.take_bool("static-check", false);
    // The model flags given, keyed like their meta keys.
    std::map<std::string, std::string> model;
    for (const std::string_view key : memory_model_meta_keys()) {
      std::string value = args.take(flag_for(key), "");
      if (!value.empty()) model[std::string(key)] = std::move(value);
    }

    if (checkpoint_every > 0 && checkpoint.empty()) {
      args.usage("--checkpoint-every needs --checkpoint FILE");
    }
    if (!audit_out.empty() && !audit) args.usage("--audit-out needs --audit 1");
    if (audit && (!resume_file.empty() || !checkpoint.empty())) {
      args.usage("--audit is incompatible with --resume/--checkpoint (the "
                 "audit replays the run from slot 0)");
    }
    if (!resume_file.empty()) {
      resume = load_or_exit([&] { return load_checkpoint(resume_file); });
    }

    // The run is tied to the memory it started on: the artifacts' meta
    // supplies the model flags left out, and a flag that contradicts it
    // is refused rather than misreading the run.
    const auto reconcile = [&](const std::map<std::string, std::string>& meta,
                               const std::string& source) {
      // "tree_order" names the trees' storage order; "heap" is the only one.
      if (const auto it = meta.find("tree_order"); it != meta.end()) {
        try {
          tree_order_from_string(it->second);
        } catch (const ConfigError& e) {
          args.usage(source + ": " + e.what());
        }
      }
      for (const std::string_view key : memory_model_meta_keys()) {
        const auto it = meta.find(std::string(key));
        if (it == meta.end()) continue;
        const auto [flag, fresh] = model.emplace(it->first, it->second);
        if (!fresh && flag->second != it->second) {
          args.usage(source + " was produced under --" + flag_for(key) + " " +
                     it->second + "; it replays/resumes only under the same "
                     "value");
        }
      }
    };
    if (replay) reconcile(replay->meta, "the replay schedule");
    if (resume) reconcile(resume->meta, "the checkpoint");
    try {
      read_memory_model_meta(model, memory_model, faulty_cells,
                             persistent_cache);
    } catch (const ConfigError& e) {
      args.usage(e.what());
    }
  }
  RunFlags(const RunFlags&) = delete;
  RunFlags& operator=(const RunFlags&) = delete;

  // A replay schedule's meta value, or `fallback`.
  std::string meta_or(const std::string& key, std::string fallback) const {
    if (!replay) return fallback;
    const auto it = replay->meta.find(key);
    return it == replay->meta.end() ? fallback : it->second;
  }

  const EngineCheckpoint* resume_checkpoint() const {
    return resume ? &*resume : nullptr;
  }

  // Sets the memory model and opens the outputs before the run: an
  // unwritable --trace-out or --metrics-out exits 2. A StreamAggregator
  // joins the sink (next to the trace writer, through a TeeTraceSink) when
  // --metrics-out is given or `report_phases` is set. With
  // --checkpoint-every, each checkpoint is saved to --checkpoint after
  // `before_save` (the engine has already stamped its model into the
  // meta).
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
        save_checkpoint(cp, checkpoint);
      };
    }
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
  bool static_check = false;
  std::optional<FaultSchedule> replay;
  std::optional<EngineCheckpoint> resume;
  MemoryModel memory_model = MemoryModel::kReliable;
  FaultyCellsOptions faulty_cells;
  PersistentCacheOptions persistent_cache;

 private:
  // "fault_seed" -> "fault-seed".
  static std::string flag_for(std::string_view key) {
    std::string flag(key);
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
  }

  const Args& args_;
  std::ofstream event_os_;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<StreamAggregator> stream_;
  std::unique_ptr<TeeTraceSink> tee_;
  std::ofstream metrics_os_;
};

}  // namespace rfsp::cli
