#include "replay/repro.hpp"

#include <cctype>

#include "util/parse.hpp"

namespace rfsp {

namespace {

constexpr std::string_view kStatusNames[] = {
    "solved", "unsolved", "model_violation", "adversary_violation",
    "check_failure"};

std::uint64_t parse_u64_meta(const std::string& key, const std::string& text,
                             std::uint64_t max = UINT64_MAX) {
  return parse_u64("schedule meta '" + key + "'", text, max);
}

WriteAllAlgo algo_from_string(const std::string& text) {
  for (const WriteAllAlgo algo : all_writeall_algos()) {
    if (to_string(algo) == text) return algo;
  }
  throw ConfigError("schedule meta names unknown algorithm '" + text + "'");
}

}  // namespace

std::string_view to_string(ProbeStatus status) {
  return kStatusNames[static_cast<int>(status)];
}

ProbeStatus probe_status_from_string(std::string_view text) {
  for (int i = 0; i < 5; ++i) {
    if (kStatusNames[i] == text) return static_cast<ProbeStatus>(i);
  }
  throw ConfigError("unknown probe status '" + std::string(text) + "'");
}

ReproSpec spec_from_meta(const FaultSchedule& schedule) {
  const auto require = [&](const char* key) -> const std::string& {
    const auto it = schedule.meta.find(key);
    if (it == schedule.meta.end()) {
      throw ConfigError(std::string("schedule meta is missing '") + key +
                        "' — not a self-describing reproducer");
    }
    return it->second;
  };
  ReproSpec spec;
  spec.algo = algo_from_string(require("algo"));
  spec.n = parse_u64_meta("n", require("n"), UINT32_MAX);
  spec.p = static_cast<Pid>(parse_u64_meta("p", require("p"), UINT32_MAX));
  if (const auto it = schedule.meta.find("seed"); it != schedule.meta.end()) {
    spec.seed = parse_u64_meta("seed", it->second);
  }
  if (const auto it = schedule.meta.find("max_slots");
      it != schedule.meta.end()) {
    spec.max_slots = parse_u64_meta("max_slots", it->second);
  }
  if (const auto it = schedule.meta.find("bit_atomic");
      it != schedule.meta.end()) {
    spec.bit_atomic_writes = parse_u64_meta("bit_atomic", it->second) != 0;
  }
  if (const auto it = schedule.meta.find("tree_order");
      it != schedule.meta.end()) {
    tree_order_from_string(it->second);  // "heap" or ConfigError
  }
  read_memory_model_meta(schedule.meta, spec.memory_model, spec.faulty_cells,
                         spec.persistent_cache);
  return spec;
}

void write_meta(ReproSpec spec, FaultSchedule& schedule, ProbeStatus expected,
                const std::string& note) {
  schedule.meta["algo"] = std::string(to_string(spec.algo));
  schedule.meta["n"] = std::to_string(spec.n);
  schedule.meta["p"] = std::to_string(spec.p);
  schedule.meta["seed"] = std::to_string(spec.seed);
  schedule.meta["max_slots"] = std::to_string(spec.max_slots);
  if (spec.bit_atomic_writes) schedule.meta["bit_atomic"] = "1";
  write_memory_model_meta(spec.memory_model, spec.faulty_cells,
                          spec.persistent_cache, schedule.meta);
  schedule.meta["status"] = std::string(to_string(expected));
  if (!note.empty()) schedule.meta["note"] = note;
}

ProbeResult probe(const ReproSpec& spec, const FaultSchedule& schedule) {
  ProbeResult result;
  ReplayAdversary replay(schedule);
  WriteAllConfig config;
  config.n = spec.n;
  config.p = spec.p;
  config.seed = spec.seed;
  EngineOptions options;
  options.max_slots = spec.max_slots;
  // Torn-write moves are only legal in the bit-atomic model; honoring them
  // here keeps "replays its own recording" true for bit-level schedules.
  options.bit_atomic_writes =
      spec.bit_atomic_writes || schedule.has_torn_moves();
  options.memory_model = spec.memory_model;
  options.faulty_cells = spec.faulty_cells;
  options.persistent_cache = spec.persistent_cache;
  try {
    const WriteAllOutcome outcome =
        run_writeall(spec.algo, config, replay, options);
    result.status =
        outcome.solved ? ProbeStatus::kSolved : ProbeStatus::kUnsolved;
    result.tally = outcome.run.tally;
  } catch (const ModelViolation& mv) {
    result.status = ProbeStatus::kModelViolation;
    result.message = mv.what();
    result.context = mv.context;
  } catch (const AdversaryViolation& av) {
    result.status = ProbeStatus::kAdversaryViolation;
    result.message = av.what();
    result.context = av.context;
  } catch (const std::logic_error& err) {  // ConfigError, RFSP_CHECK
    result.status = ProbeStatus::kCheckFailure;
    result.message = err.what();
  }
  return result;
}

}  // namespace rfsp
