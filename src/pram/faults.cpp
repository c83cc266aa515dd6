#include "pram/faults.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace rfsp {

std::string_view to_string(MemoryModel model) {
  switch (model) {
    case MemoryModel::kReliable: return "reliable";
    case MemoryModel::kFaultyCells: return "faulty-cells";
    case MemoryModel::kPersistentCache: return "persistent-cache";
  }
  return "?";
}

MemoryModel memory_model_from_string(std::string_view name) {
  if (name == "reliable") return MemoryModel::kReliable;
  if (name == "faulty-cells") return MemoryModel::kFaultyCells;
  if (name == "persistent-cache") return MemoryModel::kPersistentCache;
  throw ConfigError("unknown memory model '" + std::string(name) +
                    "' (expected reliable | faulty-cells | persistent-cache)");
}

namespace {

constexpr std::string_view kModelKeys[] = {
    "memory_model", "fault_seed", "fault_cells", "fault_spares",
    "persist_every"};

}  // namespace

void write_memory_model_meta(MemoryModel model,
                             const FaultyCellsOptions& faulty_cells,
                             const PersistentCacheOptions& persistent_cache,
                             std::map<std::string, std::string>& meta) {
  if (model == MemoryModel::kReliable) return;
  meta["memory_model"] = std::string(to_string(model));
  if (model == MemoryModel::kFaultyCells) {
    meta["fault_seed"] = std::to_string(faulty_cells.seed);
    meta["fault_cells"] = std::to_string(faulty_cells.cells);
    if (faulty_cells.spares != kSparesAuto) {
      meta["fault_spares"] = std::to_string(faulty_cells.spares);
    }
  }
  if (model == MemoryModel::kPersistentCache) {
    meta["persist_every"] = std::to_string(persistent_cache.persist_every);
  }
}

void read_memory_model_meta(const std::map<std::string, std::string>& meta,
                            MemoryModel& model,
                            FaultyCellsOptions& faulty_cells,
                            PersistentCacheOptions& persistent_cache) {
  const auto read = [&](const char* key, std::uint64_t& field) {
    if (const auto it = meta.find(key); it != meta.end()) {
      field = parse_u64(std::string("meta '") + key + "'", it->second);
    }
  };
  if (const auto it = meta.find("memory_model"); it != meta.end()) {
    model = memory_model_from_string(it->second);
  }
  read("fault_seed", faulty_cells.seed);
  read("fault_cells", faulty_cells.cells);
  read("fault_spares", faulty_cells.spares);
  read("persist_every", persistent_cache.persist_every);
}

std::span<const std::string_view> memory_model_meta_keys() {
  return kModelKeys;
}

CellFaultMap CellFaultMap::build(const FaultyCellsOptions& options,
                                 Addr memory_size) {
  RFSP_CHECK_MSG(options.cells <= memory_size,
                 "more faulty cells than memory cells");
  CellFaultMap map;
  map.size_ = memory_size;
  map.seed_ = options.seed;
  map.state_.assign(memory_size, kOk);
  map.static_faults_ = options.cells;

  // Draw `cells` distinct addresses. Rejection sampling is fine: fault
  // densities of interest are far below 100%, and the loop is run once per
  // engine construction, never on the cycle path.
  Rng rng(mix64(options.seed ^ 0xfa01'ce11'5e7dull));
  std::vector<Addr> faults;
  faults.reserve(options.cells);
  while (faults.size() < options.cells) {
    const Addr a = rng.below(memory_size);
    if (map.state_[a] == kOk) {
      map.state_[a] = kDead;
      faults.push_back(a);
    }
  }
  // Remap in ascending address order while the spare budget lasts, so the
  // assignment is independent of the draw order above.
  std::sort(faults.begin(), faults.end());
  const Addr budget =
      options.spares == kSparesAuto ? options.cells : options.spares;
  for (const Addr a : faults) {
    if (map.spare_cells_ >= budget) {
      ++map.unremapped_;
      continue;
    }
    map.state_[a] = kRemapped;
    map.remap_.emplace(a, memory_size + map.spare_cells_);
    ++map.spare_cells_;
  }
  return map;
}

Word CellFaultMap::garbage(Addr a) const {
  return static_cast<Word>(mix64(seed_ ^ 0xdead'ce11ull, a));
}

bool CellFaultMap::inject(Addr a) {
  RFSP_CHECK_MSG(a < size_, "cell-fault injection out of range");
  if (state_[a] == kDead) return false;
  if (state_[a] == kRemapped) remap_.erase(a);  // the spare cell is orphaned
  state_[a] = kDead;
  ++unremapped_;
  injected_.push_back(a);
  return true;
}

}  // namespace rfsp
