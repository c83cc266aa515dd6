// Pluggable memory fault models (docs/fault-models.md).
//
// The paper fixes one failure semantics: fail-stop processors with restarts
// over reliable atomic shared memory (§2.1). Two orthogonal fault axes from
// the related literature are modelled here as selectable backends:
//
//  * kFaultyCells — static memory-cell faults in the style of
//    Chlebus–Gąsieniec–Pelc ("Deterministic Computations on a PRAM with
//    Static Processor and Memory Faults"): a deterministic, seeded set of
//    stuck cells whose reads return garbage and whose writes are dropped.
//    The fault set is *known* metadata (the static-faults model assumes
//    discoverable faults), so the runtime routes around it: each faulty
//    cell is remapped to a spare cell appended past the program's address
//    space, while the spare budget lasts. Faults beyond the budget stay
//    observably stuck — for Write-All instances that makes the problem
//    unsolvable (the runner reports it instead of running, see
//    WriteAllOutcome::unsolvable). The adversary may also kill cells at
//    run time (FaultDecision::cell_faults); those are never remapped.
//
//  * kPersistentCache — the Parallel Persistent Memory Model of Blelloch
//    et al.: every processor buffers its committed writes in a private
//    write-back cache that a failure discards. Buffered writes reach
//    shared memory only through a persist step — the explicit persist()
//    cycle op, the automatic persist_every cadence, or the implicit flush
//    when a processor halts. Persist counts accrue to WorkTally::persists,
//    turning the amnesia discipline into a tunable cost model.
//
// The reliable model allocates none of this; its hot path stays the
// branch-predicted null test in SharedMemory::read/write.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pram/types.hpp"

namespace rfsp {

enum class MemoryModel : std::uint8_t {
  kReliable = 0,
  kFaultyCells = 1,
  kPersistentCache = 2,
};

std::string_view to_string(MemoryModel model);
// Parses "reliable" | "faulty-cells" | "persistent-cache"; throws
// ConfigError on anything else.
MemoryModel memory_model_from_string(std::string_view name);

// Sentinel: spare budget tracks the static fault count (every static fault
// is absorbable).
inline constexpr Addr kSparesAuto = ~Addr{0};

struct FaultyCellsOptions {
  std::uint64_t seed = 0;    // derives the fault set and the garbage values
  Addr cells = 0;            // number of static faulty cells
  Addr spares = kSparesAuto; // remap budget (spare cells past address space)
};

struct PersistentCacheOptions {
  // Auto-persist cadence, in completed update cycles per processor.
  // 1 (the default) flushes every completed cycle — observably equivalent
  // to the reliable model for COMMON-disciplined programs; 0 disables the
  // cadence entirely (only persist() and halting flush).
  std::uint64_t persist_every = 1;
};

// The memory model as string keys of a schedule's or checkpoint's meta map
// (docs/resilience.md §3). A run resumes or replays only on the memory it
// started on, so every artifact carries its model through this one codec.
//
// The writer adds the keys only away from the defaults: none under
// kReliable, and the spare budget only when it is not kSparesAuto, so
// reliable-model artifacts keep their old bytes. The reader sets the
// fields whose keys `meta` holds and leaves the others as they are; it
// throws ConfigError on a malformed value.
void write_memory_model_meta(MemoryModel model,
                             const FaultyCellsOptions& faulty_cells,
                             const PersistentCacheOptions& persistent_cache,
                             std::map<std::string, std::string>& meta);
void read_memory_model_meta(const std::map<std::string, std::string>& meta,
                            MemoryModel& model,
                            FaultyCellsOptions& faulty_cells,
                            PersistentCacheOptions& persistent_cache);
// Every key the codec reads or writes.
std::span<const std::string_view> memory_model_meta_keys();

// The per-cell fault metadata of the faulty-cells model. Built
// deterministically from (options, memory size), so every party that needs
// the map — engine, auditor, Write-All planner — derives the identical one
// without plumbing. Cells are in one of three states: ok, dead (stuck:
// reads return seeded garbage, writes are dropped), or remapped (accesses
// are transparently redirected to a dedicated spare cell).
class CellFaultMap {
 public:
  static CellFaultMap build(const FaultyCellsOptions& options,
                            Addr memory_size);

  Addr memory_size() const { return size_; }
  // Spare cells the backing store must append past `memory_size` (one per
  // remapped cell).
  Addr spare_cells() const { return spare_cells_; }
  // Cells that behave stuck (static faults past the spare budget, plus
  // adversary-injected faults).
  Addr unremapped() const { return unremapped_; }
  Addr static_faults() const { return static_faults_; }

  bool is_dead(Addr a) const { return state_[a] == kDead; }
  bool is_remapped(Addr a) const { return state_[a] == kRemapped; }

  // Storage position of logical cell `a` (identity unless remapped; the
  // result indexes the backing store, which is memory_size + spare_cells
  // words long).
  Addr translate(Addr a) const {
    if (state_[a] != kRemapped) return a;
    return remap_.at(a);
  }

  // The deterministic garbage a dead cell returns on every read.
  Word garbage(Addr a) const;

  // Adversary move: cell `a` dies now. A remapped cell loses its spare (the
  // redirection is severed — the old contents are unreachable); an
  // already-dead cell is a no-op. Returns true iff the cell state changed;
  // effective injections are recorded for checkpointing.
  bool inject(Addr a);
  const std::vector<Addr>& injected() const { return injected_; }

 private:
  enum CellState : std::uint8_t { kOk = 0, kDead = 1, kRemapped = 2 };

  Addr size_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> state_;
  std::unordered_map<Addr, Addr> remap_;
  std::vector<Addr> injected_;
  Addr spare_cells_ = 0;
  Addr unremapped_ = 0;
  Addr static_faults_ = 0;
};

// A processor's private write-back cache (persistent-cache model). Writes
// of completed cycles append here in commit order; a flush replays the
// entries into shared memory and clears the cache; a failure (or a
// cache_drop adversary move) clears it without flushing.
struct CacheEntry {
  Addr addr = 0;
  Word value = 0;

  bool operator==(const CacheEntry&) const = default;
};

struct ProcCache {
  std::vector<CacheEntry> entries;
  // Completed cycles since the last flush (drives persist_every).
  std::uint64_t unpersisted_cycles = 0;

  // Most recent buffered write to `a`, if any (write-back semantics: a
  // processor reads its own un-persisted writes).
  const Word* find(Addr a) const {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (it->addr == a) return &it->value;
    }
    return nullptr;
  }

  void clear() {
    entries.clear();
    unpersisted_cycles = 0;
  }

  bool operator==(const ProcCache&) const = default;
};

}  // namespace rfsp
