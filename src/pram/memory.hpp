// Shared memory (§2.1 point 3 / §2.3 item 2), with pluggable fault models.
//
// In the reliable model (the default), failures never corrupt shared memory
// and word writes are atomic. The engine buffers all writes of a slot and
// commits only those belonging to completed update cycles, so during a slot
// the memory always shows the slot-start state — which makes the synchronous
// read semantics trivial.
//
// A CellFaultMap (pram/faults.hpp, the faulty-cells model) may be attached
// at construction: logical addresses are then routed through the map —
// remapped cells hit their spare storage, dead cells return seeded garbage
// on read and drop writes. The reliable hot path pays exactly one
// branch-predicted null test for the capability.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "pram/faults.hpp"
#include "pram/types.hpp"
#include "util/error.hpp"

namespace rfsp {

// "No processor" marker for bounds diagnostics on accesses the engine makes
// outside any update cycle (goal scans, restores, ...).
inline constexpr Pid kNoPid = ~Pid{0};

// The bounds diagnostic of `op` ("read" or "write") at cell `a` of a
// memory of `size` cells, naming `pid` unless it is kNoPid. Shared by
// SharedMemory and the places that buffer a cycle's write (CycleContext,
// writeall's LaneContext), which check before the lane log narrows the
// address.
[[noreturn]] void throw_out_of_bounds(const char* op, Addr a, Addr size,
                                      Pid pid);

class SharedMemory {
 public:
  // All cells start cleared (the model: input cells are set by the program's
  // init_memory, the rest of memory contains zeroes). `faults`, when
  // non-null, must outlive the memory; the store grows by
  // faults->spare_cells() words of remap storage past `size`.
  explicit SharedMemory(Addr size, const CellFaultMap* faults = nullptr);

  // Inline: these two sit on the per-cycle hot path of the engine (every
  // ctx.read / commit goes through them), so they must not cost a call.
  // `pid` is diagnostic only — it names the offender in the bounds-check
  // message. Returns of write(): true iff the value landed (a dead cell
  // drops the write and returns false — callers maintaining derived state,
  // e.g. the engine's incremental goal counter, must check).
  Word read(Addr a, Pid pid = kNoPid) const {
    if (a >= visible_) [[unlikely]] {
      throw_out_of_bounds("read", a, visible_, pid);
    }
    if (faults_ != nullptr) [[unlikely]] return faulty_read(a);
    return cells_[a];
  }
  bool write(Addr a, Word v, Pid pid = kNoPid) {
    if (a >= visible_) [[unlikely]] {
      throw_out_of_bounds("write", a, visible_, pid);
    }
    if (faults_ != nullptr) [[unlikely]] return faulty_write(a, v);
    cells_[a] = v;
    return true;
  }

  // Whether a cell-fault map routes reads and writes.
  bool faulty() const { return faults_ != nullptr; }

  // Program-visible address-space size (spare remap cells excluded).
  Addr size() const { return visible_; }

  // Whole-memory view over the visible address space; used by the
  // unit-cost-snapshot model of §3 and by goal predicates / verification
  // (never by ordinary update cycles). Not available under a fault map:
  // remapped cells live in spare storage a flat span cannot show.
  std::span<const Word> words() const {
    RFSP_CHECK_MSG(faults_ == nullptr,
                   "flat memory view unavailable under a cell-fault map");
    return cells_;
  }

  // Backing store (visible cells + spare remap cells), for checkpointing.
  // restore_storage bypasses the fault model: it reinstates raw machine
  // state, it does not perform writes.
  std::span<const Word> storage() const { return cells_; }
  Addr storage_size() const { return static_cast<Addr>(cells_.size()); }
  void restore_storage(std::span<const Word> words);

  // Writes dropped by dead cells (diagnostics only).
  std::uint64_t dropped_writes() const { return dropped_writes_; }

 private:
  Word faulty_read(Addr a) const;
  bool faulty_write(Addr a, Word v);

  std::vector<Word> cells_;
  Addr visible_ = 0;
  const CellFaultMap* faults_ = nullptr;
  std::uint64_t dropped_writes_ = 0;
};

}  // namespace rfsp
