#include "pram/memory.hpp"

#include <string>

#include "util/error.hpp"

namespace rfsp {

SharedMemory::SharedMemory(Addr size, const CellFaultMap* faults)
    : cells_(size + (faults != nullptr ? faults->spare_cells() : 0), Word{0}),
      visible_(size),
      faults_(faults) {
  RFSP_CHECK_MSG(size > 0, "shared memory must have at least one cell");
  if (faults != nullptr) {
    RFSP_CHECK_MSG(faults->memory_size() == size,
                   "cell-fault map was built for a different memory size");
  }
}

Word SharedMemory::faulty_read(Addr a) const {
  if (faults_->is_dead(a)) return faults_->garbage(a);
  return cells_[faults_->translate(a)];
}

bool SharedMemory::faulty_write(Addr a, Word v) {
  if (faults_->is_dead(a)) {
    ++dropped_writes_;
    return false;
  }
  cells_[faults_->translate(a)] = v;
  return true;
}

void SharedMemory::restore_storage(std::span<const Word> words) {
  RFSP_CHECK_MSG(words.size() == cells_.size(),
                 "restored memory image has the wrong size");
  cells_.assign(words.begin(), words.end());
}

void throw_out_of_bounds(const char* op, Addr a, Addr size, Pid pid) {
  std::string msg = "shared-memory " + std::string(op) + " out of bounds: cell " +
                    std::to_string(a) + " with memory size " +
                    std::to_string(size);
  if (pid != kNoPid) msg += " (pid " + std::to_string(pid) + ")";
  detail::throw_check_failure("invariant", "addr < memory size", msg);
}

}  // namespace rfsp
