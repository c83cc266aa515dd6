// The plain synchronous semantics of a SimProgram, written once for both
// fault-free consumers: reference_run (the executor's ground truth) and
// check_discipline (which also inspects every processor's access sets).
//
// Step t runs every simulated processor in PID order against the memory
// and registers as of the step's start; a processor sees only its own
// earlier stores of the step. When the step ends, every store lands — on a
// cell several processors store to, the last in PID order (one legal
// ARBITRARY choice) — and so do the register updates.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "sim/sim_program.hpp"
#include "util/error.hpp"

namespace rfsp {

class SyncExecutor final : private StepContext {
 public:
  // `record_loads`: keep each processor's load set for loads(); the
  // reference run skips it.
  SyncExecutor(const SimProgram& program, bool record_loads)
      : program_(program), record_loads_(record_loads),
        memory_(program.memory_cells(), Word{0}),
        regs_(std::size_t{program.processors()} * program.registers(),
              Word{0}),
        pending_stamp_(program.memory_cells(), 0),
        pending_(program.memory_cells(), Word{0}) {
    program.init(memory_);
    for (Word& w : memory_) w = sim_word(w);
  }

  // Runs step t of every processor. After processor j's step, `visit(j)`
  // inspects its accesses (loads(), stores(), pending()); a false return
  // stops the step there, with nothing landed. Otherwise the step's
  // stores and register updates land and step() returns true.
  template <class Visit>
  bool step(Step t, Visit&& visit) {
    ++epoch_;
    pending_cells_.clear();
    pending_regs_.clear();
    for (j_ = 0; j_ < program_.processors(); ++j_) {
      loads_.clear();
      stores_.clear();
      reg_stores_.clear();
      program_.step(*this, j_, t);
      std::sort(stores_.begin(), stores_.end(),
                [](const WriteOp& a, const WriteOp& b) {
                  return a.addr < b.addr;
                });
      std::sort(loads_.begin(), loads_.end());
      loads_.erase(std::unique(loads_.begin(), loads_.end()), loads_.end());
      if (!visit(j_)) return false;
      for (const WriteOp& w : stores_) {
        if (pending_stamp_[w.addr] != epoch_) {
          pending_stamp_[w.addr] = epoch_;
          pending_cells_.push_back(w.addr);
        }
        pending_[w.addr] = w.value;
      }
      for (const auto& [r, value] : reg_stores_) {
        pending_regs_.emplace_back(reg_index(r), value);
      }
    }
    for (const Addr a : pending_cells_) memory_[a] = pending_[a];
    for (const auto& [index, value] : pending_regs_) regs_[index] = value;
    return true;
  }

  // The last processor's distinct loads and its stores (the last value
  // per cell), each in ascending address order.
  std::span<const Addr> loads() const { return loads_; }
  std::span<const WriteOp> stores() const { return stores_; }

  // The value an earlier processor of this step stores to `a`, or null.
  const Word* pending(Addr a) const {
    return pending_stamp_[a] == epoch_ ? &pending_[a] : nullptr;
  }

  std::vector<Word>& memory() { return memory_; }

 private:
  Word load(Addr a) override {
    RFSP_CHECK(a < memory_.size());
    if (record_loads_) loads_.push_back(a);
    for (const WriteOp& w : stores_) {
      if (w.addr == a) return w.value;
    }
    return memory_[a];
  }
  void store(Addr a, Word v) override {
    RFSP_CHECK(a < memory_.size());
    std::erase_if(stores_, [a](const WriteOp& w) { return w.addr == a; });
    stores_.push_back({a, sim_word(v)});
  }
  Word reg(unsigned r) override {
    RFSP_CHECK(r < program_.registers());
    for (const auto& [reg, value] : reg_stores_) {
      if (reg == r) return value;
    }
    return regs_[reg_index(r)];
  }
  void set_reg(unsigned r, Word v) override {
    RFSP_CHECK(r < program_.registers());
    std::erase_if(reg_stores_, [r](const auto& rv) { return rv.first == r; });
    reg_stores_.emplace_back(r, sim_word(v));
  }
  std::size_t reg_index(unsigned r) const {
    return std::size_t{j_} * program_.registers() + r;
  }

  const SimProgram& program_;
  const bool record_loads_;
  std::vector<Word> memory_;
  std::vector<Word> regs_;  // processor j's registers at j * registers()

  // The running processor and its accesses.
  Pid j_ = 0;
  std::vector<Addr> loads_;
  std::vector<WriteOp> stores_;
  std::vector<std::pair<unsigned, Word>> reg_stores_;

  // The step's staged stores: pending_[a] is live iff pending_stamp_[a]
  // equals epoch_; pending_cells_ lists the live cells.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> pending_stamp_;
  std::vector<Word> pending_;
  std::vector<Addr> pending_cells_;
  std::vector<std::pair<std::size_t, Word>> pending_regs_;
};

}  // namespace rfsp
