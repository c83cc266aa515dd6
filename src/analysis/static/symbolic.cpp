#include "analysis/static/symbolic.hpp"

#include <utility>

#include "util/error.hpp"

namespace rfsp::analysis {

namespace {

SharedMemory make_init_image(const Program& program) {
  SharedMemory mem(program.memory_size());
  program.init_memory(mem);
  return mem;
}

}  // namespace

SymbolicContext::SymbolicContext(const DomainSource& domain,
                                 const Program& program, bool snapshot_allowed)
    : domain_(domain), mem_(make_init_image(program)),
      memory_size_(program.memory_size()),
      snapshot_allowed_(snapshot_allowed) {}

PathOutcome SymbolicContext::run(ProcessorState& state, Pid pid, Slot slot,
                                 std::span<const PathDecision> script) {
  out_ = PathOutcome{};
  script_ = script;
  next_decision_ = 0;
  overwritten_.clear();
  wrote_ = false;

  CycleTrace trace;
  trace.reset_for_cycle();
  // Budgets widen to the storage caps (the audit-mode trick): an
  // over-budget cycle is observed and reported instead of aborting the
  // exploration at the context throw. Only blowing a *cap* still throws,
  // which run() classifies as a budget finding via `budget_throw`.
  CycleContext ctx(mem_, slot, kReadCap, kWriteCap, snapshot_allowed_,
                   /*audit=*/this);
  ctx.rebind(trace, pid, /*cache=*/nullptr);
  try {
    const bool more = state.cycle(ctx);
    out_.completed = true;
    out_.halted = !more;
  } catch (const ModelViolation& e) {
    out_.threw = true;
    out_.error = e.what();
    out_.budget_throw =
        out_.reads.size() >= kReadCap || out_.writes.size() >= kWriteCap;
  } catch (const std::exception& e) {
    // The program's own invariant checks firing under an over-approximate
    // valuation: an unreachable path, pruned (counted) by the caller.
    out_.threw = true;
    out_.error = e.what();
  }
  // Back to the snapshot image.
  for (const auto& [addr, image] : overwritten_) mem_.write(addr, image);
  out_.used_snapshot = trace.used_snapshot;
  return std::move(out_);
}

void SymbolicContext::on_read(Pid /*pid*/, Addr addr) {
  if (wrote_) out_.read_after_write = true;
  out_.reads.push_back(addr);
  if (addr >= memory_size_) {
    // Terminal: the scratch memory's bounds check ends the cycle next.
    out_.oob_read = true;
    out_.oob_addr = addr;
    return;
  }
  for (const auto& [a, v] : overwritten_) {
    if (a == addr) return;  // frozen memory: one value per cell per slot
  }
  const std::size_t size = domain_.size(addr);
  std::size_t index = 0;
  if (next_decision_ < script_.size()) {
    index = script_[next_decision_].index;
  }
  ++next_decision_;
  const SymbolicValue value = domain_.at(addr, index < size ? index : 0);
  overwritten_.emplace_back(addr, mem_.read(addr));
  mem_.write(addr, value.value);
  out_.valuation.push_back({addr, value.value, value.tag});
  out_.decisions.push_back({addr, index, size});
  if (value.tag == AbstractTag::kArbitrary) out_.used_arbitrary = true;
}

void SymbolicContext::on_write(Pid /*pid*/, Addr addr, Word value) {
  wrote_ = true;
  if (addr >= memory_size_) {
    out_.oob_write = true;
    out_.oob_addr = addr;
  }
  out_.writes.push_back({addr, value});
}

void SymbolicContext::on_snapshot(Pid /*pid*/) {
  if (wrote_) out_.snapshot_after_write = true;
}

bool SymbolicContext::widen_snapshot(Addr addr, Word value) {
  if (addr >= memory_size_) return false;
  if (mem_.read(addr) == value) return false;
  mem_.write(addr, value);
  return true;
}

}  // namespace rfsp::analysis
