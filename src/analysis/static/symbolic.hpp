// The instrumented cycle driver of the static verifier (verify.hpp).
//
// A SymbolicContext runs exactly one ProcessorState::cycle against a chosen
// read valuation instead of a live memory image. It is the CycleContext's
// CycleAuditHook: on_read runs before the value is fetched, so it writes
// the chosen value of the per-cell abstract domain into the scratch memory
// the context reads from, and it records per-operation order for the
// phase-discipline check. run() undoes those writes before it returns, so
// between runs the scratch memory is the snapshot image (init, widened by
// widen_snapshot). Branching over the domain is driven by a
// decision script: the first read of each cell consumes one PathDecision
// (replayed from the script, or defaulted to index 0 and appended), repeat
// reads of a cell within the cycle return the assumed value again — shared
// memory is frozen within a slot, so a valuation is one value per cell.
// The caller enumerates all paths of a (state, slot) configuration by
// odometer-incrementing the returned decision vector.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/static/verify.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"

namespace rfsp::analysis {

// One candidate read value with its taint tag.
struct SymbolicValue {
  Word value = 0;
  AbstractTag tag = AbstractTag::kZero;
};

// The per-cell abstract domain the verifier maintains (seeded with
// {0, 1/goal-done, init, arbitrary}, widened with written-value feedback).
class DomainSource {
 public:
  virtual ~DomainSource() = default;
  virtual std::size_t size(Addr addr) const = 0;
  virtual SymbolicValue at(Addr addr, std::size_t index) const = 0;
};

// One branch point: the first read of `addr` during the path picked domain
// value `index` out of `size` candidates (size as of the run).
struct PathDecision {
  Addr addr = 0;
  std::size_t index = 0;
  std::size_t size = 1;
};

// Everything one driven cycle produced.
struct PathOutcome {
  bool completed = false;  // cycle returned (halting or not) without a throw
  bool halted = false;     // cycle returned false
  bool threw = false;
  bool budget_throw = false;  // the throw was the context's storage cap —
                              // an over-budget finding, not a pruned path
  std::string error;          // what() of the throw

  std::vector<Addr> reads;      // every shared read, program order
  std::vector<WriteOp> writes;  // every buffered write, program order
  bool used_snapshot = false;
  bool read_after_write = false;      // phase-order break observed
  bool snapshot_after_write = false;  // ... via the snapshot entry point
  bool oob_read = false;
  bool oob_write = false;
  Addr oob_addr = 0;
  bool used_arbitrary = false;  // valuation includes a kArbitrary value

  std::vector<ReadAssumption> valuation;  // first-read assumptions, in order
  std::vector<PathDecision> decisions;    // the (extended) script
};

class SymbolicContext final : public CycleAuditHook {
 public:
  // The program's init image seeds the scratch memory. A snapshot() always
  // sees it unchanged (a snapshot is the cycle's only read, so no per-cell
  // answer is in place yet) — documented in docs/analysis.md.
  SymbolicContext(const DomainSource& domain, const Program& program,
                  bool snapshot_allowed);

  // Drive one cycle of `state` at (pid, slot) following `script` for its
  // first |script| branch points and extending with index 0 beyond.
  PathOutcome run(ProcessorState& state, Pid pid, Slot slot,
                  std::span<const PathDecision> script);

  // CycleAuditHook: per-operation order bookkeeping. on_read also answers
  // the read: the first read of a cell writes its domain value (from the
  // path's script) into the scratch memory.
  void on_read(Pid pid, Addr addr) override;
  void on_write(Pid pid, Addr addr, Word value) override;
  void on_snapshot(Pid pid) override;

  // Monotone widening of the snapshot image: record an observed write so
  // later snapshot() calls can see the progress it represents (last value
  // wins per cell — one concrete image, not a per-cell set). Returns true
  // iff the image changed; the caller then re-explores snapshot users.
  bool widen_snapshot(Addr addr, Word value);

 private:
  const DomainSource& domain_;
  // What the cycle reads: the snapshot image (init, widened by
  // widen_snapshot), with this run's answered cells written over it.
  SharedMemory mem_;
  Addr memory_size_;
  bool snapshot_allowed_;

  // Per-run scratch.
  std::span<const PathDecision> script_;
  std::size_t next_decision_ = 0;
  // Cells answered this run with their image values, restored by run().
  std::vector<std::pair<Addr, Word>> overwritten_;  // <= kReadCap entries
  bool wrote_ = false;
  PathOutcome out_;
};

}  // namespace rfsp::analysis
