// Single-source update cycles (DESIGN.md §4.9). Each of W, V, X and VX
// writes its update cycle once, as a function template over a cycle
// context `Ctx` — ctx.read(a), ctx.write(a, v), ctx.slot(), ctx.pid(), and
// the alloc_split() service below — and a register type `R`; it returns
// false to halt. Other slot-uniform inputs (the phase offset `phi`, W's
// iteration stamp, VX's interleave clock) are arguments the caller
// computes. Two instantiations, no new virtuals:
//   * CycleContext over the plain register struct: the interpreter, from
//     the ProcessorState::cycle overrides. TaskSpec micro-cycles sit behind
//     `if constexpr (kInterpreted<Ctx>)`, and so do the randomized
//     descents; programs with either publish no kernel.
//   * LaneContext over a lane view — LaneReg proxies onto the lane's SoA
//     columns, so a lane touches only the registers its cycle uses: the
//     batched backend, driven by LaneKernel below. A restarted lane's
//     `waiting` flag is an ordinary register, so the live set is one lane
//     group run in ascending PID order, exactly the interpreter's order.
// That order puts lanes with equal inputs next to each other, so a lane
// group keeps two memos, each valid for one LaneKernel::run because each
// caches a pure function of slot-start memory: V's AllocMemo (below,
// the split at one node and interval) and the X kernel's
// XStepMemo (writeall/algx.hpp, the step at one tree position, which the
// kernel carries as its group input). The interpreter recomputes both
// every cycle, since its reads are metered, logged and audited; so does
// VX's X half, whose lanes under faults repeat a position too rarely for
// the memo to pay (DESIGN.md §4.9).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "pram/soa.hpp"
#include "util/error.hpp"
#include "util/wordio.hpp"

// Software prefetch for the lane loops: a batched slot touches thousands of
// independent tree paths, so issuing a later lane's loads while the current
// lane computes hides most of the miss latency. Semantics-neutral (a
// prefetch is a hint, never a read the model sees).
#if defined(__GNUC__) || defined(__clang__)
#define RFSP_PREFETCH(addr) __builtin_prefetch(addr)
#define RFSP_FLATTEN [[gnu::flatten]]
#else
#define RFSP_PREFETCH(addr) ((void)(addr))
#define RFSP_FLATTEN
#endif

namespace rfsp {

template <class Ctx>
inline constexpr bool kInterpreted = std::is_same_v<Ctx, CycleContext>;

// One allocation step at progress-tree node `node` for the interval
// [lo, hi) of PIDs (V) or live ranks (W): the unassigned leaves below the
// node, the real leaves below its left child, and how many of the
// interval's processors go left (meaningful only when u > 0).
struct AllocSplit {
  Addr u = 0;
  Addr rl = 0;
  Pid nl = 0;
};

// Per-group memo of the split. Lanes walk a group in ascending PID order,
// so equal (node, lo, hi) keys arrive in long runs: a one-entry cache
// removes nearly every 64-bit division while staying bit-identical (the
// split is a pure function of the key and the slot-start memory).
struct AllocMemo {
  Addr node = 0;  // 0 = empty (tree node ids start at 1)
  Pid lo = 0;
  Pid hi = 0;
  AllocSplit split;
};

// Per-lane cycle context of the batched backend: reads go straight to the
// frozen slot-start memory, writes and the halt through LaneEmit.
class LaneContext {
 public:
  LaneContext(const BatchContext& batch, Pid pid, AllocMemo& memo)
      : mem_(batch.mem), slot_(batch.slot), pid_(pid), emit_(batch, pid),
        memo_(memo) {}

  Word read(Addr a) const { return mem_[a]; }
  // An address past the memory throws SharedMemory::write's diagnostic
  // before LaneEmit narrows it to 32 bits (CycleContext::write's rule).
  // Checked here rather than in LaneEmit, where the same test cost VX's
  // faulty runs 3 % (DESIGN.md §4.9).
  void write(Addr a, Word v) {
    if (a >= mem_.size()) [[unlikely]] {
      throw_out_of_bounds("write", a, mem_.size(), pid_);
    }
    emit_.write(a, v);
  }
  Slot slot() const { return slot_; }
  Pid pid() const { return pid_; }
  void halt() { emit_.halt(); }
  AllocMemo& memo() { return memo_; }

 private:
  std::span<const Word> mem_;
  Slot slot_;
  Pid pid_;
  LaneEmit emit_;
  AllocMemo& memo_;
};

// The split at (node, lo, hi); `compute` performs the reads. The
// interpreter runs it every cycle (its reads are metered, logged and
// audited); lanes memoize it across their group.
template <class Ctx, class F>
AllocSplit alloc_split(Ctx& ctx, Addr node, Pid lo, Pid hi, F compute) {
  if constexpr (kInterpreted<Ctx>) {
    return compute();
  } else {
    AllocMemo& memo = ctx.memo();
    if (node != memo.node || lo != memo.lo || hi != memo.hi) {
      memo = {node, lo, hi, compute()};
    }
    return memo.split;
  }
}

// One lane's register in place in its SoA column: converts to the
// register's type and assigns through.
template <class T>
class LaneReg {
 public:
  explicit LaneReg(Word& cell) : cell_(&cell) {}
  LaneReg(const LaneReg&) = default;

  operator T() const { return static_cast<T>(*cell_); }
  LaneReg& operator=(T value) {
    *cell_ = static_cast<Word>(value);
    return *this;
  }
  LaneReg& operator=(const LaneReg& other) { return *this = T(other); }
  LaneReg& operator+=(T value) { return *this = T(*this) + value; }

 private:
  Word* cell_;
};

// Whole register sets move between a plain struct and the SoaStore for
// boot and checkpoints; `columns()` ties the fields in column order, the
// order the lane view binds them.
template <class Regs>
Regs gather_lane(const SoaStore& soa, Pid pid) {
  Regs regs;
  std::size_t c = 0;
  std::apply(
      [&](auto&... reg) {
        ((reg = static_cast<std::remove_reference_t<decltype(reg)>>(
              soa.reg(c++, pid))),
         ...);
      },
      regs.columns());
  return regs;
}

template <class Regs>
void scatter_lane(SoaStore& soa, Pid pid, Regs& regs) {
  std::size_t c = 0;
  std::apply(
      [&](const auto&... reg) {
        ((soa.reg(c++, pid) = static_cast<Word>(reg)), ...);
      },
      regs.columns());
}

// The generic lane-group driver behind the BatchKernel interface. `Alg`
// binds one algorithm instance:
//   Regs, Lane               plain registers and their lane view
//                            (Lane(soa, pid), Lane::kColumns columns)
//   group(slot)              slot-uniform inputs, once per lane group;
//                            a per-group memo may ride in it (mutable)
//   cycle(ctx, lane, g)      the single-source cycle body
//   prefetch(mem, lane, pid, g)  load hint for a lane further ahead
//   state(pid)               a fresh interpreter state, whose regs() and
//                            save_words/load_words define the checkpoint
//                            stream (absent regs(): a register-less lane)
template <class Alg>
class LaneKernel final : public BatchKernel {
 public:
  using Regs = typename Alg::Regs;
  using Lane = typename Alg::Lane;

  explicit LaneKernel(Alg alg) : alg_(std::move(alg)) {}

  std::size_t registers() const override { return Lane::kColumns; }
  std::uint32_t control_states() const override { return 1; }

  void boot_lane(SoaStore& soa, Pid pid) const override {
    Regs boot;
    scatter_lane(soa, pid, boot);
  }

  // Flattened so the whole body inlines into the lane loop and the lane
  // view's column pointers and the group's inputs stay in registers.
  RFSP_FLATTEN void run(std::uint32_t /*ctrl*/, std::span<const Pid> pids,
                        const BatchContext& batch,
                        SoaStore& soa) const override {
    auto group = alg_.group(batch.slot);
    AllocMemo memo;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (i + kPrefetchDist < pids.size()) {
        Lane ahead(soa, pids[i + kPrefetchDist]);
        alg_.prefetch(batch.mem, ahead, pids[i + kPrefetchDist], group);
      }
      LaneContext ctx(batch, pids[i], memo);
      Lane lane(soa, pids[i]);
      if (!alg_.cycle(ctx, lane, group)) ctx.halt();
    }
  }

  void save_lane(const SoaStore& soa, Pid pid,
                 std::vector<Word>& out) const override {
    save(pid, gather_lane<Regs>(soa, pid), out);
  }

  // A lane holds only its registers. Anything else a stream may carry — a
  // TaskSpec's scratch, a private coin, another clock, trailing words —
  // would not re-serialize to the same words, and is refused.
  void load_lane(SoaStore& soa, Pid pid,
                 std::span<const Word> data) const override {
    auto state = alg_.state(pid);
    WordReader r(data);
    state.load_words(r);
    Regs regs;
    if constexpr (kHasRegs) regs = state.regs();
    std::vector<Word> again;
    again.reserve(data.size());
    save(pid, regs, again);
    if (!std::ranges::equal(again, data)) {
      throw ConfigError(
          "checkpoint state does not match the batched kernel (not a state "
          "a batch lane of this program can hold)");
    }
    scatter_lane(soa, pid, regs);
  }

 private:
  static constexpr bool kHasRegs = Lane::kColumns > 0;
  // How many lanes ahead run() prefetches: large enough to cover an LLC
  // miss at typical per-lane costs, small enough that the prefetched lines
  // are still resident when their lane runs.
  static constexpr std::size_t kPrefetchDist = 32;

  void save(Pid pid, const Regs& regs, std::vector<Word>& out) const {
    auto state = alg_.state(pid);
    if constexpr (kHasRegs) state.regs() = regs;
    WordWriter w(out);
    state.save_words(w);
  }

  Alg alg_;
};

}  // namespace rfsp
