// Algorithm V (§4.1): a modification of algorithm W of [KS 89] that
// tolerates restarts.
//
// V iterates three synchronized phases over a progress tree whose L ≈
// N/log N leaves each cover B ≈ log N array elements:
//
//   1' allocate processors top-down through the tree, divide-and-conquer by
//      permanent PID proportionally to the unvisited-leaf counts (this
//      replaces W's processor-enumeration phase, which restarts break);
//   2' do the work at the reached leaf (B elements);
//   3' update the progress counts bottom-up to the root.
//
// All three phases have fixed lengths known at "compile time", so every
// iteration occupies exactly T_iter consecutive slots. Because the machine
// is synchronous, a restarted processor reads the global clock, waits for
// the iteration wrap-around (the paper's iteration counter), and rejoins at
// the next phase-1' boundary; while waiting it watches the root so it can
// halt if the computation finishes.
//
// Completed work: S = O(N + P log²N) without restarts (Lemma 4.2) and
// S = O(N + P log²N + M log N) under any pattern of M failures/restarts
// (Theorem 4.3).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "util/bits.hpp"
#include "util/wordio.hpp"
#include "writeall/lanes.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

struct VLayout {
  VLayout(Addr x_base, Addr aux_base, Addr n, Pid p, unsigned task_cycles,
          Addr leaf_elems_override = 0);

  Addr n = 0;
  Pid p = 0;
  Addr elems_per_leaf = 0;  // B ≈ log2 N
  Addr leaves_real = 0;     // ⌈N/B⌉
  Addr leaves = 0;          // padded to a power of two
  unsigned depth = 0;       // log2(leaves)

  Addr x_base = 0;
  Addr c_base = 0;  // progress tree c[1 .. 2·leaves - 1]: visited-leaf counts

  // Fixed phase lengths (in slots) and the iteration length T_iter.
  Slot phase_alloc = 0;  // depth
  Slot phase_work = 0;   // B · (task_cycles + 1)
  Slot phase_update = 0; // depth + 1
  Slot iteration = 0;

  Addr x(Addr i) const { return x_base + i; }
  Addr c(Addr node) const { return c_base + TreeNav::pos(node); }
  Addr aux_end() const { return c_base + (2 * leaves - 1); }

  Addr leaf_node(Addr leaf) const { return leaves + leaf; }

  // Number of non-padding leaves below `node`. Inline: evaluated for both
  // children at every interior step of the allocation/update phases.
  Addr real_leaves_below(Addr node) const {
    const unsigned dv = floor_log2(node);
    const Addr first = (node << (depth - dv)) - leaves;
    const Addr count = Addr{1} << (depth - dv);
    if (first >= leaves_real) return 0;
    return std::min(first + count, leaves_real) - first;
  }
};

// V's private registers: lost on failure (the restarted processor waits
// for the next wrap-around) and recomputed every iteration. W extends them
// with its enumeration results (algw.hpp).
struct VRegs {
  bool waiting = true;
  Addr node = 1;       // current tree node during phases 1'/3'
  Pid lo = 0, hi = 0;  // PID interval at node during phase 1'
  Addr leaf = 0;       // reached leaf index

  auto columns() { return std::tie(waiting, node, lo, hi, leaf); }
};

// The same registers of one batch lane, in place in its SoA columns
// (writeall/lanes.hpp).
struct VLane {
  static constexpr std::size_t kColumns = 5;

  VLane(SoaStore& soa, Pid pid)
      : waiting(soa.reg(0, pid)), node(soa.reg(1, pid)), lo(soa.reg(2, pid)),
        hi(soa.reg(3, pid)), leaf(soa.reg(4, pid)) {}

  LaneReg<bool> waiting;
  LaneReg<Addr> node;
  LaneReg<Pid> lo, hi;
  LaneReg<Addr> leaf;
};

// Everything a V cycle reads besides its registers: the instance's config
// (epoch stamp, TaskSpec), its progress tree, and — for embedded instances
// — the shared done flag.
struct VParams {
  const WriteAllConfig& config;
  const VLayout& layout;
  std::optional<Addr> done_flag;
};

// --- The cycle body (single source; see writeall/lanes.hpp) ----------------

// The iteration wrap-around of §4.1, shared by V and W: a processor
// restarted mid-iteration waits — watching for completion — and joins at
// the next boundary. Returns the cycle's result when the cycle was spent
// waiting, nullopt when the active body runs this slot.
template <class Ctx, class R>
std::optional<bool> v_wait(Ctx& ctx, const VParams& k, R& r, Slot phi,
                           Slot iteration) {
  if (!r.waiting) return std::nullopt;
  if (phi == 0) {
    r.waiting = false;  // booted exactly at an iteration boundary
    return std::nullopt;
  }
  const VLayout& lay = k.layout;
  const Word stamp = k.config.stamp;
  if (k.done_flag) {
    if (payload_of(ctx.read(*k.done_flag), stamp) != 0) return false;
  } else if (payload_of(ctx.read(lay.c(1)), stamp) ==
             static_cast<Word>(lay.leaves_real)) {
    return false;  // finished while we were waiting
  }
  if (phi == iteration - 1) r.waiting = false;  // join next slot
  return true;
}

// Phase 1': one allocation step, splitting the interval [lo, hi) by `key`
// (V's permanent PID; W's rank among the enumerated live processors).
template <class Ctx, class R>
bool v_alloc(Ctx& ctx, const VParams& k, R& r, Slot step, Pid key) {
  const VLayout& lay = k.layout;
  const Word stamp = k.config.stamp;
  if (step == 0 && k.done_flag) {
    // Embedded instances poll the shared done flag once per iteration.
    if (payload_of(ctx.read(*k.done_flag), stamp) != 0) return false;
  }

  const Addr left = TreeNav::left(r.node);
  const Addr right = TreeNav::right(r.node);
  const AllocSplit s = alloc_split(ctx, r.node, r.lo, r.hi, [&] {
    const Word cl = payload_of(ctx.read(lay.c(left)), stamp);
    const Word cr = payload_of(ctx.read(lay.c(right)), stamp);
    const Addr rl = lay.real_leaves_below(left);
    const Addr rr = lay.real_leaves_below(right);
    const Addr ul = rl - std::min<Addr>(rl, static_cast<Addr>(cl));
    const Addr ur = rr - std::min<Addr>(rr, static_cast<Addr>(cr));
    const Addr u = ul + ur;
    // Divide and conquer: split the interval proportionally to the
    // unvisited-leaf counts, as in Theorem 3.2's balanced assignment,
    // realized in O(log N) time (§4.1).
    const Pid nl = u == 0 ? 0
                          : static_cast<Pid>(
                                (static_cast<std::uint64_t>(r.hi - r.lo) *
                                 ul) / u);
    return AllocSplit{u, rl, nl};
  });

  if (s.u == 0) {
    if (r.node == 1) {
      // Nothing unvisited anywhere: publish the root count and finish.
      ctx.write(lay.c(1), stamped(stamp, static_cast<Word>(lay.leaves_real)));
      if (k.done_flag) ctx.write(*k.done_flag, stamped(stamp, 1));
      return false;
    }
    // The subtree is complete although an ancestor's count claimed
    // otherwise: a processor died mid-phase-3' and left the path stale.
    // Do NOT idle — descend structurally to a (done) real leaf, redo it
    // (idempotent), and let phase 3' repair every count on the way back to
    // the root. Idling here would leave the stale counts in place forever
    // and the root could never reach its target. (Below a complete node
    // every subtree is complete, so the rest of the descent stays in this
    // branch and the interval is no longer consulted.)
    r.node = s.rl > 0 ? left : right;
  } else if (key < r.lo + s.nl) {
    r.node = left;
    r.hi = r.lo + s.nl;
  } else {
    r.node = right;
    r.lo = r.lo + s.nl;
  }
  if (step + 1 == lay.phase_alloc) r.leaf = r.node - lay.leaves;
  return true;
}

// Phase 2': work cycle j at the reached leaf. With a TaskSpec each element
// takes task_cycles() micro-cycles plus the marking write; batch lanes
// never carry one, so their instantiation is the plain marking write.
template <class Ctx, class R>
void v_work(Ctx& ctx, const VParams& k, const R& r, Slot j,
            std::span<Word> scratch) {
  const VLayout& lay = k.layout;
  const unsigned t = kInterpreted<Ctx> ? k.config.task_cycles() : 0;
  const Addr g = r.leaf * lay.elems_per_leaf + static_cast<Addr>(j) / (t + 1);
  if (g >= lay.n) return;  // padding inside the last real leaf
  const unsigned sub = static_cast<unsigned>(j % (t + 1));
  if (sub == t) {
    ctx.write(lay.x(g), stamped(k.config.stamp, 1));
    return;
  }
  if constexpr (kInterpreted<Ctx>) {
    if (sub == 0) std::fill(scratch.begin(), scratch.end(), Word{0});
    k.config.task->run(ctx, g, sub, scratch);
  }
}

// Phase 3': update step m of the bottom-up count refresh.
template <class Ctx, class R>
bool v_update(Ctx& ctx, const VParams& k, const R& r, Slot m) {
  const VLayout& lay = k.layout;
  const Word stamp = k.config.stamp;
  const Addr leaf_node = lay.leaf_node(r.leaf);
  if (m == 0) {
    ctx.write(lay.c(leaf_node), stamped(stamp, 1));
    if (lay.depth == 0) {
      // One-leaf tree: the leaf is the root and the count is complete.
      if (k.done_flag) ctx.write(*k.done_flag, stamped(stamp, 1));
      return false;
    }
    return true;
  }
  const Addr v = TreeNav::ancestor(leaf_node, static_cast<unsigned>(m));
  const Word cl = payload_of(ctx.read(lay.c(TreeNav::left(v))), stamp);
  const Word cr = payload_of(ctx.read(lay.c(TreeNav::right(v))), stamp);
  const Word sum = cl + cr;
  ctx.write(lay.c(v), stamped(stamp, sum));
  if (m == lay.phase_update - 1 && sum == static_cast<Word>(lay.leaves_real)) {
    if (k.done_flag) ctx.write(*k.done_flag, stamped(stamp, 1));
    return false;  // the root count is complete: halt
  }
  return true;
}

// Phases 1'-3' at offset `rest` into them (V: the iteration offset; W: the
// offset past its counting phase).
template <class Ctx, class R>
bool v_progress(Ctx& ctx, const VParams& k, R& r, Slot rest, Pid key,
                std::span<Word> scratch) {
  const VLayout& lay = k.layout;
  if (rest < lay.phase_alloc) return v_alloc(ctx, k, r, rest, key);
  rest -= lay.phase_alloc;
  if (rest < lay.phase_work) {
    v_work(ctx, k, r, rest, scratch);
    return true;
  }
  return v_update(ctx, k, r, rest - lay.phase_work);
}

// One V update cycle at position `phi` of the instance's iteration (on its
// virtual clock; see AlgVState).
template <class Ctx, class R>
bool v_cycle(Ctx& ctx, const VParams& k, R& r, Slot phi,
             std::span<Word> scratch) {
  if (const auto waited = v_wait(ctx, k, r, phi, k.layout.iteration)) {
    return *waited;
  }
  if (phi == 0) {
    r.node = 1;
    r.lo = 0;
    r.hi = k.layout.p;
    r.leaf = 0;
  }
  return v_progress(ctx, k, r, phi, ctx.pid(), scratch);
}

// Batch-lane load hint: in an update step m > 0 a lane reads the children
// of its leaf's m-th ancestor. `rest` is the offset into phases 1'-3'.
inline void v_prefetch(const VLayout& lay, std::span<const Word> mem,
                       const VLane& lane, Slot rest) {
  if (rest <= lay.phase_alloc + lay.phase_work) return;
  const Addr v = TreeNav::ancestor(
      lay.leaf_node(lane.leaf),
      static_cast<unsigned>(rest - lay.phase_alloc - lay.phase_work));
  RFSP_PREFETCH(&mem[lay.c(TreeNav::left(v))]);
  RFSP_PREFETCH(&mem[lay.c(TreeNav::right(v))]);
}

// The phase (rel / stride) % period of an interpreter state's clock,
// without a division per cycle: a live processor's cycles see consecutive
// slots, so the memo steps its last (rel, phase) by one, and divides only
// when the clock jumped. The memo is scratch, not private state: reboot
// and load_words forget it, and the checkpoint words leave it out.
class PhaseMemo {
 public:
  Slot phase(Slot rel, Slot stride, Slot period) {
    if (valid_ && rel == rel_ + 1) {
      if (++rem_ == stride) {
        rem_ = 0;
        if (++phi_ == period) phi_ = 0;
      }
    } else {
      rem_ = rel % stride;
      phi_ = (rel / stride) % period;
      valid_ = true;
    }
    rel_ = rel;
    return phi_;
  }

  void forget() { valid_ = false; }

 private:
  bool valid_ = false;
  Slot rel_ = 0;
  Slot rem_ = 0;  // rel_ % stride
  Slot phi_ = 0;  // (rel_ / stride) % period
};

// Per-processor state machine; embeddable (stamp + done flag + start slot +
// clock stride) for the combined algorithm and the simulator. The states'
// `pid` parameter mirrors Program::boot(pid); the cycle body reads the PID
// from its context, which is the one source for both instantiations.
class AlgVState final : public WordStreamState<AlgVState> {
 public:
  AlgVState(const WriteAllConfig& config, const VLayout& layout, Pid pid,
            std::optional<Addr> done_flag = std::nullopt, Slot start_slot = 0,
            Slot clock_stride = 1);

  bool cycle(CycleContext& ctx) override;

  // Back to what the constructor builds from these arguments, in place
  // (Program::reboot); the task scratch keeps its capacity.
  void reboot(Slot start_slot = 0, Slot clock_stride = 1);

  // Checkpoint support (docs/resilience.md): flat word-stream round-trip.
  // The composable pair (save_words/load_words) lets CombinedState and the
  // simulator embed V's words inside their own streams.
  void save_words(WordWriter& w) const;
  void load_words(WordReader& r);

  // V's phase at `slot`, ((slot - start slot) / stride) % T_iter, from the
  // memo; CombinedState takes its V phase from here too.
  Slot phase(Slot slot) {
    return clock_.phase(slot - start_slot_, stride_, params_.layout.iteration);
  }

  // The cycle body's inputs, for embedding states and the batch lanes.
  const VParams& params() const { return params_; }
  VRegs& regs() { return regs_; }
  std::span<Word> scratch() { return scratch_; }

 private:
  // By reference (inside params_): see AlgXState — the referents (program
  // or simulator pass block) outlive every state they boot.
  VParams params_;
  Slot start_slot_;
  Slot stride_;
  VRegs regs_;
  std::vector<Word> scratch_;  // TaskSpec micro-cycle scratch
  PhaseMemo clock_;
};

// Standalone Write-All program running algorithm V.
class AlgV final
    : public ProgramLifecycle<AlgV, AlgVState, WriteAllProgram> {
 public:
  explicit AlgV(WriteAllConfig config);

  std::string_view name() const override { return "V"; }
  Addr memory_size() const override { return layout_.aux_end(); }
  std::unique_ptr<AlgVState> make_state(Pid pid) const;
  Addr x_base() const override { return layout_.x_base; }

  // The fixed three-phase iteration: alloc / work / update, by slot mod
  // T_iter (observability attribution; see obs/phase.hpp).
  std::optional<PhaseSchedule> phase_schedule() const override;

  // Batched backend: v_cycle over LaneContext (writeall/lanes.hpp);
  // nullptr when a TaskSpec is configured (task micro-cycles need the
  // per-op CycleContext).
  std::unique_ptr<BatchKernel> batch_kernels() const override;

  // goal() is the progress-tree root reaching the leaf total.
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.c(1), 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return payload_of(value, config_.stamp) ==
           static_cast<Word>(layout_.leaves_real);
  }

  const VLayout& layout() const { return layout_; }

 private:
  VLayout layout_;
};

}  // namespace rfsp
