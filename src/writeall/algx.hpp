// Algorithm X (§4.2, Figures 2/3/5).
//
// Each processor independently searches for work in the smallest immediate
// subtree of a full binary progress tree d[1..2N-1] that still has work,
// descending by its PID bits at contested nodes, doing the work at leaves,
// and propagating "done" marks bottom-up. The traversal position w[PID]
// lives in shared memory, so a restarted processor resumes where it failed
// ([SS 83] action/recovery; Remark 6). Completed work is
// O(N · P^{log₂3 − 1 + δ}) for ANY failure/restart pattern (Lemma 4.6,
// Theorem 4.7) — bounded and sub-quadratic no matter what the adversary
// does — and Theorem 4.8 exhibits a pattern forcing Ω(N^{log₂3}) at P = N.
//
// One loop iteration of Figure 5 is one update cycle: at most 4 shared
// reads (w[PID]; d[where]; then either the leaf cell or both children) and
// 1–2 shared writes.
//
// Deviations from the paper's text, documented here:
//  * Figure 5 initializes w[PID] := 1 + PID, which for P = N scatters
//    processors over *internal* nodes; the prose and Figure 3 place them on
//    the first P leaves ("processors are assigned to the first P leaves").
//    We follow the prose: w[PID] := N + PID (or evenly spaced, Remark 5(i)).
//  * "Exited the tree" is encoded as w[PID] = 2N (instead of 0) because a
//    zero cell also means "never initialized" — a processor that failed
//    before completing its very first write must re-run initialization, not
//    halt. This is exactly the [SS 83] recovery distinction, packed into
//    one stable cell.
//  * Padded leaves (N rounded up to a power of two) and their ancestors are
//    recognized structurally (their element range lies beyond N) and treated
//    as done without extra initialization writes.
#pragma once

#include <cstdint>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/wordio.hpp"
#include "writeall/lanes.hpp"
#include "writeall/layout.hpp"

namespace rfsp {

// Memory map of one algorithm-X instance. The x array can be shared with
// other algorithms (the combined algorithm of Theorem 4.9 interleaves V and
// X over one output array); the auxiliary region (d heap + w array) is
// private to this instance.
struct XLayout {
  XLayout(Addr x_base, Addr aux_base, Addr n, Pid p);

  Addr n = 0;      // real array size
  Addr n_pad = 0;  // padded to a power of two; the d heap has n_pad leaves
  unsigned height = 0;  // log2(n_pad)
  Pid p = 0;

  Addr x_base = 0;
  Addr d_base = 0;  // d[1 .. 2·n_pad - 1], 1-indexed logical ids
  Addr w_base = 0;  // w[0 .. p)

  Addr x(Addr i) const { return x_base + i; }
  Addr d(Addr node) const { return d_base + TreeNav::pos(node); }
  Addr w(Pid pid) const { return w_base + pid; }
  Addr aux_end() const { return w_base + p; }

  // Heap index of the leaf holding element i.
  Addr leaf(Addr i) const { return n_pad + i; }
  // The w-payload meaning "left the tree; the computation is finished".
  Word exited() const { return static_cast<Word>(2 * n_pad); }

  // Range [first, last) of elements below `node`; empty intersection with
  // [0, n) means the subtree is structurally done (padding). Inline: the
  // batched X lanes call these once or twice per lane per slot, and an
  // out-of-line call was a measurable slice of the 2^24 headline row.
  Addr first_element(Addr node) const {
    const unsigned depth = floor_log2(node);
    return (node << (height - depth)) - n_pad;
  }
  Addr elements_below(Addr node) const {
    const unsigned depth = floor_log2(node);
    return Addr{1} << (height - depth);
  }
  bool structurally_done(Addr node) const {
    return first_element(node) >= n;
  }
};

// How the traversal makes its free choices:
//  * kPidBits — algorithm X: contested interior nodes resolve by the PID
//    bit at the node's depth; done subtrees are climbed out of.
//  * kCoupon  — the ACC stand-in (§5, [MSP 90] "coupon clipping"):
//    processors start on a random leaf, contested nodes flip a private
//    coin, and a done node is escaped by a jump to a uniformly random leaf
//    half the time (sampling fresh coupons) and a climb the other half
//    (which preserves termination through the root).
// Private generators are seeded from (config.seed, PID, boot slot), so a
// restarted processor deterministically reseeds from data it still has.
enum class XDescent { kPidBits, kCoupon };

// Everything an X cycle reads besides its registers. By reference: states
// are booted once per processor per restart, so copying the config and
// layout into every state would dominate restart-heavy runs and bloat the
// per-processor footprint the engine streams over each slot; the referents
// (the owning Program or the simulator's per-pass block) outlive them.
struct XParams {
  const WriteAllConfig& config;
  const XLayout& layout;
  std::optional<Addr> done_flag;  // embedded instances: written with the root
  XDescent descent = XDescent::kPidBits;
};

// X's private state. The traversal position lives in shared memory
// (w[pid]), so privately there is only TaskSpec progress and the
// randomized descents' coin — neither of which a batch lane has
// (XLaneRegs).
struct XRegs {
  enum class Mode { kNavigate, kTask, kTaskDoneMark };

  Mode mode = Mode::kNavigate;
  Addr task_leaf = 0;   // heap position while in task mode
  unsigned task_k = 0;  // next micro-cycle
  std::vector<Word> scratch;
  std::optional<Rng> rng;  // lazily (re)seeded; randomized descents only

  Rng& coin(std::uint64_t seed, Pid pid, Slot slot) {
    if (!rng) rng.emplace(mix64(seed, pid, slot));
    return *rng;
  }
};

struct XLaneRegs {
  static constexpr std::size_t kColumns = 0;

  XLaneRegs() = default;
  XLaneRegs(SoaStore& /*soa*/, Pid /*pid*/) {}
  auto columns() { return std::tie(); }
};

// --- The cycle body (single source; see writeall/lanes.hpp) ----------------

// Prose of §4.2: processors start on the first P leaves; Remark 5(i)
// optionally spaces them n_pad/P apart. The randomized descents instead
// draw a fresh random leaf (seeded from data a restarted processor still
// has: the seed, its PID, and the synchronous clock) — "coupon clipping".
inline Addr x_start_leaf(const XParams& k, Pid pid, Slot slot) {
  const XLayout& lay = k.layout;
  Addr idx;
  if (k.descent != XDescent::kPidBits) {
    idx = static_cast<Addr>(mix64(k.config.seed, pid, slot) % lay.n_pad);
  } else if (k.config.spaced_placement) {
    idx = (static_cast<Addr>(pid) * lay.n_pad) / lay.p;
  } else {
    idx = static_cast<Addr>(pid) % lay.n_pad;
  }
  return lay.leaf(idx);
}

// Both subtrees of `pos` unfinished: descend by the PID bit at this depth
// (bit 0 = most significant of the height-bit PID; only log N bits of the
// PID are significant — Lemma 4.5), or, in the randomized variants, by a
// private coin flip (interpreter only: batch lanes run the PID-bit descent).
template <class Ctx, class R>
bool x_go_right(Ctx& ctx, const XParams& k, R& r, Addr pos) {
  if constexpr (kInterpreted<Ctx>) {
    if (k.descent != XDescent::kPidBits) {
      return r.coin(k.config.seed, ctx.pid(), ctx.slot()).below(2) != 0;
    }
  }
  // pid mod n_pad: n_pad is a power of two.
  const std::uint64_t significant =
      static_cast<std::uint64_t>(ctx.pid()) & (k.layout.n_pad - 1);
  return msb_bit(significant, floor_log2(pos), k.layout.height);
}

// One TaskSpec micro-cycle or the task's done mark (interpreter only).
bool x_task_cycle(CycleContext& ctx, const XParams& k, XRegs& r);

// What Figure 5 does at a tree position, decided by the reads there alone
// (x_classify): every processor on the position takes the same step, and
// only a contested descent then consults the PID (Lemma 4.5).
struct XStep {
  enum class Kind : std::uint8_t {
    kClimb,      // d[where] done: one level up (exit above the root)
    kMark,       // finished below: publish d[where] := 1
    kVisit,      // an unvisited leaf: x[element] := 1 (or enter the task)
    kGo,         // exactly one child unfinished: move to it
    kContested,  // both children unfinished: descend by the PID bit
  };
  Kind kind = Kind::kClimb;
  Addr next = 0;  // kGo: the unfinished child
};

// The standalone X kernel's per-group memo of one position's step, the
// twin of V's AllocMemo (writeall/lanes.hpp): processors head for the
// smallest unfinished subtree, so ascending-PID lanes arrive on one node
// in runs, and a lane repeating its predecessor's position reads no tree
// cell. Valid for one LaneKernel::run: the step is a pure function of the
// position and the slot-start memory.
struct XStepMemo {
  Addr pos = 0;  // 0 = empty (tree node ids start at 1)
  XStep step;
};

// The reads of one Figure 5 iteration after `where := w[PID]`, in the
// paper's order: `done := d[where]`, then the leaf's element or both
// children (padding counts as done without a read, so the read budget
// still fits 4).
template <class Ctx>
XStep x_classify(Ctx& ctx, const XParams& k, Addr pos) {
  const XLayout& lay = k.layout;
  const Word stamp = k.config.stamp;
  if (payload_of(ctx.read(lay.d(pos)), stamp) != 0) {
    return {XStep::Kind::kClimb};
  }
  if (pos >= lay.n_pad) {  // at a leaf
    const Addr element = pos - lay.n_pad;
    // Padding is structurally done; a real leaf whose element is already
    // written is on its second visit. Either way the mark is published.
    if (element >= lay.n ||
        payload_of(ctx.read(lay.x(element)), stamp) != 0) {
      return {XStep::Kind::kMark};
    }
    return {XStep::Kind::kVisit};
  }
  const Addr left = TreeNav::left(pos);
  const Addr right = TreeNav::right(pos);
  const bool left_done = lay.structurally_done(left) ||
                         payload_of(ctx.read(lay.d(left)), stamp) != 0;
  const bool right_done = lay.structurally_done(right) ||
                          payload_of(ctx.read(lay.d(right)), stamp) != 0;
  if (left_done && right_done) return {XStep::Kind::kMark};
  if (left_done != right_done) {
    return {XStep::Kind::kGo, left_done ? right : left};
  }
  return {XStep::Kind::kContested};
}

// The step at `pos`. The standalone X kernel, whose registers are the
// memo, classifies a position once per run of lanes on it. The interpreter
// classifies every cycle (its reads are metered, logged and audited), and
// so does VX's X half: under faults its lanes repeat a position too rarely
// for the memo to pay (DESIGN.md §4.9).
template <class Ctx, class R>
XStep x_step(Ctx& ctx, const XParams& k, R& r, Addr pos) {
  if constexpr (std::is_same_v<R, XStepMemo>) {
    if (pos != r.pos) r = {pos, x_classify(ctx, k, pos)};
    return r.step;
  } else {
    return x_classify(ctx, k, pos);
  }
}

// One loop iteration of Figure 5: read the position, classify it, and
// apply the step as this processor's buffered writes.
template <class Ctx, class R>
bool x_cycle(Ctx& ctx, const XParams& k, R& r) {
  if constexpr (kInterpreted<Ctx>) {
    if (r.mode != XRegs::Mode::kNavigate) return x_task_cycle(ctx, k, r);
  }
  const XLayout& lay = k.layout;
  const Word stamp = k.config.stamp;
  const Pid pid = ctx.pid();

  // Figure 5: `where := w[PID]` — the stable traversal position.
  const Word wv = payload_of(ctx.read(lay.w(pid)), stamp);
  if (wv == 0) {
    // Never initialized (or failed before the first write completed):
    // (re-)run the initial assignment to a leaf.
    ctx.write(lay.w(pid),
              stamped(stamp, static_cast<Word>(
                                 x_start_leaf(k, pid, ctx.slot()))));
    return true;
  }
  if (wv == lay.exited()) {
    return false;  // `while w[PID] != 0` terminated; nothing left to do
  }

  const Addr pos = static_cast<Addr>(wv);
  RFSP_CHECK_MSG(pos >= 1 && pos < 2 * lay.n_pad,
                 "corrupt traversal position");

  const XStep step = x_step(ctx, k, r, pos);
  Addr next = step.next;
  switch (step.kind) {
    case XStep::Kind::kClimb: {
      if constexpr (kInterpreted<Ctx>) {
        // The coupon-clipping variant escapes a finished *leaf* by sampling
        // a fresh random leaf half the time; the other half — and every
        // done interior node — climbs, so once the tree is complete a
        // processor drains to the root in O(height) expected moves (jumping
        // from interior nodes too would make the final exit take Θ(N)
        // expected moves).
        if (k.descent == XDescent::kCoupon && pos >= lay.n_pad && pos != 1) {
          Rng& rng = r.coin(k.config.seed, pid, ctx.slot());
          if (rng.below(2) != 0) {
            const Addr target =
                lay.leaf(static_cast<Addr>(rng.below(lay.n_pad)));
            ctx.write(lay.w(pid), stamped(stamp, static_cast<Word>(target)));
            return true;
          }
        }
      }
      // Move one level up; above the root means the whole tree is finished.
      const Addr up = TreeNav::parent(pos);
      ctx.write(lay.w(pid), stamped(stamp, up == 0 ? lay.exited()
                                                   : static_cast<Word>(up)));
      return true;
    }
    case XStep::Kind::kMark:
      ctx.write(lay.d(pos), stamped(stamp, 1));
      // The root's mark (a padding leaf is never the root).
      if (k.done_flag && pos == 1) ctx.write(*k.done_flag, stamped(stamp, 1));
      return true;
    case XStep::Kind::kVisit:
      if constexpr (kInterpreted<Ctx>) {
        if (k.config.task != nullptr) {
          r.mode = XRegs::Mode::kTask;
          r.task_leaf = pos;
          r.task_k = 0;
          std::fill(r.scratch.begin(), r.scratch.end(), Word{0});
          return true;
        }
      }
      // Plain Write-All: the visit is the assignment x[i] := 1.
      ctx.write(lay.x(pos - lay.n_pad), stamped(stamp, 1));
      return true;
    case XStep::Kind::kGo:
      break;  // to the unfinished side
    case XStep::Kind::kContested:
      next = x_go_right(ctx, k, r, pos) ? TreeNav::right(pos)
                                        : TreeNav::left(pos);
      break;
  }
  ctx.write(lay.w(pid), stamped(stamp, static_cast<Word>(next)));
  return true;
}

// Batch-lane load hint: classifying a lane costs only its w cell
// (sequential, cheap); from the position, prefetch exactly what its cycle
// will read — the d cell, plus the x element (leaf) or the left child
// (interior; the right sibling is the adjacent cell).
inline void x_prefetch(const XParams& k, std::span<const Word> mem, Pid pid) {
  const XLayout& lay = k.layout;
  const Word wv = payload_of(mem[lay.w(pid)], k.config.stamp);
  if (wv == 0 || wv == lay.exited()) return;
  const Addr pos = static_cast<Addr>(wv);
  if (pos < 1 || pos >= 2 * lay.n_pad) return;
  RFSP_PREFETCH(&mem[lay.d(pos)]);
  if (pos < lay.n_pad) {
    RFSP_PREFETCH(&mem[lay.d(TreeNav::left(pos))]);
  } else if (pos - lay.n_pad < lay.n) {
    RFSP_PREFETCH(&mem[lay.x(pos - lay.n_pad)]);
  }
}

// The per-processor state machine. Reusable in embedded contexts (the
// combined algorithm and the simulator): pass the epoch stamp via config
// and an optional done-flag cell written together with the root mark.
// `pid` mirrors Program::boot(pid); see AlgVState.
class AlgXState final : public WordStreamState<AlgXState> {
 public:
  using Descent = XDescent;

  AlgXState(const WriteAllConfig& config, const XLayout& layout, Pid pid,
            std::optional<Addr> done_flag = std::nullopt,
            Descent descent = Descent::kPidBits);

  bool cycle(CycleContext& ctx) override;

  // Back to the registers the constructor sets, in place (Program::reboot);
  // the task scratch keeps its capacity.
  void reboot();

  // Checkpoint support (docs/resilience.md): flat word-stream round-trip,
  // including the private RNG of the randomized descents.
  void save_words(WordWriter& w) const;
  void load_words(WordReader& r);

  // The cycle body's inputs, for embedding states.
  const XParams& params() const { return params_; }
  XRegs& regs() { return regs_; }

 private:
  XParams params_;
  XRegs regs_;
};

// Standalone Write-All program running algorithm X.
class AlgX final
    : public ProgramLifecycle<AlgX, AlgXState, WriteAllProgram> {
 public:
  explicit AlgX(WriteAllConfig config);

  std::string_view name() const override { return "X"; }
  Addr memory_size() const override { return layout_.aux_end(); }
  std::unique_ptr<AlgXState> make_state(Pid pid) const;
  Addr x_base() const override { return layout_.x_base; }

  // X has no global phase structure (every decision is local): a single
  // "descend" phase, so per-phase breakdowns stay comparable across
  // algorithms and the sink still gets one phase event per run.
  std::optional<PhaseSchedule> phase_schedule() const override;

  // Batched backend: x_cycle over LaneContext (writeall/lanes.hpp);
  // nullptr when a TaskSpec is configured (task micro-cycles need the
  // per-op CycleContext).
  std::unique_ptr<BatchKernel> batch_kernels() const override;

  // goal() is the root of the d heap turning non-zero.
  std::optional<GoalCells> goal_cells() const override {
    return GoalCells{layout_.d(1), 1};
  }
  bool goal_cell_done(Addr, Word value) const override {
    return payload_of(value, config_.stamp) != 0;
  }

  const XLayout& layout() const { return layout_; }

 private:
  XLayout layout_;
};

}  // namespace rfsp
