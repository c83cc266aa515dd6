#include "writeall/algw.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// WLayout

WLayout::WLayout(Addr x_base, Addr aux_base, Addr n, Pid p)
    : progress(x_base, aux_base, n, p, /*task_cycles=*/0),
      p_pad(static_cast<Pid>(ceil_pow2(p))),
      p_depth(ceil_log2(ceil_pow2(p))),
      cnt_base(progress.aux_end()) {
  phase_count = 1 + static_cast<Slot>(p_depth) + 1;
  iteration = phase_count + progress.phase_alloc + progress.phase_work +
              progress.phase_update;
}

namespace {

// --- The cycle body (single source; see writeall/lanes.hpp) ----------------

// Phase 1, step j: enumerate the live processors bottom-up through the
// counting tree, stamped with the 1-based iteration number `iter` so stale
// cells read as zero without any clearing work.
template <class Ctx, class R>
bool w_count(Ctx& ctx, const WLayout& lay, R& r, Slot j, Word iter) {
  const Pid pid = ctx.pid();
  if (j == 0) {
    // Present ourselves in the counting tree.
    ctx.write(lay.cnt(lay.cnt_leaf(pid)), stamped(iter, 1));
    return true;
  }
  if (j <= lay.p_depth) {
    // Climb level j: combine children counts at our depth-(p_depth - j)
    // ancestor; accumulate our rank from left siblings we pass.
    const Addr my_prev =
        TreeNav::ancestor(lay.cnt_leaf(pid), static_cast<unsigned>(j - 1));
    const Addr v = TreeNav::parent(my_prev);
    const Word cl = payload_of(ctx.read(lay.cnt(TreeNav::left(v))), iter);
    const Word cr = payload_of(ctx.read(lay.cnt(TreeNav::right(v))), iter);
    ctx.write(lay.cnt(v), stamped(iter, cl + cr));
    if (my_prev % 2 == 1) r.rank += static_cast<Pid>(cl);
    return true;
  }
  // Final counting cycle: learn the live total.
  r.live = static_cast<Pid>(payload_of(ctx.read(lay.cnt(1)), iter));
  RFSP_CHECK_MSG(r.live >= 1, "counting tree lost the current processor");
  r.lo = 0;
  r.hi = r.live;
  return true;
}

// One W update cycle at position `phi` of iteration `iter` (1-based).
// Phases 2-4 are V's alloc / work / update on the progress tree, with the
// allocation split by *rank* within the enumerated-live interval: this is
// the accuracy W gains from phase 1 — and loses under restarts.
template <class Ctx, class R>
bool w_cycle(Ctx& ctx, const WLayout& lay, const VParams& progress, R& r,
             Slot phi, Word iter) {
  if (const auto waited = v_wait(ctx, progress, r, phi, lay.iteration)) {
    return *waited;
  }
  if (phi == 0) {
    r.rank = 0;
    r.live = 0;
    r.node = 1;
    r.leaf = 0;
  }
  if (phi < lay.phase_count) return w_count(ctx, lay, r, phi, iter);
  return v_progress(ctx, progress, r, phi - lay.phase_count, r.rank, {});
}

struct WClock {
  Slot phi;
  Word iter;
};

WClock w_clock(const WLayout& lay, Slot slot) {
  return {slot % lay.iteration, static_cast<Word>(slot / lay.iteration) + 1};
}

}  // namespace

// ---------------------------------------------------------------------------
// AlgWState

AlgWState::AlgWState(const WriteAllConfig& config, const WLayout& layout,
                     Pid /*pid*/)
    : config_(config), layout_(layout) {}

void AlgWState::save_words(WordWriter& w) const {
  w.put_bool(regs_.waiting);
  w.put_u64(regs_.rank);
  w.put_u64(regs_.live);
  w.put_u64(regs_.node);
  w.put_u64(regs_.lo);
  w.put_u64(regs_.hi);
  w.put_u64(regs_.leaf);
}

void AlgWState::load_words(WordReader& r) {
  regs_.waiting = r.get_bool();
  regs_.rank = static_cast<Pid>(r.get_u64());
  regs_.live = static_cast<Pid>(r.get_u64());
  regs_.node = static_cast<Addr>(r.get_u64());
  regs_.lo = static_cast<Pid>(r.get_u64());
  regs_.hi = static_cast<Pid>(r.get_u64());
  regs_.leaf = static_cast<Addr>(r.get_u64());
}

bool AlgWState::cycle(CycleContext& ctx) {
  const WClock clock = w_clock(layout_, ctx.slot());
  return w_cycle(ctx, layout_, VParams{config_, layout_.progress, std::nullopt},
                 regs_, clock.phi, clock.iter);
}

namespace {

struct WLanes {
  using Regs = WRegs;
  using Lane = WLane;
  const WriteAllConfig& config;
  const WLayout& layout;

  WClock group(Slot slot) const { return w_clock(layout, slot); }
  bool cycle(LaneContext& ctx, WLane& lane, const WClock& clock) const {
    return w_cycle(ctx, layout, VParams{config, layout.progress, std::nullopt},
                   lane, clock.phi, clock.iter);
  }
  void prefetch(std::span<const Word> mem, const WLane& lane, Pid /*pid*/,
                const WClock& clock) const {
    if (clock.phi < layout.phase_count) return;
    v_prefetch(layout.progress, mem, lane, clock.phi - layout.phase_count);
  }
  AlgWState state(Pid pid) const { return AlgWState(config, layout, pid); }
};

}  // namespace

// ---------------------------------------------------------------------------
// AlgW

AlgW::AlgW(WriteAllConfig config)
    : ProgramLifecycle(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p) {
  if (config_.task != nullptr || config_.stamp != 0) {
    throw ConfigError(
        "AlgW is a standalone baseline: no TaskSpec, no epoch stamping");
  }
}

std::unique_ptr<BatchKernel> AlgW::batch_kernels() const {
  return std::make_unique<LaneKernel<WLanes>>(WLanes{config_, layout_});
}

std::unique_ptr<AlgWState> AlgW::make_state(Pid pid) const {
  return std::make_unique<AlgWState>(config_, layout_, pid);
}

std::optional<PhaseSchedule> AlgW::phase_schedule() const {
  PhaseSchedule schedule;
  schedule.names = {"count", "alloc", "work", "update"};
  const Slot iteration = layout_.iteration;
  const Slot count_end = layout_.phase_count;
  const Slot alloc_end = count_end + layout_.progress.phase_alloc;
  const Slot work_end = alloc_end + layout_.progress.phase_work;
  schedule.phase_of = [iteration, count_end, alloc_end, work_end](Slot slot) {
    const Slot phi = slot % iteration;
    if (phi < count_end) return std::uint32_t{0};
    if (phi < alloc_end) return std::uint32_t{1};
    return phi < work_end ? std::uint32_t{2} : std::uint32_t{3};
  };
  return schedule;
}

}  // namespace rfsp
