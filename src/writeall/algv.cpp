#include "writeall/algv.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// VLayout

VLayout::VLayout(Addr x_base_in, Addr aux_base, Addr n_in, Pid p_in,
                 unsigned task_cycles, Addr leaf_elems_override)
    : n(n_in), p(p_in) {
  RFSP_CHECK(n >= 1 && p >= 1);
  // B ≈ log2 N elements per leaf ("there are log N array elements per
  // leaf"), unless the caller overrides it for ablation. B is clamped to N
  // (a leaf cannot usefully cover more than the whole array). Note the
  // trade-off the override exposes: the iteration length grows with B, and
  // V only records progress when a processor survives a whole iteration —
  // oversized leaves make V unsurvivable under per-slot failure rates.
  elems_per_leaf =
      leaf_elems_override != 0
          ? std::min<Addr>(leaf_elems_override, n)
          : std::max<Addr>(1, floor_log2(std::max<Addr>(n, 2)));
  leaves_real = ceil_div(n, elems_per_leaf);
  leaves = ceil_pow2(leaves_real);
  depth = ceil_log2(leaves);
  x_base = x_base_in;
  c_base = aux_base;
  phase_alloc = depth;
  phase_work = elems_per_leaf * (static_cast<Slot>(task_cycles) + 1);
  phase_update = static_cast<Slot>(depth) + 1;
  iteration = phase_alloc + phase_work + phase_update;
}

// ---------------------------------------------------------------------------
// AlgVState

AlgVState::AlgVState(const WriteAllConfig& config, const VLayout& layout,
                     Pid /*pid*/, std::optional<Addr> done_flag,
                     Slot start_slot, Slot clock_stride)
    : params_{config, layout, done_flag} {
  reboot(start_slot, clock_stride);
}

void AlgVState::reboot(Slot start_slot, Slot clock_stride) {
  RFSP_CHECK(clock_stride >= 1);
  const TaskSpec* task = params_.config.task;
  start_slot_ = start_slot;
  stride_ = clock_stride;
  regs_ = VRegs{};
  scratch_.assign(task != nullptr ? task->scratch_words() : 0, Word{0});
  clock_.forget();
}

void AlgVState::save_words(WordWriter& w) const {
  // start_slot_/stride_ are constructor parameters, but a loader may have
  // built this state with defaults (e.g. CombinedState reloading a state
  // whose interleave began mid-run) — carrying them makes the stream
  // self-contained.
  w.put_u64(start_slot_);
  w.put_u64(stride_);
  w.put_bool(regs_.waiting);
  w.put_u64(regs_.node);
  w.put_u64(regs_.lo);
  w.put_u64(regs_.hi);
  w.put_u64(regs_.leaf);
  w.put_span(std::span<const Word>(scratch_));
}

void AlgVState::load_words(WordReader& r) {
  start_slot_ = static_cast<Slot>(r.get_u64());
  stride_ = static_cast<Slot>(r.get_u64());
  regs_.waiting = r.get_bool();
  regs_.node = static_cast<Addr>(r.get_u64());
  regs_.lo = static_cast<Pid>(r.get_u64());
  regs_.hi = static_cast<Pid>(r.get_u64());
  regs_.leaf = static_cast<Addr>(r.get_u64());
  r.get_vec(scratch_);
  clock_.forget();
}

bool AlgVState::cycle(CycleContext& ctx) {
  RFSP_CHECK_MSG(ctx.slot() >= start_slot_,
                 "V state used before its start slot");
  return v_cycle(ctx, params_, regs_, phase(ctx.slot()), scratch_);
}

namespace {

// Standalone V on batch lanes (stride-1 clock, no done flag).
struct VLanes {
  using Regs = VRegs;
  using Lane = VLane;
  VParams params;

  Slot group(Slot slot) const { return slot % params.layout.iteration; }
  bool cycle(LaneContext& ctx, VLane& lane, Slot phi) const {
    return v_cycle(ctx, params, lane, phi, {});
  }
  void prefetch(std::span<const Word> mem, const VLane& lane, Pid /*pid*/,
                Slot phi) const {
    v_prefetch(params.layout, mem, lane, phi);
  }
  AlgVState state(Pid pid) const {
    return AlgVState(params.config, params.layout, pid);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// AlgV

AlgV::AlgV(WriteAllConfig config)
    : ProgramLifecycle(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p,
              config_.task_cycles(), config_.leaf_elems) {}

std::unique_ptr<AlgVState> AlgV::make_state(Pid pid) const {
  return std::make_unique<AlgVState>(config_, layout_, pid);
}

std::unique_ptr<BatchKernel> AlgV::batch_kernels() const {
  if (config_.task != nullptr) return nullptr;
  return std::make_unique<LaneKernel<VLanes>>(
      VLanes{{config_, layout_, std::nullopt}});
}

std::optional<PhaseSchedule> AlgV::phase_schedule() const {
  PhaseSchedule schedule;
  schedule.names = {"alloc", "work", "update"};
  const Slot iteration = layout_.iteration;
  const Slot alloc_end = layout_.phase_alloc;
  const Slot work_end = layout_.phase_alloc + layout_.phase_work;
  schedule.phase_of = [iteration, alloc_end, work_end](Slot slot) {
    const Slot phi = slot % iteration;
    if (phi < alloc_end) return std::uint32_t{0};
    return phi < work_end ? std::uint32_t{1} : std::uint32_t{2};
  };
  return schedule;
}

}  // namespace rfsp
