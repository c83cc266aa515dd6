#include "writeall/combined.hpp"

namespace rfsp {

CombinedLayout::CombinedLayout(Addr x_base, Addr aux_base, Addr n, Pid p,
                               unsigned task_cycles, Addr leaf_elems)
    : done(aux_base),
      v(x_base, aux_base + 1, n, p, task_cycles, leaf_elems),
      x(x_base, v.aux_end(), n, p) {}

CombinedState::CombinedState(const WriteAllConfig& config,
                             const CombinedLayout& layout, Pid pid,
                             Slot start_slot)
    : start_slot_(start_slot),
      v_(config, layout.v, pid, layout.done, start_slot, /*clock_stride=*/2),
      x_(config, layout.x, pid, layout.done) {}

void CombinedState::reboot(Slot start_slot) {
  start_slot_ = start_slot;
  v_.reboot(start_slot, /*clock_stride=*/2);
  x_.reboot();
}

bool CombinedState::cycle(CycleContext& ctx) {
  RFSP_CHECK_MSG(ctx.slot() >= start_slot_,
                 "VX state used before its start slot");
  // vx_clock's interleave; V's state runs the stride-2 virtual clock from
  // the same start slot, so its memo gives V's phase.
  const VxClock clock{(ctx.slot() - start_slot_) % 2 != 0,
                      v_.phase(ctx.slot())};
  return vx_cycle(ctx, v_.params(), v_.regs(), v_.scratch(), x_.params(),
                  x_.regs(), clock);
}

void CombinedState::save_words(WordWriter& w) const {
  w.put_u64(start_slot_);
  v_.save_words(w);
  x_.save_words(w);
}

void CombinedState::load_words(WordReader& r) {
  start_slot_ = static_cast<Slot>(r.get_u64());
  v_.load_words(r);
  x_.load_words(r);
}

namespace {

// VX on batch lanes: V's registers (the X half is
// memoryless across cycles).
struct VxLanes {
  using Regs = VRegs;
  using Lane = VLane;
  const CombinedLayout& layout;
  VParams v;
  XParams x;

  VxClock group(Slot slot) const { return vx_clock(layout.v, slot); }
  bool cycle(LaneContext& ctx, VLane& lane, const VxClock& clock) const {
    XLaneRegs x_regs;
    return vx_cycle(ctx, v, lane, {}, x, x_regs, clock);
  }
  void prefetch(std::span<const Word> mem, const VLane& lane, Pid pid,
                const VxClock& clock) const {
    if (clock.x_slot) {
      x_prefetch(x, mem, pid);
    } else {
      v_prefetch(layout.v, mem, lane, clock.v_phi);
    }
  }
  CombinedState state(Pid pid) const {
    return CombinedState(v.config, layout, pid);
  }
};

}  // namespace

CombinedVX::CombinedVX(WriteAllConfig config)
    : ProgramLifecycle(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p,
              config_.task_cycles(), config_.leaf_elems) {}

std::unique_ptr<BatchKernel> CombinedVX::batch_kernels() const {
  if (config_.task != nullptr) return nullptr;
  return std::make_unique<LaneKernel<VxLanes>>(
      VxLanes{layout_, {config_, layout_.v, layout_.done},
              {config_, layout_.x, layout_.done}});
}

std::unique_ptr<CombinedState> CombinedVX::make_state(Pid pid) const {
  return std::make_unique<CombinedState>(config_, layout_, pid);
}

std::optional<PhaseSchedule> CombinedVX::phase_schedule() const {
  PhaseSchedule schedule;
  schedule.names = {"v-alloc", "v-work", "v-update", "x-descend"};
  const Slot iteration = layout_.v.iteration;
  const Slot alloc_end = layout_.v.phase_alloc;
  const Slot work_end = layout_.v.phase_alloc + layout_.v.phase_work;
  schedule.phase_of = [iteration, alloc_end, work_end](Slot slot) {
    if (slot % 2 != 0) return std::uint32_t{3};
    // V's virtual clock runs at stride 2 over the even slots.
    const Slot phi = (slot / 2) % iteration;
    if (phi < alloc_end) return std::uint32_t{0};
    return phi < work_end ? std::uint32_t{1} : std::uint32_t{2};
  };
  return schedule;
}

}  // namespace rfsp
