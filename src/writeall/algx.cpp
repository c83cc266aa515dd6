#include "writeall/algx.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

// ---------------------------------------------------------------------------
// XLayout

XLayout::XLayout(Addr x_base_in, Addr aux_base, Addr n_in, Pid p_in)
    : n(n_in), n_pad(ceil_pow2(n_in)), height(ceil_log2(ceil_pow2(n_in))),
      p(p_in), x_base(x_base_in), d_base(aux_base),
      w_base(aux_base + (2 * ceil_pow2(n_in) - 1)) {
  RFSP_CHECK(n >= 1 && p >= 1);
}

// ---------------------------------------------------------------------------
// AlgXState

bool x_task_cycle(CycleContext& ctx, const XParams& k, XRegs& r) {
  const XLayout& lay = k.layout;
  if (r.mode == XRegs::Mode::kTask) {
    // Micro-cycle task_k of the leaf's task. Restart loses this private
    // progress; the task then re-runs from k = 0 (tasks are idempotent).
    k.config.task->run(ctx, lay.first_element(r.task_leaf), r.task_k,
                       r.scratch);
    if (++r.task_k >= k.config.task->cycles_per_task()) {
      r.mode = XRegs::Mode::kTaskDoneMark;
    }
    return true;
  }
  // Publish the element's visited marker; the next navigate cycle will
  // observe it and mark the leaf done in the progress tree.
  ctx.write(lay.x(lay.first_element(r.task_leaf)), stamped(k.config.stamp, 1));
  r.mode = XRegs::Mode::kNavigate;
  return true;
}

AlgXState::AlgXState(const WriteAllConfig& config, const XLayout& layout,
                     Pid /*pid*/, std::optional<Addr> done_flag,
                     Descent descent)
    : params_{config, layout, done_flag, descent} {
  reboot();
}

void AlgXState::reboot() {
  const TaskSpec* task = params_.config.task;
  regs_.mode = XRegs::Mode::kNavigate;
  regs_.task_leaf = 0;
  regs_.task_k = 0;
  regs_.scratch.assign(task != nullptr ? task->scratch_words() : 0, Word{0});
  regs_.rng.reset();
}

void AlgXState::save_words(WordWriter& w) const {
  w.put_u64(static_cast<std::uint64_t>(regs_.mode));
  w.put_u64(regs_.task_leaf);
  w.put_u64(regs_.task_k);
  w.put_span(std::span<const Word>(regs_.scratch));
  w.put_bool(regs_.rng.has_value());
  if (regs_.rng) {
    for (std::uint64_t word : regs_.rng->state()) w.put_u64(word);
  }
}

void AlgXState::load_words(WordReader& r) {
  const std::uint64_t mode = r.get_u64();
  if (mode > static_cast<std::uint64_t>(XRegs::Mode::kTaskDoneMark)) {
    throw ConfigError("invalid X-state mode in a checkpoint stream");
  }
  regs_.mode = static_cast<XRegs::Mode>(mode);
  regs_.task_leaf = static_cast<Addr>(r.get_u64());
  regs_.task_k = static_cast<unsigned>(r.get_u64());
  r.get_vec(regs_.scratch);
  if (r.get_bool()) {
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t& word : s) word = r.get_u64();
    regs_.rng.emplace(std::uint64_t{0});
    regs_.rng->set_state(s);
  } else {
    regs_.rng.reset();
  }
}

bool AlgXState::cycle(CycleContext& ctx) {
  return x_cycle(ctx, params_, regs_);
}

namespace {

// Standalone X on batch lanes: no private registers at all.
struct XLanes {
  using Regs = XLaneRegs;
  using Lane = XLaneRegs;
  XParams params;

  // X has no slot-uniform inputs.
  Slot group(Slot slot) const { return slot; }
  bool cycle(LaneContext& ctx, XLaneRegs& lane, Slot /*slot*/) const {
    return x_cycle(ctx, params, lane);
  }
  void prefetch(std::span<const Word> mem, const XLaneRegs& /*lane*/, Pid pid,
                Slot /*slot*/) const {
    x_prefetch(params, mem, pid);
  }
  AlgXState state(Pid pid) const {
    return AlgXState(params.config, params.layout, pid);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// AlgX

AlgX::AlgX(WriteAllConfig config)
    : ProgramLifecycle(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p) {}

std::unique_ptr<BatchKernel> AlgX::batch_kernels() const {
  if (config_.task != nullptr) return nullptr;
  return std::make_unique<LaneKernel<XLanes>>(XLanes{{config_, layout_}});
}

std::unique_ptr<AlgXState> AlgX::make_state(Pid pid) const {
  return std::make_unique<AlgXState>(config_, layout_, pid);
}

std::optional<PhaseSchedule> AlgX::phase_schedule() const {
  PhaseSchedule schedule;
  schedule.names = {"descend"};
  schedule.phase_of = [](Slot) { return std::uint32_t{0}; };
  return schedule;
}

}  // namespace rfsp
