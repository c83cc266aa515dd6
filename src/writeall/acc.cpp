#include "writeall/acc.hpp"

namespace rfsp {

AccWriteAll::AccWriteAll(WriteAllConfig config)
    : ProgramLifecycle(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p) {}

std::unique_ptr<AlgXState> AccWriteAll::make_state(Pid pid) const {
  return std::make_unique<AlgXState>(config_, layout_, pid, std::nullopt,
                                     AlgXState::Descent::kCoupon);
}

}  // namespace rfsp
