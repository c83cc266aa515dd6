#include "writeall/acc.hpp"

namespace rfsp {

AccWriteAll::AccWriteAll(WriteAllConfig config)
    : WriteAllProgram(config),
      layout_(config_.base, config_.base + config_.n, config_.n, config_.p) {}

std::unique_ptr<ProcessorState> AccWriteAll::boot(Pid pid) const {
  return std::make_unique<AlgXState>(config_, layout_, pid, std::nullopt,
                                     AlgXState::Descent::kCoupon);
}

void AccWriteAll::reboot(std::unique_ptr<ProcessorState>& state,
                         Pid pid) const {
  if (state == nullptr) {
    state = boot(pid);
  } else {
    static_cast<AlgXState&>(*state).reboot();
  }
}

std::unique_ptr<ProcessorState> AccWriteAll::load_state(
    Pid pid, std::span<const Word> data) const {
  auto state = std::make_unique<AlgXState>(config_, layout_, pid, std::nullopt,
                                           AlgXState::Descent::kCoupon);
  WordReader r(data);
  state->load_words(r);
  RFSP_CHECK_MSG(r.exhausted(), "trailing words in an ACC checkpoint state");
  return state;
}

bool AccWriteAll::goal(const SharedMemory& mem) const {
  return payload_of(mem.read(layout_.d(1)), config_.stamp) != 0;
}

}  // namespace rfsp
