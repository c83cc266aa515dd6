#include "writeall/trivial.hpp"

#include "util/error.hpp"

namespace rfsp {

namespace {

void require_plain(const WriteAllConfig& config, const char* who) {
  if (config.task != nullptr) {
    throw ConfigError(std::string(who) +
                      " supports only plain Write-All (no TaskSpec)");
  }
}

}  // namespace

bool StrideState::cycle(CycleContext& ctx) {
  if (next_ >= config_.n) return false;
  ctx.write(config_.base + next_, stamped(config_.stamp, 1));
  next_ += config_.p;  // private stride counter; lost on failure
  return next_ < config_.n;
}

TrivialWriteAll::TrivialWriteAll(WriteAllConfig config)
    : ProgramLifecycle(config) {
  require_plain(config_, "TrivialWriteAll");
}

std::unique_ptr<StrideState> TrivialWriteAll::make_state(Pid pid) const {
  return std::make_unique<StrideState>(config_, pid);
}

SequentialWriteAll::SequentialWriteAll(WriteAllConfig config)
    : ProgramLifecycle(config) {
  require_plain(config_, "SequentialWriteAll");
  if (config_.p != 1) {
    throw ConfigError("SequentialWriteAll runs with exactly one processor");
  }
}

std::unique_ptr<StrideState> SequentialWriteAll::make_state(Pid pid) const {
  return std::make_unique<StrideState>(config_, pid);
}

}  // namespace rfsp
