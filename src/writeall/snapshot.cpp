#include "writeall/snapshot.hpp"

#include "util/error.hpp"

namespace rfsp {

namespace {

class SnapshotState final : public ProcessorState {
 public:
  SnapshotState(const WriteAllConfig& config, Pid pid)
      : config_(config), pid_(pid) {}  // config owned by the booting program

  bool cycle(CycleContext& ctx) override {
    const std::span<const Word> mem = ctx.snapshot();

    // Number the unvisited cells 1..U by position; pick ours on the fly.
    // (Theorem 3.2's proof: processor PID takes the i-th unvisited element
    // with i = ⌈PID·U/N⌉ — a balanced oblivious assignment.)
    Addr u = 0;
    for (Addr i = 0; i < config_.n; ++i) {
      if (payload_of(mem[config_.base + i], config_.stamp) == 0) ++u;
    }
    if (u == 0) return false;  // solved; halt

    const Addr target_rank =
        (static_cast<Addr>(pid_) * u) / static_cast<Addr>(config_.p);
    Addr seen = 0;
    for (Addr i = 0; i < config_.n; ++i) {
      if (payload_of(mem[config_.base + i], config_.stamp) != 0) continue;
      if (seen == target_rank) {
        ctx.write(config_.base + i, stamped(config_.stamp, 1));
        return true;
      }
      ++seen;
    }
    RFSP_CHECK_MSG(false, "target rank < U must exist");
    return false;
  }

  // Stateless between cycles (everything is recomputed from the snapshot),
  // so the checkpoint stream is empty and load_state is a fresh boot.
  bool save_state(std::vector<Word>& out) const override {
    (void)out;
    return true;
  }

 private:
  const WriteAllConfig& config_;
  Pid pid_;
};

}  // namespace

SnapshotWriteAll::SnapshotWriteAll(WriteAllConfig config)
    : WriteAllProgram(config) {
  if (config_.task != nullptr) {
    throw ConfigError("SnapshotWriteAll supports only plain Write-All");
  }
}

std::unique_ptr<ProcessorState> SnapshotWriteAll::boot(Pid pid) const {
  return std::make_unique<SnapshotState>(config_, pid);
}

std::unique_ptr<ProcessorState> SnapshotWriteAll::load_state(
    Pid pid, std::span<const Word> data) const {
  RFSP_CHECK_MSG(data.empty(), "snapshot state stream must be empty");
  return boot(pid);
}

}  // namespace rfsp
