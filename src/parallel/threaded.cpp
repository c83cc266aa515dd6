#include "parallel/threaded.hpp"

#include <chrono>
#include <functional>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "writeall/algx.hpp"

namespace rfsp {

AtomicMemory::AtomicMemory(Addr size) : cells_(size) {
  RFSP_CHECK(size > 0);
  for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
}

Word AtomicMemory::load(Addr a) const {
  RFSP_CHECK(a < cells_.size());
  return cells_[a].load(std::memory_order_seq_cst);
}

void AtomicMemory::store(Addr a, Word v) {
  RFSP_CHECK(a < cells_.size());
  cells_[a].store(v, std::memory_order_seq_cst);
}

namespace {

// The cycle context of one worker (writeall/lanes.hpp): the single-source
// x_cycle body runs against atomic memory, with the worker's own loop
// count as its clock.
class AtomicContext {
 public:
  AtomicContext(AtomicMemory& mem, Pid pid) : mem_(mem), pid_(pid) {}

  Word read(Addr a) const { return mem_.load(a); }
  void write(Addr a, Word v) { mem_.store(a, v); }
  Slot slot() const { return slot_; }
  Pid pid() const { return pid_; }
  void tick() { ++slot_; }

 private:
  AtomicMemory& mem_;
  Pid pid_;
  Slot slot_ = 0;
};

// One worker's run loop: the Figure 5 iteration against atomic memory.
// `kill` is the injector's flag; observing it costs the worker its private
// registers, after which it recovers from the stable w[] cell —
// restart-at-recovery-action per [SS 83].
void run_worker(const XParams& params, AtomicContext ctx,
                std::atomic<bool>& kill, std::uint64_t& iters,
                std::uint64_t& failures) {
  XRegs regs;
  for (;;) {
    if (kill.exchange(false)) {
      ++failures;
      regs = XRegs{};
    }
    ctx.tick();
    if (!x_cycle(ctx, params, regs)) break;
  }
  iters = ctx.slot();
}

}  // namespace

ThreadedResult run_threaded_writeall(const ThreadedOptions& options) {
  if (options.workers < 1) throw ConfigError("need at least one worker");
  if (options.n < 1) throw ConfigError("need a non-empty instance");
  if (options.workers > options.n) {
    throw ConfigError("algorithm X requires P <= N");
  }

  const XLayout layout(0, options.n, options.n,
                       static_cast<Pid>(options.workers));
  const WriteAllConfig config{.n = options.n,
                              .p = static_cast<Pid>(options.workers),
                              .seed = options.seed};
  const XParams params{config, layout, std::nullopt};
  AtomicMemory mem(layout.aux_end() + 1);

  // Per-worker counters: written only by the owning thread; join() below
  // provides the happens-before edge for the readers.
  std::vector<std::uint64_t> iters(options.workers, 0);
  std::vector<std::uint64_t> failures(options.workers, 0);
  std::vector<std::atomic<bool>> kill(options.workers);
  for (auto& k : kill) k.store(false);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options.workers);
  for (unsigned w = 0; w < options.workers; ++w) {
    threads.emplace_back(
        run_worker, std::cref(params),
        AtomicContext(mem, static_cast<Pid>(w)),
        std::ref(kill[w]), std::ref(iters[w]), std::ref(failures[w]));
  }

  // Failure injector: while the tree is unfinished, flip worker kill flags
  // at a rate calibrated to options.failures_per_worker.
  if (options.failures_per_worker > 0) {
    Rng rng(mix64(options.seed, 0xfa11, 0x1e57));
    while (mem.load(layout.d(1)) == 0) {
      const std::uint64_t w = rng.below(options.workers);
      kill[w].store(true);  // counted by the worker when observed
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(50 / options.failures_per_worker + 1)));
    }
  }

  for (auto& t : threads) t.join();
  const auto stop = std::chrono::steady_clock::now();

  ThreadedResult result;
  result.solved = true;
  for (Addr i = 0; i < options.n; ++i) {
    if (mem.load(layout.x(i)) == 0) {
      result.solved = false;
      break;
    }
  }
  result.worker_iterations = std::move(iters);
  result.worker_failures = std::move(failures);
  for (const std::uint64_t it : result.worker_iterations) {
    result.loop_iterations += it;
  }
  for (const std::uint64_t f : result.worker_failures) {
    result.injected_failures += f;
  }
  result.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace rfsp
