// Heap allocations inside Engine::run, counted by a replacement global
// operator new that forwards to malloc. It lives in a test binary of its
// own because the replacement applies to the whole program it is linked
// into.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "fault/adversaries.hpp"
#include "fault/stalkers.hpp"
#include "pram/engine.hpp"
#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "writeall/algx.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_malloc_or_throw(std::size_t size) {
  if (void* block = counted_malloc(size)) return block;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so no block is allocated by one allocator and
// freed by another (the standard library's temporary buffers use the
// nothrow form; sanitizer runtimes intercept the forms left unreplaced).
void* operator new(std::size_t size) { return counted_malloc_or_throw(size); }
void* operator new[](std::size_t size) {
  return counted_malloc_or_throw(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace rfsp {
namespace {

// Restarts reboot the failed processor's state in place (Program::reboot),
// so a restart-heavy interpreter run allocates per slot (the adversary's
// FaultDecision), not per restart.
TEST(RestartAllocations, PostOrderStalkerRestartsDoNotAllocate) {
  const AlgX program({.n = 512, .p = 512});
  PostOrderStalker adversary(program.layout());
  Engine engine(program);
  ASSERT_FALSE(engine.batch_active());
  const std::uint64_t before = g_allocations.load();
  const RunResult run = engine.run(adversary);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(run.goal_met);
  EXPECT_GT(run.tally.restarts, 100000u);
  EXPECT_LT(4 * allocations, run.tally.restarts)
      << allocations << " allocations for " << run.tally.restarts
      << " restarts over " << run.tally.slots << " slots";
}

// Forwards to `inner` and counts the allocations made inside its decide
// calls (the FaultDecision vectors), so a test can bound the rest.
class DecideAllocationCounter final : public Adversary {
 public:
  explicit DecideAllocationCounter(Adversary& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  FaultDecision decide(const MachineView& view) override {
    const std::uint64_t before = g_allocations.load();
    FaultDecision d = inner_.decide(view);
    inside_ += g_allocations.load() - before;
    return d;
  }
  bool inspects_cycles() const override { return inner_.inspects_cycles(); }

  std::uint64_t inside() const { return inside_; }

 private:
  Adversary& inner_;
  std::uint64_t inside_ = 0;
};

// The Theorem 4.1 executor keeps one compute-pass and one commit-pass
// machine per processor; a restart or a pass change reboots them in place.
// This is rfsp-bench's sim-executor prefix-sum instance at seed 1.
TEST(RestartAllocations, SimExecutorRestartsDoNotAllocate) {
  Rng values(1);
  std::vector<Word> input(256);
  for (Word& v : input) v = static_cast<Word>(values.below(1000));
  const PrefixSumProgram sim(std::move(input));
  const SimLayout layout(sim, 33);
  const auto program =
      make_simulation_program(sim, layout, SimInner::kCombinedVX);
  EngineOptions options;
  options.read_budget = 5;  // the executor's update cycle, as simulate() sets
  Engine engine(*program, options);
  RandomAdversary random(1 ^ 0xadde,
                         {.fail_prob = 0.05, .restart_prob = 0.5});
  DecideAllocationCounter adversary(random);
  const std::uint64_t before = g_allocations.load();
  const RunResult run = engine.run(adversary);
  const std::uint64_t outside =
      g_allocations.load() - before - adversary.inside();
  ASSERT_TRUE(run.goal_met);
  EXPECT_GT(run.tally.restarts, 10000u);
  EXPECT_LT(outside, run.tally.restarts)
      << outside << " allocations outside decide for " << run.tally.restarts
      << " restarts over " << run.tally.slots << " slots";
}

}  // namespace
}  // namespace rfsp
