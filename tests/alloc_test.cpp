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
#include "replay/schedule.hpp"
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
// and the adversary fills the engine's decision buffers
// (MachineView::blank_decision), which keep their capacity across slots. A
// restart-heavy interpreter run then allocates only when a list outgrows
// every earlier one, however many slots and restarts it has.
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
  EXPECT_LT(allocations, 200u)
      << allocations << " allocations for " << run.tally.restarts
      << " restarts over " << run.tally.slots << " slots";
}

// The Theorem 4.1 executor keeps one compute-pass and one commit-pass
// machine per processor; a restart or a pass change reboots them in place,
// and a step's replay keeps its stores in the compute task's flat overlay.
// This is rfsp-bench's sim-executor prefix-sum instance at seed 1; every
// allocation inside Engine::run counts, RandomAdversary::decide's included.
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
  RandomAdversary adversary(1 ^ 0xadde,
                            {.fail_prob = 0.05, .restart_prob = 0.5});
  const std::uint64_t before = g_allocations.load();
  const RunResult run = engine.run(adversary);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(run.goal_met);
  EXPECT_GT(run.tally.restarts, 10000u);
  EXPECT_LT(allocations, 500u)
      << allocations << " allocations for " << run.tally.restarts
      << " restarts over " << run.tally.slots << " slots";
}

// An off-line replay (writeall_cli --pattern-in) decides from the engine's
// decision buffers and one P-byte mark mask kept across slots, and a slot
// with no schedule entry due touches neither; the replay of an on-line
// recording then allocates a bounded number of times, not once per slot.
TEST(RestartAllocations, ScheduledReplayDoesNotAllocatePerSlot) {
  const AlgX program({.n = 1024, .p = 128, .seed = 2});
  FaultSchedule schedule;
  RandomAdversary random(2, {.fail_prob = 0.15});
  RecordingAdversary recorder(random, schedule);
  const RunResult recorded = Engine(program).run(recorder);
  ASSERT_TRUE(recorded.goal_met);

  ScheduledAdversary adversary(schedule);
  Engine engine(program);
  const std::uint64_t before = g_allocations.load();
  const RunResult run = engine.run(adversary);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(run.goal_met);
  EXPECT_EQ(run.tally, recorded.tally);
  EXPECT_EQ(adversary.skipped(), 0u);
  EXPECT_GT(run.tally.slots, 250u);
  EXPECT_LT(allocations, 100u)
      << allocations << " allocations over " << run.tally.slots << " slots";
}

}  // namespace
}  // namespace rfsp
