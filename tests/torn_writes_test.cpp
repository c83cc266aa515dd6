// Bit-atomic writes (§2.1's relaxed assumption): a torn word write commits
// its earlier writes whole and the low bits of the torn one, and can leave
// a cell holding a value that no processor wrote.
#include <gtest/gtest.h>

#include "pram/engine.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace rfsp {
namespace {

using testing::LambdaAdversary;
using testing::LambdaProgram;

TEST(TornWrites, RequireBitAtomicMode) {
  LambdaProgram program(2, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 0xff);
    return true;
  });
  LambdaAdversary adversary([](const MachineView&) {
    FaultDecision d;
    d.torn.push_back({1, 0, 4});
    return d;
  });
  Engine engine(program);  // bit_atomic_writes off
  EXPECT_THROW(engine.run(adversary), AdversaryViolation);
}

TEST(TornWrites, PartialCommitBitArithmetic) {
  // One processor writes 0b1111'1111 over 0b0000'0000 and is torn after
  // 4 bits: the cell must read 0b0000'1111. A second write (index 1) is
  // discarded entirely.
  LambdaProgram program(
      2, 8,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        if (pid == 1) {
          ctx.write(0, 0xff);
          ctx.write(1, 0x77);
        }
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) == 0x0f; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) d.torn.push_back({1, 0, 4});
    return d;
  });
  EngineOptions options;
  options.bit_atomic_writes = true;
  Engine engine(program, options);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(engine.memory().read(0), 0x0f);  // low 4 bits landed
  EXPECT_EQ(engine.memory().read(1), 0x00);  // later write lost
  EXPECT_EQ(result.tally.failures, 1u);
  EXPECT_EQ(result.tally.completed_work, 1u);  // only processor 0's cycle
}

TEST(TornWrites, EarlierWritesCommitWhole) {
  LambdaProgram program(
      2, 8,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        if (pid == 1) {
          ctx.write(0, 0xabc);
          ctx.write(1, 0xff);
        }
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) == 0xabc; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 0) d.torn.push_back({1, 1, 2});  // tear write #1
    return d;
  });
  EngineOptions options;
  options.bit_atomic_writes = true;
  Engine engine(program, options);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);
  EXPECT_EQ(engine.memory().read(0), 0xabc);  // write #0 intact
  EXPECT_EQ(engine.memory().read(1), 0x03);   // low 2 bits of 0xff
}

TEST(TornWrites, ValidationRejectsBadTears) {
  LambdaProgram program(2, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 1);
    return true;
  });
  EngineOptions options;
  options.bit_atomic_writes = true;
  {
    LambdaAdversary adversary([](const MachineView&) {
      FaultDecision d;
      d.torn.push_back({1, 5, 4});  // index beyond the single write
      return d;
    });
    Engine engine(program, options);
    EXPECT_THROW(engine.run(adversary), AdversaryViolation);
  }
  {
    LambdaAdversary adversary([](const MachineView&) {
      FaultDecision d;
      d.torn.push_back({1, 0, 64});  // keep_bits out of range
      return d;
    });
    Engine engine(program, options);
    EXPECT_THROW(engine.run(adversary), AdversaryViolation);
  }
}

TEST(TornWrites, NaiveCellCanBeCorrupted) {
  // The cell holds 0b0111 (written at slot 0); processor 1 overwrites it
  // with 0b1000 and is torn after the lowest bit: the cell becomes 0b0110
  // — a value nobody ever wrote.
  LambdaProgram program(
      2, 4,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        if (pid == 0 && ctx.read(0) == 0) {
          ctx.write(0, 0b0111);  // seed
        } else if (pid == 1 && ctx.read(0) == 0b0111) {
          ctx.write(0, 0b1000);
        }
        return true;
      },
      [](const SharedMemory& mem) { return mem.read(0) == 0b0110; });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 1) d.torn.push_back({1, 0, 1});
    return d;
  });
  EngineOptions options;
  options.bit_atomic_writes = true;
  Engine engine(program, options);
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.goal_met);  // the corrupt hybrid value appeared
  EXPECT_EQ(engine.memory().read(0), 0b0110);
}

}  // namespace
}  // namespace rfsp
