// The combining interconnection network (§2.3): routing correctness,
// combining semantics, and the hot-spot behaviour that justifies assuming
// unit-cost concurrent access.
#include <gtest/gtest.h>

#include <utility>

#include "network/combining.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rfsp {
namespace {

TEST(Network, SinglePacketLatencyIsStageCount) {
  CombiningNetwork net({.ports = 16}, 64);
  const MemRequest req{.pid = 3, .addr = 10, .write = false};
  const BatchResult r = net.route({&req, 1});
  EXPECT_EQ(r.ticks, net.stages());
  EXPECT_EQ(r.delivered, 1u);
  ASSERT_TRUE(r.read_results[0].has_value());
  EXPECT_EQ(*r.read_results[0], 0);
}

TEST(Network, WritesLandAndReadsSeeThem) {
  CombiningNetwork net({.ports = 8}, 32);
  const MemRequest write{.pid = 0, .addr = 5, .write = true, .value = 42};
  net.route({&write, 1});
  EXPECT_EQ(net.memory(5), 42);

  const MemRequest read{.pid = 1, .addr = 5, .write = false};
  const BatchResult r = net.route({&read, 1});
  EXPECT_EQ(*r.read_results[0], 42);
}

TEST(Network, BatchReadsObserveBatchStartMemory) {
  // Synchronous PRAM semantics: a read and a write to one cell in the same
  // batch — the read returns the pre-batch value.
  CombiningNetwork net({.ports = 4}, 16);
  const MemRequest seed{.pid = 0, .addr = 7, .write = true, .value = 1};
  net.route({&seed, 1});

  const MemRequest batch[] = {
      {.pid = 0, .addr = 7, .write = true, .value = 9},
      {.pid = 1, .addr = 7, .write = false},
  };
  const BatchResult r = net.route(batch);
  EXPECT_EQ(*r.read_results[1], 1);  // pre-batch value
  EXPECT_EQ(net.memory(7), 9);      // the write landed afterwards
}

TEST(Network, AllDistinctModulesRouteWithoutConflict) {
  // A permutation batch (one packet per module) drains in ~stage time.
  constexpr unsigned kPorts = 16;
  CombiningNetwork net({.ports = kPorts}, kPorts);
  std::vector<MemRequest> batch;
  for (Pid pid = 0; pid < kPorts; ++pid) {
    batch.push_back({.pid = pid, .addr = pid, .write = true,
                     .value = static_cast<Word>(100 + pid)});
  }
  const BatchResult r = net.route(batch);
  EXPECT_EQ(r.delivered, kPorts);
  for (Addr a = 0; a < kPorts; ++a) {
    EXPECT_EQ(net.memory(a), static_cast<Word>(100 + a));
  }
  // The identity permutation is congestion-prone on an Omega network but
  // still bounded well below serialization.
  EXPECT_LE(r.ticks, 3u * net.stages());
}

TEST(Network, HotSpotCombinesIntoLogarithmicLatency) {
  constexpr unsigned kPorts = 64;
  CombiningNetwork net({.ports = kPorts, .combining = true}, 16);
  std::vector<MemRequest> batch;
  for (Pid pid = 0; pid < kPorts; ++pid) {
    batch.push_back({.pid = pid, .addr = 3, .write = false});
  }
  const BatchResult r = net.route(batch);
  EXPECT_EQ(r.merges + r.delivered, kPorts);  // everyone was answered
  for (const auto& v : r.read_results) ASSERT_TRUE(v.has_value());
  // Combining collapses the hot spot: latency stays near the pipe depth.
  EXPECT_LE(r.ticks, 3u * net.stages());
  EXPECT_GE(r.merges, kPorts / 2);  // massive combining happened
}

TEST(Network, HotSpotWithoutCombiningSerializes) {
  constexpr unsigned kPorts = 64;
  CombiningNetwork with({.ports = kPorts, .combining = true}, 16);
  CombiningNetwork without({.ports = kPorts, .combining = false}, 16);
  std::vector<MemRequest> batch;
  for (Pid pid = 0; pid < kPorts; ++pid) {
    batch.push_back({.pid = pid, .addr = 3, .write = false});
  }
  const BatchResult fast = with.route(batch);
  const BatchResult slow = without.route(batch);
  EXPECT_EQ(slow.delivered, kPorts);
  EXPECT_EQ(slow.merges, 0u);
  // Tree saturation: Θ(P) vs Θ(log P).
  EXPECT_GE(slow.ticks, kPorts / 4);
  EXPECT_GE(slow.ticks, 4 * fast.ticks);
  EXPECT_GT(slow.max_queue, fast.max_queue);
}

TEST(Network, CommonWritesCombine) {
  constexpr unsigned kPorts = 16;
  CombiningNetwork net({.ports = kPorts}, 8);
  std::vector<MemRequest> batch;
  for (Pid pid = 0; pid < kPorts; ++pid) {
    batch.push_back({.pid = pid, .addr = 2, .write = true, .value = 7});
  }
  const BatchResult r = net.route(batch);
  EXPECT_EQ(net.memory(2), 7);
  EXPECT_GE(r.merges, kPorts / 2);  // COMMON writes merge like reads
  EXPECT_LE(r.ticks, 3u * net.stages());
}

TEST(Network, NonCommonWritesSerializeInsteadOfMerging) {
  CombiningNetwork net({.ports = 4}, 8);
  const MemRequest batch[] = {
      {.pid = 0, .addr = 2, .write = true, .value = 1},
      {.pid = 2, .addr = 2, .write = true, .value = 2},
  };
  const BatchResult r = net.route(batch);
  EXPECT_EQ(r.merges, 0u);
  EXPECT_EQ(r.delivered, 2u);  // both land (in network arrival order)
}

TEST(Network, RandomBatchesMatchDirectMemorySemantics) {
  // Property: for any batch, read results equal the pre-batch memory and
  // post-batch memory equals pre-batch overwritten by the batch's writes
  // (COMMON batches only), independent of combining.
  Rng rng(55);
  for (const bool combining : {true, false}) {
    CombiningNetwork net({.ports = 32, .combining = combining}, 64);
    std::vector<Word> shadow(64, 0);
    for (int round = 0; round < 50; ++round) {
      std::vector<MemRequest> batch;
      std::vector<std::pair<Addr, Word>> writes;
      for (Pid pid = 0; pid < 32; ++pid) {
        if (rng.chance(0.3)) continue;  // idle port
        const Addr addr = static_cast<Addr>(rng.below(64));
        if (rng.chance(0.4)) {
          // COMMON-safe write: the value is a function of the cell.
          const Word value = static_cast<Word>(addr * 3 + round);
          batch.push_back(
              {.pid = pid, .addr = addr, .write = true, .value = value});
          writes.emplace_back(addr, value);
        } else {
          batch.push_back({.pid = pid, .addr = addr, .write = false});
        }
      }
      const BatchResult r = net.route(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].write) {
          EXPECT_FALSE(r.read_results[i].has_value());
        } else {
          ASSERT_TRUE(r.read_results[i].has_value());
          EXPECT_EQ(*r.read_results[i], shadow[batch[i].addr])
              << "combining=" << combining << " round=" << round;
        }
      }
      for (const auto& [addr, value] : writes) shadow[addr] = value;
      for (Addr a = 0; a < 64; ++a) {
        ASSERT_EQ(net.memory(a), shadow[a])
            << "combining=" << combining << " round=" << round;
      }
    }
  }
}

TEST(Network, RandomPermutationsRoute) {
  Rng rng(77);
  constexpr unsigned kPorts = 64;
  for (int round = 0; round < 20; ++round) {
    CombiningNetwork net({.ports = kPorts}, kPorts);
    // Random permutation of modules.
    std::vector<Addr> dest(kPorts);
    for (Addr i = 0; i < kPorts; ++i) dest[i] = i;
    for (Addr i = kPorts; i-- > 1;) {
      std::swap(dest[i], dest[rng.below(i + 1)]);
    }
    std::vector<MemRequest> batch;
    for (Pid pid = 0; pid < kPorts; ++pid) {
      batch.push_back({.pid = pid, .addr = dest[pid], .write = true,
                       .value = static_cast<Word>(pid + 1)});
    }
    const BatchResult r = net.route(batch);
    EXPECT_EQ(r.delivered + r.merges, kPorts);
    for (Pid pid = 0; pid < kPorts; ++pid) {
      EXPECT_EQ(net.memory(dest[pid]), static_cast<Word>(pid + 1));
    }
  }
}

TEST(Network, Validation) {
  CombiningNetwork net({.ports = 4}, 8);
  std::vector<MemRequest> too_many(5, MemRequest{});
  EXPECT_THROW((void)net.route(too_many), std::logic_error);
  const MemRequest oob{.pid = 0, .addr = 8, .write = false};
  EXPECT_THROW((void)net.route({&oob, 1}), std::logic_error);
}

}  // namespace
}  // namespace rfsp
