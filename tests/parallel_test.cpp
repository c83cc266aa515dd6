// The threaded runtime: algorithm X under genuine asynchrony (OS threads,
// atomic shared words) with and without injected restart failures.
#include <gtest/gtest.h>

#include "parallel/threaded.hpp"
#include "util/error.hpp"

namespace rfsp {
namespace {

TEST(AtomicMemory, LoadStore) {
  AtomicMemory mem(8);
  EXPECT_EQ(mem.load(3), 0);
  mem.store(3, 42);
  EXPECT_EQ(mem.load(3), 42);
  EXPECT_THROW((void)mem.load(8), std::logic_error);
}

TEST(Threaded, SingleWorkerSolves) {
  const ThreadedResult r =
      run_threaded_writeall({.n = 512, .workers = 1, .seed = 3});
  EXPECT_TRUE(r.solved);
  EXPECT_GE(r.loop_iterations, 512u);
}

TEST(Threaded, ManyWorkersSolve) {
  for (unsigned workers : {2u, 4u, 8u}) {
    const ThreadedResult r = run_threaded_writeall(
        {.n = 2048, .workers = workers, .seed = workers});
    EXPECT_TRUE(r.solved) << "workers=" << workers;
  }
}

TEST(Threaded, SurvivesInjectedRestarts) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ThreadedResult r = run_threaded_writeall({.n = 4096,
                                                    .workers = 4,
                                                    .seed = seed,
                                                    .failures_per_worker = 3.0});
    EXPECT_TRUE(r.solved) << "seed=" << seed;
  }
}

TEST(Threaded, NonPowerOfTwoSizes) {
  for (Addr n : {Addr{1}, Addr{3}, Addr{100}, Addr{1000}}) {
    const ThreadedResult r =
        run_threaded_writeall({.n = n, .workers = n < 4 ? 1u : 4u});
    EXPECT_TRUE(r.solved) << "n=" << n;
  }
}

TEST(Threaded, ConfigValidation) {
  EXPECT_THROW(run_threaded_writeall({.n = 2, .workers = 4}), ConfigError);
  EXPECT_THROW(run_threaded_writeall({.n = 8, .workers = 0}), ConfigError);
}

}  // namespace
}  // namespace rfsp
