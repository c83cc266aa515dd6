// sim_workloads.hpp — the src/programs/ workloads of sim_cli and verify_cli,
// built by name over seeded random inputs. Header-only, like cli.hpp.
//
// A size a workload cannot take exactly is rounded down: bitonic-sort to a
// power of two, matmul to a square (m*m cells). sim_cli refuses such sizes
// as usage errors before building; verify_cli takes the rounding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "programs/chain.hpp"
#include "programs/programs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rfsp::cli {

inline const std::vector<std::string>& sim_workload_names() {
  static const std::vector<std::string> names = {
      "prefix-sum",    "max-reduce", "list-ranking", "odd-even-sort",
      "bitonic-sort",  "stencil",    "matmul",       "leader-elect",
      "components",    "sort-scan"};
  return names;
}

inline bool is_sim_workload(const std::string& name) {
  const auto& names = sim_workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

// The side m of the largest m*m matrix with m*m <= n (at least 1).
inline Addr matmul_side(Addr n) {
  Addr m = 1;
  while ((m + 1) * (m + 1) <= n) ++m;
  return m;
}

inline std::vector<Word> random_values(std::size_t n, std::uint64_t seed,
                                       Word bound) {
  Rng rng(seed);
  std::vector<Word> v(n);
  for (auto& w : v) w = static_cast<Word>(rng.below(bound));
  return v;
}

// A built workload. The chain workload is non-owning over its stages, so
// the bundle keeps every program alive; `program` is the one to run.
struct SimWorkload {
  std::vector<std::unique_ptr<SimProgram>> owned;
  const SimProgram* program = nullptr;
  // Set for the ARBITRARY workloads (components, leader-elect): their
  // legal outcomes form a set, not a single image.
  std::function<bool(const std::vector<Word>&)> verifier;

  // The workload's own verifier, or else comparison against the
  // fault-free reference run.
  bool correct(const std::vector<Word>& memory) const {
    return verifier ? verifier(memory) : memory == reference_run(*program);
  }
};

// Build workload `name` over simulated size `n` (n >= 1). Throws
// ConfigError for a name outside sim_workload_names().
inline SimWorkload make_sim_workload(const std::string& name, Addr n,
                                     std::uint64_t seed) {
  SimWorkload out;
  auto adopt = [&](auto program) {
    out.program = program.get();
    out.owned.push_back(std::move(program));
  };
  auto adopt_verified = [&](auto program) {
    const auto* raw = program.get();
    out.verifier = [raw](const std::vector<Word>& memory) {
      return raw->verify(memory);
    };
    adopt(std::move(program));
  };
  if (name == "prefix-sum") {
    adopt(std::make_unique<PrefixSumProgram>(random_values(n, seed, 1000)));
  } else if (name == "max-reduce") {
    adopt(std::make_unique<MaxReduceProgram>(
        random_values(n, seed, 1u << 20)));
  } else if (name == "list-ranking") {
    std::vector<Pid> next(n);
    for (Pid j = 0; j + 1 < next.size(); ++j) next[j] = j + 1;
    next.back() = static_cast<Pid>(next.size() - 1);
    adopt(std::make_unique<ListRankingProgram>(next));
  } else if (name == "odd-even-sort") {
    adopt(std::make_unique<OddEvenSortProgram>(
        random_values(n, seed, 10000)));
  } else if (name == "bitonic-sort") {
    Addr m = 1;
    while (m * 2 <= n) m *= 2;
    adopt(std::make_unique<BitonicSortProgram>(
        random_values(m, seed, 10000)));
  } else if (name == "stencil") {
    std::vector<Word> rod(n, 0);
    rod.front() = 1000;
    adopt(std::make_unique<StencilProgram>(rod, n / 2 + 4));
  } else if (name == "matmul") {
    const Addr m = matmul_side(n);
    adopt(std::make_unique<MatMulProgram>(
        random_values(m * m, seed, 10), random_values(m * m, seed + 1, 10),
        static_cast<Pid>(m)));
  } else if (name == "leader-elect") {
    adopt_verified(std::make_unique<LeaderElectProgram>(static_cast<Pid>(n)));
  } else if (name == "components") {
    // A random graph with ~n vertices and ~1.2n edges.
    Rng rng(seed + 17);
    std::vector<std::pair<Pid, Pid>> edges;
    for (Addr e = 0; e < n + n / 5; ++e) {
      edges.emplace_back(static_cast<Pid>(rng.below(n)),
                         static_cast<Pid>(rng.below(n)));
    }
    adopt_verified(std::make_unique<ConnectedComponentsProgram>(
        static_cast<Pid>(n), std::move(edges)));
  } else if (name == "sort-scan") {
    const auto keys = random_values(n, seed, 1000);
    out.owned.push_back(std::make_unique<OddEvenSortProgram>(keys));
    out.owned.push_back(std::make_unique<PrefixSumProgram>(keys));
    adopt(std::make_unique<ChainedProgram>(*out.owned[0], *out.owned[1]));
  } else {
    throw ConfigError("unknown program " + name);
  }
  return out;
}

}  // namespace rfsp::cli
