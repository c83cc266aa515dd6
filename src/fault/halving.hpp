// The lower-bound adversary of Theorem 3.1.
//
// Against any Write-All algorithm (with P = N) it forces Ω(N log N)
// completed work:
//
//   Every slot all processors are revived. Let U be the set of still-unwritten
//   array cells. By the pigeonhole principle some ⌊U/2⌋ of them have the
//   fewest pending writers; the adversary kills exactly those writers
//   mid-cycle, so at most half of U gets written per slot while at least
//   half the processors complete their cycles. This sustains ≥ log₂ N slots
//   of ≥ ⌊N/2⌋ completed cycles each.
//
// The adversary only needs to see pending writes into the output region —
// the MachineView provides exactly that. It is algorithm-independent.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/adversary.hpp"

namespace rfsp {

struct HalvingOptions {
  // true — the Theorem 3.1 adversary: every failed processor is revived
  //   each slot ("all N processors are revived");
  // false — the fail-stop no-restart variant in the spirit of the [KS 89]
  //   lower bound (used by the §5 open-problem probe): victims stay dead,
  //   and the adversary stops biting when one processor remains.
  bool revive = true;
};

class HalvingAdversary final : public Adversary {
 public:
  // `x_base`/`n`: the Write-All output region. A cell counts as visited
  // when its low 32 bits are non-zero (stamped layouts keep the payload
  // there; plain layouts write 1).
  HalvingAdversary(Addr x_base, Addr n, HalvingOptions options = {});

  std::string_view name() const override { return "halving"; }
  FaultDecision decide(const MachineView& view) override;
  void save_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(rounds_);
  }
  void load_state(std::span<const std::uint64_t> data) override {
    if (!data.empty()) rounds_ = data.front();
  }

  // How many halving rounds were executed (for assertions in tests).
  std::uint64_t rounds() const { return rounds_; }

 private:
  Addr x_base_;
  Addr n_;
  HalvingOptions options_;
  std::uint64_t rounds_ = 0;

  // Per-decision scratch, sized once: decide allocates nothing but its
  // FaultDecision.
  std::vector<Addr> unvisited_;                // ascending cell indices
  std::vector<std::uint32_t> writers_;         // pending writers per cell
  std::vector<std::uint8_t> in_unvisited_;     // per cell
  std::vector<std::uint8_t> doomed_cell_;      // per cell
  std::vector<std::size_t> cells_by_writers_;  // unvisited cells per count
  std::vector<Pid> victims_;
};

}  // namespace rfsp
