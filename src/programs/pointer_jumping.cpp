#include "programs/programs.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

ListRankingProgram::ListRankingProgram(std::vector<Pid> next)
    : next_(std::move(next)) {
  RFSP_CHECK_MSG(!next_.empty(), "list ranking needs at least one node");
  for (const Pid s : next_) {
    RFSP_CHECK_MSG(s < next_.size(), "successor out of range");
  }
}

Pid ListRankingProgram::processors() const {
  return static_cast<Pid>(next_.size());
}

Addr ListRankingProgram::memory_cells() const { return 2 * next_.size(); }

Step ListRankingProgram::steps() const {
  return ceil_log2(next_.size()) + 1;
}

void ListRankingProgram::init(std::span<Word> memory) const {
  const std::size_t n = next_.size();
  for (std::size_t j = 0; j < n; ++j) {
    memory[j] = static_cast<Word>(next_[j]);  // next[]
    // rank[] = 1 for nodes with a successor, 0 for the tail.
    memory[n + j] = next_[j] == j ? 0 : 1;
  }
}

void ListRankingProgram::step(StepContext& ctx, Pid j, Step) const {
  const Addr n = next_.size();
  const Addr nj = static_cast<Addr>(ctx.load(j));
  if (nj == j) return;  // reached the tail; pointer is a fixed point
  const Word my_rank = ctx.load(n + j);
  const Word succ_rank = ctx.load(n + nj);
  const Word succ_next = ctx.load(nj);
  ctx.store(n + j, sim_word(wrap_add(my_rank, succ_rank)));
  ctx.store(j, succ_next);
}

bool ListRankingProgram::verify(std::span<const Word> memory) const {
  const std::size_t n = next_.size();
  for (std::size_t j = 0; j < n; ++j) {
    // Expected rank: number of hops from j to the tail.
    std::size_t hops = 0;
    std::size_t v = j;
    while (next_[v] != v) {
      v = next_[v];
      ++hops;
      RFSP_CHECK_MSG(hops <= n, "input list contains a cycle");
    }
    if (memory[n + j] != static_cast<Word>(hops)) return false;
  }
  return true;
}

}  // namespace rfsp
