#include "programs/programs.hpp"
#include "util/error.hpp"

namespace rfsp {

StencilProgram::StencilProgram(std::vector<Word> initial, Step rounds)
    : initial_(std::move(initial)), rounds_(rounds) {
  RFSP_CHECK_MSG(initial_.size() >= 3, "stencil needs interior cells");
  for (Word& w : initial_) w = sim_word(w);
}

Pid StencilProgram::processors() const {
  return static_cast<Pid>(initial_.size());
}

Addr StencilProgram::memory_cells() const { return initial_.size(); }

void StencilProgram::init(std::span<Word> memory) const {
  std::copy(initial_.begin(), initial_.end(), memory.begin());
}

void StencilProgram::step(StepContext& ctx, Pid j, Step) const {
  if (j == 0 || j + 1 >= initial_.size()) return;  // fixed boundaries
  const Word left = ctx.load(j - 1);
  const Word mine = ctx.load(j);
  const Word right = ctx.load(j + 1);
  ctx.store(j, wrap_add(wrap_add(left, wrap_mul(2, mine)), right) / 4);
}

bool StencilProgram::verify(std::span<const Word> memory) const {
  std::vector<Word> cur = initial_;
  std::vector<Word> next = initial_;
  for (Step t = 0; t < rounds_; ++t) {
    for (std::size_t j = 1; j + 1 < cur.size(); ++j) {
      next[j] = sim_word(
          wrap_add(wrap_add(cur[j - 1], wrap_mul(2, cur[j])), cur[j + 1]) / 4);
    }
    cur = next;
  }
  for (std::size_t j = 0; j < cur.size(); ++j) {
    if (memory[j] != cur[j]) return false;
  }
  return true;
}

}  // namespace rfsp
