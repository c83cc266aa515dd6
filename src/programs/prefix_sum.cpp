#include <algorithm>

#include "programs/programs.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

PrefixSumProgram::PrefixSumProgram(std::vector<Word> input)
    : input_(std::move(input)) {
  RFSP_CHECK_MSG(!input_.empty(), "prefix sums need at least one value");
  for (Word& w : input_) w = sim_word(w);
}

Pid PrefixSumProgram::processors() const {
  return static_cast<Pid>(input_.size());
}

Addr PrefixSumProgram::memory_cells() const { return input_.size(); }

Step PrefixSumProgram::steps() const { return ceil_log2(input_.size()); }

void PrefixSumProgram::init(std::span<Word> memory) const {
  std::copy(input_.begin(), input_.end(), memory.begin());
}

void PrefixSumProgram::step(StepContext& ctx, Pid j, Step t) const {
  const Addr stride = Addr{1} << t;
  if (j < stride) return;  // idle processors perform an empty step
  const Word mine = ctx.load(j);
  const Word left = ctx.load(j - stride);
  ctx.store(j, sim_word(wrap_add(mine, left)));
}

bool PrefixSumProgram::verify(std::span<const Word> memory) const {
  Word acc = 0;
  for (std::size_t i = 0; i < input_.size(); ++i) {
    acc = sim_word(wrap_add(acc, input_[i]));
    if (memory[i] != acc) return false;
  }
  return true;
}

}  // namespace rfsp
