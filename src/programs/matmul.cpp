#include "programs/programs.hpp"
#include "util/error.hpp"

namespace rfsp {

MatMulProgram::MatMulProgram(std::vector<Word> a, std::vector<Word> b, Pid m)
    : a_(std::move(a)), b_(std::move(b)), m_(m) {
  RFSP_CHECK_MSG(m_ >= 1, "matrix dimension must be positive");
  RFSP_CHECK_MSG(a_.size() == static_cast<std::size_t>(m_) * m_ &&
                     b_.size() == a_.size(),
                 "matrices must be m×m");
  for (Word& w : a_) w = sim_word(w);
  for (Word& w : b_) w = sim_word(w);
}

Pid MatMulProgram::processors() const { return m_ * m_; }

Addr MatMulProgram::memory_cells() const {
  return 3 * static_cast<Addr>(m_) * m_;  // A, B, C
}

Step MatMulProgram::steps() const { return m_; }

void MatMulProgram::init(std::span<Word> memory) const {
  const std::size_t mm = a_.size();
  for (std::size_t i = 0; i < mm; ++i) {
    memory[i] = a_[i];
    memory[mm + i] = b_[i];
  }
}

void MatMulProgram::step(StepContext& ctx, Pid j, Step t) const {
  const Addr mm = static_cast<Addr>(m_) * m_;
  const Addr row = j / m_;
  const Addr col = j % m_;
  const Word a = ctx.load(row * m_ + t);
  const Word b = ctx.load(mm + t * m_ + col);
  const Word acc = sim_word(wrap_add(ctx.reg(0), wrap_mul(a, b)));
  if (t + 1 == static_cast<Step>(m_)) {
    ctx.store(2 * mm + j, acc);  // final term: publish C[row, col]
  } else {
    ctx.set_reg(0, acc);
  }
}

bool MatMulProgram::verify(std::span<const Word> memory) const {
  const std::size_t mm = a_.size();
  for (Pid i = 0; i < m_; ++i) {
    for (Pid j = 0; j < m_; ++j) {
      Word acc = 0;
      for (Pid k = 0; k < m_; ++k) {
        acc = sim_word(
            wrap_add(acc, wrap_mul(a_[static_cast<std::size_t>(i) * m_ + k],
                                   b_[static_cast<std::size_t>(k) * m_ + j])));
      }
      if (memory[2 * mm + static_cast<std::size_t>(i) * m_ + j] != acc) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rfsp
