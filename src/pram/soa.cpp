#include "pram/soa.hpp"

#include "util/error.hpp"

namespace rfsp {

SoaStore::SoaStore(Pid processors, std::size_t registers)
    : p_(processors), registers_(registers) {
  RFSP_CHECK_MSG(p_ >= 1, "SoaStore needs at least one processor");
  regs_.assign(registers_ * static_cast<std::size_t>(p_), Word{0});
}

// Default for Program::batch_kernels (declared in pram/program.hpp, where
// BatchKernel is only forward-declared): no kernels — the engine keeps the
// interpreter. Defined here so program.hpp needs no extra includes.
std::unique_ptr<BatchKernel> Program::batch_kernels() const {
  return nullptr;
}

}  // namespace rfsp
