#include "util/rng.hpp"

#include <cmath>

namespace rfsp {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t state = a * 0x9e3779b97f4a7c15ull + b * 0xff51afd7ed558ccdull +
                        c * 0xc4ceb9fe1a85ec53ull + 0x2545f4914f6cdd1dull;
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) {
  // Expand the seed with SplitMix64, per the xoshiro authors' advice.
  for (auto& word : s_) word = splitmix64(seed);
  // Avoid the all-zero state (possible only if splitmix emitted four zeroes).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::Threshold::Threshold(double p) {
  if (!(p > 0.0)) return;  // p <= 0 (a NaN, too): never, no draw
  if (p >= 1.0) {
    bound = std::uint64_t{1} << 53;
    return;
  }
  bound = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  draws = true;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound <= 1) return 0;
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % bound;
}

}  // namespace rfsp
