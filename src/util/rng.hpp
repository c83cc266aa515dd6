// Deterministic pseudo-random number generation.
//
// Everything in this library must be reproducible: a (seed, parameters) pair
// fully determines a run, including the randomized ACC algorithm and the
// stochastic adversaries. We use SplitMix64 for seeding/stateless hashing and
// xoshiro256** for streams. Restarted processors must reseed from data they
// still have (PID and the synchronous clock), which `mix64` supports.
#pragma once

#include <array>
#include <cstdint>

namespace rfsp {

// One step of SplitMix64; also a good 64-bit mixer/hash.
std::uint64_t splitmix64(std::uint64_t& state);

// Stateless mix of up to three words into one pseudo-random word.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b = 0x9e3779b97f4a7c15ull,
                    std::uint64_t c = 0xbf58476d1ce4e5b9ull);

// xoshiro256**: fast, high-quality 64-bit generator. next/uniform/chance
// are inline: the stochastic adversaries call chance once per PID per slot.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound) for bound >= 1 (unbiased via rejection).
  std::uint64_t below(std::uint64_t bound);

  // Uniform in [0, 1): 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  // Bernoulli(p).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // Checkpoint hooks (src/replay): the full 256-bit generator state. A
  // generator restored via set_state produces exactly the stream the saved
  // one would have, so a resumed run replays stochastic adversaries and
  // randomized algorithms bit-identically.
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    s_[0] = s[0]; s_[1] = s[1]; s_[2] = s[2]; s_[3] = s[3];
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace rfsp
