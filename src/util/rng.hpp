// Deterministic pseudo-random number generation.
//
// Everything in this library must be reproducible: a (seed, parameters) pair
// fully determines a run, including the randomized ACC algorithm and the
// stochastic adversaries. We use SplitMix64 for seeding/stateless hashing and
// xoshiro256** for streams. Restarted processors must reseed from data they
// still have (PID and the synchronous clock), which `mix64` supports.
#pragma once

#include <array>
#include <cstddef>
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

  std::uint64_t next() { return step(s_); }

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

  // Bernoulli(p) fixed once as an integer compare on the 53 bits uniform()
  // draws: uniform() < p  <=>  (next() >> 11) < ceil(p * 2^53), exactly,
  // because both sides scale by a power of two. As with chance(p), p <= 0
  // and p >= 1 decide without a draw.
  struct Threshold {
    explicit Threshold(double p);
    std::uint64_t bound = 0;  // hit iff (next() >> 11) < bound
    bool draws = false;       // false for p <= 0 (never) and p >= 1 (always)
  };

  // The index of the first hit among n trials of `t`, or n when all of them
  // miss. Consumes exactly the draws of the chance(p) calls, for the p that
  // `t` was built from, up to and including the hit. The loop calls nothing,
  // so the generator state stays in registers across the misses.
  std::size_t first_hit(const Threshold& t, std::size_t n) {
    if (!t.draws) return t.bound != 0 ? 0 : n;
    std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    std::size_t i = 0;
    while (i < n && (step(s) >> 11) >= t.bound) ++i;
    s_[0] = s[0]; s_[1] = s[1]; s_[2] = s[2]; s_[3] = s[3];
    return i;
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

  // One xoshiro256** step: advances `s` and returns the output word.
  static std::uint64_t step(std::uint64_t (&s)[4]) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  std::uint64_t s_[4];
};

}  // namespace rfsp
