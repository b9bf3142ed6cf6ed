#pragma once
// Deterministic, splittable pseudo-random number generation.
//
// Every single-shift Arnoldi iteration draws its random start vectors
// from a stream keyed by (global seed, shift id), so a solve's results
// do not depend on which thread happens to run which shift.
// xoshiro256** seeded through SplitMix64 gives high-quality, cheap,
// dependency-free streams.

#include <array>
#include <cstdint>
#include <limits>

namespace phes::util {

/// SplitMix64: used to expand seeds and to hash stream keys.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_{seed} {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the library-wide PRNG.  Satisfies the essentials of
/// UniformRandomBitGenerator so it can also feed <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed a stream; `stream` distinguishes independent streams sharing
  /// one global seed (e.g. one stream per shift id).
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept {
    SplitMix64 sm(seed ^ (0xa0761d6478bd642fULL * (stream + 1)));
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal deviate (Marsaglia polar method).
  double normal() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace phes::util
