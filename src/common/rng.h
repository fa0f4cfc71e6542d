// Deterministic random number generation for workload synthesis.
//
// Every generator in src/workload is seeded explicitly so that (a) tests are
// reproducible and (b) lineage-based recomputation after an executor failure
// regenerates byte-identical partitions (the engine treats "generate partition
// p of dataset D with seed s" as a replayable source, like Kafka offsets in
// the paper's §III-D).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace idf {

/// xoshiro256** PRNG — fast, high quality, 2^256-1 period.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0xdecafbadULL) { Seed(seed); }

  /// Re-seeds the full 256-bit state from a 64-bit seed via splitmix64.
  void Seed(uint64_t seed) {
    for (auto& word : state_) {
      seed = Mix64(seed);
      word = seed;
    }
    // Avoid the (astronomically unlikely) all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  uint64_t operator()() { return Next(); }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound) {
    IDF_CHECK(bound > 0);
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = (~bound + 1) % bound;
      while (low < threshold) {
        m = static_cast<__uint128_t>(Next()) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    IDF_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    Below(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p of true.
  bool Chance(double p) { return NextDouble() < p; }

  /// Random lowercase ASCII string of the given length.
  std::string NextString(size_t length) {
    std::string s(length, 'a');
    for (auto& c : s) c = static_cast<char>('a' + Below(26));
    return s;
  }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Zipf-distributed sampler over {0, ..., n-1} with exponent `s`.
///
/// Used by the SNB-like generator to produce power-law vertex degrees
/// ("social network with power-law structure, similar to Facebook", §IV-A)
/// and by Broconn to skew source-IP frequencies. Implements rejection-
/// inversion sampling (Hörmann & Derflinger) — O(1) per draw, no O(n) tables.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);

  uint64_t Sample(Rng& rng);

  /// Probability mass of a given rank (0-based). Used by generators that
  /// need expected frequencies, e.g. to cap maximum degrees LDBC-style.
  double RankProbability(uint64_t rank) const;

  uint64_t n() const { return n_; }
  double exponent() const { return s_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
};

}  // namespace idf
