//===- support/Random.h - Deterministic PRNG --------------------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small deterministic xorshift PRNG. The paper profiles primitives on
/// random input of the right shape (§3.1, "statically-measured execution
/// times on random input ... give a very good estimate"); we use a fixed-seed
/// generator so tests and benchmarks are reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SUPPORT_RANDOM_H
#define PRIMSEL_SUPPORT_RANDOM_H

#include <cstddef>
#include <cstdint>

namespace primsel {

/// xorshift128+ generator; fast, deterministic, and good enough for filling
/// test tensors and generating random PBQP instances.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ull) {
    // splitmix64 seeding to spread low-entropy seeds.
    State0 = splitMix(Seed);
    State1 = splitMix(State0);
  }

  uint64_t next() {
    uint64_t X = State0;
    const uint64_t Y = State1;
    State0 = Y;
    X ^= X << 23;
    State1 = X ^ Y ^ (X >> 17) ^ (Y >> 26);
    return State1 + Y;
  }

  /// Uniform float in [0, 1).
  float nextFloat() {
    return static_cast<float>(next() >> 40) * (1.0f / 16777216.0f);
  }

  /// Uniform float in [Lo, Hi).
  float nextFloat(float Lo, float Hi) { return Lo + (Hi - Lo) * nextFloat(); }

  /// Uniform integer in [0, N).
  uint64_t nextBelow(uint64_t N) { return N ? next() % N : 0; }

private:
  static uint64_t splitMix(uint64_t X) {
    X += 0x9e3779b97f4a7c15ull;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
    return X ^ (X >> 31);
  }

  uint64_t State0;
  uint64_t State1;
};

/// Fill \p N floats at \p Data with uniform values in [-1, 1), each times
/// \p Scale in the same pass (exact when Scale is 1).
inline void fillRandom(float *Data, size_t N, uint64_t Seed,
                       float Scale = 1.0f) {
  Rng R(Seed);
  for (size_t I = 0; I < N; ++I)
    Data[I] = R.nextFloat(-1.0f, 1.0f) * Scale;
}

} // namespace primsel

#endif // PRIMSEL_SUPPORT_RANDOM_H
