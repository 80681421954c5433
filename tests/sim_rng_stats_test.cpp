// Tests for the deterministic RNG.
#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace titan::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 20u);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.01);
}

}  // namespace
}  // namespace titan::sim
