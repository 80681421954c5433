// The benchmark's own seeded generator (splitmix64) and shuffle, fully
// specified here so a seed means the same inputs on every standard library.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed for (seed, stream).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed ^ (stream * 0xd1b54a32d192ed03ULL)).next();
}

}  // namespace perfbench
