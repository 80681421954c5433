#include "refkernel.hpp"

#include <chrono>
#include <cstdint>

namespace perfbench {

namespace {

constexpr std::uint32_t kIterations = 15000;
constexpr std::uint32_t kSliceFraction = 10;

volatile std::uint64_t g_seed = 0x243f6a8885a308d3ULL;
volatile std::uint64_t g_sink = 0;

#define PERFBENCH_XORSHIFT(v) \
  v ^= v << 13;               \
  v ^= v >> 7;                \
  v ^= v << 17;

// Eight independent xorshift64 chains: the loop is bound by integer
// execution throughput, not by the latency of one chain, so it slows down
// with the simulator when another hardware thread competes for the core's
// ports.  The empty asm keeps all eight values in general registers, which
// stops the compiler from folding or vectorising the loop.
[[gnu::noinline]] std::uint64_t kernel(std::uint64_t seed,
                                      std::uint32_t iterations) {
  std::uint64_t a = seed | 1, b = a * 3, c = a * 5, d = a * 7, e = a * 9,
                f = a * 11, g = a * 13, h = a * 15;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    PERFBENCH_XORSHIFT(a)
    PERFBENCH_XORSHIFT(b)
    PERFBENCH_XORSHIFT(c)
    PERFBENCH_XORSHIFT(d)
    PERFBENCH_XORSHIFT(e)
    PERFBENCH_XORSHIFT(f)
    PERFBENCH_XORSHIFT(g)
    PERFBENCH_XORSHIFT(h)
    asm volatile(""
                 : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f),
                   "+r"(g), "+r"(h));
  }
  return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
}

#undef PERFBENCH_XORSHIFT

}  // namespace

double ref_kernel_us() {
  const auto start = std::chrono::steady_clock::now();
  g_sink = kernel(g_seed, kIterations);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double ref_kernel_slice_us() {
  const auto start = std::chrono::steady_clock::now();
  g_sink = kernel(g_seed, kIterations / kSliceFraction);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() *
         kSliceFraction;
}

}  // namespace perfbench
