// Tests for the shared decoded-instruction cache: hit/miss behaviour, RVC
// window normalisation, and exact invalidation via the raw-encoding tag —
// after self-modifying stores and after Memory::load image replacement —
// at unit level and end-to-end on both core models.
#include "sim/decode_cache.hpp"

#include <gtest/gtest.h>

#include "cva6/core.hpp"
#include "ibex/core.hpp"
#include "rv/assembler.hpp"
#include "sim/memory.hpp"
#include "soc/bus.hpp"

namespace titan {
namespace {

constexpr std::uint32_t kAddiA0A0_1 = 0x00150513;   // addi a0, a0, 1
constexpr std::uint32_t kAddiA0A0_64 = 0x04050513;  // addi a0, a0, 64

TEST(DecodeCache, SecondDecodeOfSameWindowHits) {
  sim::DecodeCache cache(rv::Xlen::k64);
  const rv::Inst& first = cache.decode(0x1000, kAddiA0A0_1);
  EXPECT_EQ(first.op, rv::Op::kAddi);
  EXPECT_EQ(first.imm, 1);
  const rv::Inst& again = cache.decode(0x1000, kAddiA0A0_1);
  EXPECT_EQ(again.imm, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.decodes_avoided(), 1u);
}

TEST(DecodeCache, ChangedEncodingAtSamePcRedecodes) {
  sim::DecodeCache cache(rv::Xlen::k64);
  EXPECT_EQ(cache.decode(0x1000, kAddiA0A0_1).imm, 1);
  // A store rewrote the instruction: the raw tag must miss and re-decode.
  EXPECT_EQ(cache.decode(0x1000, kAddiA0A0_64).imm, 64);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DecodeCache, CompressedWindowIsNormalised) {
  sim::DecodeCache cache(rv::Xlen::k64);
  // c.li a0, 1 == 0x4505; the high half of the fetch window is whatever
  // follows in memory and must not affect hit or decode.
  const rv::Inst& a = cache.decode(0x2000, 0xFFFF'4505u);
  EXPECT_EQ(a.op, rv::Op::kAddi);  // c.li expands to addi a0, x0, 1.
  EXPECT_EQ(a.len, 2);
  const rv::Inst& b = cache.decode(0x2000, 0x1234'4505u);
  EXPECT_EQ(b.imm, 1);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DecodeCache, FlushForcesRedecode) {
  sim::DecodeCache cache(rv::Xlen::k64);
  (void)cache.decode(0x1000, kAddiA0A0_1);
  cache.flush();
  (void)cache.decode(0x1000, kAddiA0A0_1);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DecodeCache, MemoryLoadReplacingImageInvalidates) {
  // The documented core usage pattern: fetch window from memory, decode via
  // cache.  Replacing the image with Memory::load changes the window, so the
  // stale decode cannot survive.
  sim::Memory memory;
  sim::DecodeCache cache(rv::Xlen::k64);
  const std::vector<std::uint8_t> image_a = {0x13, 0x05, 0x15, 0x00};  // +1
  const std::vector<std::uint8_t> image_b = {0x13, 0x05, 0x05, 0x04};  // +64
  memory.load(0x8000'0000, image_a);
  EXPECT_EQ(cache.decode(0x8000'0000, memory.fetch32(0x8000'0000)).imm, 1);
  memory.load(0x8000'0000, image_b);
  EXPECT_EQ(cache.decode(0x8000'0000, memory.fetch32(0x8000'0000)).imm, 64);
}

// ---- End-to-end: self-modifying code on the CVA6 model ----------------------

// The program executes a patch site twice; between iterations it stores a
// new encoding over the site.  A decode cache without exact invalidation
// would replay the stale +1 and exit with 2 instead of 65.
rv::Image self_modifying_program() {
  using rv::Reg;
  rv::Assembler a(rv::Xlen::k64, 0x8000'0000);
  auto patch = a.new_label();
  auto loop = a.new_label();
  a.li(Reg::kA0, 0);
  a.li(Reg::kS1, 2);
  a.la(Reg::kT2, patch);
  a.li(Reg::kT1, kAddiA0A0_64);
  a.bind(loop);
  a.bind(patch);
  a.word(kAddiA0A0_1);  // Overwritten with +64 after the first iteration.
  a.sw(Reg::kT1, Reg::kT2, 0);
  a.addi(Reg::kS1, Reg::kS1, -1);
  a.bnez(Reg::kS1, loop);
  a.ecall();
  return a.finish();
}

TEST(DecodeCacheE2E, Cva6SelfModifyingStoreIsHonoured) {
  const rv::Image image = self_modifying_program();
  sim::Memory memory;
  memory.load(image.base, image.bytes);
  cva6::Cva6Config config;
  config.reset_pc = image.base;
  cva6::Cva6Core core(config, memory);
  core.set_trace_enabled(false);
  core.run_baseline();
  EXPECT_EQ(core.exit_code(), 65u);  // 1 (original) + 64 (patched).
  EXPECT_GT(core.decode_cache().misses(), 0u);
}

TEST(DecodeCacheE2E, Cva6MatchesUncachedExecution) {
  const rv::Image image = self_modifying_program();
  auto run = [&](bool cached) {
    sim::Memory memory;
    memory.load(image.base, image.bytes);
    cva6::Cva6Config config;
    config.reset_pc = image.base;
    cva6::Cva6Core core(config, memory);
    core.set_decode_cache_enabled(cached);
    core.set_trace_enabled(false);
    core.run_baseline();
    return std::pair{core.exit_code(), core.cycle()};
  };
  EXPECT_EQ(run(true), run(false));
}

// ---- End-to-end: self-modifying code on the Ibex model ----------------------

TEST(DecodeCacheE2E, IbexSelfModifyingStoreIsHonoured) {
  using rv::Reg;
  rv::Assembler a(rv::Xlen::k32, 0x0);
  auto patch = a.new_label();
  auto loop = a.new_label();
  a.li(Reg::kA0, 0);
  a.li(Reg::kS1, 2);
  a.la(Reg::kT2, patch);
  a.li(Reg::kT1, kAddiA0A0_64);
  a.bind(loop);
  a.bind(patch);
  a.word(kAddiA0A0_1);
  a.sw(Reg::kT1, Reg::kT2, 0);
  a.addi(Reg::kS1, Reg::kS1, -1);
  a.bnez(Reg::kS1, loop);
  a.ecall();
  const rv::Image image = a.finish();

  sim::Memory memory;
  memory.load(image.base, image.bytes);
  soc::MemoryTarget target(memory);
  soc::Crossbar bus("test", 0);
  bus.map(soc::Region{0, 0x1'0000}, target, 0, "ram");
  ibex::IbexConfig config;
  config.reset_sp = 0x8000;
  ibex::IbexCore core(config, bus);
  for (int i = 0; i < 1000 && !core.halted(); ++i) {
    core.step();
  }
  EXPECT_TRUE(core.halted());
  EXPECT_EQ(core.reg(10), 65u);  // Fetched and decoded from RAM every step.
}

}  // namespace
}  // namespace titan
