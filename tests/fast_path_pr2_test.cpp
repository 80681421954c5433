// PR-2 fast-path satellites: the hoisted fetch-page probe (CVA6 + Ibex),
// the negative (unmapped-page) cache in sim::Memory, and the default
// commit trace.
#include <gtest/gtest.h>

#include "cva6/core.hpp"
#include "ibex/core.hpp"
#include "rv/assembler.hpp"
#include "sim/memory.hpp"
#include "soc/bus.hpp"
#include "workloads/programs.hpp"

namespace titan {
namespace {

// ---- Negative page cache ----------------------------------------------------

TEST(NegativeCache, RepeatedUnmappedProbesSkipTheHashWalk) {
  sim::Memory memory;
  memory.write64(0x1000, 42);  // one mapped page
  const sim::Addr unmapped = 0x9'0000;
  EXPECT_EQ(memory.read64(unmapped), 0u);
  const std::uint64_t misses_after_first = memory.stats().page_cache_misses;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(memory.read64(unmapped), 0u);
  }
  // The first probe walked the hash map; the rest hit the negative cache.
  EXPECT_EQ(memory.stats().page_cache_misses, misses_after_first);
  EXPECT_GE(memory.stats().neg_cache_hits, 100u);
}

TEST(NegativeCache, MappingAPageRetiresTheNegativeEntry) {
  sim::Memory memory;
  const sim::Addr addr = 0x5000;
  EXPECT_EQ(memory.read64(addr), 0u);   // cached as unmapped
  EXPECT_EQ(memory.read64(addr), 0u);   // negative-cache hit
  memory.write64(addr, 0xABCD);         // maps the page -> flush
  EXPECT_EQ(memory.read64(addr), 0xABCDu);
}

TEST(NegativeCache, StrictModeStillThrowsOnNegativeHit) {
  sim::Memory memory;
  memory.set_strict_unmapped(true);
  EXPECT_THROW((void)memory.read32(0x7000), std::out_of_range);
  // Second probe answers from the negative cache but must still throw.
  EXPECT_THROW((void)memory.read32(0x7000), std::out_of_range);
}

// ---- Map epoch / PageRef ----------------------------------------------------

TEST(PageRef, EpochAdvancesOnMapShapeChangesOnly) {
  sim::Memory memory;
  memory.write64(0x0, 1);
  const std::uint64_t epoch = memory.map_epoch();
  memory.write64(0x8, 2);        // same page: no shape change
  EXPECT_EQ(memory.map_epoch(), epoch);
  memory.write64(0x2000, 3);     // new page
  EXPECT_GT(memory.map_epoch(), epoch);
  const std::uint64_t before_clear = memory.map_epoch();
  memory.clear();
  EXPECT_GT(memory.map_epoch(), before_clear);
}

TEST(PageRef, SeesInPlaceStoresWithoutRevalidation) {
  sim::Memory memory;
  memory.write32(0x100, 0x11111111);
  const sim::PageRef ref = memory.page_ref(0x100);
  ASSERT_NE(ref.data, nullptr);
  EXPECT_EQ(ref.epoch, memory.map_epoch());
  EXPECT_EQ(ref.window32(0x100), 0x11111111u);
  memory.write32(0x100, 0x22222222);  // store to the same mapped page
  EXPECT_EQ(ref.epoch, memory.map_epoch());  // still valid...
  EXPECT_EQ(ref.window32(0x100), 0x22222222u);  // ...and current
}

// ---- Hoisted fetch on the cores --------------------------------------------

TEST(FetchHoist, Cva6SelfModifyingCodeStillObserved) {
  // Straight-line code; a store rewrites an upcoming instruction in the same
  // page.  The hoisted page pointer reads through to the mutated bytes and
  // the decode cache revalidates on the raw window, so the store must take
  // effect architecturally.
  using rv::Reg;
  rv::Assembler a(rv::Xlen::k64, 0x8000'0000);
  a.li(Reg::kA0, 7);
  auto patch_site = a.new_label();
  // t0 = encoding of "addi a0, a0, 5"; overwrite the patch site (which
  // initially holds "addi a0, a0, 1").
  a.li(Reg::kT0, 0x0055'0513);
  a.li(Reg::kT1, 0);
  a.la(Reg::kT1, patch_site);
  a.sw(Reg::kT0, Reg::kT1, 0);
  a.bind(patch_site);
  a.addi(Reg::kA0, Reg::kA0, 1);
  a.ecall();
  const rv::Image image = a.finish();

  sim::Memory memory;
  memory.load(image.base, image.bytes);
  cva6::Cva6Config config;
  config.reset_pc = image.base;
  cva6::Cva6Core core(config, memory);
  core.run_baseline();
  EXPECT_EQ(core.exit_code(), 12u);  // 7 + 5, not 7 + 1
}

TEST(FetchHoist, Cva6MatchesSeedModeInstructionStream) {
  const rv::Image image = workloads::fib_recursive(10);
  const auto run = [&image](bool fast) {
    sim::Memory memory;
    memory.load(image.base, image.bytes);
    memory.set_fast_path_enabled(fast);
    cva6::Cva6Config config;
    config.reset_pc = image.base;
    cva6::Cva6Core core(config, memory);
    core.set_decode_cache_enabled(fast);
    core.run_baseline();
    return std::pair{core.instret(), core.exit_code()};
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(FetchHoist, IbexRunsFirmwareBehindCrossbar) {
  using rv::Reg;
  rv::Assembler a(rv::Xlen::k32, 0);
  const auto loop = a.new_label();
  a.li(Reg::kA0, 0);
  a.li(Reg::kT0, 1000);
  a.bind(loop);
  a.add(Reg::kA0, Reg::kA0, Reg::kT0);
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, loop);
  a.ecall();
  const rv::Image image = a.finish();

  sim::Memory memory;
  memory.load(image.base, image.bytes);
  soc::MemoryTarget target(memory);
  soc::Crossbar bus("t", 0);
  bus.map(soc::Region{0, 0x1'0000}, target, 0, "ram");
  ibex::IbexConfig config;
  config.reset_sp = 0x8000;
  const auto rom = ibex::FirmwareRom::build(image);
  ibex::IbexCore core(config, bus, rom.get());
  while (!core.halted()) {
    core.step();
  }
  EXPECT_EQ(core.reg(10), 500500u);  // sum 1..1000
  // Every instruction comes from the pre-decoded table: the loop has no
  // loads or stores, so nothing crosses the crossbar at all.
  EXPECT_EQ(bus.transaction_count(), 0u);
  EXPECT_EQ(core.off_rom_instructions(), 0u);
}

// ---- Commit trace ----------------------------------------------------------

TEST(RingTrace, UnboundedModeIsUnchangedByDefault) {
  const rv::Image image = workloads::fib_recursive(8);
  sim::Memory memory;
  memory.load(image.base, image.bytes);
  cva6::Cva6Config config;
  config.reset_pc = image.base;
  cva6::Cva6Core core(config, memory);
  core.run_baseline();
  EXPECT_EQ(core.trace().size(), core.instret());
}

}  // namespace
}  // namespace titan
