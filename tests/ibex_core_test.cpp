// Ibex (RV32IMC) core tests: differential per-op semantics, the IRQ/WFI
// machinery, the cycle model, and memory-latency attribution.
#include "ibex/core.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "rv/assembler.hpp"
#include "sim/rng.hpp"
#include "soc/memmap.hpp"

namespace titan::ibex {
namespace {

using rv::Assembler;
using rv::Reg;
using rv::Xlen;
using u32 = std::uint32_t;
using i32 = std::int32_t;

/// Minimal RoT-like harness: ROM + SRAM behind a TL-UL crossbar.
struct Harness {
  sim::Memory rom;
  sim::Memory ram;
  soc::MemoryTarget rom_target{rom};
  soc::MemoryTarget ram_target{ram};
  soc::Crossbar bus{"tlul", 3};
  std::unique_ptr<IbexCore> core;

  explicit Harness(const rv::Image& image, IbexConfig config = {}) {
    bus.map(soc::kRotFlash, rom_target, 0, "rom");
    bus.map(soc::kRotSram, ram_target, 1, "sram");
    rom.load(image.base, image.bytes);
    config.reset_pc = static_cast<u32>(image.base);
    config.reset_sp = static_cast<u32>(soc::kRotSram.end() - 16);
    core = std::make_unique<IbexCore>(config, bus);
  }

  u32 run(int max_steps = 100000) {
    for (int i = 0; i < max_steps && !core->halted(); ++i) {
      core->step();
    }
    EXPECT_TRUE(core->halted()) << "program did not halt";
    return core->reg(10);
  }
};

u32 run_program(const std::function<void(Assembler&)>& body) {
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  body(a);
  Harness harness(a.finish());
  return harness.run();
}

// ---- Differential per-op semantics --------------------------------------------

struct RegRegCase {
  const char* name;
  void (Assembler::*emit)(Reg, Reg, Reg);
  std::function<u32(u32, u32)> reference;
};

// Print a case as its op name. The default printer dumps the struct's bytes,
// pointers included, which makes the listed test names differ on every run.
void PrintTo(const RegRegCase& c, std::ostream* os) { *os << c.name; }

class IbexRegRegDiffTest : public ::testing::TestWithParam<RegRegCase> {};

TEST_P(IbexRegRegDiffTest, MatchesReference) {
  const RegRegCase& test_case = GetParam();
  sim::Rng rng(std::hash<std::string>{}(test_case.name) + 32);
  std::vector<u32> values = {0,          1,          2,         0xFFFFFFFF,
                             0x80000000, 0x7FFFFFFF, 31,        32,
                             0xDEADBEEF, static_cast<u32>(rng.next()),
                             static_cast<u32>(rng.next())};
  for (const u32 x : values) {
    for (const u32 y : values) {
      const u32 result = run_program([&](Assembler& a) {
        a.li(Reg::kA1, static_cast<i32>(x));
        a.li(Reg::kA2, static_cast<i32>(y));
        (a.*test_case.emit)(Reg::kA0, Reg::kA1, Reg::kA2);
        a.ecall();
      });
      ASSERT_EQ(result, test_case.reference(x, y))
          << test_case.name << "(0x" << std::hex << x << ", 0x" << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rv32Ops, IbexRegRegDiffTest,
    ::testing::Values(
        RegRegCase{"add", &Assembler::add, [](u32 x, u32 y) { return x + y; }},
        RegRegCase{"sub", &Assembler::sub, [](u32 x, u32 y) { return x - y; }},
        RegRegCase{"and", &Assembler::and_, [](u32 x, u32 y) { return x & y; }},
        RegRegCase{"or", &Assembler::or_, [](u32 x, u32 y) { return x | y; }},
        RegRegCase{"xor", &Assembler::xor_, [](u32 x, u32 y) { return x ^ y; }},
        RegRegCase{"sll", &Assembler::sll, [](u32 x, u32 y) { return x << (y & 31); }},
        RegRegCase{"srl", &Assembler::srl, [](u32 x, u32 y) { return x >> (y & 31); }},
        RegRegCase{"sra", &Assembler::sra,
                   [](u32 x, u32 y) {
                     return static_cast<u32>(static_cast<i32>(x) >> (y & 31));
                   }},
        RegRegCase{"slt", &Assembler::slt,
                   [](u32 x, u32 y) {
                     return static_cast<u32>(static_cast<i32>(x) < static_cast<i32>(y));
                   }},
        RegRegCase{"sltu", &Assembler::sltu, [](u32 x, u32 y) { return static_cast<u32>(x < y); }},
        RegRegCase{"mul", &Assembler::mul, [](u32 x, u32 y) { return x * y; }},
        RegRegCase{"mulh", &Assembler::mulh,
                   [](u32 x, u32 y) {
                     return static_cast<u32>(
                         (static_cast<std::int64_t>(static_cast<i32>(x)) *
                          static_cast<i32>(y)) >> 32);
                   }},
        RegRegCase{"mulhu", &Assembler::mulhu,
                   [](u32 x, u32 y) {
                     return static_cast<u32>((static_cast<std::uint64_t>(x) * y) >> 32);
                   }},
        RegRegCase{"div", &Assembler::div,
                   [](u32 x, u32 y) -> u32 {
                     if (y == 0) return 0xFFFFFFFF;
                     if (x == 0x80000000 && y == 0xFFFFFFFF) return x;
                     return static_cast<u32>(static_cast<i32>(x) / static_cast<i32>(y));
                   }},
        RegRegCase{"divu", &Assembler::divu,
                   [](u32 x, u32 y) { return y == 0 ? 0xFFFFFFFF : x / y; }},
        RegRegCase{"rem", &Assembler::rem,
                   [](u32 x, u32 y) -> u32 {
                     if (y == 0) return x;
                     if (x == 0x80000000 && y == 0xFFFFFFFF) return 0;
                     return static_cast<u32>(static_cast<i32>(x) % static_cast<i32>(y));
                   }},
        RegRegCase{"remu", &Assembler::remu,
                   [](u32 x, u32 y) { return y == 0 ? x : x % y; }}),
    [](const ::testing::TestParamInfo<RegRegCase>& info) {
      return info.param.name;
    });

// ---- Memory round trips -----------------------------------------------------------

TEST(IbexMemory, WidthAndSignExtension) {
  const u32 addr = soc::kRotSram.base + 0x40;
  const u32 result = run_program([&](Assembler& a) {
    a.li(Reg::kT0, addr);
    a.li(Reg::kT1, static_cast<i32>(0x80C3));
    a.sh(Reg::kT1, Reg::kT0, 0);
    a.lh(Reg::kA0, Reg::kT0, 0);  // sign-extends 0x80C3
    a.ecall();
  });
  EXPECT_EQ(result, 0xFFFF80C3u);

  const u32 unsigned_result = run_program([&](Assembler& a) {
    a.li(Reg::kT0, addr);
    a.li(Reg::kT1, static_cast<i32>(0x80C3));
    a.sh(Reg::kT1, Reg::kT0, 0);
    a.lhu(Reg::kA0, Reg::kT0, 0);
    a.ecall();
  });
  EXPECT_EQ(unsigned_result, 0x80C3u);
}

TEST(IbexMemory, ByteGranularity) {
  const u32 addr = soc::kRotSram.base + 0x80;
  const u32 result = run_program([&](Assembler& a) {
    a.li(Reg::kT0, addr);
    a.li(Reg::kT1, 0x11);
    a.li(Reg::kT2, 0x22);
    a.sb(Reg::kT1, Reg::kT0, 0);
    a.sb(Reg::kT2, Reg::kT0, 1);
    a.lhu(Reg::kA0, Reg::kT0, 0);
    a.ecall();
  });
  EXPECT_EQ(result, 0x2211u);
}

// ---- Cycle model ----------------------------------------------------------------------

TEST(IbexTiming, StraightLineCodeIsOneCyclePerInstruction) {
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  for (int i = 0; i < 10; ++i) {
    a.addi(Reg::kT0, Reg::kT0, 1);
  }
  a.ecall();
  Harness harness(a.finish());
  harness.run();
  // 10 addi + ecall = 11 instructions, all single-cycle.
  EXPECT_EQ(harness.core->cycle(), 11u);
  EXPECT_EQ(harness.core->instret(), 11u);
}

TEST(IbexTiming, TakenBranchesPayThePenalty) {
  // Loop of 5 iterations: addi + bnez(taken x4, not-taken x1).
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  a.li(Reg::kT0, 5);
  auto loop = a.here();
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, loop);
  a.ecall();
  Harness harness(a.finish());
  harness.run();
  // 1 li + 5*(addi+bnez) + ecall = 12 instructions; 4 taken branches add
  // 2 cycles each.
  EXPECT_EQ(harness.core->instret(), 12u);
  EXPECT_EQ(harness.core->cycle(), 12u + 4u * 2u);
}

TEST(IbexTiming, LoadLatencyFollowsBusModel) {
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  a.li(Reg::kT0, static_cast<i32>(soc::kRotSram.base));
  a.lw(Reg::kT1, Reg::kT0, 0);
  a.ecall();
  Harness harness(a.finish());
  IbexStep load_step{};
  while (!harness.core->halted()) {
    const IbexStep step = harness.core->step();
    if (step.mem_addr.has_value()) {
      load_step = step;
    }
  }
  // hop 3 + device 1 = 4 bus cycles + 1 base cycle.
  EXPECT_EQ(load_step.mem_cycles, 4u);
  EXPECT_EQ(load_step.cycles, 5u);
  EXPECT_EQ(*load_step.mem_addr, soc::kRotSram.base);
}

TEST(IbexTiming, DivTakesIterativeCycles) {
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  a.li(Reg::kT0, 100);
  a.li(Reg::kT1, 7);
  a.div(Reg::kT2, Reg::kT0, Reg::kT1);
  a.ecall();
  Harness harness(a.finish());
  harness.run();
  // 2 li + div(37) + ecall = 2 + 37 + 1 = 40.
  EXPECT_EQ(harness.core->cycle(), 40u);
}

// ---- IRQ / WFI machinery -----------------------------------------------------------------

rv::Image irq_demo_firmware() {
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  auto isr = a.new_label();
  auto idle = a.new_label();
  a.la(Reg::kT0, isr);
  a.csrrw(Reg::kZero, rv::csr::kMtvec, Reg::kT0);
  a.li(Reg::kT0, 1 << 11);
  a.csrrw(Reg::kZero, rv::csr::kMie, Reg::kT0);
  a.csrrsi(Reg::kZero, rv::csr::kMstatus, 8);
  a.bind(idle);
  a.wfi();
  a.j(idle);
  a.bind(isr);
  a.addi(Reg::kA0, Reg::kA0, 1);  // count IRQs
  a.mret();
  return a.finish();
}

TEST(IbexIrq, WfiSleepsUntilInterrupt) {
  Harness harness(irq_demo_firmware());
  // Run init + first wfi.
  for (int i = 0; i < 100 && !harness.core->sleeping(); ++i) {
    harness.core->step();
  }
  ASSERT_TRUE(harness.core->sleeping());
  const auto asleep_at = harness.core->cycle();

  // Stays asleep without an IRQ.
  for (int i = 0; i < 10; ++i) {
    harness.core->step();
  }
  EXPECT_TRUE(harness.core->sleeping());
  EXPECT_EQ(harness.core->cycle(), asleep_at + 10);

  // IRQ wakes it with the wake-up latency, runs the ISR once, sleeps again.
  harness.core->set_irq_line(true);
  const IbexStep trap = harness.core->step();
  EXPECT_TRUE(trap.irq_entry);
  EXPECT_EQ(trap.cycles, IbexConfig{}.wakeup_latency);
  harness.core->set_irq_line(false);
  for (int i = 0; i < 100 && !harness.core->sleeping(); ++i) {
    harness.core->step();
  }
  EXPECT_TRUE(harness.core->sleeping());
  EXPECT_EQ(harness.core->reg(10), 1u);  // ISR ran exactly once
}

TEST(IbexIrq, TrapStateSavedAndRestored) {
  Harness harness(irq_demo_firmware());
  for (int i = 0; i < 100 && !harness.core->sleeping(); ++i) {
    harness.core->step();
  }
  const u32 wfi_pc = harness.core->pc();
  harness.core->set_irq_line(true);
  harness.core->step();  // trap entry
  harness.core->set_irq_line(false);
  EXPECT_EQ(harness.core->csr(rv::csr::kMepc), wfi_pc);
  EXPECT_EQ(harness.core->csr(rv::csr::kMcause), kMcauseExtIrq);
  EXPECT_EQ(harness.core->csr(rv::csr::kMstatus) & kMstatusMie, 0u);  // masked
  // ISR body + mret.
  harness.core->step();
  harness.core->step();
  EXPECT_NE(harness.core->csr(rv::csr::kMstatus) & kMstatusMie, 0u);  // restored
  EXPECT_EQ(harness.core->pc(), wfi_pc);
}

TEST(IbexIrq, MaskedInterruptDoesNotTrap) {
  // No MIE: the IRQ line is ignored.
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  for (int i = 0; i < 5; ++i) {
    a.addi(Reg::kT0, Reg::kT0, 1);
  }
  a.ecall();
  Harness harness(a.finish());
  harness.core->set_irq_line(true);
  harness.run();
  EXPECT_EQ(harness.core->instret(), 6u);  // ran straight through
}

TEST(IbexIrq, AwakeTrapUsesShorterLatency) {
  Harness harness(irq_demo_firmware());
  // Interrupt while still executing init (not sleeping).
  harness.core->step();  // first init instruction... enable bits not yet set
  // Finish init up to the csrrsi that sets MIE (7 instructions total:
  // auipc+addi (la), csrrw mtvec, lui+addi (li 0x800), csrrw mie, csrrsi)
  // without executing the wfi, then raise the line.
  for (int i = 0; i < 6; ++i) {
    harness.core->step();
  }
  harness.core->set_irq_line(true);
  const IbexStep trap = harness.core->step();
  harness.core->set_irq_line(false);
  ASSERT_TRUE(trap.irq_entry);
  EXPECT_EQ(trap.cycles, IbexConfig{}.trap_entry_latency);
}

// ---- CSR plumbing ---------------------------------------------------------------------------

TEST(IbexCsr, ReadWriteSetClear) {
  const u32 result = run_program([](Assembler& a) {
    a.li(Reg::kT0, 0xF0);
    a.csrrw(Reg::kZero, rv::csr::kMscratch, Reg::kT0);  // mscratch = 0xF0
    a.li(Reg::kT1, 0x0F);
    a.csrrs(Reg::kZero, rv::csr::kMscratch, Reg::kT1);  // |= 0x0F
    a.li(Reg::kT2, 0xC0);
    a.csrrc(Reg::kZero, rv::csr::kMscratch, Reg::kT2);  // &= ~0xC0
    a.csrrs(Reg::kA0, rv::csr::kMscratch, Reg::kZero);  // read
    a.ecall();
  });
  EXPECT_EQ(result, 0x3Fu);
}

TEST(IbexCsr, ImmediateForms) {
  const u32 result = run_program([](Assembler& a) {
    a.csrrwi(Reg::kZero, rv::csr::kMscratch, 21);
    a.csrrsi(Reg::kZero, rv::csr::kMscratch, 2);
    a.csrrci(Reg::kZero, rv::csr::kMscratch, 1);
    a.csrrs(Reg::kA0, rv::csr::kMscratch, Reg::kZero);
    a.ecall();
  });
  EXPECT_EQ(result, 22u);
}

TEST(IbexCsr, CountersAdvance) {
  Harness harness([] {
    Assembler a(Xlen::k32, soc::kRotFlash.base);
    for (int i = 0; i < 7; ++i) a.nop();
    a.ecall();
    return a.finish();
  }());
  harness.run();
  EXPECT_EQ(harness.core->csr(rv::csr::kMinstret), 8u);
  EXPECT_EQ(harness.core->csr(rv::csr::kMcycle), 8u);
  EXPECT_EQ(harness.core->csr(rv::csr::kMhartid), 0u);
}

// ---- Compressed execution ------------------------------------------------------------------

TEST(IbexRvc, ExecutesCompressedInstructions) {
  // Hand-emit RVC: c.li a0, 21 (0x4555); c.addi a0, 1 (0x0505); ebreak.
  Assembler a(Xlen::k32, soc::kRotFlash.base);
  a.half(0x4555);
  a.half(0x0505);
  a.ecall();
  Harness harness(a.finish());
  EXPECT_EQ(harness.run(), 22u);
  EXPECT_EQ(harness.core->instret(), 3u);
}

}  // namespace
}  // namespace titan::ibex
