// Differential tests of the CVA6 (RV64IMC) functional executor: for every
// ALU / M-extension / immediate / memory / branch operation, random operand
// sweeps are run through the ISS (as assembled programs) and compared
// against C++ reference semantics.
#include <gtest/gtest.h>

#include <functional>

#include "cva6/core.hpp"
#include "rv/assembler.hpp"
#include "sim/rng.hpp"

namespace titan::cva6 {
namespace {

using rv::Assembler;
using rv::Reg;
using rv::Xlen;

using u64 = std::uint64_t;
using i64 = std::int64_t;
using u32 = std::uint32_t;
using i32 = std::int32_t;

u64 run(const rv::Image& image) {
  sim::Memory memory;
  memory.load(image.base, image.bytes);
  Cva6Config config;
  config.reset_pc = image.base;
  Cva6Core core(config, memory);
  core.set_trace_enabled(false);
  core.run_baseline();
  return core.exit_code();
}

u64 sext32(u32 value) { return static_cast<u64>(static_cast<i64>(static_cast<i32>(value))); }

/// Interesting operand corpus: boundary values + random fill.
std::vector<u64> corpus(sim::Rng& rng, std::size_t count) {
  std::vector<u64> values = {
      0,
      1,
      2,
      0xFFFFFFFFFFFFFFFFull,                    // -1
      0x8000000000000000ull,                    // INT64_MIN
      0x7FFFFFFFFFFFFFFFull,                    // INT64_MAX
      0x80000000ull,                            // INT32_MIN as u32
      0x7FFFFFFFull,
      0xFFFFFFFFull,
      63,
      64,
  };
  while (values.size() < count) {
    values.push_back(rng.next());
  }
  return values;
}

// ---- Register-register ops -----------------------------------------------------

struct RegRegCase {
  const char* name;
  void (Assembler::*emit)(Reg, Reg, Reg);
  std::function<u64(u64, u64)> reference;
};

// Print a case as its op name. The default printer dumps the struct's bytes,
// pointers included, which makes the listed test names differ on every run.
void PrintTo(const RegRegCase& c, std::ostream* os) { *os << c.name; }

class RegRegDiffTest : public ::testing::TestWithParam<RegRegCase> {};

TEST_P(RegRegDiffTest, MatchesReference) {
  const RegRegCase& test_case = GetParam();
  sim::Rng rng(std::hash<std::string>{}(test_case.name));
  const auto values = corpus(rng, 18);
  for (const u64 x : values) {
    for (const u64 y : values) {
      Assembler a(Xlen::k64, 0x8000'0000);
      a.li(Reg::kA1, static_cast<i64>(x));
      a.li(Reg::kA2, static_cast<i64>(y));
      (a.*test_case.emit)(Reg::kA0, Reg::kA1, Reg::kA2);
      a.ecall();
      ASSERT_EQ(run(a.finish()), test_case.reference(x, y))
          << test_case.name << "(0x" << std::hex << x << ", 0x" << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rv64Ops, RegRegDiffTest,
    ::testing::Values(
        RegRegCase{"add", &Assembler::add, [](u64 x, u64 y) { return x + y; }},
        RegRegCase{"sub", &Assembler::sub, [](u64 x, u64 y) { return x - y; }},
        RegRegCase{"and", &Assembler::and_, [](u64 x, u64 y) { return x & y; }},
        RegRegCase{"or", &Assembler::or_, [](u64 x, u64 y) { return x | y; }},
        RegRegCase{"xor", &Assembler::xor_, [](u64 x, u64 y) { return x ^ y; }},
        RegRegCase{"sll", &Assembler::sll, [](u64 x, u64 y) { return x << (y & 63); }},
        RegRegCase{"srl", &Assembler::srl, [](u64 x, u64 y) { return x >> (y & 63); }},
        RegRegCase{"sra", &Assembler::sra,
                   [](u64 x, u64 y) {
                     return static_cast<u64>(static_cast<i64>(x) >> (y & 63));
                   }},
        RegRegCase{"slt", &Assembler::slt,
                   [](u64 x, u64 y) {
                     return static_cast<u64>(static_cast<i64>(x) < static_cast<i64>(y));
                   }},
        RegRegCase{"sltu", &Assembler::sltu, [](u64 x, u64 y) { return static_cast<u64>(x < y); }},
        RegRegCase{"mul", &Assembler::mul, [](u64 x, u64 y) { return x * y; }},
        RegRegCase{"mulh", &Assembler::mulh,
                   [](u64 x, u64 y) {
                     return static_cast<u64>(
                         (static_cast<__int128>(static_cast<i64>(x)) *
                          static_cast<i64>(y)) >> 64);
                   }},
        RegRegCase{"mulhu", &Assembler::mulhu,
                   [](u64 x, u64 y) {
                     return static_cast<u64>(
                         (static_cast<unsigned __int128>(x) * y) >> 64);
                   }},
        RegRegCase{"mulhsu", &Assembler::mulhsu,
                   [](u64 x, u64 y) {
                     return static_cast<u64>(
                         (static_cast<__int128>(static_cast<i64>(x)) *
                          static_cast<unsigned __int128>(y)) >> 64);
                   }},
        RegRegCase{"div", &Assembler::div,
                   [](u64 x, u64 y) -> u64 {
                     if (y == 0) return ~u64{0};
                     if (static_cast<i64>(x) == INT64_MIN && static_cast<i64>(y) == -1) return x;
                     return static_cast<u64>(static_cast<i64>(x) / static_cast<i64>(y));
                   }},
        RegRegCase{"divu", &Assembler::divu,
                   [](u64 x, u64 y) { return y == 0 ? ~u64{0} : x / y; }},
        RegRegCase{"rem", &Assembler::rem,
                   [](u64 x, u64 y) -> u64 {
                     if (y == 0) return x;
                     if (static_cast<i64>(x) == INT64_MIN && static_cast<i64>(y) == -1) return 0;
                     return static_cast<u64>(static_cast<i64>(x) % static_cast<i64>(y));
                   }},
        RegRegCase{"remu", &Assembler::remu,
                   [](u64 x, u64 y) { return y == 0 ? x : x % y; }},
        RegRegCase{"addw", &Assembler::addw,
                   [](u64 x, u64 y) { return sext32(static_cast<u32>(x + y)); }},
        RegRegCase{"subw", &Assembler::subw,
                   [](u64 x, u64 y) { return sext32(static_cast<u32>(x - y)); }},
        RegRegCase{"sllw", &Assembler::sllw,
                   [](u64 x, u64 y) { return sext32(static_cast<u32>(x) << (y & 31)); }},
        RegRegCase{"srlw", &Assembler::srlw,
                   [](u64 x, u64 y) { return sext32(static_cast<u32>(x) >> (y & 31)); }},
        RegRegCase{"sraw", &Assembler::sraw,
                   [](u64 x, u64 y) {
                     return sext32(static_cast<u32>(static_cast<i32>(static_cast<u32>(x)) >> (y & 31)));
                   }},
        RegRegCase{"mulw", &Assembler::mulw,
                   [](u64 x, u64 y) {
                     return sext32(static_cast<u32>(x) * static_cast<u32>(y));
                   }},
        RegRegCase{"divw", &Assembler::divw,
                   [](u64 x, u64 y) -> u64 {
                     const auto a = static_cast<i32>(x);
                     const auto b = static_cast<i32>(y);
                     if (b == 0) return ~u64{0};
                     if (a == INT32_MIN && b == -1) return sext32(static_cast<u32>(a));
                     return sext32(static_cast<u32>(a / b));
                   }},
        RegRegCase{"remw", &Assembler::remw,
                   [](u64 x, u64 y) -> u64 {
                     const auto a = static_cast<i32>(x);
                     const auto b = static_cast<i32>(y);
                     if (b == 0) return sext32(static_cast<u32>(a));
                     if (a == INT32_MIN && b == -1) return 0;
                     return sext32(static_cast<u32>(a % b));
                   }}),
    [](const ::testing::TestParamInfo<RegRegCase>& info) {
      return info.param.name;
    });

// ---- Immediate ops -------------------------------------------------------------

struct ImmCase {
  const char* name;
  void (Assembler::*emit)(Reg, Reg, i32);
  std::function<u64(u64, i32)> reference;
};

// Printed as its op name, for the same reason as RegRegCase.
void PrintTo(const ImmCase& c, std::ostream* os) { *os << c.name; }

class ImmDiffTest : public ::testing::TestWithParam<ImmCase> {};

TEST_P(ImmDiffTest, MatchesReference) {
  const ImmCase& test_case = GetParam();
  sim::Rng rng(std::hash<std::string>{}(test_case.name) + 7);
  const auto values = corpus(rng, 14);
  const i32 imms[] = {-2048, -1, 0, 1, 7, 2047};
  for (const u64 x : values) {
    for (const i32 imm : imms) {
      Assembler a(Xlen::k64, 0x8000'0000);
      a.li(Reg::kA1, static_cast<i64>(x));
      (a.*test_case.emit)(Reg::kA0, Reg::kA1, imm);
      a.ecall();
      ASSERT_EQ(run(a.finish()), test_case.reference(x, imm))
          << test_case.name << "(0x" << std::hex << x << ", " << std::dec
          << imm << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rv64ImmOps, ImmDiffTest,
    ::testing::Values(
        ImmCase{"addi", &Assembler::addi,
                [](u64 x, i32 imm) { return x + static_cast<u64>(static_cast<i64>(imm)); }},
        ImmCase{"andi", &Assembler::andi,
                [](u64 x, i32 imm) { return x & static_cast<u64>(static_cast<i64>(imm)); }},
        ImmCase{"ori", &Assembler::ori,
                [](u64 x, i32 imm) { return x | static_cast<u64>(static_cast<i64>(imm)); }},
        ImmCase{"xori", &Assembler::xori,
                [](u64 x, i32 imm) { return x ^ static_cast<u64>(static_cast<i64>(imm)); }},
        ImmCase{"slti", &Assembler::slti,
                [](u64 x, i32 imm) { return static_cast<u64>(static_cast<i64>(x) < imm); }},
        ImmCase{"sltiu", &Assembler::sltiu,
                [](u64 x, i32 imm) {
                  return static_cast<u64>(x < static_cast<u64>(static_cast<i64>(imm)));
                }},
        ImmCase{"addiw", &Assembler::addiw,
                [](u64 x, i32 imm) {
                  return sext32(static_cast<u32>(x + static_cast<u64>(static_cast<i64>(imm))));
                }}),
    [](const ::testing::TestParamInfo<ImmCase>& info) { return info.param.name; });

// ---- Shifts by immediate ----------------------------------------------------------

TEST(ShiftImmDiff, AllShiftsAllAmounts) {
  sim::Rng rng(0x5111);
  const auto values = corpus(rng, 8);
  for (const u64 x : values) {
    for (const u32 shamt : {0u, 1u, 31u, 32u, 63u}) {
      const auto check = [&](auto emit, u64 expected, const char* name) {
        Assembler a(Xlen::k64, 0x8000'0000);
        a.li(Reg::kA1, static_cast<i64>(x));
        emit(a, shamt);
        a.ecall();
        ASSERT_EQ(run(a.finish()), expected)
            << name << "(0x" << std::hex << x << ", " << std::dec << shamt << ")";
      };
      check([&](Assembler& a, u32 s) { a.slli(Reg::kA0, Reg::kA1, s); },
            x << shamt, "slli");
      check([&](Assembler& a, u32 s) { a.srli(Reg::kA0, Reg::kA1, s); },
            x >> shamt, "srli");
      check([&](Assembler& a, u32 s) { a.srai(Reg::kA0, Reg::kA1, s); },
            static_cast<u64>(static_cast<i64>(x) >> shamt), "srai");
      if (shamt < 32) {
        check([&](Assembler& a, u32 s) { a.slliw(Reg::kA0, Reg::kA1, s); },
              sext32(static_cast<u32>(x) << shamt), "slliw");
        check([&](Assembler& a, u32 s) { a.srliw(Reg::kA0, Reg::kA1, s); },
              sext32(static_cast<u32>(x) >> shamt), "srliw");
        check([&](Assembler& a, u32 s) { a.sraiw(Reg::kA0, Reg::kA1, s); },
              sext32(static_cast<u32>(static_cast<i32>(static_cast<u32>(x)) >> shamt)),
              "sraiw");
      }
    }
  }
}

// ---- Memory: width/sign-extension matrix ---------------------------------------------

TEST(MemoryDiff, LoadStoreWidthsAndSignExtension) {
  sim::Rng rng(0x3E3E);
  for (int trial = 0; trial < 40; ++trial) {
    const u64 value = rng.next();
    const i64 addr = 0x8020'0000 + static_cast<i64>(rng.uniform(0, 256)) * 8;

    struct WidthCase {
      void (Assembler::*store)(Reg, Reg, i32);
      void (Assembler::*load)(Reg, Reg, i32);
      std::function<u64(u64)> expected;
    };
    const WidthCase cases[] = {
        {&Assembler::sb, &Assembler::lb,
         [](u64 v) { return static_cast<u64>(static_cast<i64>(static_cast<std::int8_t>(v))); }},
        {&Assembler::sb, &Assembler::lbu, [](u64 v) { return v & 0xFF; }},
        {&Assembler::sh, &Assembler::lh,
         [](u64 v) { return static_cast<u64>(static_cast<i64>(static_cast<std::int16_t>(v))); }},
        {&Assembler::sh, &Assembler::lhu, [](u64 v) { return v & 0xFFFF; }},
        {&Assembler::sw, &Assembler::lw, [](u64 v) { return sext32(static_cast<u32>(v)); }},
        {&Assembler::sw, &Assembler::lwu, [](u64 v) { return v & 0xFFFFFFFF; }},
        {&Assembler::sd, &Assembler::ld, [](u64 v) { return v; }},
    };
    for (const WidthCase& width_case : cases) {
      Assembler a(Xlen::k64, 0x8000'0000);
      a.li(Reg::kA1, static_cast<i64>(value));
      a.li(Reg::kA2, addr);
      (a.*width_case.store)(Reg::kA1, Reg::kA2, 8);
      (a.*width_case.load)(Reg::kA0, Reg::kA2, 8);
      a.ecall();
      ASSERT_EQ(run(a.finish()), width_case.expected(value))
          << "value=0x" << std::hex << value;
    }
  }
}

// ---- Branches: predicate matrix -----------------------------------------------------

TEST(BranchDiff, AllConditionsBothOutcomes) {
  sim::Rng rng(0xB4);
  const auto values = corpus(rng, 10);
  struct BranchCase {
    void (Assembler::*emit)(Reg, Reg, Assembler::Label);
    std::function<bool(u64, u64)> predicate;
  };
  const BranchCase cases[] = {
      {&Assembler::beq, [](u64 x, u64 y) { return x == y; }},
      {&Assembler::bne, [](u64 x, u64 y) { return x != y; }},
      {&Assembler::blt, [](u64 x, u64 y) { return static_cast<i64>(x) < static_cast<i64>(y); }},
      {&Assembler::bge, [](u64 x, u64 y) { return static_cast<i64>(x) >= static_cast<i64>(y); }},
      {&Assembler::bltu, [](u64 x, u64 y) { return x < y; }},
      {&Assembler::bgeu, [](u64 x, u64 y) { return x >= y; }},
  };
  for (const BranchCase& branch_case : cases) {
    for (const u64 x : values) {
      for (const u64 y : values) {
        Assembler a(Xlen::k64, 0x8000'0000);
        auto taken = a.new_label();
        a.li(Reg::kA1, static_cast<i64>(x));
        a.li(Reg::kA2, static_cast<i64>(y));
        (a.*branch_case.emit)(Reg::kA1, Reg::kA2, taken);
        a.li(Reg::kA0, 0);
        a.ecall();
        a.bind(taken);
        a.li(Reg::kA0, 1);
        a.ecall();
        ASSERT_EQ(run(a.finish()),
                  static_cast<u64>(branch_case.predicate(x, y)))
            << "x=0x" << std::hex << x << " y=0x" << y;
      }
    }
  }
}

// ---- Upper-immediate & AUIPC ----------------------------------------------------------

TEST(UpperImmDiff, LuiAndAuipc) {
  for (const i64 imm : {i64{0x1000}, i64{0x7FFFF000}, i64{-0x80000000LL}}) {
    Assembler a(Xlen::k64, 0x8000'0000);
    a.lui(Reg::kA0, imm);
    a.ecall();
    EXPECT_EQ(run(a.finish()), static_cast<u64>(imm));
  }
  // auipc at pc=0x80000000 + 0x5000.
  Assembler a(Xlen::k64, 0x8000'0000);
  a.auipc(Reg::kA0, 0x5000);
  a.ecall();
  EXPECT_EQ(run(a.finish()), 0x8000'5000u);
}

}  // namespace
}  // namespace titan::cva6
