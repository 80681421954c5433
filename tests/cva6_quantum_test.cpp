// The CVA6 fast-forward quantum (Cva6Core::run_until_event) against plain
// per-cycle stepping, at the core level and over ROB geometries the SoC
// never builds (SocConfig fixes depth 8 and width 2).  The event side runs
// quanta and steps each CFI window one cycle at a time with an arbiter that
// allows every candidate; the reference steps every cycle the same way.  The
// two must agree on the clock, the retired and stalled counts, the full
// commit trace and the per-port filter scan sums.  The inputs include the
// core's out-of-line paths: decode misses from self-modifying stores, the
// uncached reference decode, and a PMP-denied store.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cva6/core.hpp"
#include "rv/assembler.hpp"
#include "self_modifying_program.hpp"
#include "soc/memmap.hpp"
#include "soc/pmp.hpp"
#include "workloads/programs.hpp"

namespace titan::cva6 {
namespace {

struct Outcome {
  Cycle cycle = 0;
  std::uint64_t instret = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t exit_code = 0;
  std::uint64_t port0_scans = 0;
  std::uint64_t port1_scans = 0;
  Cycle quantum_cycles = 0;  ///< Cycles run inside quanta (event side).
  std::vector<CommitRecord> trace;
};

/// Retire every candidate of one cycle, counting the scans each filter port
/// makes (candidate i goes to port i % 2), then advance the clock.
void step_allow_all(Cva6Core& core, Outcome& out) {
  const auto candidates = core.commit_candidates();
  const auto count = static_cast<unsigned>(candidates.size());
  out.port0_scans += (count + 1) / 2;
  out.port1_scans += count / 2;
  core.retire(count);
  core.tick();
}

Outcome run(const rv::Image& image, unsigned rob_depth, unsigned commit_width,
            bool quanta, bool decode_cache, const soc::Pmp* pmp) {
  sim::Memory memory;
  memory.load(image.base, image.bytes);
  Cva6Config config;
  config.reset_pc = image.base;
  config.rob_depth = rob_depth;
  config.commit_width = commit_width;
  Cva6Core core(config, memory);
  core.set_decode_cache_enabled(decode_cache);
  core.set_pmp(pmp);
  Outcome out;
  for (std::uint64_t round = 0; !core.program_done(); ++round) {
    if (quanta) {
      // Varying limits also exercise the clamp inside a quantum.
      const auto quantum = core.run_until_event(core.cycle() + 1 + round % 13);
      out.port0_scans += quantum.port0_scans;
      out.port1_scans += quantum.port1_scans;
      out.quantum_cycles += quantum.cycles;
      if (quantum.cycles > 0) {
        continue;
      }
    }
    step_allow_all(core, out);
  }
  out.cycle = core.cycle();
  out.instret = core.instret();
  out.stall_cycles = core.stall_cycles();
  out.exit_code = core.exit_code();
  out.trace = core.trace();
  return out;
}

void expect_same(const Outcome& event, const Outcome& stepped,
                 const std::string& where) {
  EXPECT_EQ(event.cycle, stepped.cycle) << where;
  EXPECT_EQ(event.instret, stepped.instret) << where;
  EXPECT_EQ(event.stall_cycles, stepped.stall_cycles) << where;
  EXPECT_EQ(event.exit_code, stepped.exit_code) << where;
  EXPECT_EQ(event.port0_scans, stepped.port0_scans) << where;
  EXPECT_EQ(event.port1_scans, stepped.port1_scans) << where;
  ASSERT_EQ(event.trace.size(), stepped.trace.size()) << where;
  for (std::size_t i = 0; i < event.trace.size(); ++i) {
    const CommitRecord& a = event.trace[i];
    const CommitRecord& b = stepped.trace[i];
    ASSERT_EQ(std::tie(a.cycle, a.pc, a.encoding, a.kind, a.next_pc, a.target),
              std::tie(b.cycle, b.pc, b.encoding, b.kind, b.next_pc, b.target))
        << where << " record " << i;
  }
}

// A short loop with a call in it, then a store to the CFI mailbox, which
// host software may not touch: behind the TitanCFI PMP the store halts the
// core with an access fault before the ecall.
rv::Image mailbox_store_program() {
  using rv::Reg;
  rv::Assembler a(rv::Xlen::k64, 0x8000'0000);
  auto leaf = a.new_label();
  auto loop = a.new_label();
  a.li(Reg::kA0, 0);
  a.li(Reg::kS1, 6);
  a.bind(loop);
  a.call(leaf);
  a.addi(Reg::kS1, Reg::kS1, -1);
  a.bnez(Reg::kS1, loop);
  a.li(Reg::kT0, static_cast<std::int64_t>(soc::kCfiMailbox.base));
  a.sd(Reg::kA0, Reg::kT0, 0);
  a.ecall();
  a.bind(leaf);
  a.addi(Reg::kA0, Reg::kA0, 3);
  a.ret();
  return a.finish();
}

TEST(Cva6Quantum, MatchesPerCycleSteppingAcrossRobGeometries) {
  const soc::Pmp pmp = soc::Pmp::titancfi_default();
  struct Input {
    std::string name;
    rv::Image image;
    const soc::Pmp* pmp;
    std::optional<std::uint64_t> exit_code;
  };
  const std::vector<Input> inputs = {
      {"stats", workloads::stats(64), nullptr, std::nullopt},
      {"matmul", workloads::matmul(5), nullptr, std::nullopt},
      {"crc32", workloads::crc32(64), nullptr, std::nullopt},
      {"fib", workloads::fib_recursive(9), nullptr, std::nullopt},
      {"self_modifying", test_programs::self_modifying_program(), nullptr, 65},
      {"mailbox_store", mailbox_store_program(), &pmp, 0xACC},
  };
  for (const Input& input : inputs) {
    for (const bool cached : {true, false}) {
      for (const unsigned depth : {1u, 2u, 3u, 5u, 8u, 16u}) {
        for (const unsigned width : {1u, 2u, 3u}) {
          const std::string where =
              input.name + (cached ? " cached" : " uncached") +
              " depth=" + std::to_string(depth) +
              " width=" + std::to_string(width);
          const Outcome stepped =
              run(input.image, depth, width, false, cached, input.pmp);
          const Outcome event =
              run(input.image, depth, width, true, cached, input.pmp);
          ASSERT_FALSE(stepped.trace.empty()) << where;
          if (input.exit_code) {
            EXPECT_EQ(stepped.exit_code, *input.exit_code) << where;
          }
          EXPECT_GT(event.quantum_cycles, 0u) << where;
          // Only the call-heavy program has CFI windows to step through.
          if (input.name == "fib") {
            EXPECT_LT(event.quantum_cycles, event.cycle) << where;
          }
          expect_same(event, stepped, where);
        }
      }
    }
  }
}

}  // namespace
}  // namespace titan::cva6
