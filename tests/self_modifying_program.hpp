// A host program that rewrites its own code, shared by the decode-cache and
// the CVA6 quantum tests.
#pragma once

#include <cstdint>

#include "rv/assembler.hpp"

namespace titan::test_programs {

inline constexpr std::uint32_t kAddiA0A0_1 = 0x00150513;   // addi a0, a0, 1
inline constexpr std::uint32_t kAddiA0A0_64 = 0x04050513;  // addi a0, a0, 64

/// Executes a patch site twice; between iterations it stores a new encoding
/// over the site.  A decode cache without exact invalidation would replay
/// the stale +1 and exit with 2 instead of 65.
inline rv::Image self_modifying_program() {
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

}  // namespace titan::test_programs
