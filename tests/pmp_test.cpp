// PMP tests: the paper's Sec.-VI security assumption — host software cannot
// touch the CFI mailbox — enforced and verified end-to-end.
#include "soc/pmp.hpp"

#include <gtest/gtest.h>

#include "cva6/core.hpp"
#include "firmware/builder.hpp"
#include "titancfi/soc_top.hpp"
#include "workloads/programs.hpp"

namespace titan::soc {
namespace {

TEST(Pmp, NoEntriesAllowsEverything) {
  Pmp pmp;
  EXPECT_TRUE(pmp.check(0x1000, PmpAccess::kRead));
  EXPECT_TRUE(pmp.check(kCfiMailbox.base, PmpAccess::kWrite));
}

TEST(Pmp, DenyRegionBlocksAllAccess) {
  Pmp pmp;
  pmp.deny_region(kCfiMailbox, "mailbox");
  EXPECT_FALSE(pmp.check(kCfiMailbox.base, PmpAccess::kRead));
  EXPECT_FALSE(pmp.check(kCfiMailbox.base + 0x40, PmpAccess::kWrite));
  EXPECT_FALSE(pmp.check(kCfiMailbox.base, PmpAccess::kExecute));
  // Just outside the region: unaffected.
  EXPECT_TRUE(pmp.check(kCfiMailbox.base - 1, PmpAccess::kWrite));
  EXPECT_TRUE(pmp.check(kCfiMailbox.end(), PmpAccess::kWrite));
}

TEST(Pmp, LowestMatchingEntryWins) {
  Pmp pmp;
  // Entry 0: read-only window inside a larger denied region.
  pmp.add_entry({{0x1000, 0x100}, true, false, false, "ro-window"});
  pmp.deny_region({0x1000, 0x1000}, "deny-all");
  EXPECT_TRUE(pmp.check(0x1080, PmpAccess::kRead));
  EXPECT_FALSE(pmp.check(0x1080, PmpAccess::kWrite));
  EXPECT_FALSE(pmp.check(0x1200, PmpAccess::kRead));  // outside the window
}

TEST(Pmp, TitancfiDefaultLocksMailboxAndArena) {
  const Pmp pmp = Pmp::titancfi_default();
  EXPECT_FALSE(pmp.check(kCfiMailbox.base, PmpAccess::kRead));
  EXPECT_FALSE(pmp.check(kCfiMailbox.base, PmpAccess::kWrite));
  EXPECT_FALSE(pmp.check(kSpillArena.base + 64, PmpAccess::kWrite));
  EXPECT_TRUE(pmp.check(kDram.base, PmpAccess::kWrite));  // ordinary DRAM ok
  EXPECT_EQ(pmp.entry_count(), 2u);
}

}  // namespace
}  // namespace titan::soc

namespace titan::cfi {
namespace {

/// A malicious guest that tries to forge a "safe" verdict by writing the CFI
/// mailbox result register directly, then reading the doorbell.
rv::Image mailbox_tamper_program(bool read_only) {
  rv::Assembler a(rv::Xlen::k64, workloads::kProgramBase);
  a.li(rv::Reg::kSp, 0x8080'0000);
  a.li(rv::Reg::kT0, static_cast<std::int64_t>(soc::kCfiMailbox.base));
  if (read_only) {
    a.ld(rv::Reg::kT1, rv::Reg::kT0, 0);  // spy on commit logs
  } else {
    a.sd(rv::Reg::kZero, rv::Reg::kT0, 0);  // forge verdict
  }
  a.li(rv::Reg::kA0, 7);
  a.ecall();
  return a.finish();
}

std::shared_ptr<const ibex::FirmwareRom> firmware() {
  fw::FirmwareConfig config;
  return ibex::FirmwareRom::build(fw::build_firmware(config));
}

TEST(PmpIntegration, GuestCannotWriteCfiMailbox) {
  SocConfig config;
  SocTop soc(config, mailbox_tamper_program(false), firmware());
  const auto result = soc.run();
  EXPECT_EQ(result.exit_code, 0xACCu);  // access fault, not exit code 7
  EXPECT_TRUE(soc.host().access_fault());
}

TEST(PmpIntegration, GuestCannotReadCfiMailbox) {
  SocConfig config;
  SocTop soc(config, mailbox_tamper_program(true), firmware());
  const auto result = soc.run();
  EXPECT_EQ(result.exit_code, 0xACCu);
}

TEST(PmpIntegration, GuestCannotTamperSpillArena) {
  rv::Assembler a(rv::Xlen::k64, workloads::kProgramBase);
  a.li(rv::Reg::kSp, 0x8080'0000);
  a.li(rv::Reg::kT0, static_cast<std::int64_t>(soc::kSpillArena.base + 32));
  a.sd(rv::Reg::kZero, rv::Reg::kT0, 0);  // corrupt a spilled segment
  a.li(rv::Reg::kA0, 7);
  a.ecall();
  SocConfig config;
  SocTop soc(config, a.finish(), firmware());
  EXPECT_EQ(soc.run().exit_code, 0xACCu);
}

TEST(PmpIntegration, DisablingPmpRestoresOldBehaviour) {
  SocConfig config;
  config.enable_pmp = false;
  SocTop soc(config, mailbox_tamper_program(false), firmware());
  const auto result = soc.run();
  EXPECT_EQ(result.exit_code, 7u);  // tamper "succeeds" without PMP
}

TEST(PmpIntegration, OrdinaryProgramsUnaffected) {
  SocConfig config;
  SocTop soc(config, workloads::fib_recursive(8), firmware());
  const auto result = soc.run();
  EXPECT_EQ(result.exit_code, 21u);
  EXPECT_FALSE(soc.host().access_fault());
  EXPECT_EQ(result.violations, 0u);
}

}  // namespace
}  // namespace titan::cfi
