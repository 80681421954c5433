// SoC fabric tests: crossbar decode/latency, mailbox doorbell/completion
// protocol, and PLIC claim/complete semantics.
#include <gtest/gtest.h>

#include "sim/memory.hpp"
#include "soc/bus.hpp"
#include "soc/mailbox.hpp"
#include "soc/memmap.hpp"
#include "soc/plic.hpp"

namespace titan::soc {
namespace {

TEST(Region, ContainsAndEnd) {
  constexpr Region region{0x1000, 0x100};
  EXPECT_TRUE(region.contains(0x1000));
  EXPECT_TRUE(region.contains(0x10FF));
  EXPECT_FALSE(region.contains(0x1100));
  EXPECT_FALSE(region.contains(0xFFF));
  EXPECT_EQ(region.end(), 0x1100u);
}

TEST(Memmap, RotPrivateClassification) {
  EXPECT_TRUE(is_rot_private(kRotSram.base));
  EXPECT_TRUE(is_rot_private(kRotFlash.base + 0x10));
  EXPECT_TRUE(is_rot_private(kRotHmacAccel.base));
  EXPECT_FALSE(is_rot_private(kDram.base));
  EXPECT_FALSE(is_rot_private(kCfiMailbox.base));
  EXPECT_FALSE(is_rot_private(kHostScratchpad.base));
}

TEST(Crossbar, RoutesByRegion) {
  sim::Memory mem_a;
  sim::Memory mem_b;
  MemoryTarget target_a(mem_a);
  MemoryTarget target_b(mem_b);
  Crossbar xbar("axi", 2);
  xbar.map({0x1000, 0x1000}, target_a, 1, "a");
  xbar.map({0x8000, 0x1000}, target_b, 10, "b");

  xbar.write(0x1008, 8, 0xAAAA);
  xbar.write(0x8008, 8, 0xBBBB);
  EXPECT_EQ(mem_a.read64(0x1008), 0xAAAAu);
  EXPECT_EQ(mem_b.read64(0x8008), 0xBBBBu);
  EXPECT_EQ(xbar.read(0x1008, 8).value, 0xAAAAu);
}

TEST(Crossbar, LatencyIsHopPlusDevice) {
  sim::Memory mem;
  MemoryTarget target(mem);
  Crossbar xbar("axi", 2);
  xbar.map({0x0, 0x1000}, target, 10, "spm");
  EXPECT_EQ(xbar.read(0x0, 8).latency, 12u);
  EXPECT_EQ(xbar.write(0x0, 8, 1).latency, 12u);
}

TEST(Crossbar, DecodeErrorOnUnmapped) {
  Crossbar xbar("axi", 2);
  const BusResponse response = xbar.read(0xDEAD0000, 8);
  EXPECT_TRUE(response.error);
}

TEST(Crossbar, RejectsOverlappingRegions) {
  sim::Memory mem;
  MemoryTarget target(mem);
  Crossbar xbar("axi", 1);
  xbar.map({0x1000, 0x1000}, target, 0, "first");
  EXPECT_THROW(xbar.map({0x1800, 0x1000}, target, 0, "second"),
               std::invalid_argument);
}

TEST(Crossbar, CountsTransactions) {
  sim::Memory mem;
  MemoryTarget target(mem);
  Crossbar xbar("axi", 1);
  xbar.map({0x0, 0x100}, target, 0, "mem");
  (void)xbar.read(0x0, 4);
  (void)xbar.write(0x0, 4, 1);
  EXPECT_EQ(xbar.transaction_count(), 2u);
}

// ---- Mailbox -----------------------------------------------------------------

TEST(Mailbox, DataRegistersReadWrite) {
  Mailbox mailbox;
  mailbox.write(kCfiMailbox.base + 0x00, 8, 0x1111);
  mailbox.write(kCfiMailbox.base + 0x08, 8, 0x2222);
  EXPECT_EQ(mailbox.read(kCfiMailbox.base + 0x00, 8), 0x1111u);
  EXPECT_EQ(mailbox.read(kCfiMailbox.base + 0x08, 8), 0x2222u);
  EXPECT_EQ(mailbox.data(0), 0x1111u);
  EXPECT_EQ(mailbox.data(1), 0x2222u);
}

TEST(Mailbox, SubWordAccess) {
  Mailbox mailbox;
  mailbox.set_data(0, 0x1122334455667788ULL);
  EXPECT_EQ(mailbox.read(kCfiMailbox.base + 0, 4), 0x55667788u);
  EXPECT_EQ(mailbox.read(kCfiMailbox.base + 4, 4), 0x11223344u);
  mailbox.write(kCfiMailbox.base + 0, 4, 0xAABBCCDD);
  EXPECT_EQ(mailbox.data(0), 0x11223344AABBCCDDULL);
}

TEST(Mailbox, DoorbellTriggersHookOnce) {
  Mailbox mailbox;
  int rings = 0;
  mailbox.set_on_doorbell([&rings] { ++rings; });
  mailbox.write(kCfiMailbox.base + Mailbox::kDoorbellOffset, 8, 1);
  EXPECT_EQ(rings, 1);
  EXPECT_TRUE(mailbox.doorbell_pending());
  EXPECT_EQ(mailbox.read(kCfiMailbox.base + Mailbox::kDoorbellOffset, 8), 1u);
  mailbox.write(kCfiMailbox.base + Mailbox::kDoorbellOffset, 8, 0);
  EXPECT_FALSE(mailbox.doorbell_pending());
  EXPECT_EQ(rings, 1);
}

TEST(Mailbox, CompletionSignalsHostSide) {
  Mailbox mailbox;
  int completions = 0;
  mailbox.set_on_completion([&completions] { ++completions; });
  mailbox.write(kCfiMailbox.base + Mailbox::kCompletionOffset, 8, 1);
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(mailbox.completion_pending());
  mailbox.clear_completion();
  EXPECT_FALSE(mailbox.completion_pending());
}

TEST(Mailbox, ProtocolRoundTrip) {
  // Full handshake: host writes log words + doorbell; RoT reads, writes
  // verdict to data[0], signals completion; host reads verdict.
  Mailbox mailbox;
  bool rot_woken = false;
  mailbox.set_on_doorbell([&] { rot_woken = true; });

  mailbox.set_data(0, 0xAA);
  mailbox.set_data(1, 0xBB);
  mailbox.ring_doorbell();
  ASSERT_TRUE(rot_woken);

  // RoT side.
  EXPECT_EQ(mailbox.read(kCfiMailbox.base + 0x00, 8), 0xAAu);
  mailbox.write(kCfiMailbox.base + 0x00, 8, 0);  // verdict: ok
  mailbox.clear_doorbell();
  mailbox.write(kCfiMailbox.base + Mailbox::kCompletionOffset, 8, 1);

  EXPECT_TRUE(mailbox.completion_pending());
  EXPECT_EQ(mailbox.data(0), 0u);
  EXPECT_EQ(mailbox.doorbell_count(), 1u);
  EXPECT_EQ(mailbox.completion_count(), 1u);
}

// ---- PLIC --------------------------------------------------------------------

TEST(Plic, ClaimCompleteCycle) {
  Plic plic(4);
  plic.enable(2);
  EXPECT_FALSE(plic.irq_asserted());
  plic.raise(2);
  EXPECT_TRUE(plic.irq_asserted());
  EXPECT_EQ(plic.claim(), 2u);
  EXPECT_FALSE(plic.irq_asserted());  // in service
  plic.complete(2);
  EXPECT_FALSE(plic.irq_asserted());  // pending consumed by claim
  plic.raise(2);
  EXPECT_TRUE(plic.irq_asserted());
}

TEST(Plic, DisabledSourcesDoNotAssert) {
  Plic plic(4);
  plic.raise(1);
  EXPECT_FALSE(plic.irq_asserted());
  plic.enable(1);
  EXPECT_TRUE(plic.irq_asserted());
}

TEST(Plic, LowestIdWinsArbitration) {
  Plic plic(8);
  plic.enable(3);
  plic.enable(5);
  plic.raise(5);
  plic.raise(3);
  EXPECT_EQ(plic.claim(), 3u);
  EXPECT_EQ(plic.claim(), 5u);
  EXPECT_EQ(plic.claim(), 0u);
}

TEST(Plic, MmioInterface) {
  Plic plic(4);
  plic.write(Plic::kEnableOffset, 8, 1u << 2);
  plic.raise(2);
  EXPECT_EQ(plic.read(Plic::kPendingOffset, 8), 1u << 2);
  EXPECT_EQ(plic.read(Plic::kClaimOffset, 8), 2u);  // claim via MMIO
  plic.write(Plic::kClaimOffset, 8, 2);             // complete via MMIO
  EXPECT_EQ(plic.claims(), 1u);
}

TEST(Plic, ClaimWithNothingPendingReturnsZero) {
  Plic plic(2);
  EXPECT_EQ(plic.claim(), 0u);
}

}  // namespace
}  // namespace titan::soc
