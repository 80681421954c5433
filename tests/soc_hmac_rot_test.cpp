// Unit tests for the HMAC MMIO front-end and the RoT subsystem wiring.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/hmac.hpp"
#include "firmware/builder.hpp"
#include "soc/hmac_mmio.hpp"
#include "soc/mailbox.hpp"
#include "titancfi/rot_subsystem.hpp"

namespace titan::soc {
namespace {

struct AccelHarness {
  sim::Memory memory;
  MemoryTarget memory_target{memory};
  Crossbar bus{"tlul", 0};
  std::uint64_t now = 0;
  std::unique_ptr<HmacMmio> accel;

  AccelHarness() {
    bus.map(kRotSram, memory_target, 0, "sram");
    accel = std::make_unique<HmacMmio>(bus, /*device_secret=*/0x1234,
                                       [this] { return now; });
    bus.map(kRotHmacAccel, *accel, 0, "hmac");
  }

  crypto::Digest run_mac(Addr src, std::uint32_t len) {
    accel->write(kRotHmacAccel.base + HmacMmio::kSrc, 4, src);
    accel->write(kRotHmacAccel.base + HmacMmio::kLen, 4, len);
    accel->write(kRotHmacAccel.base + HmacMmio::kKeySel, 4, 0);
    accel->write(kRotHmacAccel.base + HmacMmio::kCmd, 4, 1);
    // Busy-wait, advancing "time".
    while (accel->read(kRotHmacAccel.base + HmacMmio::kStatus, 4) == 0) {
      ++now;
    }
    crypto::Digest digest{};
    for (unsigned word = 0; word < 8; ++word) {
      const auto value = static_cast<std::uint32_t>(accel->read(
          kRotHmacAccel.base + HmacMmio::kDigestBase + 4 * word, 4));
      digest[4 * word] = static_cast<std::uint8_t>(value >> 24);
      digest[4 * word + 1] = static_cast<std::uint8_t>(value >> 16);
      digest[4 * word + 2] = static_cast<std::uint8_t>(value >> 8);
      digest[4 * word + 3] = static_cast<std::uint8_t>(value);
    }
    return digest;
  }
};

TEST(HmacMmio, TimingGatesStatus) {
  AccelHarness harness;
  harness.memory.write32(kRotSram.base, 0xAABBCCDD);
  harness.accel->write(kRotHmacAccel.base + HmacMmio::kSrc, 4, kRotSram.base);
  harness.accel->write(kRotHmacAccel.base + HmacMmio::kLen, 4, 4);
  harness.accel->write(kRotHmacAccel.base + HmacMmio::kCmd, 4, 1);
  // Immediately after start the engine is busy.
  EXPECT_EQ(harness.accel->read(kRotHmacAccel.base + HmacMmio::kStatus, 4), 0u);
  harness.now += 10'000;  // well past any block count
  EXPECT_EQ(harness.accel->read(kRotHmacAccel.base + HmacMmio::kStatus, 4), 1u);
  EXPECT_EQ(harness.accel->starts(), 1u);
}

TEST(HmacMmio, DigestIsDeterministicAndDataDependent) {
  AccelHarness harness;
  for (std::uint32_t i = 0; i < 16; ++i) {
    harness.memory.write8(kRotSram.base + i, static_cast<std::uint8_t>(i));
  }
  const auto digest_a = harness.run_mac(kRotSram.base, 16);
  const auto digest_b = harness.run_mac(kRotSram.base, 16);
  EXPECT_TRUE(crypto::digest_equal(digest_a, digest_b));

  harness.memory.write8(kRotSram.base + 3, 0xFF);
  const auto digest_c = harness.run_mac(kRotSram.base, 16);
  EXPECT_FALSE(crypto::digest_equal(digest_a, digest_c));
}

TEST(HmacMmio, KeySlotsDiffer) {
  AccelHarness harness;
  harness.memory.write32(kRotSram.base, 0x11223344);
  const auto slot0 = harness.run_mac(kRotSram.base, 4);
  harness.accel->write(kRotHmacAccel.base + HmacMmio::kKeySel, 4, 1);
  harness.accel->write(kRotHmacAccel.base + HmacMmio::kCmd, 4, 1);
  harness.now += 100'000;
  crypto::Digest slot1{};
  for (unsigned word = 0; word < 8; ++word) {
    const auto value = static_cast<std::uint32_t>(harness.accel->read(
        kRotHmacAccel.base + HmacMmio::kDigestBase + 4 * word, 4));
    slot1[4 * word] = static_cast<std::uint8_t>(value >> 24);
    slot1[4 * word + 1] = static_cast<std::uint8_t>(value >> 16);
    slot1[4 * word + 2] = static_cast<std::uint8_t>(value >> 8);
    slot1[4 * word + 3] = static_cast<std::uint8_t>(value);
  }
  EXPECT_FALSE(crypto::digest_equal(slot0, slot1));
}

TEST(HmacMmio, RegistersReadBack) {
  AccelHarness harness;
  harness.accel->write(kRotHmacAccel.base + HmacMmio::kSrc, 4, 0x1234);
  harness.accel->write(kRotHmacAccel.base + HmacMmio::kLen, 4, 64);
  EXPECT_EQ(harness.accel->read(kRotHmacAccel.base + HmacMmio::kSrc, 4), 0x1234u);
  EXPECT_EQ(harness.accel->read(kRotHmacAccel.base + HmacMmio::kLen, 4), 64u);
}

}  // namespace
}  // namespace titan::soc

namespace titan::cfi {
namespace {

struct RotFixture {
  soc::Mailbox mailbox;
  sim::Memory soc_memory;
  std::unique_ptr<RotSubsystem> rot;

  explicit RotFixture(RotFabric fabric = RotFabric::kBaseline) {
    fw::FirmwareConfig config;
    rot = std::make_unique<RotSubsystem>(
        ibex::FirmwareRom::build(fw::build_firmware(config)), fabric,
                                         mailbox, soc_memory);
  }
};

TEST(RotSubsystem, SectionClassification) {
  RotFixture fixture;
  const auto& marks = fixture.rot->firmware().marks;
  ASSERT_TRUE(marks.contains("init"));
  ASSERT_TRUE(marks.contains("irq"));
  ASSERT_TRUE(marks.contains("cfi"));
  EXPECT_EQ(fixture.rot->section_of(
                static_cast<std::uint32_t>(marks.at("cfi"))),
            "cfi");
  EXPECT_EQ(fixture.rot->section_of(
                static_cast<std::uint32_t>(marks.at("cfi")) + 8),
            "cfi");
  EXPECT_EQ(fixture.rot->section_of(
                static_cast<std::uint32_t>(marks.at("init"))),
            "init");
  EXPECT_EQ(fixture.rot->section_of(
                static_cast<std::uint32_t>(marks.at("irq")) + 4),
            "irq");
}

TEST(RotSubsystem, BaselineFabricLatencies) {
  RotFixture fixture(RotFabric::kBaseline);
  // Scratchpad: hop 3 + device 1 = 4 (core adds its 1-cycle base -> 5).
  EXPECT_EQ(fixture.rot->fabric().read(soc::kRotSram.base, 4).latency, 4u);
  // SoC side through the bridge: hop 3 + 8 = 11 (-> 12 with core base).
  EXPECT_EQ(fixture.rot->fabric().read(soc::kCfiMailbox.base, 4).latency, 11u);
}

TEST(RotSubsystem, OptimizedFabricLatencies) {
  RotFixture fixture(RotFabric::kOptimized);
  EXPECT_EQ(fixture.rot->fabric().read(soc::kRotSram.base, 4).latency, 0u);
  EXPECT_EQ(fixture.rot->fabric().read(soc::kCfiMailbox.base, 4).latency, 7u);
}

TEST(RotSubsystem, DoorbellRaisesPlicAndWakesIbex) {
  RotFixture fixture;
  fixture.rot->run_until(200);
  ASSERT_TRUE(fixture.rot->core().sleeping());
  EXPECT_FALSE(fixture.rot->plic().irq_asserted());
  fixture.mailbox.ring_doorbell();
  EXPECT_TRUE(fixture.rot->plic().irq_asserted());
  const auto step = fixture.rot->step();
  EXPECT_TRUE(step.irq_entry);
  EXPECT_FALSE(fixture.rot->core().sleeping());
}

TEST(RotSubsystem, RunUntilFastForwardsSleep) {
  RotFixture fixture;
  fixture.rot->run_until(150);
  ASSERT_TRUE(fixture.rot->core().sleeping());
  const auto before = fixture.rot->core().cycle();
  fixture.rot->run_until(before + 10'000);
  EXPECT_EQ(fixture.rot->core().cycle(), before + 10'000);
  EXPECT_EQ(fixture.rot->core().instret(),
            fixture.rot->core().instret());  // no instructions while asleep
}

}  // namespace
}  // namespace titan::cfi
