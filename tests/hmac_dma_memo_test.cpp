// The RoT HMAC block's block DMA and the per-SoC MAC memo: the crossbar's
// block read is differential-tested against its per-byte path, the memo
// against direct HMAC computation, and a memo'd SoC against a memo-less one.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "crypto/hmac.hpp"
#include "sim/memory.hpp"
#include "soc/bus.hpp"
#include "soc/hmac_mmio.hpp"
#include "soc/mailbox.hpp"

namespace titan {
namespace {

// ---- Crossbar::read_bytes vs one read(addr + i, 1) per byte ----------------

constexpr soc::Region kMemRegion{0x0, 0x2000};  // Two pages; the second unwritten.
constexpr soc::Region kMailboxRegion{0x2000, 0x1000};  // Abuts the memory.
constexpr soc::Region kRomRegion{0x3000, 0x100};
constexpr soc::Region kHmacRegion{0x4000, 0x1000};
constexpr std::uint64_t kSecret = 0x5EC2E7;

/// Every kind of bus target behind one crossbar, in a fixed state.  Two rigs
/// built alike are identical, so one can take the block path and the other
/// the byte path.
struct BusRig {
  sim::Memory memory;
  soc::MemoryTarget memory_target{memory};
  soc::Mailbox mailbox;
  std::vector<std::uint8_t> rom_bytes;
  std::unique_ptr<soc::RomTarget> rom;
  soc::Crossbar bus{"rig", 1};
  std::uint64_t now = 0;
  std::unique_ptr<soc::HmacMmio> hmac;

  BusRig() {
    for (unsigned i = 0; i < 0x1000; ++i) {
      memory.write8(kMemRegion.base + i, static_cast<std::uint8_t>(i * 7 + 3));
    }
    for (unsigned i = 0; i < soc::Mailbox::kDataRegs; ++i) {
      mailbox.set_data(i, 0x0101'0101'0101'0101ULL * (i + 1) + 0x8000);
    }
    mailbox.set_batch_count(11);
    for (unsigned i = 0; i < soc::Mailbox::kMacRegs; ++i) {
      mailbox.set_batch_mac(i, 0xA5A5'0000'0000'0000ULL | i);
    }
    for (unsigned slot = 0; slot < soc::Mailbox::kBatchSlots; ++slot) {
      for (unsigned beat = 0; beat < soc::Mailbox::kSlotRegs; ++beat) {
        mailbox.set_batch_beat(slot, beat,
                               0x0123'4567'89AB'CDEFULL * (slot + 1) + beat);
      }
    }
    mailbox.ring_doorbell();
    mailbox.signal_completion();
    for (unsigned i = 0; i < 0x80; ++i) {
      rom_bytes.push_back(static_cast<std::uint8_t>(0xF0 ^ i));
    }
    rom = std::make_unique<soc::RomTarget>(kRomRegion.base, rom_bytes);
    hmac = std::make_unique<soc::HmacMmio>(bus, kSecret, [this] { return now; });
    bus.map(kMemRegion, memory_target, 0, "mem");
    bus.map(kMailboxRegion, mailbox, 0, "mailbox");
    bus.map(kRomRegion, *rom, 0, "rom");
    bus.map(kHmacRegion, *hmac, 0, "hmac");
    // A completed MAC, so the digest registers hold data.
    hmac->write(kHmacRegion.base + soc::HmacMmio::kSrc, 4, 0x40);
    hmac->write(kHmacRegion.base + soc::HmacMmio::kLen, 4, 48);
    hmac->write(kHmacRegion.base + soc::HmacMmio::kCmd, 4, 1);
    memory.reset_stats();
  }
};

struct Range {
  soc::Addr addr;
  std::size_t length;
  const char* what;
};

const Range kRanges[] = {
    {0x10, 64, "memory"},
    {0x3, 13, "memory, unaligned"},
    {0xFF0, 0x40, "memory into its unwritten page"},
    {0x1800, 16, "unwritten memory page"},
    {0x2000, 0x300, "whole mailbox register file and the hole after it"},
    {0x2040, 16, "doorbell and completion"},
    {0x2043, 9, "inside the doorbell and completion registers"},
    {0x2050, 16, "batch count and the hole after it"},
    {0x2060, 32, "batch MAC"},
    {0x2080, 16 * 32, "whole batch area"},
    {0x2083, 29, "batch area, unaligned"},
    {0x2278, 16, "end of the batch area into the hole"},
    {0x2FF8, 8, "last mailbox word"},
    {0x3000, 0x100, "ROM across its image end"},
    {0x307E, 4, "ROM straddling its image end"},
    {0x4000, 0x40, "HMAC registers and digest"},
    {0x5000, 32, "unmapped"},
    {0x1FF8, 16, "straddles memory and mailbox"},
    {0x30F8, 16, "straddles ROM and unmapped"},
    {0x10, 0, "length zero"},
    {std::numeric_limits<soc::Addr>::max() - 3, 8, "wraps past the top"},
};

TEST(CrossbarReadBytes, MatchesPerByteReads) {
  for (const Range& range : kRanges) {
    SCOPED_TRACE(range.what);
    BusRig block;
    BusRig bytes;
    const std::uint64_t block_before = block.bus.transaction_count();
    const std::uint64_t bytes_before = bytes.bus.transaction_count();
    std::vector<std::uint8_t> got(range.length, 0xEE);
    block.bus.read_bytes(range.addr, got);
    std::vector<std::uint8_t> want(range.length);
    for (std::size_t i = 0; i < range.length; ++i) {
      want[i] = static_cast<std::uint8_t>(
          bytes.bus.read(range.addr + i, 1).value);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(block.bus.transaction_count() - block_before, range.length);
    EXPECT_EQ(block.bus.transaction_count(), bytes.bus.transaction_count());
    EXPECT_EQ(block.memory.stats(), bytes.memory.stats());
    EXPECT_EQ(bytes.bus.transaction_count() - bytes_before, range.length);
  }
}

TEST(CrossbarReadBytes, MailboxCopiesWholeRegisters) {
  BusRig rig;
  std::vector<std::uint8_t> out(8);
  rig.bus.read_bytes(kMailboxRegion.base + soc::Mailbox::slot_offset(3) + 8,
                     out);
  const std::uint64_t beat = rig.mailbox.batch_beat(3, 1);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], static_cast<std::uint8_t>(beat >> (8 * i)));
  }
}

// ---- The HMAC block's DMA --------------------------------------------------

TEST(HmacDma, SourceWrapsAtThirtyTwoBits) {
  BusRig rig;
  const std::uint64_t before = rig.bus.transaction_count();
  rig.hmac->write(kHmacRegion.base + soc::HmacMmio::kSrc, 4, 0xFFFF'FFFC);
  rig.hmac->write(kHmacRegion.base + soc::HmacMmio::kLen, 4, 8);
  rig.hmac->write(kHmacRegion.base + soc::HmacMmio::kCmd, 4, 1);
  EXPECT_EQ(rig.bus.transaction_count() - before, 8u);
  // Four unmapped bytes below 2^32, then memory from address 0.
  const std::vector<std::uint8_t> message = {
      0, 0, 0, 0, rig.memory.read8(0), rig.memory.read8(1),
      rig.memory.read8(2), rig.memory.read8(3)};
  const crypto::Digest want = soc::derive_slot_key(kSecret, 0).mac(message);
  for (unsigned word = 0; word < 8; ++word) {
    const std::uint64_t got = rig.hmac->read(
        kHmacRegion.base + soc::HmacMmio::kDigestBase + 4 * word, 4);
    const std::uint64_t expected = (std::uint64_t{want[4 * word]} << 24) |
                                   (std::uint64_t{want[4 * word + 1]} << 16) |
                                   (std::uint64_t{want[4 * word + 2]} << 8) |
                                   want[4 * word + 3];
    EXPECT_EQ(got, expected) << "digest word " << word;
  }
}

/// Run the same start sequence with and without a memo: the memo may only
/// change host time.
TEST(HmacDma, MemoLeavesDigestsAndAccountingUnchanged) {
  BusRig plain;
  BusRig memoised;
  crypto::MacMemo memo;
  memoised.hmac->set_mac_memo(&memo);
  const struct {
    std::uint32_t src;
    std::uint32_t len;
    std::uint32_t key_sel;
  } kStarts[] = {{0x2080, 256, 1}, {0x2080, 256, 1}, {0x2080, 256, 0},
                 {0x2080, 255, 0}, {0x10, 2000, 1}, {0x10, 2000, 1},
                 {0x2080, 255, 0}};
  for (const auto& start : kStarts) {
    for (BusRig* rig : {&plain, &memoised}) {
      rig->hmac->write(kHmacRegion.base + soc::HmacMmio::kSrc, 4, start.src);
      rig->hmac->write(kHmacRegion.base + soc::HmacMmio::kLen, 4, start.len);
      rig->hmac->write(kHmacRegion.base + soc::HmacMmio::kKeySel, 4,
                       start.key_sel);
      rig->hmac->write(kHmacRegion.base + soc::HmacMmio::kCmd, 4, 1);
    }
    for (unsigned word = 0; word < 8; ++word) {
      const soc::Addr digest = kHmacRegion.base + soc::HmacMmio::kDigestBase;
      EXPECT_EQ(plain.hmac->read(digest + 4 * word, 4),
                memoised.hmac->read(digest + 4 * word, 4));
    }
  }
  // The repeated 256-byte start, and the last start: the 2000-byte ones
  // bypass the memo, so it still holds the 255-byte message.
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(plain.hmac->engine().total_cycles(),
            memoised.hmac->engine().total_cycles());
  EXPECT_EQ(plain.hmac->engine().invocations(),
            memoised.hmac->engine().invocations());
  EXPECT_EQ(plain.hmac->starts(), memoised.hmac->starts());
  EXPECT_EQ(plain.bus.transaction_count(), memoised.bus.transaction_count());

}

// ---- MacMemo ---------------------------------------------------------------

std::vector<std::uint8_t> message_of(std::size_t length) {
  std::vector<std::uint8_t> message(length);
  for (std::size_t i = 0; i < length; ++i) {
    message[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  return message;
}

TEST(MacMemo, HitsOnSameKeyAndBytes) {
  const crypto::HmacKey key = soc::derive_slot_key(kSecret, 1);
  const auto message = message_of(256);
  crypto::MacMemo memo;
  EXPECT_TRUE(memo.empty());
  EXPECT_EQ(memo.mac(key, message), key.mac(message));
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.mac(key, message), key.mac(message));
  EXPECT_EQ(memo.hits(), 1u);
}

TEST(MacMemo, MissesUnderAnotherKeySlot) {
  const crypto::HmacKey slot0 = soc::derive_slot_key(kSecret, 0);
  const crypto::HmacKey slot1 = soc::derive_slot_key(kSecret, 1);
  const auto message = message_of(96);
  crypto::MacMemo memo;
  (void)memo.mac(slot0, message);
  EXPECT_EQ(memo.mac(slot1, message), slot1.mac(message));
  EXPECT_NE(slot0.mac(message), slot1.mac(message));
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(MacMemo, MissesOnEveryFlippedBit) {
  const crypto::HmacKey key = soc::derive_slot_key(kSecret, 1);
  const auto message = message_of(64);
  crypto::MacMemo memo;
  for (std::size_t bit = 0; bit < 8 * message.size(); ++bit) {
    (void)memo.mac(key, message);
    auto flipped = message;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_EQ(memo.mac(key, flipped), key.mac(flipped)) << "bit " << bit;
  }
  EXPECT_EQ(memo.hits(), 0u);
  // A prefix of the memoised message is a different message too.
  (void)memo.mac(key, message);
  const std::span<const std::uint8_t> prefix(message.data(), 63);
  EXPECT_EQ(memo.mac(key, prefix), key.mac(prefix));
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(MacMemo, OversizeMessagesBypassIt) {
  const crypto::HmacKey key = soc::derive_slot_key(kSecret, 1);
  const auto largest = message_of(crypto::MacMemo::kMaxMessageBytes);
  const auto oversize = message_of(crypto::MacMemo::kMaxMessageBytes + 1);
  crypto::MacMemo memo;
  (void)memo.mac(key, largest);
  EXPECT_EQ(memo.mac(key, largest), key.mac(largest));
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.mac(key, oversize), key.mac(oversize));
  EXPECT_EQ(memo.mac(key, oversize), key.mac(oversize));
  EXPECT_EQ(memo.hits(), 1u);
  // The bypass leaves the stored entry in place.
  (void)memo.mac(key, largest);
  EXPECT_EQ(memo.hits(), 2u);
}

// ---- A SoC with the memo against one without -------------------------------

std::string render(const api::RunReport& report) {
  return api::ReportSchema().render(report);
}

api::RunHooks without_memo() {
  api::RunHooks hooks;
  hooks.configure = [](cfi::SocTop& soc) {
    soc.log_writer().set_mac_memo(nullptr);
    soc.rot().set_mac_memo(nullptr);
  };
  return hooks;
}

TEST(MacMemoSoc, BatchMacStartsHitTheMemo) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find("drain/burst8_mac");
  ASSERT_NE(scenario, nullptr);
  const auto soc = scenario->make_soc();
  (void)soc->run();
  const std::uint64_t starts = soc->rot().hmac().starts();
  ASSERT_GT(starts, 10u);
  EXPECT_GE(soc->mac_memo().hits() * 10, starts * 9)
      << soc->mac_memo().hits() << " hits of " << starts << " starts";
}

TEST(MacMemoSoc, MemoChangesNoReportByte) {
  const api::ScenarioRegistry& registry = api::ScenarioRegistry::global();
  std::size_t checked = 0;
  for (const std::string_view name : registry.names()) {
    const api::Scenario& scenario = *registry.find(name);
    if (!scenario.soc_config().mac_batches ||
        scenario.soc_config().drain_burst < 2) {
      continue;
    }
    SCOPED_TRACE(scenario.serialize());
    EXPECT_EQ(render(api::run_scenario(scenario)),
              render(api::run_scenario(scenario, without_memo())));
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST(MacMemoSoc, MacCorruptionIsStillDetected) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find("faults/mac_corrupt_halt");
  ASSERT_NE(scenario, nullptr);
  const api::RunReport report = api::run_scenario(*scenario);
  EXPECT_TRUE(report.cfi_fault);
  EXPECT_EQ(render(report), render(api::run_scenario(*scenario, without_memo())));
}

TEST(MacMemoSoc, WarmRunStartsEmptyAndRendersTheColdReport) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find("drain/burst8_mac");
  ASSERT_NE(scenario, nullptr);
  const api::RunReport cold = api::run_scenario(*scenario);
  const auto snapshot = api::capture_checkpoint(*scenario, cold.cycles / 2);
  const auto soc = scenario->make_soc();
  soc->restore(*snapshot);
  EXPECT_TRUE(soc->mac_memo().empty());
  for (const api::Engine engine :
       {api::Engine::kLockStep, api::Engine::kEventDriven}) {
    EXPECT_EQ(render(api::run_scenario(
                  scenario->with_engine(engine).with_warm_start(snapshot))),
              render(cold));
  }
}

}  // namespace
}  // namespace titan
