// Tests for the shared decoded-instruction cache: hit/miss behaviour, RVC
// window normalisation, and exact invalidation via the raw-encoding tag —
// after self-modifying stores and after Memory::load image replacement —
// at unit level and end-to-end on both core models; and the recycled
// storage of default-geometry caches (a reused arena reads as empty, and
// concurrent SoCs sharing the free list report what serial ones do).
#include "sim/decode_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "cva6/core.hpp"
#include "ibex/core.hpp"
#include "rv/assembler.hpp"
#include "self_modifying_program.hpp"
#include "sim/memory.hpp"
#include "soc/bus.hpp"

namespace titan {
namespace {

using test_programs::kAddiA0A0_1;
using test_programs::kAddiA0A0_64;
using test_programs::self_modifying_program;

TEST(DecodeCache, SecondDecodeOfSameWindowHits) {
  sim::DecodeCache cache(rv::Xlen::k64);
  const rv::Inst& first = cache.decode(0x1000, kAddiA0A0_1).inst;
  EXPECT_EQ(first.op, rv::Op::kAddi);
  EXPECT_EQ(first.imm, 1);
  const rv::Inst& again = cache.decode(0x1000, kAddiA0A0_1).inst;
  EXPECT_EQ(again.imm, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.decodes_avoided(), 1u);
}

TEST(DecodeCache, ChangedEncodingAtSamePcRedecodes) {
  sim::DecodeCache cache(rv::Xlen::k64);
  EXPECT_EQ(cache.decode(0x1000, kAddiA0A0_1).inst.imm, 1);
  // A store rewrote the instruction: the raw tag must miss and re-decode.
  EXPECT_EQ(cache.decode(0x1000, kAddiA0A0_64).inst.imm, 64);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DecodeCache, CompressedWindowIsNormalised) {
  sim::DecodeCache cache(rv::Xlen::k64);
  // c.li a0, 1 == 0x4505; the high half of the fetch window is whatever
  // follows in memory and must not affect hit or decode.
  const rv::Inst& a = cache.decode(0x2000, 0xFFFF'4505u).inst;
  EXPECT_EQ(a.op, rv::Op::kAddi);  // c.li expands to addi a0, x0, 1.
  EXPECT_EQ(a.len, 2);
  const rv::Inst& b = cache.decode(0x2000, 0x1234'4505u).inst;
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
  EXPECT_EQ(cache.decode(0x8000'0000, memory.fetch32(0x8000'0000)).inst.imm, 1);
  memory.load(0x8000'0000, image_b);
  EXPECT_EQ(cache.decode(0x8000'0000, memory.fetch32(0x8000'0000)).inst.imm, 64);
}

// ---- Derived fields of an entry ---------------------------------------------

static_assert(sizeof(sim::DecodeCache::Entry) == 40,
              "the kind and latency class must fit in the entry's padding");

// The host core's former per-issue latency switch, with a distinct cycle
// count per class so that a wrong class cannot hide behind an equal count.
std::uint32_t reference_latency(rv::Op op) {
  using rv::Op;
  switch (op) {
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu:
    case Op::kLhu: case Op::kLwu: case Op::kLd:
      return 3;
    case Op::kSb: case Op::kSh: case Op::kSw: case Op::kSd:
      return 5;
    case Op::kMul: case Op::kMulh: case Op::kMulhsu: case Op::kMulhu:
    case Op::kMulw:
      return 7;
    case Op::kDiv: case Op::kDivu: case Op::kRem: case Op::kRemu:
    case Op::kDivw: case Op::kDivuw: case Op::kRemw: case Op::kRemuw:
      return 11;
    default:
      return 1;
  }
}

TEST(DecodeCache, EntryCarriesClassifyAndLatencyClassForEveryOp) {
  constexpr std::array<std::uint32_t, sim::kLatencyClasses> kCycles = {
      1, 3, 5, 7, 11};  // Indexed by sim::LatencyClass.
  sim::DecodeCache cache(rv::Xlen::k64, 1);
  std::set<rv::Op> seen;
  const auto check = [&](std::uint32_t window) {
    const sim::DecodeCache::Entry& entry = cache.decode(0, window);
    ASSERT_EQ(entry.kind, rv::classify(entry.inst)) << std::hex << window;
    ASSERT_EQ(kCycles[static_cast<std::size_t>(entry.latency)],
              reference_latency(entry.inst.op))
        << std::hex << window;
    seen.insert(entry.inst.op);
  };
  // Every compressed window.
  for (std::uint32_t half = 0; half < 0x10000; ++half) {
    if ((half & 3) != 3) {
      check(half);
    }
  }
  // Every 32-bit major opcode x funct3 x bits 31:20 (funct7, rs2 and the
  // SYSTEM function codes), with rd and rs1 cycling through the link and
  // non-link registers.
  constexpr std::array<std::uint32_t, 4> kRegs = {0, 1, 5, 10};
  std::uint32_t n = 0;
  for (std::uint32_t opcode = 3; opcode < 0x80; opcode += 4) {
    for (std::uint32_t funct3 = 0; funct3 < 8; ++funct3) {
      for (std::uint32_t upper = 0; upper < 0x1000; ++upper, ++n) {
        const std::uint32_t rd = kRegs[n % 4];
        const std::uint32_t rs1 = (upper >> 5) == 0 ? 0 : kRegs[(n / 4) % 4];
        check(opcode | rd << 7 | funct3 << 12 | rs1 << 15 | upper << 20);
      }
    }
  }
  // JAL and JALR over every rd x rs1: each call / return / jump kind.
  for (std::uint32_t rd = 0; rd < 32; ++rd) {
    for (std::uint32_t rs1 = 0; rs1 < 32; ++rs1) {
      check(0x6F | rd << 7 | rs1 << 15);
      check(0x67 | rd << 7 | rs1 << 15);
    }
  }
  for (auto op = static_cast<unsigned>(rv::Op::kIllegal);
       op <= static_cast<unsigned>(rv::Op::kRemuw); ++op) {
    EXPECT_TRUE(seen.count(static_cast<rv::Op>(op)))
        << "no window decoded to " << rv::mnemonic(static_cast<rv::Op>(op));
  }
}

TEST(DecodeCache, SnapshotRoundTripKeepsDerivedFieldsAndClearsOnlyFilled) {
  sim::DecodeCache source(rv::Xlen::k64, 64);
  (void)source.decode(0x10, 0x000080E7);  // jalr ra, 0(ra): a call.
  (void)source.decode(0x20, kAddiA0A0_1);
  sim::SnapshotWriter writer;
  source.save_state(writer);

  // The target holds entries the snapshot does not: loading must drop them.
  sim::DecodeCache target(rv::Xlen::k64, 64);
  (void)target.decode(0x30, 0x02A5C533);  // div a0, a1, a0.
  sim::SnapshotReader reader(writer.data());
  target.load_state(reader);
  EXPECT_EQ(target.hits(), 0u);
  EXPECT_EQ(target.misses(), 2u);

  const sim::DecodeCache::Entry& call = target.decode(0x10, 0x000080E7);
  EXPECT_EQ(call.kind, rv::CfKind::kCall);
  EXPECT_EQ(call.latency, sim::LatencyClass::kAlu);
  EXPECT_EQ(target.hits(), 1u);
  (void)target.decode(0x30, 0x02A5C533);
  EXPECT_EQ(target.misses(), 3u);  // Cleared by the load: decoded anew.

  // Saving the loaded cache reproduces the blob byte for byte.
  sim::SnapshotWriter again;
  sim::DecodeCache copy(rv::Xlen::k64, 64);
  sim::SnapshotReader replay(writer.data());
  copy.load_state(replay);
  copy.save_state(again);
  EXPECT_EQ(again.data(), writer.data());
}

// ---- Recycled storage --------------------------------------------------------

// Slot 0's entry sits at the start of the cache's storage, so its address
// names the arena a cache was given.
const sim::DecodeCache::Entry* arena_of(sim::DecodeCache& cache) {
  return &cache.decode(0, kAddiA0A0_1);
}

TEST(DecodeCacheRecycling, ReusedArenaReadsAsEmpty) {
  constexpr std::size_t kSlots = sim::DecodeCache::kDefaultEntries;
  // Hold enough caches that the free list has room for the next release.
  std::vector<std::unique_ptr<sim::DecodeCache>> holders;
  for (std::size_t i = 0; i < sim::DecodeCache::kRecycledArenas; ++i) {
    holders.push_back(std::make_unique<sim::DecodeCache>(rv::Xlen::k64));
  }

  sim::SnapshotWriter writer;
  {
    sim::DecodeCache source(rv::Xlen::k64, kSlots);
    (void)source.decode(0x200, 0x000080E7);  // jalr ra, 0(ra)
    (void)source.decode(0x2000, 0x02A5C533);  // div a0, a1, a0
    source.save_state(writer);
  }
  // The PCs below map to distinct slots, none of them slot 0.
  const std::array<std::uint64_t, 4> pcs = {0x100, 0x200, 0x2000, 0x3002};
  const sim::DecodeCache::Entry* released = nullptr;
  {
    sim::DecodeCache cache(rv::Xlen::k64);
    released = arena_of(cache);
    sim::SnapshotReader reader(writer.data());
    cache.load_state(reader);                      // 0x200, 0x2000
    (void)cache.decode(0x100, kAddiA0A0_1);        // a miss
    (void)cache.decode(0x100, kAddiA0A0_64);       // a self-modifying store
    (void)cache.decode(0x3002, 0xFFFF'4505u);      // c.li a0, 1
    EXPECT_EQ(cache.decode(0x3002, 0x4505u).kind, rv::CfKind::kNone);
  }

  sim::DecodeCache reused(rv::Xlen::k64);
  EXPECT_EQ(reused.hits(), 0u);
  EXPECT_EQ(reused.misses(), 0u);
  // Every PC filled before the release decodes anew, then hits.
  const std::array<std::uint32_t, 4> windows = {kAddiA0A0_64, 0x000080E7,
                                                0x02A5C533, 0x4505u};
  for (std::size_t i = 0; i < pcs.size(); ++i) {
    const sim::DecodeCache::Entry& entry = reused.decode(pcs[i], windows[i]);
    EXPECT_EQ(entry.inst.op, rv::decode(windows[i], rv::Xlen::k64).op);
    EXPECT_EQ(reused.misses(), i + 1) << std::hex << pcs[i];
    (void)reused.decode(pcs[i], windows[i]);
    EXPECT_EQ(reused.hits(), i + 1) << std::hex << pcs[i];
  }
  sim::SnapshotWriter saved;
  reused.save_state(saved);
  sim::SnapshotReader check(saved.data());
  (void)check.u64();
  (void)check.u64();
  EXPECT_EQ(check.u64(), pcs.size());  // Only the slots filled here.
  // The witness that the arena was the released one, not a fresh block.
  EXPECT_EQ(arena_of(reused), released);
}

TEST(DecodeCacheRecycling, OtherGeometriesNeverTakeARecycledArena) {
  const sim::DecodeCache::Entry* released = nullptr;
  {
    sim::DecodeCache cache(rv::Xlen::k64);
    released = arena_of(cache);
  }
  for (const std::size_t entries : {std::size_t{1}, std::size_t{64},
                                    sim::DecodeCache::kDefaultEntries * 2}) {
    sim::DecodeCache other(rv::Xlen::k64, entries);
    EXPECT_NE(arena_of(other), released) << entries;
    EXPECT_EQ(other.misses(), 1u);
  }
  // The released arena is still on the list for the default geometry.
  sim::DecodeCache again(rv::Xlen::k64);
  EXPECT_EQ(arena_of(again), released);
  EXPECT_EQ(again.misses(), 1u);
}

TEST(DecodeCacheRecycling, SecondCoreRunReportsTheSameDecodeCounts) {
  const rv::Image image = self_modifying_program();
  const auto run = [&] {
    sim::Memory memory;
    memory.load(image.base, image.bytes);
    cva6::Cva6Config config;
    config.reset_pc = image.base;
    cva6::Cva6Core core(config, memory);
    core.set_trace_enabled(false);
    core.run_baseline();
    return std::array<std::uint64_t, 4>{
        core.exit_code(), core.cycle(), core.decode_cache().hits(),
        core.decode_cache().misses()};
  };
  const auto first = run();
  EXPECT_EQ(first[0], 65u);
  EXPECT_EQ(run(), first);
}

TEST(DecodeCacheRecycling, ConcurrentSocsMatchSerialReports) {
  const api::ScenarioRegistry& registry = api::ScenarioRegistry::global();
  std::vector<const api::Scenario*> scenarios;
  for (const std::string_view name :
       {"irq/baseline/burst1", "irq/baseline/burst8+mac", "attacks/rop_L4",
        "faults/all_sites_closed"}) {
    scenarios.push_back(registry.find(name));
    ASSERT_NE(scenarios.back(), nullptr) << name;
  }
  const api::ScenarioSet matrix =
      registry.query("attack_matrix", "attack_matrix");
  for (const api::Scenario& scenario : matrix) {
    scenarios.push_back(&scenario);
  }
  const api::ReportSchema schema;
  std::vector<std::string> serial;
  for (const api::Scenario* scenario : scenarios) {
    serial.push_back(schema.render(api::run_scenario(*scenario)));
  }
  // Each thread starts at a different scenario, so SoCs of different
  // scenarios are built and destroyed at once.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::string>> rendered(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rendered[t].resize(scenarios.size());
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const std::size_t k = (i + t * scenarios.size() / kThreads) %
                              scenarios.size();
        rendered[t][k] = schema.render(api::run_scenario(*scenarios[k]));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(rendered[t], serial) << "thread " << t;
  }
}

// ---- End-to-end: self-modifying code on the CVA6 model ----------------------

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
