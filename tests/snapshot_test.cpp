// sim::Snapshot primitives: stream writer/reader bounds and sentinels, the
// versioned blob format (magic / version / fingerprint / payload-shape
// validation), Memory::Image serialization, and the checkpoint file/bundle
// transport — a stale, foreign, truncated, or corrupted checkpoint must fail
// loudly with SnapshotError, never half-restore.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "sim/memory.hpp"
#include "sim/snapshot.hpp"

namespace titan::sim {
namespace {

TEST(SnapshotStreamTest, PrimitivesRoundTrip) {
  SnapshotWriter writer;
  writer.u8(0xAB);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123'4567'89AB'CDEFull);
  writer.boolean(true);
  writer.boolean(false);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  writer.bytes(payload);
  writer.raw(payload);
  writer.str("hello snapshot");
  writer.tag(0x534E4150);

  SnapshotReader reader(writer.data());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123'4567'89AB'CDEFull);
  EXPECT_TRUE(reader.boolean());
  EXPECT_FALSE(reader.boolean());
  EXPECT_EQ(reader.bytes(), payload);
  std::vector<std::uint8_t> raw(payload.size());
  reader.raw(raw);
  EXPECT_EQ(raw, payload);
  EXPECT_EQ(reader.str(), "hello snapshot");
  reader.expect_tag(0x534E4150, "test section");
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(SnapshotStreamTest, TruncationThrows) {
  SnapshotWriter writer;
  writer.u32(42);
  SnapshotReader reader(writer.data());
  (void)reader.u32();
  EXPECT_THROW((void)reader.u8(), SnapshotError);

  SnapshotReader second(writer.data());
  EXPECT_THROW((void)second.u64(), SnapshotError);
}

TEST(SnapshotStreamTest, TagMismatchThrows) {
  SnapshotWriter writer;
  writer.tag(0x11111111);
  SnapshotReader reader(writer.data());
  EXPECT_THROW(reader.expect_tag(0x22222222, "wrong section"), SnapshotError);
}

TEST(SnapshotMemoryImageTest, ImageRoundTripsThroughStream) {
  Memory memory;
  memory.write64(0x1000, 0x1122'3344'5566'7788ull);
  memory.write8(0x5FFF, 0x7F);
  (void)memory.read64(0x1000);
  (void)memory.read8(0x9000);  // unmapped: primes the negative cache

  const Memory::Image image = memory.capture();
  SnapshotWriter writer;
  write_memory_image(writer, image);
  SnapshotReader reader(writer.data());
  const Memory::Image loaded = read_memory_image(reader);
  EXPECT_TRUE(reader.done());

  EXPECT_EQ(loaded.pages.size(), image.pages.size());
  EXPECT_EQ(loaded.stats, image.stats);
  EXPECT_EQ(loaded.way_tags, image.way_tags);
  EXPECT_EQ(loaded.neg_tags, image.neg_tags);
  Memory restored;
  restored.restore(loaded);
  EXPECT_EQ(restored.read64(0x1000), 0x1122'3344'5566'7788ull);
  EXPECT_EQ(restored.read8(0x5FFF), 0x7F);
}

api::Scenario tiny_scenario() {
  return api::ScenarioBuilder()
      .name("snapshot_blob")
      .workload(api::Workload::fib(6))
      .build();
}

TEST(SnapshotBlobTest, BlobRoundTripPreservesFingerprint) {
  const auto snapshot = api::capture_checkpoint(tiny_scenario(), 500);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_NE(snapshot->fingerprint, 0u);

  const std::vector<std::uint8_t> blob = snapshot->to_blob();
  const Snapshot loaded = Snapshot::from_blob(blob);
  EXPECT_EQ(loaded.fingerprint, snapshot->fingerprint);
  EXPECT_EQ(loaded.scenario, snapshot->scenario);
  EXPECT_EQ(loaded.cycle, snapshot->cycle);
  EXPECT_EQ(loaded.state, snapshot->state);
  EXPECT_EQ(loaded.log_words, snapshot->log_words);
  ASSERT_EQ(loaded.memories.size(), snapshot->memories.size());
  for (std::size_t i = 0; i < loaded.memories.size(); ++i) {
    EXPECT_EQ(loaded.memories[i].pages.size(),
              snapshot->memories[i].pages.size());
    EXPECT_EQ(loaded.memories[i].stats, snapshot->memories[i].stats);
  }
  // Serialization is deterministic: a second render is byte-identical.
  EXPECT_EQ(loaded.to_blob(), blob);
}

TEST(SnapshotBlobTest, RejectsTruncatedBlob) {
  const auto snapshot = api::capture_checkpoint(tiny_scenario(), 500);
  std::vector<std::uint8_t> blob = snapshot->to_blob();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                 std::size_t{15}, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW((void)Snapshot::from_blob(cut), SnapshotError)
        << "kept " << keep << " bytes";
  }
}

TEST(SnapshotBlobTest, RejectsBadMagicAndVersion) {
  const auto snapshot = api::capture_checkpoint(tiny_scenario(), 500);
  std::vector<std::uint8_t> bad_magic = snapshot->to_blob();
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)Snapshot::from_blob(bad_magic), SnapshotError);

  std::vector<std::uint8_t> bad_version = snapshot->to_blob();
  bad_version[4] = 0x7F;  // unknown future version
  EXPECT_THROW((void)Snapshot::from_blob(bad_version), SnapshotError);

  // Version 1 blobs carried the removed trace-ring fields; they must be
  // refused, not parsed against the version 2 layout.
  std::vector<std::uint8_t> old_version = snapshot->to_blob();
  old_version[4] = 0x01;
  EXPECT_THROW((void)Snapshot::from_blob(old_version), SnapshotError);

  // Version 2 blobs carried the RoT ROM image and the Ibex decode cache;
  // they are refused with the version message.
  std::vector<std::uint8_t> rom_version = snapshot->to_blob();
  rom_version[4] = 0x02;
  try {
    (void)Snapshot::from_blob(rom_version);
    ADD_FAILURE() << "version 2 blob accepted";
  } catch (const SnapshotError& error) {
    EXPECT_STREQ(error.what(), "snapshot: unsupported format version 2");
  }
}

TEST(SnapshotBlobTest, RejectsPayloadCorruption) {
  const auto snapshot = api::capture_checkpoint(tiny_scenario(), 500);
  std::vector<std::uint8_t> blob = snapshot->to_blob();
  // Flip one payload byte (past the 16-byte header): the fingerprint check
  // must catch it no matter which component's bytes were hit.
  blob[16 + blob.size() / 2] ^= 0x01;
  EXPECT_THROW((void)Snapshot::from_blob(blob), SnapshotError);
}

TEST(SnapshotBlobTest, RejectsTrailingBytes) {
  const auto snapshot = api::capture_checkpoint(tiny_scenario(), 500);
  std::vector<std::uint8_t> blob = snapshot->to_blob();
  blob.push_back(0x00);
  EXPECT_THROW((void)Snapshot::from_blob(blob), SnapshotError);
}

TEST(SnapshotFileTest, BundleRoundTripAndRejection) {
  const std::string path = ::testing::TempDir() + "snapshot_bundle_test.ckpt";
  const api::ScenarioSet grid =
      api::ScenarioRegistry::global().query("fig1_liveness", "bundle_test");
  ASSERT_FALSE(grid.empty());
  const auto snapshots = api::capture_grid_checkpoints(grid, 500);
  api::save_checkpoint_bundle(snapshots, path);
  const auto loaded = api::load_checkpoint_bundle(path);
  ASSERT_EQ(loaded.size(), snapshots.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i]->fingerprint, snapshots[i]->fingerprint);
    EXPECT_EQ(loaded[i]->scenario, snapshots[i]->scenario);
  }

  // Truncate the bundle mid-snapshot: loading must throw, not half-load.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  }
  EXPECT_THROW((void)api::load_checkpoint_bundle(path), SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace titan::sim
