#include "sim/snapshot.hpp"

#include <string_view>

#include "sim/sweep_doc.hpp"

namespace titan::sim {

namespace {

/// Render the payload (everything after the blob header) for one snapshot.
/// seal(), to_blob() and from_blob() all agree on this encoding, and the
/// fingerprint is FNV-1a over exactly these bytes.
std::vector<std::uint8_t> render_payload(const Snapshot& snapshot) {
  SnapshotWriter writer;
  writer.str(snapshot.scenario);
  writer.u64(snapshot.cycle);
  writer.u64(snapshot.memories.size());
  for (const Memory::Image& image : snapshot.memories) {
    write_memory_image(writer, image);
  }
  writer.bytes(snapshot.state);
  writer.u64(snapshot.log_words.size());
  for (const std::uint64_t word : snapshot.log_words) {
    writer.u64(word);
  }
  return writer.take();
}

std::uint64_t payload_fingerprint(std::span<const std::uint8_t> payload) {
  return fingerprint64(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
}

}  // namespace

void write_memory_image(SnapshotWriter& writer, const Memory::Image& image) {
  writer.u64(image.pages.size());
  for (const auto& [page_no, page] : image.pages) {
    writer.u64(page_no);
    writer.raw(std::span<const std::uint8_t>(page->data(), page->size()));
  }
  writer.u64(image.stats.reads);
  writer.u64(image.stats.writes);
  writer.u64(image.stats.fetches);
  writer.u64(image.stats.page_cache_hits);
  writer.u64(image.stats.page_cache_misses);
  writer.u64(image.stats.straddles);
  writer.u64(image.stats.unmapped_reads);
  writer.u64(image.stats.bulk_bytes);
  writer.u64(image.stats.neg_cache_hits);
  for (const auto& lane : image.way_tags) {
    for (const Addr tag : lane) {
      writer.u64(tag);
    }
  }
  for (const Addr tag : image.neg_tags) {
    writer.u64(tag);
  }
  writer.boolean(image.fast_path);
  writer.boolean(image.strict_unmapped);
}

Memory::Image read_memory_image(SnapshotReader& reader) {
  Memory::Image image;
  const std::uint64_t page_count = reader.u64();
  image.pages.reserve(static_cast<std::size_t>(page_count));
  Addr last_page_no = 0;
  for (std::uint64_t i = 0; i < page_count; ++i) {
    const Addr page_no = reader.u64();
    if (i > 0 && page_no <= last_page_no) {
      throw SnapshotError("snapshot: memory image pages out of order");
    }
    last_page_no = page_no;
    auto page = std::make_shared<Memory::Page>();
    reader.raw(std::span<std::uint8_t>(page->data(), page->size()));
    image.pages.emplace_back(page_no, std::move(page));
  }
  image.stats.reads = reader.u64();
  image.stats.writes = reader.u64();
  image.stats.fetches = reader.u64();
  image.stats.page_cache_hits = reader.u64();
  image.stats.page_cache_misses = reader.u64();
  image.stats.straddles = reader.u64();
  image.stats.unmapped_reads = reader.u64();
  image.stats.bulk_bytes = reader.u64();
  image.stats.neg_cache_hits = reader.u64();
  for (auto& lane : image.way_tags) {
    for (Addr& tag : lane) {
      tag = reader.u64();
    }
  }
  for (Addr& tag : image.neg_tags) {
    tag = reader.u64();
  }
  image.fast_path = reader.boolean();
  image.strict_unmapped = reader.boolean();
  return image;
}

void Snapshot::seal() { fingerprint = payload_fingerprint(render_payload(*this)); }

std::vector<std::uint8_t> Snapshot::to_blob() const {
  const std::vector<std::uint8_t> payload = render_payload(*this);
  SnapshotWriter writer;
  writer.u32(kMagic);
  writer.u32(kVersion);
  writer.u64(payload_fingerprint(payload));
  writer.raw(payload);
  return writer.take();
}

Snapshot Snapshot::from_blob(std::span<const std::uint8_t> blob) {
  SnapshotReader header(blob);
  if (blob.size() < 16) {
    throw SnapshotError("snapshot: blob shorter than header");
  }
  if (header.u32() != kMagic) {
    throw SnapshotError("snapshot: bad magic (not a snapshot blob)");
  }
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw SnapshotError("snapshot: unsupported format version " +
                        std::to_string(version));
  }
  const std::uint64_t stated = header.u64();
  const std::span<const std::uint8_t> payload = blob.subspan(16);
  if (payload_fingerprint(payload) != stated) {
    throw SnapshotError("snapshot: payload fingerprint mismatch (corrupt or "
                        "tampered blob)");
  }

  Snapshot snapshot;
  snapshot.fingerprint = stated;
  SnapshotReader reader(payload);
  snapshot.scenario = reader.str();
  snapshot.cycle = reader.u64();
  const std::uint64_t memory_count = reader.u64();
  snapshot.memories.reserve(static_cast<std::size_t>(memory_count));
  for (std::uint64_t i = 0; i < memory_count; ++i) {
    snapshot.memories.push_back(read_memory_image(reader));
  }
  snapshot.state = reader.bytes();
  const std::uint64_t log_count = reader.u64();
  snapshot.log_words.reserve(static_cast<std::size_t>(log_count));
  for (std::uint64_t i = 0; i < log_count; ++i) {
    snapshot.log_words.push_back(reader.u64());
  }
  if (!reader.done()) {
    throw SnapshotError("snapshot: trailing bytes after payload");
  }
  return snapshot;
}

}  // namespace titan::sim
