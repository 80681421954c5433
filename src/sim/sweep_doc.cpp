#include "sim/sweep_doc.hpp"

#include <cstdio>
#include <fstream>

namespace titan::sim {
namespace {

// Document layout version, emitted in every header.
constexpr int kSchemaVersion = 1;

}  // namespace

std::uint64_t fingerprint64(std::string_view data) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis.
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a prime.
  }
  return hash;
}

std::string fingerprint_hex(std::string_view data) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint64(data)));
  return buffer;
}

std::string render_full_document(const SweepDocHeader& header,
                                 const RowEmitter& emit_row) {
  JsonWriter json;
  json.begin_object()
      .field("bench", std::string_view(header.bench))
      .field("schema", kSchemaVersion)
      .field("points", header.total_points)
      .field("grid_hash", std::string_view(header.grid_hash))
      .field("config_fingerprint",
             std::string_view(header.config_fingerprint));
  json.begin_array("rows");
  for (std::size_t index = 0; index < header.total_points; ++index) {
    emit_row(json, index);
  }
  json.end_array().end_object();
  return json.str();
}

bool write_document(const std::string& path, std::string_view document) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  os << document << "\n";
  os.flush();
  return os.good();
}

}  // namespace titan::sim
