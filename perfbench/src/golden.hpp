// Committed golden outputs.  A golden file holds one "<digest> <name>" line
// per output: the FNV-1a 64 digest of the canonical ReportSchema rendering
// of a scenario run on the lock-step engine, or of a paper-table row.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// FNV-1a 64 of `text` as 16 lowercase hex digits.  The benchmark's own
/// digest, so that no change to the program can move the goldens.
std::string digest(std::string_view text);

class GoldenSet {
 public:
  /// Read a golden file; throws std::runtime_error when it is missing or a
  /// line is malformed.
  static GoldenSet load(const std::string& path);

  void add(std::string name, std::string digest_hex);
  /// True iff `name` has a golden and `output` digests to it.  An output
  /// without a golden fails: every checked output must be committed.
  [[nodiscard]] bool matches(const std::string& name,
                             std::string_view output) const;
  [[nodiscard]] std::size_t size() const { return digests_.size(); }

  /// Write every entry, sorted by name.
  void save(const std::string& path) const;

 private:
  std::map<std::string, std::string> digests_;
};

/// A served run response is correct when it reports success and its
/// "report" field, unescaped, digests to the batch golden of `name`.  On a
/// match, stores the report's simulated cycle count in `*cycles`.
bool served_output_matches(const std::string& response_line,
                           const std::string& name, const GoldenSet& goldens,
                           double* cycles);

}  // namespace perfbench
