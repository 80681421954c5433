#include "golden.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/json.hpp"

namespace perfbench {

std::string digest(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

GoldenSet GoldenSet::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read golden file " + path);
  }
  GoldenSet set;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string hex;
    std::string name;
    if (!(fields >> hex >> name) || hex.size() != 16) {
      throw std::runtime_error("malformed golden line in " + path + ": " +
                               line);
    }
    set.add(std::move(name), std::move(hex));
  }
  return set;
}

void GoldenSet::add(std::string name, std::string digest_hex) {
  digests_[std::move(name)] = std::move(digest_hex);
}

bool GoldenSet::matches(const std::string& name,
                        std::string_view output) const {
  const auto it = digests_.find(name);
  return it != digests_.end() && it->second == digest(output);
}

void GoldenSet::save(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& [name, hex] : digests_) {
    out << hex << ' ' << name << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write golden file " + path);
  }
}

bool served_output_matches(const std::string& response_line,
                           const std::string& name, const GoldenSet& goldens,
                           double* cycles) {
  using titan::sim::JsonValue;
  try {
    const JsonValue response = JsonValue::parse(response_line);
    const JsonValue* ok = response.find("ok");
    const JsonValue* report = response.find("report");
    if (ok == nullptr || !ok->as_bool() || report == nullptr ||
        !goldens.matches(name, report->as_string())) {
      return false;
    }
    const JsonValue parsed = JsonValue::parse(report->as_string());
    const JsonValue* run_cycles = parsed.find("cycles");
    if (run_cycles == nullptr) {
      return false;
    }
    *cycles = run_cycles->as_double();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace perfbench
