#include "sim/fault.hpp"

#include <bit>
#include <charconv>
#include <stdexcept>

namespace titan::sim {
namespace {

constexpr std::array<std::string_view, kFaultSiteCount> kSiteNames = {
    "doorbell_drop", "doorbell_dup", "mac_corrupt",
    "queue_overflow", "mem_flip",     "rot_stall",
};

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("fault plan: bad " + std::string(what) +
                                " '" + std::string(text) + "'");
  }
  return value;
}

FaultSpec parse_spec(std::string_view item) {
  const std::size_t at = item.find('@');
  if (at == std::string_view::npos) {
    throw std::invalid_argument("fault plan: missing '@nth' in '" +
                                std::string(item) + "'");
  }
  const auto site = fault_site_from_name(item.substr(0, at));
  if (!site) {
    throw std::invalid_argument("fault plan: unknown site '" +
                                std::string(item.substr(0, at)) + "'");
  }
  std::string_view rest = item.substr(at + 1);
  FaultSpec spec;
  spec.site = *site;
  const std::size_t hash = rest.find('#');
  if (hash == std::string_view::npos) {
    spec.nth = parse_u64(rest, "ordinal");
  } else {
    spec.nth = parse_u64(rest.substr(0, hash), "ordinal");
    spec.param = parse_u64(rest.substr(hash + 1), "param");
  }
  return spec;
}

}  // namespace

std::string_view fault_site_name(FaultSite site) {
  return kSiteNames[static_cast<unsigned>(site)];
}

std::optional<FaultSite> fault_site_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kSiteNames.size(); ++i) {
    if (kSiteNames[i] == name) {
      return static_cast<FaultSite>(i);
    }
  }
  return std::nullopt;
}

std::string FaultPlan::serialize() const {
  std::string out;
  for (const FaultSpec& spec : faults) {
    if (!out.empty()) {
      out += '+';
    }
    out += fault_site_name(spec.site);
    out += '@';
    out += std::to_string(spec.nth);
    if (spec.param != 0) {
      out += '#';
      out += std::to_string(spec.param);
    }
  }
  return out;
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  if (text.empty()) {
    return plan;
  }
  while (true) {
    const std::size_t plus = text.find('+');
    plan.faults.push_back(parse_spec(text.substr(0, plus)));
    if (plus == std::string_view::npos) {
      break;
    }
    text = text.substr(plus + 1);
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, unsigned count) {
  Rng rng(seed);
  FaultPlan plan;
  plan.faults.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    FaultSpec spec;
    spec.site = static_cast<FaultSite>(rng.uniform(0, kFaultSiteCount - 1));
    spec.nth = rng.uniform(0, 5);
    switch (spec.site) {
      case FaultSite::kMacCorrupt:
        spec.param = rng.uniform(0, 255);
        break;
      case FaultSite::kQueueOverflow:
        spec.param = rng.uniform(1, 8);
        break;
      case FaultSite::kMemBitFlip:
        // Even param = single-bit (correctable); odd = double-bit.
        spec.param = rng.uniform(0, 127);
        break;
      case FaultSite::kRotStall:
        spec.param = rng.uniform(1, 512);
        break;
      case FaultSite::kDoorbellDrop:
      case FaultSite::kDoorbellDuplicate:
        break;
    }
    plan.faults.push_back(spec);
  }
  return plan;
}

std::size_t latency_bucket(std::uint64_t latency_cycles) {
  return latency_bucket(latency_cycles, kLatencyBuckets);
}

std::size_t latency_bucket(std::uint64_t value, std::size_t bucket_count) {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return width < bucket_count ? width : bucket_count - 1;
}

std::uint64_t ResilienceStats::total_injected() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : injected) {
    total += count;
  }
  return total;
}

std::uint64_t ResilienceStats::total_detected() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : detected) {
    total += count;
  }
  return total;
}

}  // namespace titan::sim
