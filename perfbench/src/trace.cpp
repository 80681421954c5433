#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint32_t Tracer::begin(std::string_view name, std::uint32_t parent,
                            std::uint32_t op) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.op = op;
  span.start_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  spans_.at(id - 1).end_us = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - epoch_)
                                 .count();
}

double Tracer::duration(const Span& span) const {
  const auto it = factors_.find(span.op);
  const double factor = it == factors_.end() ? 1.0 : it->second;
  return (span.end_us - span.start_us) * factor;
}

std::map<std::uint32_t, double> Tracer::durations(
    std::string_view name) const {
  std::map<std::uint32_t, double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out[span.op] += duration(span);
    }
  }
  return out;
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent - 1].emplace_back(span.start_us, span.end_us);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = span.start_us;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, cursor);
      const double to = std::min(end, span.end_us);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    const double raw = span.end_us - span.start_us;
    self[i] = raw > 0.0 ? duration(span) * (raw - covered) / raw : 0.0;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  const std::vector<double> self = self_times();
  std::map<std::string_view, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    by_name[span.name] += self[i];
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op
        << ",\"start_us\":" << span.start_us << ",\"end_us\":" << span.end_us
        << ",\"self_us\":" << self[i] << "}\n";
  }
  out << "{\"self_us_by_name\":{";
  const char* sep = "";
  for (const auto& [name, total] : by_name) {
    out << sep << '"' << name << "\":" << total;
    sep = ",";
  }
  out << "}}\n";
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

}  // namespace perfbench
