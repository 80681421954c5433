// In-memory spans for the traced run.  The benchmark records a span around
// every call it makes into a layer's public function; spans of one
// operation (one scenario run, one table point, one served request) share
// an op id.  Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string_view name;      ///< "<layer>.<call>"; a string literal.
  std::uint32_t id = 0;       ///< 1-based.
  std::uint32_t parent = 0;   ///< 0 == root span of its op.
  std::uint32_t op = 0;       ///< Shared by every span of one operation.
  double start_us = 0.0;      ///< Since the tracer was created.
  double end_us = 0.0;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::uint32_t begin(std::string_view name, std::uint32_t parent,
                      std::uint32_t op);
  void end(std::uint32_t id);

  /// Normalisation factor of an op (nominal / measured kernel time), applied
  /// by duration() so per-layer figures are in nominal µs.
  void set_op_factor(std::uint32_t op, double factor) {
    factors_[op] = factor;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// A span's normalised duration.
  [[nodiscard]] double duration(const Span& span) const;
  /// Normalised durations of every span called `name`, keyed by op.
  [[nodiscard]] std::map<std::uint32_t, double> durations(
      std::string_view name) const;
  /// Self time of every span (index-aligned with spans()): its duration
  /// minus the part of its interval that its children cover.  Normalised.
  [[nodiscard]] std::vector<double> self_times() const;

  /// Write one JSON object per span, then one line of total self time per
  /// span name.  Throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::uint32_t, double> factors_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::uint32_t parent,
             std::uint32_t op)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, parent, op) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->end(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
