#include "titancfi/overhead_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace titan::cfi {

double OverheadResult::slowdown_percent() const {
  if (baseline_cycles == 0) {
    return 0.0;
  }
  return 100.0 *
         static_cast<double>(cfi_cycles - baseline_cycles) /
         static_cast<double>(baseline_cycles);
}

namespace {

std::size_t checked_depth(std::size_t queue_depth) {
  if (queue_depth == 0) {
    throw std::invalid_argument("overhead model: queue_depth must be >= 1");
  }
  return queue_depth;
}

}  // namespace

ServiceChain::ServiceChain(const OverheadConfig& config)
    : pop_times_(checked_depth(config.queue_depth)),
      service_(std::uint64_t{config.transport_cycles} + config.check_latency),
      drain_at_end_(config.drain_at_end) {}

void ServiceChain::push(Cycle commit) {
  Cycle arrival = commit + delay_;

  // Single queue write port: a second CF op in the same (shifted) cycle
  // slips at least one cycle.
  if (count_ > 0 && arrival <= prev_arrival_) {
    arrival = prev_arrival_ + 1;
  }

  // Queue-full back-pressure: the slot occupied by the log `queue_depth`
  // positions back must have been popped before we can enqueue.
  if (count_ >= pop_times_.size()) {
    arrival = std::max(arrival, pop_times_[slot_]);
  }

  if (arrival > commit + delay_) {
    ++stall_events_;
  }
  delay_ = arrival - commit;

  last_pop_ = std::max(arrival, server_free_);
  server_free_ = last_pop_ + service_;
  pop_times_[slot_] = last_pop_;
  if (++slot_ == pop_times_.size()) {
    slot_ = 0;
  }

  prev_arrival_ = arrival;
  ++count_;
}

Cycle ServiceChain::delay_floor(std::uint64_t remaining,
                                Cycle last_commit) const {
  const std::size_t depth = pop_times_.size();
  if (count_ == 0 || remaining <= depth) {
    return delay_;
  }
  const Cycle enqueue = last_pop_ + (remaining - depth) * service_;
  return std::max(delay_, enqueue > last_commit ? enqueue - last_commit : 0);
}

OverheadResult ServiceChain::finish(Cycle baseline_total) const {
  OverheadResult result;
  result.baseline_cycles = baseline_total;
  result.cf_count = count_;
  result.stall_events = stall_events_;
  result.stall_cycles = delay_;
  result.cfi_cycles = baseline_total + delay_;
  if (drain_at_end_) {
    result.cfi_cycles = std::max(result.cfi_cycles, server_free_);
  }
  return result;
}

Cycle exceeding_delay(Cycle baseline_total, double target) {
  // slowdown_percent() is monotone in the delay, so bisect on that very
  // expression.
  const auto exceeds = [&](Cycle delay) {
    OverheadResult result;
    result.baseline_cycles = baseline_total;
    result.cfi_cycles = baseline_total + delay;
    return result.slowdown_percent() > target;
  };
  if (exceeds(0)) {
    return 0;
  }
  Cycle lo = 0;               // Does not exceed.
  Cycle hi = Cycle{1} << 62;  // Exceeds, once checked.
  if (!exceeds(hi)) {
    return std::numeric_limits<Cycle>::max();
  }
  while (hi - lo > 1) {
    const Cycle mid = lo + (hi - lo) / 2;
    (exceeds(mid) ? hi : lo) = mid;
  }
  return hi;
}

OverheadResult simulate_trace(const std::vector<cva6::CommitRecord>& trace,
                              Cycle baseline_total,
                              const OverheadConfig& config) {
  std::vector<Cycle> cf_cycles;
  for (const cva6::CommitRecord& record : trace) {
    if (record.cfi_relevant()) {
      cf_cycles.push_back(record.cycle);
    }
  }
  return simulate_cf_cycles(cf_cycles, baseline_total, config);
}

}  // namespace titan::cfi
