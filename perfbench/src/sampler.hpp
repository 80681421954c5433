// Reference-kernel samples taken *inside* a long operation.
//
// Bracketing an op with kernel runs only sees the machine at the op's two
// ends.  A Table III point can run for seconds, across several changes of
// machine speed, so the sampler interrupts the calling thread on a timer
// and runs a kernel slice in the signal handler.  The op's normalisation
// then uses every sample taken while it ran, and the handler's own time is
// subtracted from the op.  The timer signal goes to the creating thread
// only; other threads never see it.
#pragma once

#include <cstddef>
#include <ctime>

namespace perfbench {

class KernelSampler {
 public:
  /// One sample every `period_us` of wall-clock time while armed.  Throws
  /// std::runtime_error when the timer cannot be created.
  explicit KernelSampler(long period_us);
  ~KernelSampler();
  KernelSampler(const KernelSampler&) = delete;
  KernelSampler& operator=(const KernelSampler&) = delete;

  struct Window {
    double kernel_sum_us = 0.0;  ///< Σ full-kernel estimates.
    std::size_t samples = 0;
    double handler_us = 0.0;     ///< Time spent in the handler.
  };

  void arm();
  Window disarm();

 private:
  timer_t timer_{};
  long period_us_;
};

}  // namespace perfbench
