#include "sampler.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <string>

#include "refkernel.hpp"

namespace perfbench {

namespace {

// Written by the handler, read by the same thread after disarm(): the
// handler returns at once unless armed, so a late signal cannot touch a
// window that was already read.
volatile std::sig_atomic_t g_armed = 0;
double g_kernel_sum_us = 0.0;
std::size_t g_samples = 0;
double g_handler_us = 0.0;

double now_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

void on_tick(int) {
  if (g_armed == 0) {
    return;
  }
  const int saved_errno = errno;
  const double start = now_us();
  g_kernel_sum_us += ref_kernel_slice_us();
  ++g_samples;
  g_handler_us += now_us() - start;
  errno = saved_errno;
}

int tick_signal() { return SIGRTMIN; }

}  // namespace

KernelSampler::KernelSampler(long period_us) : period_us_(period_us) {
  struct sigaction action {};
  action.sa_handler = on_tick;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(tick_signal(), &action, nullptr) != 0) {
    throw std::runtime_error(std::string("sigaction: ") +
                             std::strerror(errno));
  }
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = tick_signal();
  event._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &event, &timer_) != 0) {
    throw std::runtime_error(std::string("timer_create: ") +
                             std::strerror(errno));
  }
}

KernelSampler::~KernelSampler() {
  g_armed = 0;
  timer_delete(timer_);
}

void KernelSampler::arm() {
  g_kernel_sum_us = 0.0;
  g_samples = 0;
  g_handler_us = 0.0;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_armed = 1;
  itimerspec spec{};
  spec.it_value.tv_nsec = period_us_ * 1000;
  spec.it_interval = spec.it_value;
  timer_settime(timer_, 0, &spec, nullptr);
}

KernelSampler::Window KernelSampler::disarm() {
  g_armed = 0;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  const itimerspec stop{};
  timer_settime(timer_, 0, &stop, nullptr);
  return {g_kernel_sum_us, g_samples, g_handler_us};
}

}  // namespace perfbench
