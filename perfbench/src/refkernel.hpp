// The reference kernel: a fixed, register-only integer loop (≈100 µs on a
// 2020s x86 core) that the benchmark times beside every measured operation.
//
// Host time on a shared VM drifts by tens of percent within seconds, and
// the drift moves the kernel and the simulator together.  Dividing an
// operation's time by the kernel runs on either side of it removes that
// common factor.  The kernel is bound by integer execution throughput (many
// independent chains), because that is what tracks the simulator: a
// latency-bound single chain barely notices another hardware thread on the
// same core, while the simulator slows by up to 2x.  It touches nothing
// beyond registers and the stack, so a change that pollutes caches cannot
// slow the next kernel run and read as a speed-up.  Never change it: every
// normalised number depends on it.
#pragma once

namespace perfbench {

/// Normalised times are expressed in µs of a machine on which one kernel run
/// takes exactly this long.
inline constexpr double kNominalKernelUs = 100.0;

/// Run the kernel once; returns its wall-clock duration in µs.
double ref_kernel_us();

/// Run a tenth of the kernel; returns ten times its duration in µs, i.e. an
/// estimate of one full run.  Async-signal-safe (see KernelSampler).
double ref_kernel_slice_us();

}  // namespace perfbench
