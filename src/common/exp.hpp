// Batched exponential, bit-identical to the host's std::exp.
//
// The §5.3 offset weights exp(−(E_i/E)²) cost one exponential per window
// packet per packet: about 62 at 16 s polling, online and offline. The
// reported numbers are pinned bit for bit, and they have always depended on
// the host libm's exp, so a faster exp must return exactly what std::exp
// returns.
//
// On x86-64 glibc (2.28 or later) hosts whose CPU has AVX2 and FMA — the
// condition under which glibc's ifunc picks its FMA variant of exp —
// exp_batch runs that variant's algorithm (ARM optimized-routines: a
// 128-entry 2^(k/128) table and a degree-5 polynomial, with the same
// fused multiply-adds) four lanes at a time. Lanes that would take glibc's
// special-case branch (|x| < 2^-54, |x| >= 512, inf, NaN) are handed to
// std::exp, except below −746, where that branch returns +0 and so does the
// kernel. Everywhere else exp_batch is a loop over std::exp.
#pragma once

#include <span>

namespace tscclock {

/// out[i] = std::exp(x[i]) bit for bit, for every i < x.size(). `out` must
/// be at least as long as `x`; it may be `x` itself (in place), but may not
/// overlap it otherwise.
void exp_batch(std::span<const double> x, std::span<double> out);

/// Whether exp_batch runs the four-lane kernel on this host (the CPU has
/// AVX2 and FMA and the library is glibc's); otherwise it calls std::exp.
[[nodiscard]] bool exp_batch_vectorized();

/// exp_batch's fallback: the loop over std::exp, on any host. Exposed so
/// the differential test can exercise it where the kernel is dispatched.
void exp_batch_libm(std::span<const double> x, std::span<double> out);

}  // namespace tscclock
