/**
 * @file
 * Runtime CPUID dispatch for the hand-written SIMD reuse kernels.
 *
 * Every kernel entry point (scan, delta apply, conv delta) exists
 * in several implementations; the one that runs is picked once per
 * process from (a) which translation units the build compiled
 * (REUSE_KERNELS_HAVE_* macros, set by src/kernels/CMakeLists.txt
 * from compiler-flag probes), (b) what the host CPU reports via
 * CPUID, and (c) an optional REUSE_KERNELS environment override.
 * Forcing an arch the host cannot execute falls back to the best
 * supported one with a warning instead of dying on SIGILL.
 */

#ifndef REUSE_DNN_KERNELS_CPU_FEATURES_H
#define REUSE_DNN_KERNELS_CPU_FEATURES_H

#include <string_view>

namespace reuse {
namespace kernels {

/**
 * Kernel implementation families, in increasing preference order.
 *
 *  - Scalar:  the reference TU, compiled with vectorization off;
 *             defines the bit-exactness contract.
 *  - Blocked: the PR 3 cache-blocked loops, auto-vectorized at -O3
 *             to the compiler's baseline ISA.
 *  - Neon:    128-bit NEON kernels (AArch64 builds only).
 *  - Avx2:    256-bit intrinsic kernels (movemask compaction).
 *  - Avx512:  512-bit intrinsic kernels (compress-store, masked rows).
 */
enum class KernelArch { Scalar, Blocked, Neon, Avx2, Avx512 };

/** Short lowercase name of an arch ("avx2", "scalar", ...). */
const char *archName(KernelArch arch);

/** True when the build compiled the kernels of `arch`. */
bool archCompiled(KernelArch arch);

/** True when the host CPU can execute the kernels of `arch`. */
bool archRunnable(KernelArch arch);

/** Best arch that is both compiled and runnable on this host. */
KernelArch bestSupportedArch();

/**
 * Parses a REUSE_KERNELS value ("scalar", "blocked", "avx2",
 * "avx512", "neon").  Returns false (leaving `out` untouched) for
 * unknown strings.
 */
bool parseKernelArch(std::string_view name, KernelArch &out);

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_CPU_FEATURES_H
