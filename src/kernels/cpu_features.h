/**
 * @file
 * Runtime CPUID dispatch for the hand-written SIMD reuse kernels.
 *
 * Every kernel entry point (scan, delta apply, conv delta) exists
 * as a scalar reference plus one kernel table per compiled ISA
 * family (simd_kernels.h); the family that runs is picked once per
 * process from (a) which ISA translation units the build compiled
 * (REUSE_KERNELS_HAVE_* macros, set by src/kernels/CMakeLists.txt
 * from compiler-flag probes and read only by cpu_features.cc),
 * (b) what the host CPU reports via CPUID, and (c) an optional
 * REUSE_KERNELS environment override.  Forcing an arch the host
 * cannot execute falls back to the best supported one with a
 * warning instead of dying on SIGILL.
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
 *             defines the bit-exactness contract, and is what runs
 *             on a host where no SIMD family can.
 *  - Neon:    128-bit NEON kernels (AArch64 builds only).
 *  - Avx2:    256-bit intrinsic kernels (movemask compaction).
 *  - Avx512:  512-bit intrinsic kernels (compress-store, masked rows).
 *
 * The values are fixed so that removing a family does not renumber
 * the others: gtest lists each parameterized test with its
 * GetParam() bytes, so a renumbered family would change the listed
 * IDs of tests that did not change.
 */
enum class KernelArch { Scalar = 0, Neon = 2, Avx2 = 3, Avx512 = 4 };

/** Short lowercase name of an arch ("avx2", "scalar", ...). */
const char *archName(KernelArch arch);

/** True when the build compiled the kernels of `arch` (Scalar always). */
bool archCompiled(KernelArch arch);

/** True when the host CPU can execute the kernels of `arch`. */
bool archRunnable(KernelArch arch);

/**
 * Best arch that is both compiled and runnable on this host; Scalar
 * when no SIMD family is.
 */
KernelArch bestSupportedArch();

/**
 * Parses a REUSE_KERNELS value ("scalar", "avx2", "avx512",
 * "neon").  Returns false (leaving `out` untouched) for
 * unknown strings.
 */
bool parseKernelArch(std::string_view name, KernelArch &out);

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_CPU_FEATURES_H
