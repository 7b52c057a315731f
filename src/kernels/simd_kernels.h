/**
 * @file
 * Internal declarations of the per-ISA kernel tables.
 *
 * Each SIMD family lives in its own translation unit compiled with
 * the matching -m flags (see CMakeLists.txt):
 * delta_kernels_avx2.cc, delta_kernels_avx512.cc,
 * delta_kernels_neon.cc.  A TU only exists when the compiler
 * supports its flags, and each one exports exactly one ArchKernels
 * table; archKernels() (cpu_features.cc, the only reader of the
 * REUSE_KERNELS_HAVE_* macros) maps a KernelArch to the table of a
 * compiled family.  Callers must also consult archRunnable() before
 * routing there.  This header is kernel-layer internal — everything
 * outside src/kernels goes through the dispatching entry points in
 * delta_kernels.h and change_list.h.
 *
 * Bit-exactness contract: every kernel in a table performs the
 * identical floating-point operations in the identical
 * per-output-element order as the scalar reference
 * (delta_kernels_scalar.cc / the fused scalar scan in
 * change_list.cc).  In particular the multiply-accumulate is kept as
 * separate mul + add vector ops (the TUs are compiled with
 * -ffp-contract=off so the compiler cannot fuse them into FMA, which
 * the reference, built for the baseline ISA, does not use), and
 * per-element accumulation stays a sequential chain in ascending
 * change order.
 *
 * Buffer contract: the FC/LSTM kernels update a flat output vector;
 * the conv kernels update a channels-last output volume (HWC for
 * 2D, DHWC for 3D, channel index fastest), so every covered window
 * is one contiguous row of C_out floats (see delta_kernels.h).
 */

#ifndef REUSE_DNN_KERNELS_SIMD_KERNELS_H
#define REUSE_DNN_KERNELS_SIMD_KERNELS_H

#include <cstdint>

#include "kernels/change_list.h"
#include "kernels/cpu_features.h"
#include "kernels/quant_scan.h"

namespace reuse {
namespace kernels {

struct Conv2dGeometry;
struct Conv3dGeometry;

/** The kernels of one ISA family. */
struct ArchKernels {
    /**
     * Fused quantize-compare-compact scan.  May write up to
     * kScanStoreSlack elements past the returned count (the caller
     * pre-sizes via ChangeList::beginScan()).
     */
    ScanResult (*scan)(const float *input, int64_t n,
                       const QuantScanParams &q, int32_t *prev_indices,
                       int32_t *positions, float *deltas);
    /** FC/LSTM delta apply over outputs [begin, end). */
    void (*apply_range)(const ChangeList &changes, const float *weights,
                        int64_t m, int64_t begin, int64_t end,
                        float *out);
    /** Conv delta update into the channels-last (HWC) output. */
    void (*conv2d)(const ChangeList &changes, const Conv2dGeometry &g,
                   const float *weights, float *out);
    /** 3D variant (DHWC output). */
    void (*conv3d)(const ChangeList &changes, const Conv3dGeometry &g,
                   const float *weights, float *out);
};

/**
 * AVX2: 8-lane scan compacting through a movemask-indexed shuffle
 * table, 32-floats-per-step FC apply, conv rows auto-vectorized at
 * 256 bits (conv_windows.h).
 */
extern const ArchKernels kAvx2Kernels;

/**
 * AVX-512F: 16-lane scan compacting with compress-store,
 * 64-floats-per-step FC apply, masked unit-stride conv rows.
 */
extern const ArchKernels kAvx512Kernels;

/**
 * NEON (AArch64 only): 4-lane scan, 16-floats-per-step FC apply,
 * conv rows auto-vectorized at 128 bits.
 */
extern const ArchKernels kNeonKernels;

/**
 * The kernel table of `arch`, or null for Scalar and for any family
 * this build did not compile.
 */
const ArchKernels *archKernels(KernelArch arch);

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_SIMD_KERNELS_H
