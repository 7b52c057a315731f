/**
 * @file
 * Internal declarations of the per-ISA kernel implementations.
 *
 * Each implementation family lives in its own translation unit
 * compiled with the matching -m flags (see CMakeLists.txt):
 * delta_kernels_avx2.cc, delta_kernels_avx512.cc,
 * delta_kernels_neon.cc.  The TUs only exist when the compiler
 * supports the flags (REUSE_KERNELS_HAVE_* macros); callers must
 * consult archCompiled()/archRunnable() before routing here.  This
 * header is kernel-layer internal — everything outside src/kernels
 * goes through the dispatching entry points in delta_kernels.h and
 * change_list.h.
 *
 * Bit-exactness contract: every function here performs the identical
 * floating-point operations in the identical per-output-element
 * order as the scalar reference (delta_kernels_scalar.cc /
 * the fused scalar scan in change_list.cc).  In particular the
 * multiply-accumulate is kept as separate mul + add vector ops (the
 * TUs are compiled with -ffp-contract=off so the compiler cannot
 * fuse them into FMA, which the reference, built for the baseline
 * ISA, does not use), and per-element accumulation stays a
 * sequential chain in ascending change order.
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
#include "kernels/quant_scan.h"

namespace reuse {
namespace kernels {

struct Conv2dGeometry;
struct Conv3dGeometry;

#if defined(REUSE_KERNELS_HAVE_AVX2)

/**
 * Fused quantize-compare-compact scan, 8 lanes per iteration:
 * vpcmpeqd-style compare, movemask, and a shuffle-table compaction
 * store.  Writes at most kScanStoreSlack elements past the returned
 * count (the caller pre-sizes via ChangeList::beginScan()).
 */
ScanResult scanChangesAvx2(const float *input, int64_t n,
                           const QuantScanParams &q,
                           int32_t *prev_indices, int32_t *positions,
                           float *deltas);

/** FC/LSTM delta apply over outputs [begin, end), 32 floats/iter. */
void applyDeltasAvx2Range(const ChangeList &changes,
                          const float *weights, int64_t m,
                          int64_t begin, int64_t end, float *out);

#endif // REUSE_KERNELS_HAVE_AVX2

#if defined(REUSE_KERNELS_HAVE_AVX512)

/**
 * Fused scan, 16 lanes per iteration, compacting with masked
 * compress-store (writes exactly the changed lanes, no slack
 * needed beyond the shared contract).
 */
ScanResult scanChangesAvx512(const float *input, int64_t n,
                             const QuantScanParams &q,
                             int32_t *prev_indices,
                             int32_t *positions, float *deltas);

/** FC/LSTM delta apply over outputs [begin, end), 64 floats/iter. */
void applyDeltasAvx512Range(const ChangeList &changes,
                            const float *weights, int64_t m,
                            int64_t begin, int64_t end, float *out);

/**
 * Conv delta update into the channels-last (HWC) output: one masked
 * unit-stride row update per covered window, 16 channels per
 * vector.
 */
void applyConvDeltas2dAvx512(const ChangeList &changes,
                             const Conv2dGeometry &g,
                             const float *weights, float *out);

/** 3D variant (DHWC output). */
void applyConvDeltas3dAvx512(const ChangeList &changes,
                             const Conv3dGeometry &g,
                             const float *weights, float *out);

#endif // REUSE_KERNELS_HAVE_AVX512

#if defined(REUSE_KERNELS_HAVE_NEON)

/** Fused scan, 4 lanes per iteration (AArch64 builds only). */
ScanResult scanChangesNeon(const float *input, int64_t n,
                           const QuantScanParams &q,
                           int32_t *prev_indices, int32_t *positions,
                           float *deltas);

/** FC/LSTM delta apply over outputs [begin, end), 16 floats/iter. */
void applyDeltasNeonRange(const ChangeList &changes,
                          const float *weights, int64_t m,
                          int64_t begin, int64_t end, float *out);

#endif // REUSE_KERNELS_HAVE_NEON

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_SIMD_KERNELS_H
