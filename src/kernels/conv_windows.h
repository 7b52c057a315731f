/**
 * @file
 * Closed-form enumeration of the conv output windows a changed input
 * covers, shared by every conv delta kernel (scalar reference and
 * the ISA tables) and the MAC counters, plus the unit-stride row
 * update the AVX2 and NEON tables run.  Kernel-layer internal, like
 * simd_kernels.h.
 *
 * Along one axis, output o reads inputs [o*stride - pad,
 * o*stride - pad + kernel).  Input i is therefore covered by the
 * outputs o in [ceil((i + pad - kernel + 1) / stride),
 * floor((i + pad) / stride)], clipped to [0, out_extent), and reaches
 * output o through kernel offset k = i + pad - o*stride.  Enumerating
 * that range directly replaces the per-offset `%`/`/` tests of a
 * kernel-offset loop.
 *
 * Everything here has internal linkage (an anonymous namespace):
 * each including TU compiles its own copy with its own -m flags, so
 * the linker can never fold an -mavx2 or -mavx512f copy of one of
 * these functions into baseline-ISA code, or the reverse.
 */

#ifndef REUSE_DNN_KERNELS_CONV_WINDOWS_H
#define REUSE_DNN_KERNELS_CONV_WINDOWS_H

#include <algorithm>
#include <cstdint>

#include "kernels/change_list.h"
#include "kernels/delta_kernels.h"

namespace reuse {
namespace kernels {
namespace {

/** Output coordinates [lo, hi) covering one input coordinate. */
struct OutputSpan {
    int64_t lo = 0;
    int64_t hi = 0;

    /** Number of covering outputs (0 when the span is empty). */
    int64_t count() const { return hi > lo ? hi - lo : 0; }
};

/** The outputs along one axis whose window covers input `i`. */
inline OutputSpan
coveringOutputs(int64_t i, int64_t kernel, int64_t stride, int64_t pad,
                int64_t out_extent)
{
    const int64_t first = i + pad - kernel + 1;
    OutputSpan s;
    s.lo = first > 0 ? (first + stride - 1) / stride : 0;
    s.hi = std::min((i + pad) / stride + 1, out_extent);
    return s;
}

/**
 * Calls `row(dst, w_row, delta)` once per (change, covered window)
 * of a 2D conv delta update, in ascending change order.  `dst` is
 * the window's channels-last output row and `w_row` the contiguous
 * weight row for the change's (ci, ky, kx); both hold
 * g.out_channels floats.
 */
template <typename RowFn>
inline void
forEachConv2dWindow(const ChangeList &changes, const Conv2dGeometry &g,
                    const float *weights, float *out, RowFn &&row)
{
    const size_t k = changes.size();
    const int32_t *pos = changes.positions();
    const float *del = changes.deltas();
    const int64_t hw = g.in_h * g.in_w;
    const int64_t c_out = g.out_channels;
    for (size_t c = 0; c < k; ++c) {
        const int64_t i = pos[c];
        const int64_t ci = i / hw;
        const int64_t y = (i - ci * hw) / g.in_w;
        const int64_t x = i - ci * hw - y * g.in_w;
        const OutputSpan sy =
            coveringOutputs(y, g.kernel, g.stride, 0, g.out_h);
        const OutputSpan sx =
            coveringOutputs(x, g.kernel, g.stride, 0, g.out_w);
        const float *w_ci = weights + ci * g.kernel * g.kernel * c_out;
        for (int64_t oy = sy.lo; oy < sy.hi; ++oy) {
            const int64_t ky = y - oy * g.stride;
            for (int64_t ox = sx.lo; ox < sx.hi; ++ox) {
                const int64_t kx = x - ox * g.stride;
                row(out + (oy * g.out_w + ox) * c_out,
                    w_ci + (ky * g.kernel + kx) * c_out, del[c]);
            }
        }
    }
}

/** 3D counterpart of forEachConv2dWindow (stride 1, padded). */
template <typename RowFn>
inline void
forEachConv3dWindow(const ChangeList &changes, const Conv3dGeometry &g,
                    const float *weights, float *out, RowFn &&row)
{
    const size_t k = changes.size();
    const int32_t *pos = changes.positions();
    const float *del = changes.deltas();
    const int64_t hw = g.in_h * g.in_w;
    const int64_t dhw = g.in_d * hw;
    const int64_t kk = g.kernel * g.kernel;
    const int64_t c_out = g.out_channels;
    for (size_t c = 0; c < k; ++c) {
        const int64_t i = pos[c];
        const int64_t ci = i / dhw;
        const int64_t r = i - ci * dhw;
        const int64_t z = r / hw;
        const int64_t y = (r - z * hw) / g.in_w;
        const int64_t x = r - z * hw - y * g.in_w;
        const OutputSpan sz =
            coveringOutputs(z, g.kernel, 1, g.pad, g.out_d);
        const OutputSpan sy =
            coveringOutputs(y, g.kernel, 1, g.pad, g.out_h);
        const OutputSpan sx =
            coveringOutputs(x, g.kernel, 1, g.pad, g.out_w);
        const float *w_ci = weights + ci * kk * g.kernel * c_out;
        for (int64_t oz = sz.lo; oz < sz.hi; ++oz) {
            const int64_t kd = z + g.pad - oz;
            for (int64_t oy = sy.lo; oy < sy.hi; ++oy) {
                const int64_t ky = y + g.pad - oy;
                float *dst_row =
                    out + ((oz * g.out_h + oy) * g.out_w) * c_out;
                const float *w_kdy =
                    w_ci + (kd * kk + ky * g.kernel) * c_out;
                for (int64_t ox = sx.lo; ox < sx.hi; ++ox) {
                    const int64_t kx = x + g.pad - ox;
                    row(dst_row + ox * c_out, w_kdy + kx * c_out,
                        del[c]);
                }
            }
        }
    }
}

/**
 * One window's row update dst[0..C_out) += d * w_row[0..C_out) as a
 * unit-stride loop the compiler vectorizes to the including TU's
 * ISA: 8 lanes in the -mavx2 TU, 4 in the NEON TU.
 */
struct UnitStrideRow {
    int64_t c_out;

    void operator()(float *__restrict dst,
                    const float *__restrict w_row, float d) const
    {
        for (int64_t co = 0; co < c_out; ++co)
            dst[co] += d * w_row[co];
    }
};

/** 2D conv delta update with UnitStrideRow (an ArchKernels entry). */
inline void
applyConvDeltas2dRows(const ChangeList &changes, const Conv2dGeometry &g,
                      const float *weights, float *out)
{
    forEachConv2dWindow(changes, g, weights, out,
                        UnitStrideRow{g.out_channels});
}

/** 3D conv delta update with UnitStrideRow (an ArchKernels entry). */
inline void
applyConvDeltas3dRows(const ChangeList &changes, const Conv3dGeometry &g,
                      const float *weights, float *out)
{
    forEachConv3dWindow(changes, g, weights, out,
                        UnitStrideRow{g.out_channels});
}

} // namespace
} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_CONV_WINDOWS_H
