/**
 * @file
 * NEON kernel implementations (128-bit, 4 float lanes), AArch64
 * builds only — the TU is added by CMake when the target is ARM and
 * double-guarded on __ARM_NEON.  Compiled with -ffp-contract=off so
 * the separate mul + add vector ops are never fused into fmla,
 * keeping the results bit-identical to the scalar reference (see
 * simd_kernels.h for the contract).
 *
 * NEON has no compress-store or movemask, so the scan compacts by
 * materializing each vector's lanes to a small stack buffer and
 * emitting the changed ones scalar-wise; the quantize/compare work
 * is still 4-wide.  The conv entries are conv_windows.h's
 * unit-stride row, compiled 4 lanes wide here.
 */

#if defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>

#include "kernels/conv_windows.h"
#include "kernels/delta_kernels.h"
#include "kernels/simd_kernels.h"

namespace reuse {
namespace kernels {

namespace {

ScanResult
scanChangesNeon(const float *input, int64_t n,
                const QuantScanParams &q, int32_t *prev_indices,
                int32_t *positions, float *deltas)
{
    const float32x4_t step = vdupq_n_f32(q.step);
    const float32x4_t lo =
        vdupq_n_f32(static_cast<float>(q.min_index));
    const float32x4_t hi =
        vdupq_n_f32(static_cast<float>(q.max_index));
    const uint32x4_t sign_bit = vdupq_n_u32(0x80000000u);
    const float32x4_t half = vdupq_n_f32(0.5f);
    const float32x4_t one = vdupq_n_f32(1.0f);
    const int32x4_t radius = vdupq_n_s32(q.radius);

    ScanResult r;
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        float32x4_t x = vdivq_f32(vld1q_f32(input + i), step);
        // Clamp with explicit compare+select so a NaN quotient
        // clamps to min_index, matching the scalar reference's
        // `x > lo ? x : lo` exactly.
        x = vbslq_f32(vcgtq_f32(x, lo), x, lo);
        x = vbslq_f32(vcltq_f32(x, hi), x, hi);
        float32x4_t t = vrndnq_f32(x); // round to nearest even
        const uint32x4_t signs =
            vandq_u32(vreinterpretq_u32_f32(x), sign_bit);
        const float32x4_t tie_val = vreinterpretq_f32_u32(
            vorrq_u32(signs, vreinterpretq_u32_f32(half)));
        const uint32x4_t tie = vceqq_f32(vsubq_f32(x, t), tie_val);
        const float32x4_t nudge = vreinterpretq_f32_u32(vandq_u32(
            tie, vorrq_u32(signs, vreinterpretq_u32_f32(one))));
        t = vaddq_f32(t, nudge);
        const int32x4_t idx = vcvtq_s32_f32(t);

        const int32x4_t prev = vld1q_s32(prev_indices + i);
        const int32x4_t dist = vabsq_s32(vsubq_s32(idx, prev));
        const uint32x4_t chg = vcgtq_s32(dist, radius);
        if (vmaxvq_u32(vcgtq_s32(dist, vdupq_n_s32(0))) == 0)
            continue;

        alignas(16) int32_t idx_buf[4];
        alignas(16) int32_t prev_buf[4];
        alignas(16) uint32_t chg_buf[4];
        alignas(16) int32_t dist_buf[4];
        vst1q_s32(idx_buf, idx);
        vst1q_s32(prev_buf, prev);
        vst1q_u32(chg_buf, chg);
        vst1q_s32(dist_buf, dist);
        for (int lane = 0; lane < 4; ++lane) {
            if (dist_buf[lane] == 0)
                continue;
            if (chg_buf[lane] == 0) {
                ++r.near_matched;
                continue;
            }
            positions[r.changed] =
                static_cast<int32_t>(i + lane);
            deltas[r.changed] =
                quantCentroid(q, idx_buf[lane]) -
                quantCentroid(q, prev_buf[lane]);
            prev_indices[i + lane] = idx_buf[lane];
            ++r.changed;
        }
    }

    for (; i < n; ++i) {
        const int32_t idx = quantIndex(q, input[i]);
        const int32_t prev = prev_indices[i];
        if (idx == prev)
            continue;
        const int32_t dist = idx > prev ? idx - prev : prev - idx;
        if (dist <= q.radius) {
            ++r.near_matched;
            continue;
        }
        positions[r.changed] = static_cast<int32_t>(i);
        deltas[r.changed] =
            quantCentroid(q, idx) - quantCentroid(q, prev);
        prev_indices[i] = idx;
        ++r.changed;
    }
    return r;
}

void
applyDeltasNeonRange(const ChangeList &changes, const float *weights,
                     int64_t m, int64_t begin, int64_t end,
                     float *out)
{
    const size_t k = changes.size();
    const int32_t *pos = changes.positions();
    const float *del = changes.deltas();
    for (int64_t b0 = begin; b0 < end; b0 += kDeltaBlockFloats) {
        const int64_t len = std::min(kDeltaBlockFloats, end - b0);
        float *dst = out + b0;
        size_t c = 0;
        for (; c + 4 <= k; c += 4) {
            const float32x4_t d0 = vdupq_n_f32(del[c]);
            const float32x4_t d1 = vdupq_n_f32(del[c + 1]);
            const float32x4_t d2 = vdupq_n_f32(del[c + 2]);
            const float32x4_t d3 = vdupq_n_f32(del[c + 3]);
            const float *w0 =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            const float *w1 =
                weights + static_cast<int64_t>(pos[c + 1]) * m + b0;
            const float *w2 =
                weights + static_cast<int64_t>(pos[c + 2]) * m + b0;
            const float *w3 =
                weights + static_cast<int64_t>(pos[c + 3]) * m + b0;
            int64_t o = 0;
            for (; o + 4 <= len; o += 4) {
                float32x4_t acc = vld1q_f32(dst + o);
                acc = vaddq_f32(
                    acc, vmulq_f32(d0, vld1q_f32(w0 + o)));
                acc = vaddq_f32(
                    acc, vmulq_f32(d1, vld1q_f32(w1 + o)));
                acc = vaddq_f32(
                    acc, vmulq_f32(d2, vld1q_f32(w2 + o)));
                acc = vaddq_f32(
                    acc, vmulq_f32(d3, vld1q_f32(w3 + o)));
                vst1q_f32(dst + o, acc);
            }
            for (; o < len; ++o) {
                float acc = dst[o];
                acc += del[c] * w0[o];
                acc += del[c + 1] * w1[o];
                acc += del[c + 2] * w2[o];
                acc += del[c + 3] * w3[o];
                dst[o] = acc;
            }
        }
        for (; c < k; ++c) {
            const float d = del[c];
            const float32x4_t vd = vdupq_n_f32(d);
            const float *w_row =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            int64_t o = 0;
            for (; o + 4 <= len; o += 4) {
                const float32x4_t acc = vaddq_f32(
                    vld1q_f32(dst + o),
                    vmulq_f32(vd, vld1q_f32(w_row + o)));
                vst1q_f32(dst + o, acc);
            }
            for (; o < len; ++o)
                dst[o] += d * w_row[o];
        }
    }
}

} // namespace

const ArchKernels kNeonKernels = {&scanChangesNeon, &applyDeltasNeonRange,
                                  &applyConvDeltas2dRows,
                                  &applyConvDeltas3dRows};

} // namespace kernels
} // namespace reuse

#endif // __ARM_NEON
