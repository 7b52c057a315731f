/**
 * @file
 * AVX-512 kernel implementations (512-bit, 16 float lanes).
 *
 * Compiled with -mavx512f -ffp-contract=off (see CMakeLists.txt);
 * only dispatched to when CPUID reports AVX-512F.  Everything here
 * stays inside the F subset so the runtime gate is a single feature
 * bit: compare-to-mask + masked compress-store replace the AVX2
 * shuffle-table compaction (writing exactly the changed lanes), and
 * the conv path updates unit-stride channels-last output rows with a
 * masked tail.  Bit-exactness contract: see simd_kernels.h.
 */

#include <immintrin.h>

#include <algorithm>

#include "kernels/conv_windows.h"
#include "kernels/delta_kernels.h"
#include "kernels/simd_kernels.h"

namespace reuse {
namespace kernels {

ScanResult
scanChangesAvx512(const float *input, int64_t n,
                  const QuantScanParams &q, int32_t *prev_indices,
                  int32_t *positions, float *deltas)
{
    const __m512 step = _mm512_set1_ps(q.step);
    const __m512 lo =
        _mm512_set1_ps(static_cast<float>(q.min_index));
    const __m512 hi =
        _mm512_set1_ps(static_cast<float>(q.max_index));
    const __m512i sign_bit = _mm512_set1_epi32(
        static_cast<int32_t>(0x80000000u));
    const __m512i half_bits =
        _mm512_castps_si512(_mm512_set1_ps(0.5f));
    const __m512i one_bits =
        _mm512_castps_si512(_mm512_set1_ps(1.0f));
    const __m512i radius = _mm512_set1_epi32(q.radius);
    const __m512i sixteen = _mm512_set1_epi32(16);
    __m512i lane_pos = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8,
                                         9, 10, 11, 12, 13, 14, 15);

    ScanResult r;
    int64_t i = 0;
    for (; i + 16 <= n;
         i += 16, lane_pos = _mm512_add_epi32(lane_pos, sixteen)) {
        __m512 x = _mm512_div_ps(_mm512_loadu_ps(input + i), step);
        x = _mm512_max_ps(x, lo);
        x = _mm512_min_ps(x, hi);
        __m512 t = _mm512_roundscale_ps(
            x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        // lround emulation: nudge exact halfway quotients one
        // further from zero.  copysign is built with integer bit
        // ops: the float or/and forms live in AVX-512DQ, and this
        // TU stays inside the F subset.
        const __m512i signs =
            _mm512_and_epi32(_mm512_castps_si512(x), sign_bit);
        const __m512 tie_val = _mm512_castsi512_ps(
            _mm512_or_epi32(signs, half_bits));
        const __mmask16 tie = _mm512_cmp_ps_mask(
            _mm512_sub_ps(x, t), tie_val, _CMP_EQ_OQ);
        t = _mm512_mask_add_ps(
            t, tie, t,
            _mm512_castsi512_ps(_mm512_or_epi32(signs, one_bits)));
        const __m512i idx = _mm512_cvttps_epi32(t);

        const __m512i prev = _mm512_loadu_si512(prev_indices + i);
        const __m512i dist =
            _mm512_abs_epi32(_mm512_sub_epi32(idx, prev));
        const __mmask16 chg =
            _mm512_cmpgt_epi32_mask(dist, radius);
        const __mmask16 moved = _mm512_test_epi32_mask(dist, dist);
        r.near_matched += __builtin_popcount(
            static_cast<unsigned>(moved & ~chg));
        if (chg == 0)
            continue;

        const __m512 delta = _mm512_sub_ps(
            _mm512_mul_ps(_mm512_cvtepi32_ps(idx), step),
            _mm512_mul_ps(_mm512_cvtepi32_ps(prev), step));
        _mm512_mask_compressstoreu_epi32(positions + r.changed, chg,
                                         lane_pos);
        _mm512_mask_compressstoreu_ps(deltas + r.changed, chg,
                                      delta);
        r.changed +=
            __builtin_popcount(static_cast<unsigned>(chg));
        _mm512_storeu_si512(prev_indices + i,
                            _mm512_mask_blend_epi32(chg, prev, idx));
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
applyDeltasAvx512Range(const ChangeList &changes,
                       const float *weights, int64_t m,
                       int64_t begin, int64_t end, float *out)
{
    const size_t k = changes.size();
    const int32_t *pos = changes.positions();
    const float *del = changes.deltas();
    for (int64_t b0 = begin; b0 < end; b0 += kDeltaBlockFloats) {
        const int64_t len = std::min(kDeltaBlockFloats, end - b0);
        float *dst = out + b0;
        size_t c = 0;
        for (; c + 4 <= k; c += 4) {
            const __m512 d0 = _mm512_set1_ps(del[c]);
            const __m512 d1 = _mm512_set1_ps(del[c + 1]);
            const __m512 d2 = _mm512_set1_ps(del[c + 2]);
            const __m512 d3 = _mm512_set1_ps(del[c + 3]);
            const float *w0 =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            const float *w1 =
                weights + static_cast<int64_t>(pos[c + 1]) * m + b0;
            const float *w2 =
                weights + static_cast<int64_t>(pos[c + 2]) * m + b0;
            const float *w3 =
                weights + static_cast<int64_t>(pos[c + 3]) * m + b0;
            int64_t o = 0;
            for (; o + 32 <= len; o += 32) {
                __m512 a0 = _mm512_loadu_ps(dst + o);
                __m512 a1 = _mm512_loadu_ps(dst + o + 16);
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(d0, _mm512_loadu_ps(w0 + o)));
                a1 = _mm512_add_ps(
                    a1,
                    _mm512_mul_ps(d0, _mm512_loadu_ps(w0 + o + 16)));
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(d1, _mm512_loadu_ps(w1 + o)));
                a1 = _mm512_add_ps(
                    a1,
                    _mm512_mul_ps(d1, _mm512_loadu_ps(w1 + o + 16)));
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(d2, _mm512_loadu_ps(w2 + o)));
                a1 = _mm512_add_ps(
                    a1,
                    _mm512_mul_ps(d2, _mm512_loadu_ps(w2 + o + 16)));
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(d3, _mm512_loadu_ps(w3 + o)));
                a1 = _mm512_add_ps(
                    a1,
                    _mm512_mul_ps(d3, _mm512_loadu_ps(w3 + o + 16)));
                _mm512_storeu_ps(dst + o, a0);
                _mm512_storeu_ps(dst + o + 16, a1);
            }
            for (; o < len; o += 16) {
                const int64_t rem = std::min<int64_t>(16, len - o);
                const __mmask16 mt = static_cast<__mmask16>(
                    (1u << rem) - 1u);
                __m512 a0 = _mm512_maskz_loadu_ps(mt, dst + o);
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(
                            d0, _mm512_maskz_loadu_ps(mt, w0 + o)));
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(
                            d1, _mm512_maskz_loadu_ps(mt, w1 + o)));
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(
                            d2, _mm512_maskz_loadu_ps(mt, w2 + o)));
                a0 = _mm512_add_ps(
                    a0, _mm512_mul_ps(
                            d3, _mm512_maskz_loadu_ps(mt, w3 + o)));
                _mm512_mask_storeu_ps(dst + o, mt, a0);
            }
        }
        for (; c < k; ++c) {
            const __m512 vd = _mm512_set1_ps(del[c]);
            const float *w_row =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            int64_t o = 0;
            for (; o + 16 <= len; o += 16) {
                const __m512 acc = _mm512_add_ps(
                    _mm512_loadu_ps(dst + o),
                    _mm512_mul_ps(vd, _mm512_loadu_ps(w_row + o)));
                _mm512_storeu_ps(dst + o, acc);
            }
            if (o < len) {
                const __mmask16 mt = static_cast<__mmask16>(
                    (1u << (len - o)) - 1u);
                const __m512 acc = _mm512_add_ps(
                    _mm512_maskz_loadu_ps(mt, dst + o),
                    _mm512_mul_ps(
                        vd, _mm512_maskz_loadu_ps(mt, w_row + o)));
                _mm512_mask_storeu_ps(dst + o, mt, acc);
            }
        }
    }
}

// ---------------------------------------------------------------
// Conv delta update: the output is channels-last, so one covered
// window is one contiguous row dst[0..C_out) += d * w_row[0..C_out),
// 16 channels per vector with a masked tail.  Windows come in
// ascending change order (conv_windows.h), so per output element the
// changes apply in the scalar reference's order.
// ---------------------------------------------------------------

namespace {

struct Avx512Row {
    int64_t c_out;
    __mmask16 tail;

    explicit Avx512Row(int64_t c)
        : c_out(c),
          tail(static_cast<__mmask16>((1u << (c % 16)) - 1u))
    {
    }

    void operator()(float *dst, const float *w_row, float d) const
    {
        const __m512 vd = _mm512_set1_ps(d);
        int64_t co = 0;
        for (; co + 16 <= c_out; co += 16) {
            const __m512 acc = _mm512_add_ps(
                _mm512_loadu_ps(dst + co),
                _mm512_mul_ps(vd, _mm512_loadu_ps(w_row + co)));
            _mm512_storeu_ps(dst + co, acc);
        }
        if (co < c_out) {
            const __m512 acc = _mm512_add_ps(
                _mm512_maskz_loadu_ps(tail, dst + co),
                _mm512_mul_ps(vd,
                              _mm512_maskz_loadu_ps(tail, w_row + co)));
            _mm512_mask_storeu_ps(dst + co, tail, acc);
        }
    }
};

} // namespace

void
applyConvDeltas2dAvx512(const ChangeList &changes,
                        const Conv2dGeometry &g, const float *weights,
                        float *out)
{
    forEachConv2dWindow(changes, g, weights, out,
                        Avx512Row(g.out_channels));
}

void
applyConvDeltas3dAvx512(const ChangeList &changes,
                        const Conv3dGeometry &g, const float *weights,
                        float *out)
{
    forEachConv3dWindow(changes, g, weights, out,
                        Avx512Row(g.out_channels));
}

} // namespace kernels
} // namespace reuse
