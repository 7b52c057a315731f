/**
 * @file
 * AVX2 kernel implementations (256-bit, 8 float lanes).
 *
 * Compiled with -mavx2 -ffp-contract=off (see CMakeLists.txt); only
 * dispatched to when CPUID reports AVX2.  See simd_kernels.h for the
 * bit-exactness contract; the interesting pieces here are
 *
 *  - the lround emulation: AVX has only round-to-nearest-even, so a
 *    halfway quotient (x - rte(x) == copysign(0.5, x)) is nudged one
 *    further from zero to reproduce round-half-away exactly;
 *  - the compaction: the 8-bit changed movemask indexes a 256-entry
 *    lane-shuffle table, vpermd packs the changed lanes to the
 *    front, and a full-vector store at the write cursor (advanced by
 *    popcount) emits them — the cursor scribbles up to 7 lanes past
 *    the final count, which ChangeList::beginScan() pre-sizes for.
 *
 * The conv entries are conv_windows.h's unit-stride row, which this
 * TU's -mavx2 compiles 8 lanes wide.
 */

#include <immintrin.h>

#include <algorithm>

#include "kernels/conv_windows.h"
#include "kernels/delta_kernels.h"
#include "kernels/simd_kernels.h"

namespace reuse {
namespace kernels {

namespace {

/** Lane-compaction shuffle table: entry m packs the set bits of m. */
struct CompactTable {
    alignas(32) int32_t lane[256][8];
};

constexpr CompactTable
makeCompactTable()
{
    CompactTable t{};
    for (int mask = 0; mask < 256; ++mask) {
        int k = 0;
        for (int bit = 0; bit < 8; ++bit) {
            if ((mask >> bit) & 1)
                t.lane[mask][k++] = bit;
        }
    }
    return t;
}

constexpr CompactTable kCompact = makeCompactTable();

ScanResult
scanChangesAvx2(const float *input, int64_t n,
                const QuantScanParams &q, int32_t *prev_indices,
                int32_t *positions, float *deltas)
{
    const __m256 step = _mm256_set1_ps(q.step);
    const __m256 lo =
        _mm256_set1_ps(static_cast<float>(q.min_index));
    const __m256 hi =
        _mm256_set1_ps(static_cast<float>(q.max_index));
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256i radius = _mm256_set1_epi32(q.radius);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i eight = _mm256_set1_epi32(8);
    __m256i lane_pos = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);

    ScanResult r;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8, lane_pos = _mm256_add_epi32(lane_pos, eight)) {
        __m256 x = _mm256_div_ps(_mm256_loadu_ps(input + i), step);
        x = _mm256_max_ps(x, lo);
        x = _mm256_min_ps(x, hi);
        __m256 t = _mm256_round_ps(
            x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        const __m256 signs = _mm256_and_ps(x, sign_mask);
        const __m256 tie = _mm256_cmp_ps(
            _mm256_sub_ps(x, t), _mm256_or_ps(half, signs),
            _CMP_EQ_OQ);
        t = _mm256_add_ps(
            t, _mm256_and_ps(tie, _mm256_or_ps(one, signs)));
        const __m256i idx = _mm256_cvttps_epi32(t);

        const __m256i prev = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev_indices + i));
        const __m256i dist =
            _mm256_abs_epi32(_mm256_sub_epi32(idx, prev));
        const __m256i chg = _mm256_cmpgt_epi32(dist, radius);
        const __m256i moved = _mm256_cmpgt_epi32(dist, zero);
        const int chg_mask =
            _mm256_movemask_ps(_mm256_castsi256_ps(chg));
        const int near_mask = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_andnot_si256(chg, moved)));
        r.near_matched +=
            __builtin_popcount(static_cast<unsigned>(near_mask));
        if (chg_mask == 0)
            continue;

        const __m256 delta = _mm256_sub_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(idx), step),
            _mm256_mul_ps(_mm256_cvtepi32_ps(prev), step));
        const __m256i perm = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(
                kCompact.lane[chg_mask]));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(positions + r.changed),
            _mm256_permutevar8x32_epi32(lane_pos, perm));
        _mm256_storeu_ps(deltas + r.changed,
                         _mm256_permutevar8x32_ps(delta, perm));
        r.changed +=
            __builtin_popcount(static_cast<unsigned>(chg_mask));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(prev_indices + i),
            _mm256_blendv_epi8(prev, idx, chg));
    }

    // Scalar tail: quantIndex() is the same arithmetic the vector
    // body emulates, so the boundary is seamless.
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
applyDeltasAvx2Range(const ChangeList &changes, const float *weights,
                     int64_t m, int64_t begin, int64_t end,
                     float *out)
{
    const size_t k = changes.size();
    const int32_t *pos = changes.positions();
    const float *del = changes.deltas();
    for (int64_t b0 = begin; b0 < end; b0 += kDeltaBlockFloats) {
        const int64_t len = std::min(kDeltaBlockFloats, end - b0);
        float *dst = out + b0;
        // Four changes per sweep (four weight-row streams in
        // flight), two output vectors per step for ILP.  Per output
        // element the accumulation stays a sequential chain in
        // ascending change order — bit-identical to one-at-a-time.
        size_t c = 0;
        for (; c + 4 <= k; c += 4) {
            const __m256 d0 = _mm256_set1_ps(del[c]);
            const __m256 d1 = _mm256_set1_ps(del[c + 1]);
            const __m256 d2 = _mm256_set1_ps(del[c + 2]);
            const __m256 d3 = _mm256_set1_ps(del[c + 3]);
            const float *w0 =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            const float *w1 =
                weights + static_cast<int64_t>(pos[c + 1]) * m + b0;
            const float *w2 =
                weights + static_cast<int64_t>(pos[c + 2]) * m + b0;
            const float *w3 =
                weights + static_cast<int64_t>(pos[c + 3]) * m + b0;
            int64_t o = 0;
            for (; o + 16 <= len; o += 16) {
                __m256 a0 = _mm256_loadu_ps(dst + o);
                __m256 a1 = _mm256_loadu_ps(dst + o + 8);
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d0, _mm256_loadu_ps(w0 + o)));
                a1 = _mm256_add_ps(
                    a1,
                    _mm256_mul_ps(d0, _mm256_loadu_ps(w0 + o + 8)));
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d1, _mm256_loadu_ps(w1 + o)));
                a1 = _mm256_add_ps(
                    a1,
                    _mm256_mul_ps(d1, _mm256_loadu_ps(w1 + o + 8)));
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d2, _mm256_loadu_ps(w2 + o)));
                a1 = _mm256_add_ps(
                    a1,
                    _mm256_mul_ps(d2, _mm256_loadu_ps(w2 + o + 8)));
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d3, _mm256_loadu_ps(w3 + o)));
                a1 = _mm256_add_ps(
                    a1,
                    _mm256_mul_ps(d3, _mm256_loadu_ps(w3 + o + 8)));
                _mm256_storeu_ps(dst + o, a0);
                _mm256_storeu_ps(dst + o + 8, a1);
            }
            for (; o + 8 <= len; o += 8) {
                __m256 a0 = _mm256_loadu_ps(dst + o);
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d0, _mm256_loadu_ps(w0 + o)));
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d1, _mm256_loadu_ps(w1 + o)));
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d2, _mm256_loadu_ps(w2 + o)));
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(d3, _mm256_loadu_ps(w3 + o)));
                _mm256_storeu_ps(dst + o, a0);
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
            const __m256 vd = _mm256_set1_ps(d);
            const float *w_row =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            int64_t o = 0;
            for (; o + 8 <= len; o += 8) {
                const __m256 acc = _mm256_add_ps(
                    _mm256_loadu_ps(dst + o),
                    _mm256_mul_ps(vd, _mm256_loadu_ps(w_row + o)));
                _mm256_storeu_ps(dst + o, acc);
            }
            for (; o < len; ++o)
                dst[o] += d * w_row[o];
        }
    }
}

} // namespace

const ArchKernels kAvx2Kernels = {&scanChangesAvx2, &applyDeltasAvx2Range,
                                  &applyConvDeltas2dRows,
                                  &applyConvDeltas3dRows};

} // namespace kernels
} // namespace reuse
