/**
 * @file
 * Blocked kernel implementations and the runtime dispatchers.  The
 * scalar references live in delta_kernels_scalar.cc (vectorization
 * disabled); the hand-written SIMD forms live in the per-ISA TUs
 * (delta_kernels_avx2.cc / _avx512.cc / _neon.cc) declared by
 * simd_kernels.h.
 *
 * This translation unit is compiled at -O3 (see CMakeLists.txt):
 * the blocked inner loops are unit-stride restrict-qualified
 * multiply-accumulates that GCC/Clang auto-vectorize to the baseline
 * ISA; the dispatchers below route to the intrinsic TUs when CPUID
 * allows it.
 */

#include "delta_kernels.h"

#include <algorithm>

#include "kernels/conv_windows.h"
#include "kernels/poly_math.h"
#include "kernels/simd_kernels.h"

namespace reuse {
namespace kernels {

namespace {

KernelThreadPool &
poolOf(const DeltaDispatch &dispatch)
{
    return dispatch.pool != nullptr ? *dispatch.pool
                                    : KernelThreadPool::global();
}

bool
shouldThread(const DeltaDispatch &dispatch, KernelThreadPool &pool,
             int64_t macs)
{
    return dispatch.parallel_mac_threshold >= 0 &&
           macs >= dispatch.parallel_mac_threshold &&
           pool.workerCount() > 0;
}

using ApplyRangeFn = void (*)(const ChangeList &, const float *,
                              int64_t, int64_t, int64_t, float *);

/**
 * Range-kernel for an arch.  Archs whose TU is not compiled into
 * this build fall back to the blocked form — defaultDispatch()
 * never routes there, but an explicit DeltaDispatch might.
 */
ApplyRangeFn
applyRangeFor(KernelArch arch)
{
    switch (arch) {
#if defined(REUSE_KERNELS_HAVE_AVX512)
      case KernelArch::Avx512:
        return &applyDeltasAvx512Range;
#endif
#if defined(REUSE_KERNELS_HAVE_AVX2)
      case KernelArch::Avx2:
        return &applyDeltasAvx2Range;
#endif
#if defined(REUSE_KERNELS_HAVE_NEON)
      case KernelArch::Neon:
        return &applyDeltasNeonRange;
#endif
      default:
        return &applyDeltasBlockedRange;
    }
}

} // namespace

// ---------------------------------------------------------------
// FC / LSTM-gate delta update.
// ---------------------------------------------------------------

void
applyDeltasBlockedRange(const ChangeList &changes, const float *weights,
                        int64_t m, int64_t begin, int64_t end,
                        float *out)
{
    const size_t k = changes.size();
    const int32_t *__restrict pos = changes.positions();
    const float *__restrict del = changes.deltas();
    for (int64_t b0 = begin; b0 < end; b0 += kDeltaBlockFloats) {
        const int64_t len = std::min(kDeltaBlockFloats, end - b0);
        float *__restrict dst = out + b0;
        // Four changes per sweep: 4x fewer block read/writes, and
        // four weight-row streams in flight (the kernel is memory
        // bound on large layers).  The accumulation per output
        // element stays a sequential chain in ascending change
        // order, so the result is bit-identical to one-at-a-time.
        size_t c = 0;
        for (; c + 4 <= k; c += 4) {
            const float d0 = del[c];
            const float d1 = del[c + 1];
            const float d2 = del[c + 2];
            const float d3 = del[c + 3];
            const float *__restrict w0 =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            const float *__restrict w1 =
                weights + static_cast<int64_t>(pos[c + 1]) * m + b0;
            const float *__restrict w2 =
                weights + static_cast<int64_t>(pos[c + 2]) * m + b0;
            const float *__restrict w3 =
                weights + static_cast<int64_t>(pos[c + 3]) * m + b0;
            for (int64_t o = 0; o < len; ++o) {
                float acc = dst[o];
                acc += d0 * w0[o];
                acc += d1 * w1[o];
                acc += d2 * w2[o];
                acc += d3 * w3[o];
                dst[o] = acc;
            }
        }
        for (; c < k; ++c) {
            const float d = del[c];
            const float *__restrict w_row =
                weights + static_cast<int64_t>(pos[c]) * m + b0;
            for (int64_t o = 0; o < len; ++o)
                dst[o] += d * w_row[o];
        }
    }
}

void
applyDeltasBlocked(const ChangeList &changes, const float *weights,
                   int64_t m, float *out)
{
    applyDeltasBlockedRange(changes, weights, m, 0, m, out);
}

void
applyDeltas(const ChangeList &changes, const float *weights, int64_t m,
            float *out, const DeltaDispatch &dispatch)
{
    if (changes.empty() || m <= 0)
        return;
    if (dispatch.arch == KernelArch::Scalar) {
        applyDeltasScalar(changes, weights, m, out);
        return;
    }
    const ApplyRangeFn range = applyRangeFor(dispatch.arch);
    KernelThreadPool &pool = poolOf(dispatch);
    const int64_t macs = static_cast<int64_t>(changes.size()) * m;
    if (shouldThread(dispatch, pool, macs)) {
        pool.parallelFor(m, kDeltaChunkFloats,
                         [&](int64_t begin, int64_t end) {
                             range(changes, weights, m, begin, end,
                                   out);
                         });
    } else {
        range(changes, weights, m, 0, m, out);
    }
}

// ---------------------------------------------------------------
// From-scratch GEMV.
// ---------------------------------------------------------------

void
gemv(const float *input, int64_t n, const float *weights,
     const float *biases, int64_t m, float *out,
     const DeltaDispatch &dispatch)
{
    if (m <= 0)
        return;
    // Per-thread row list: gemv runs on serve workers and pool
    // workers alike, and keeps its storage across calls.
    thread_local ChangeList rows;
    collectRows(input, n, rows);
    std::copy(biases, biases + m, out);
    applyDeltas(rows, weights, m, out, dispatch);
}

void
runPair(int64_t macs, const std::function<void()> &first,
        const std::function<void()> &second,
        const DeltaDispatch &dispatch)
{
    KernelThreadPool &pool = poolOf(dispatch);
    if (shouldThread(dispatch, pool, macs)) {
        pool.runPair(first, second);
    } else {
        first();
        second();
    }
}

// ---------------------------------------------------------------
// LSTM elementwise tail.
// ---------------------------------------------------------------

void
lstmTail(const LstmGateRows &z, int64_t n, float *c, float *h,
         KernelArch arch)
{
    if (arch == KernelArch::Scalar) {
        lstmTailScalar(z, n, c, h);
        return;
    }
    const float *__restrict zi = z.i;
    const float *__restrict zf = z.f;
    const float *__restrict zg = z.g;
    const float *__restrict zo = z.o;
    float *__restrict cell = c;
    float *__restrict hidden = h;
    for (int64_t j = 0; j < n; ++j) {
        const float c_t = poly::sigmoid(zf[j]) * cell[j] +
                          poly::sigmoid(zi[j]) * poly::tanh(zg[j]);
        cell[j] = c_t;
        hidden[j] = poly::sigmoid(zo[j]) * poly::tanh(c_t);
    }
}

// ---------------------------------------------------------------
// Conv delta update (channels-last output, one row per window).
// ---------------------------------------------------------------

namespace {

/** One window's row update, auto-vectorized to the baseline ISA. */
struct BlockedRow {
    int64_t c_out;

    void operator()(float *__restrict dst,
                    const float *__restrict w_row, float d) const
    {
        for (int64_t co = 0; co < c_out; ++co)
            dst[co] += d * w_row[co];
    }
};

} // namespace

void
applyConvDeltas2dBlocked(const ChangeList &changes,
                         const Conv2dGeometry &g, const float *weights,
                         float *out)
{
    forEachConv2dWindow(changes, g, weights, out,
                        BlockedRow{g.out_channels});
}

void
applyConvDeltas2d(const ChangeList &changes, const Conv2dGeometry &g,
                  const float *weights, float *out,
                  const DeltaDispatch &dispatch)
{
    switch (dispatch.arch) {
      case KernelArch::Scalar:
        applyConvDeltas2dScalar(changes, g, weights, out);
        return;
#if defined(REUSE_KERNELS_HAVE_AVX512)
      case KernelArch::Avx512:
        applyConvDeltas2dAvx512(changes, g, weights, out);
        return;
#endif
      default:
        applyConvDeltas2dBlocked(changes, g, weights, out);
        return;
    }
}

void
applyConvDeltas3dBlocked(const ChangeList &changes,
                         const Conv3dGeometry &g, const float *weights,
                         float *out)
{
    forEachConv3dWindow(changes, g, weights, out,
                        BlockedRow{g.out_channels});
}

void
applyConvDeltas3d(const ChangeList &changes, const Conv3dGeometry &g,
                  const float *weights, float *out,
                  const DeltaDispatch &dispatch)
{
    switch (dispatch.arch) {
      case KernelArch::Scalar:
        applyConvDeltas3dScalar(changes, g, weights, out);
        return;
#if defined(REUSE_KERNELS_HAVE_AVX512)
      case KernelArch::Avx512:
        applyConvDeltas3dAvx512(changes, g, weights, out);
        return;
#endif
      default:
        applyConvDeltas3dBlocked(changes, g, weights, out);
        return;
    }
}

int64_t
convDeltaMacs2d(const ChangeList &changes, const Conv2dGeometry &g)
{
    const size_t k = changes.size();
    const int32_t *pos = changes.positions();
    const int64_t hw = g.in_h * g.in_w;
    int64_t windows = 0;
    for (size_t c = 0; c < k; ++c) {
        const int64_t r = pos[c] % hw;
        const int64_t y = r / g.in_w;
        const int64_t x = r - y * g.in_w;
        windows +=
            coveringOutputs(y, g.kernel, g.stride, 0, g.out_h).count() *
            coveringOutputs(x, g.kernel, g.stride, 0, g.out_w).count();
    }
    return windows * g.out_channels;
}

int64_t
convDeltaMacs3d(const ChangeList &changes, const Conv3dGeometry &g)
{
    const size_t k = changes.size();
    const int32_t *pos = changes.positions();
    const int64_t hw = g.in_h * g.in_w;
    const int64_t dhw = g.in_d * hw;
    int64_t windows = 0;
    for (size_t c = 0; c < k; ++c) {
        const int64_t r = pos[c] % dhw;
        const int64_t z = r / hw;
        const int64_t y = (r - z * hw) / g.in_w;
        const int64_t x = r - z * hw - y * g.in_w;
        windows +=
            coveringOutputs(z, g.kernel, 1, g.pad, g.out_d).count() *
            coveringOutputs(y, g.kernel, 1, g.pad, g.out_h).count() *
            coveringOutputs(x, g.kernel, 1, g.pad, g.out_w).count();
    }
    return windows * g.out_channels;
}

void
channelsLastToFirst(const float *src, int64_t spatial, int64_t channels,
                    float *dst)
{
    // Tiles of kTile spatial positions: the tile's source rows stay
    // cached while each channel's contiguous destination run is
    // written.
    constexpr int64_t kTile = 32;
    for (int64_t s0 = 0; s0 < spatial; s0 += kTile) {
        const int64_t s1 = std::min(spatial, s0 + kTile);
        for (int64_t c = 0; c < channels; ++c) {
            const float *__restrict in = src + c;
            float *__restrict o = dst + c * spatial;
            for (int64_t s = s0; s < s1; ++s)
                o[s] = in[s * channels];
        }
    }
}

} // namespace kernels
} // namespace reuse
