/**
 * @file
 * The runtime dispatchers, plus the baseline-ISA kernels every SIMD
 * family shares (LSTM tail, softmax, MAC counters, layout
 * transpose).  The scalar references live in delta_kernels_scalar.cc
 * (vectorization disabled); the per-ISA kernels live in the
 * ArchKernels tables of delta_kernels_avx2.cc / _avx512.cc /
 * _neon.cc (simd_kernels.h).
 *
 * This translation unit is compiled at -O3 (see CMakeLists.txt) so
 * the LSTM tail and softmax loops auto-vectorize to the baseline
 * ISA.
 */

#include "delta_kernels.h"

#include <algorithm>

#include "common/math_utils.h"
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

/** True when an update of `macs` MACs runs split over the pool. */
bool
shouldThread(const DeltaDispatch &dispatch, KernelThreadPool &pool,
             int64_t macs)
{
    return dispatch.parallel_mac_threshold >= 0 &&
           macs >= dispatch.parallel_mac_threshold &&
           pool.workerCount() > 0;
}

} // namespace

// ---------------------------------------------------------------
// FC / LSTM-gate delta update.
// ---------------------------------------------------------------

int64_t
deltaSliceFloats(int64_t m, size_t workers)
{
    return roundUp(ceilDiv(m, static_cast<int64_t>(workers) + 1),
                   kCacheLineFloats);
}

void
applyDeltas(const ChangeList &changes, const float *weights, int64_t m,
            float *out, const DeltaDispatch &dispatch)
{
    if (changes.empty() || m <= 0)
        return;
    const ArchKernels *isa = archKernels(dispatch.arch);
    if (isa == nullptr) {
        applyDeltasScalar(changes, weights, m, out);
        return;
    }
    KernelThreadPool &pool = poolOf(dispatch);
    const int64_t macs = static_cast<int64_t>(changes.size()) * m;
    if (shouldThread(dispatch, pool, macs)) {
        pool.parallelFor(m, deltaSliceFloats(m, pool.workerCount()),
                         [&](int64_t begin, int64_t end) {
                             isa->apply_range(changes, weights, m,
                                               begin, end, out);
                         });
    } else {
        isa->apply_range(changes, weights, m, 0, m, out);
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
// Softmax.
// ---------------------------------------------------------------

void
softmax(float *x, int64_t n, KernelArch arch)
{
    if (arch == KernelArch::Scalar) {
        softmaxScalar(x, n);
        return;
    }
    if (n <= 0)
        return;
    float *__restrict v = x;
    // Whole rows of kSoftmaxLanes, then the tail into lanes 0..: the
    // scalar reference's lane j mod kSoftmaxLanes, as unit-stride
    // lane loops the compiler vectorizes.
    const int64_t body = n - n % kSoftmaxLanes;
    float lane_max[kSoftmaxLanes];
    for (int64_t l = 0; l < kSoftmaxLanes; ++l)
        lane_max[l] = v[0];
    for (int64_t j = 0; j < body; j += kSoftmaxLanes) {
        for (int64_t l = 0; l < kSoftmaxLanes; ++l)
            lane_max[l] = v[j + l] > lane_max[l] ? v[j + l] : lane_max[l];
    }
    for (int64_t j = body; j < n; ++j) {
        const int64_t l = j - body;
        lane_max[l] = v[j] > lane_max[l] ? v[j] : lane_max[l];
    }
    float max_v = lane_max[0];
    for (int64_t l = 1; l < kSoftmaxLanes; ++l)
        max_v = lane_max[l] > max_v ? lane_max[l] : max_v;
    for (int64_t j = 0; j < n; ++j)
        v[j] = poly::exp(v[j] - max_v);
    double lane_sum[kSoftmaxLanes] = {};
    for (int64_t j = 0; j < body; j += kSoftmaxLanes) {
        for (int64_t l = 0; l < kSoftmaxLanes; ++l)
            lane_sum[l] += v[j + l];
    }
    for (int64_t j = body; j < n; ++j)
        lane_sum[j - body] += v[j];
    double denom = 0.0;
    for (int64_t l = 0; l < kSoftmaxLanes; ++l)
        denom += lane_sum[l];
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < n; ++j)
        v[j] *= inv;
}

// ---------------------------------------------------------------
// Conv delta update (channels-last output, one row per window).
// ---------------------------------------------------------------

void
applyConvDeltas2d(const ChangeList &changes, const Conv2dGeometry &g,
                  const float *weights, float *out,
                  const DeltaDispatch &dispatch)
{
    if (const ArchKernels *isa = archKernels(dispatch.arch))
        isa->conv2d(changes, g, weights, out);
    else
        applyConvDeltas2dScalar(changes, g, weights, out);
}

void
applyConvDeltas3d(const ChangeList &changes, const Conv3dGeometry &g,
                  const float *weights, float *out,
                  const DeltaDispatch &dispatch)
{
    if (const ArchKernels *isa = archKernels(dispatch.arch))
        isa->conv3d(changes, g, weights, out);
    else
        applyConvDeltas3dScalar(changes, g, weights, out);
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
