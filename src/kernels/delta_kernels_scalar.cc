/**
 * @file
 * Scalar reference implementations of the delta-update kernels.
 *
 * These reproduce the original interleaved hot path's operation
 * order exactly (per change, one full sweep of the affected
 * outputs) and serve as the correctness reference the SIMD kernels
 * are tested against, and as the baseline the perf-smoke CI job
 * compares against.  This translation unit is compiled with
 * auto-vectorization disabled (see CMakeLists.txt), so the measured
 * scalar-vs-SIMD speedup reflects what blocking + SIMD buy.
 */

#include "delta_kernels.h"

#include "kernels/conv_windows.h"
#include "kernels/poly_math.h"

namespace reuse {
namespace kernels {

void
applyDeltasScalar(const ChangeList &changes, const float *weights,
                  int64_t m, float *out)
{
    const size_t k = changes.size();
    for (size_t c = 0; c < k; ++c) {
        const float d = changes.delta(c);
        const float *w_row =
            weights + static_cast<int64_t>(changes.position(c)) * m;
        for (int64_t o = 0; o < m; ++o)
            out[o] += d * w_row[o];
    }
}

void
gemvScalar(const float *input, int64_t n, const float *weights,
           const float *biases, int64_t m, float *out)
{
    for (int64_t o = 0; o < m; ++o)
        out[o] = biases[o];
    for (int64_t i = 0; i < n; ++i) {
        const float v = input[i];
        if (v == 0.0f)
            continue;
        const float *w_row = weights + i * m;
        for (int64_t o = 0; o < m; ++o)
            out[o] += v * w_row[o];
    }
}

void
lstmTailScalar(const LstmGateRows &z, int64_t n, float *c, float *h)
{
    for (int64_t j = 0; j < n; ++j) {
        const float c_t = poly::sigmoid(z.f[j]) * c[j] +
                          poly::sigmoid(z.i[j]) * poly::tanh(z.g[j]);
        c[j] = c_t;
        h[j] = poly::sigmoid(z.o[j]) * poly::tanh(c_t);
    }
}

float
tailSigmoid(float x)
{
    return poly::sigmoid(x);
}

float
tailTanh(float x)
{
    return poly::tanh(x);
}

void
softmaxScalar(float *x, int64_t n)
{
    if (n <= 0)
        return;
    float lane_max[kSoftmaxLanes];
    for (int64_t l = 0; l < kSoftmaxLanes; ++l)
        lane_max[l] = x[0];
    for (int64_t j = 0; j < n; ++j) {
        const int64_t l = j % kSoftmaxLanes;
        lane_max[l] = x[j] > lane_max[l] ? x[j] : lane_max[l];
    }
    float max_v = lane_max[0];
    for (int64_t l = 1; l < kSoftmaxLanes; ++l)
        max_v = lane_max[l] > max_v ? lane_max[l] : max_v;
    double lane_sum[kSoftmaxLanes] = {};
    for (int64_t j = 0; j < n; ++j) {
        x[j] = poly::exp(x[j] - max_v);
        lane_sum[j % kSoftmaxLanes] += x[j];
    }
    double denom = 0.0;
    for (int64_t l = 0; l < kSoftmaxLanes; ++l)
        denom += lane_sum[l];
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < n; ++j)
        x[j] *= inv;
}

float
softmaxExp(float x)
{
    return poly::exp(x);
}

namespace {

/** One window's row update, one output channel at a time. */
struct ScalarRow {
    int64_t c_out;

    void operator()(float *dst, const float *w_row, float d) const
    {
        for (int64_t co = 0; co < c_out; ++co)
            dst[co] += d * w_row[co];
    }
};

} // namespace

void
applyConvDeltas2dScalar(const ChangeList &changes,
                        const Conv2dGeometry &g, const float *weights,
                        float *out)
{
    forEachConv2dWindow(changes, g, weights, out,
                        ScalarRow{g.out_channels});
}

void
applyConvDeltas3dScalar(const ChangeList &changes,
                        const Conv3dGeometry &g, const float *weights,
                        float *out)
{
    forEachConv3dWindow(changes, g, weights, out,
                        ScalarRow{g.out_channels});
}

} // namespace kernels
} // namespace reuse
