/**
 * @file
 * Scalar reference implementations of the delta-update kernels.
 *
 * These reproduce the original interleaved hot path's operation
 * order exactly (per change, one full sweep of the affected
 * outputs) and serve as the correctness reference the blocked
 * kernels are tested against, and as the baseline the perf-smoke CI
 * job compares against.  This translation unit is compiled with
 * auto-vectorization disabled (see CMakeLists.txt), so the measured
 * scalar-vs-blocked speedup reflects what blocking + SIMD buy.
 */

#include "delta_kernels.h"

#include "kernels/conv_windows.h"

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
