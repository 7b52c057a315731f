/**
 * @file
 * Bit-exactness tests for the blocked/vectorized delta kernels
 * against their scalar references, across odd sizes (outputs not a
 * multiple of the block or vector width), empty and full change
 * lists, and explicit thread-pool dispatch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "kernels/change_list.h"
#include "kernels/delta_kernels.h"
#include "kernels/thread_pool.h"
#include "quant/linear_quantizer.h"

namespace reuse {
namespace {

using kernels::ChangeList;
using kernels::Conv2dGeometry;
using kernels::Conv3dGeometry;
using kernels::DeltaDispatch;
using kernels::KernelThreadPool;

/** Builds a change list over [0, n) with roughly `fraction` changed. */
ChangeList
makeChanges(int64_t n, double fraction, Rng &rng)
{
    ChangeList changes;
    for (int64_t i = 0; i < n; ++i) {
        if (rng.bernoulli(fraction))
            changes.push(static_cast<int32_t>(i),
                         rng.gaussian(0.0f, 0.5f));
    }
    return changes;
}

std::vector<float>
randomVector(size_t n, Rng &rng)
{
    std::vector<float> v(n);
    rng.fillGaussian(v, 0.0f, 1.0f);
    return v;
}

// The output sizes deliberately include 1 (single-output layer),
// non-multiples of the SIMD width (3, 17, 33, 1023, 1025, 4099), an
// exact block (1024) and multiple blocks (2048).
const int64_t kOutputSizes[] = {1, 3, 17, 33, 1000, 1023, 1024, 1025,
                                2048, 4099};

TEST(ApplyDeltas, BlockedMatchesScalarBitExact)
{
    Rng rng(101);
    const int64_t n = 57;
    for (const int64_t m : kOutputSizes) {
        const std::vector<float> weights =
            randomVector(static_cast<size_t>(n * m), rng);
        const std::vector<float> base =
            randomVector(static_cast<size_t>(m), rng);
        for (const double fraction : {0.0, 0.1, 0.5, 1.0}) {
            const ChangeList changes = makeChanges(n, fraction, rng);
            std::vector<float> scalar = base;
            std::vector<float> blocked = base;
            kernels::applyDeltasScalar(changes, weights.data(), m,
                                       scalar.data());
            kernels::applyDeltasBlocked(changes, weights.data(), m,
                                        blocked.data());
            for (int64_t o = 0; o < m; ++o) {
                ASSERT_EQ(scalar[static_cast<size_t>(o)],
                          blocked[static_cast<size_t>(o)])
                    << "m=" << m << " fraction=" << fraction
                    << " o=" << o;
            }
        }
    }
}

TEST(ApplyDeltas, ThreadedMatchesScalarBitExact)
{
    Rng rng(102);
    KernelThreadPool pool(3);
    DeltaDispatch dispatch;
    dispatch.parallel_mac_threshold = 0;  // always thread
    dispatch.pool = &pool;
    const int64_t n = 73;
    for (const int64_t m : {1, 33, 1024, 4099, 9000}) {
        const std::vector<float> weights = randomVector(
            static_cast<size_t>(n) * static_cast<size_t>(m), rng);
        const std::vector<float> base =
            randomVector(static_cast<size_t>(m), rng);
        const ChangeList changes = makeChanges(n, 0.3, rng);
        std::vector<float> scalar = base;
        std::vector<float> threaded = base;
        kernels::applyDeltasScalar(changes, weights.data(), m,
                                   scalar.data());
        kernels::applyDeltas(changes, weights.data(), m,
                             threaded.data(), dispatch);
        for (int64_t o = 0; o < m; ++o) {
            ASSERT_EQ(scalar[static_cast<size_t>(o)],
                      threaded[static_cast<size_t>(o)])
                << "m=" << m << " o=" << o;
        }
    }
}

TEST(ApplyDeltas, ScalarDispatchMatchesBlocked)
{
    Rng rng(103);
    const int64_t n = 19;
    const int64_t m = 257;
    const std::vector<float> weights =
        randomVector(static_cast<size_t>(n * m), rng);
    const std::vector<float> base =
        randomVector(static_cast<size_t>(m), rng);
    const ChangeList changes = makeChanges(n, 0.4, rng);

    DeltaDispatch scalar_dispatch;
    scalar_dispatch.arch = kernels::KernelArch::Scalar;
    std::vector<float> a = base;
    std::vector<float> b = base;
    kernels::applyDeltas(changes, weights.data(), m, a.data(),
                         scalar_dispatch);
    kernels::applyDeltasBlocked(changes, weights.data(), m, b.data());
    for (int64_t o = 0; o < m; ++o)
        ASSERT_EQ(a[static_cast<size_t>(o)], b[static_cast<size_t>(o)]);
}

TEST(ApplyDeltas, EmptyChangeListIsANoOp)
{
    Rng rng(104);
    const int64_t m = 1025;
    const std::vector<float> weights =
        randomVector(static_cast<size_t>(4 * m), rng);
    const std::vector<float> base =
        randomVector(static_cast<size_t>(m), rng);
    ChangeList changes;
    std::vector<float> out = base;
    kernels::applyDeltasBlocked(changes, weights.data(), m, out.data());
    EXPECT_EQ(out, base);
}

TEST(Gemv, BlockedMatchesScalarBitExact)
{
    Rng rng(105);
    const int64_t n = 41;
    for (const int64_t m : kOutputSizes) {
        const std::vector<float> weights =
            randomVector(static_cast<size_t>(n * m), rng);
        const std::vector<float> biases =
            randomVector(static_cast<size_t>(m), rng);
        std::vector<float> input =
            randomVector(static_cast<size_t>(n), rng);
        // Sprinkle zeros: both forms must take the skip-zero path at
        // the same elements.
        for (size_t i = 0; i < input.size(); i += 3)
            input[i] = 0.0f;
        std::vector<float> scalar(static_cast<size_t>(m));
        std::vector<float> blocked(static_cast<size_t>(m));
        DeltaDispatch dispatch;
        dispatch.arch = kernels::KernelArch::Blocked;
        kernels::gemvScalar(input.data(), n, weights.data(),
                            biases.data(), m, scalar.data());
        kernels::gemv(input.data(), n, weights.data(), biases.data(), m,
                      blocked.data(), dispatch);
        for (int64_t o = 0; o < m; ++o) {
            ASSERT_EQ(scalar[static_cast<size_t>(o)],
                      blocked[static_cast<size_t>(o)])
                << "m=" << m << " o=" << o;
        }
    }
}

TEST(Gemv, ThreadedMatchesScalarBitExact)
{
    Rng rng(106);
    KernelThreadPool pool(2);
    DeltaDispatch dispatch;
    dispatch.parallel_mac_threshold = 0;
    dispatch.pool = &pool;
    const int64_t n = 64;
    const int64_t m = 4099;
    const std::vector<float> weights =
        randomVector(static_cast<size_t>(n * m), rng);
    const std::vector<float> biases =
        randomVector(static_cast<size_t>(m), rng);
    const std::vector<float> input =
        randomVector(static_cast<size_t>(n), rng);
    std::vector<float> scalar(static_cast<size_t>(m));
    std::vector<float> threaded(static_cast<size_t>(m));
    kernels::gemvScalar(input.data(), n, weights.data(), biases.data(),
                        m, scalar.data());
    kernels::gemv(input.data(), n, weights.data(), biases.data(), m,
                  threaded.data(), dispatch);
    for (int64_t o = 0; o < m; ++o)
        ASSERT_EQ(scalar[static_cast<size_t>(o)],
                  threaded[static_cast<size_t>(o)]);
}

TEST(ScanChanges, MatchesNaiveQuantizerLoop)
{
    Rng rng(107);
    const int64_t n = 513;
    LinearQuantizer quant(64, -2.0f, 2.0f);
    const kernels::QuantScanParams q = quant.scanParams();

    std::vector<float> prev = randomVector(static_cast<size_t>(n), rng);
    std::vector<int32_t> prev_indices(static_cast<size_t>(n));
    std::vector<int32_t> naive_indices(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        prev_indices[static_cast<size_t>(i)] =
            quant.index(prev[static_cast<size_t>(i)]);
        naive_indices[static_cast<size_t>(i)] =
            prev_indices[static_cast<size_t>(i)];
    }

    std::vector<float> next = prev;
    for (size_t i = 0; i < next.size(); i += 4)
        next[i] += rng.gaussian(0.0f, 0.5f);

    // Naive reference: the original interleaved comparison.
    std::vector<int32_t> want_positions;
    std::vector<float> want_deltas;
    for (int64_t i = 0; i < n; ++i) {
        const int32_t idx = quant.index(next[static_cast<size_t>(i)]);
        if (idx != naive_indices[static_cast<size_t>(i)]) {
            want_positions.push_back(static_cast<int32_t>(i));
            want_deltas.push_back(
                quant.centroid(idx) -
                quant.centroid(naive_indices[static_cast<size_t>(i)]));
            naive_indices[static_cast<size_t>(i)] = idx;
        }
    }

    ChangeList changes;
    const int64_t changed = kernels::scanChanges(
        next.data(), n, q, prev_indices.data(), changes).changed;
    EXPECT_EQ(changed, static_cast<int64_t>(want_positions.size()));
    ASSERT_EQ(changes.size(), want_positions.size());
    for (size_t c = 0; c < want_positions.size(); ++c)
        EXPECT_EQ(changes.position(c), want_positions[c])
            << "change " << c;
    for (size_t c = 0; c < want_deltas.size(); ++c)
        EXPECT_EQ(changes.delta(c), want_deltas[c]) << "change " << c;
    EXPECT_EQ(prev_indices, naive_indices);
}

TEST(ScanChanges, AllAndNoneChanged)
{
    Rng rng(108);
    const int64_t n = 100;
    LinearQuantizer quant(32, -1.0f, 1.0f);
    const kernels::QuantScanParams q = quant.scanParams();
    std::vector<float> input = randomVector(static_cast<size_t>(n), rng);
    std::vector<int32_t> prev_indices(static_cast<size_t>(n), 9999);

    ChangeList changes;
    EXPECT_EQ(kernels::scanChanges(input.data(), n, q,
                                   prev_indices.data(), changes)
                  .changed,
              n);
    // Second scan of the identical input: nothing changed.
    EXPECT_EQ(kernels::scanChanges(input.data(), n, q,
                                   prev_indices.data(), changes)
                  .changed,
              0);
    EXPECT_TRUE(changes.empty());
}

TEST(QuantizeWithIndices, MatchesQuantizer)
{
    Rng rng(109);
    const int64_t n = 321;
    LinearQuantizer quant(128, -3.0f, 3.0f);
    const std::vector<float> input =
        randomVector(static_cast<size_t>(n), rng);
    std::vector<int32_t> indices(static_cast<size_t>(n));
    std::vector<float> centroids(static_cast<size_t>(n));
    kernels::quantizeWithIndices(input.data(), n, quant.scanParams(),
                                 indices.data(), centroids.data());
    for (int64_t i = 0; i < n; ++i) {
        const size_t s = static_cast<size_t>(i);
        EXPECT_EQ(indices[s], quant.index(input[s])) << "i=" << i;
        EXPECT_EQ(centroids[s], quant.centroid(indices[s]))
            << "i=" << i;
    }
}

TEST(ConvDeltas2d, BlockedMatchesScalarBitExact)
{
    Rng rng(110);
    // Geometries chosen so out_channels is not a multiple of the
    // vector width (16): 1, 3, 17, 33.
    struct Case {
        int64_t c_in, h, w, c_out, kernel, stride;
    };
    const Case cases[] = {
        {1, 7, 7, 1, 3, 1},   {2, 9, 11, 3, 3, 2},
        {3, 12, 12, 17, 5, 1}, {2, 16, 16, 33, 3, 2},
    };
    for (const Case &c : cases) {
        Conv2dGeometry g;
        g.in_h = c.h;
        g.in_w = c.w;
        g.out_channels = c.c_out;
        g.out_h = (c.h - c.kernel) / c.stride + 1;
        g.out_w = (c.w - c.kernel) / c.stride + 1;
        g.kernel = c.kernel;
        g.stride = c.stride;
        const int64_t n = c.c_in * c.h * c.w;
        const std::vector<float> weights = randomVector(
            static_cast<size_t>(c.c_in * c.kernel * c.kernel * c.c_out),
            rng);
        const std::vector<float> base = randomVector(
            static_cast<size_t>(c.c_out * g.out_h * g.out_w), rng);
        for (const double fraction : {0.0, 0.2, 1.0}) {
            const ChangeList changes = makeChanges(n, fraction, rng);
            std::vector<float> scalar = base;
            std::vector<float> blocked = base;
            kernels::applyConvDeltas2dScalar(changes, g, weights.data(),
                                             scalar.data());
            kernels::applyConvDeltas2dBlocked(changes, g,
                                              weights.data(),
                                              blocked.data());
            ASSERT_EQ(scalar, blocked)
                << "c_out=" << c.c_out << " fraction=" << fraction;
        }
    }
}

TEST(ConvDeltas3d, BlockedMatchesScalarBitExact)
{
    Rng rng(111);
    struct Case {
        int64_t c_in, d, h, w, c_out, kernel, pad;
    };
    const Case cases[] = {
        {1, 4, 6, 6, 1, 3, 1},
        {2, 5, 7, 7, 3, 3, 0},
        {2, 6, 8, 8, 17, 3, 1},
    };
    for (const Case &c : cases) {
        Conv3dGeometry g;
        g.in_d = c.d;
        g.in_h = c.h;
        g.in_w = c.w;
        g.out_channels = c.c_out;
        g.out_d = c.d + 2 * c.pad - c.kernel + 1;
        g.out_h = c.h + 2 * c.pad - c.kernel + 1;
        g.out_w = c.w + 2 * c.pad - c.kernel + 1;
        g.kernel = c.kernel;
        g.pad = c.pad;
        const int64_t n = c.c_in * c.d * c.h * c.w;
        const std::vector<float> weights = randomVector(
            static_cast<size_t>(c.c_in * c.kernel * c.kernel *
                                c.kernel * c.c_out),
            rng);
        const std::vector<float> base = randomVector(
            static_cast<size_t>(c.c_out * g.out_d * g.out_h * g.out_w),
            rng);
        for (const double fraction : {0.0, 0.3, 1.0}) {
            const ChangeList changes = makeChanges(n, fraction, rng);
            std::vector<float> scalar = base;
            std::vector<float> blocked = base;
            kernels::applyConvDeltas3dScalar(changes, g, weights.data(),
                                             scalar.data());
            kernels::applyConvDeltas3dBlocked(changes, g,
                                              weights.data(),
                                              blocked.data());
            ASSERT_EQ(scalar, blocked)
                << "c_out=" << c.c_out << " fraction=" << fraction;
        }
    }
}

/**
 * Independent channels-last (HWC) reference for the 2D conv delta
 * update: for every change in order, scan *all* output windows and
 * correct the ones that cover the changed pixel.
 */
void
windowScanConv2d(const ChangeList &changes, const Conv2dGeometry &g,
                 const float *weights, float *out)
{
    const int64_t hw = g.in_h * g.in_w;
    for (size_t c = 0; c < changes.size(); ++c) {
        const int64_t i = changes.position(c);
        const int64_t ci = i / hw;
        const int64_t y = (i / g.in_w) % g.in_h;
        const int64_t x = i % g.in_w;
        for (int64_t oy = 0; oy < g.out_h; ++oy) {
            for (int64_t ox = 0; ox < g.out_w; ++ox) {
                const int64_t ky = y - oy * g.stride;
                const int64_t kx = x - ox * g.stride;
                if (ky < 0 || ky >= g.kernel || kx < 0 || kx >= g.kernel)
                    continue;
                for (int64_t co = 0; co < g.out_channels; ++co)
                    out[(oy * g.out_w + ox) * g.out_channels + co] +=
                        changes.delta(c) *
                        weights[((ci * g.kernel + ky) * g.kernel + kx) *
                                    g.out_channels +
                                co];
            }
        }
    }
}

/** DHWC counterpart of windowScanConv2d (stride 1, padded). */
void
windowScanConv3d(const ChangeList &changes, const Conv3dGeometry &g,
                 const float *weights, float *out)
{
    const int64_t k = g.kernel;
    const int64_t hw = g.in_h * g.in_w;
    const int64_t dhw = g.in_d * hw;
    for (size_t c = 0; c < changes.size(); ++c) {
        const int64_t i = changes.position(c);
        const int64_t ci = i / dhw;
        const int64_t z = (i / hw) % g.in_d;
        const int64_t y = (i / g.in_w) % g.in_h;
        const int64_t x = i % g.in_w;
        for (int64_t oz = 0; oz < g.out_d; ++oz) {
            for (int64_t oy = 0; oy < g.out_h; ++oy) {
                for (int64_t ox = 0; ox < g.out_w; ++ox) {
                    const int64_t kd = z + g.pad - oz;
                    const int64_t ky = y + g.pad - oy;
                    const int64_t kx = x + g.pad - ox;
                    if (kd < 0 || kd >= k || ky < 0 || ky >= k ||
                        kx < 0 || kx >= k)
                        continue;
                    for (int64_t co = 0; co < g.out_channels; ++co)
                        out[((oz * g.out_h + oy) * g.out_w + ox) *
                                g.out_channels +
                            co] +=
                            changes.delta(c) *
                            weights[(((ci * k + kd) * k + ky) * k + kx) *
                                        g.out_channels +
                                    co];
                }
            }
        }
    }
}

TEST(ConvDeltas2d, ScalarMatchesWindowScanBitExact)
{
    Rng rng(112);
    for (int trial = 0; trial < 30; ++trial) {
        Conv2dGeometry g;
        g.kernel = rng.uniformInt(1, 5);
        g.stride = rng.uniformInt(1, 6);
        g.in_h = rng.uniformInt(g.kernel, g.kernel + 11);
        g.in_w = rng.uniformInt(g.kernel, g.kernel + 11);
        g.out_channels = rng.uniformInt(1, 35);
        g.out_h = (g.in_h - g.kernel) / g.stride + 1;
        g.out_w = (g.in_w - g.kernel) / g.stride + 1;
        const int64_t c_in = rng.uniformInt(1, 3);
        const std::vector<float> weights = randomVector(
            static_cast<size_t>(c_in * g.kernel * g.kernel *
                                g.out_channels),
            rng);
        const std::vector<float> base = randomVector(
            static_cast<size_t>(g.out_channels * g.out_h * g.out_w),
            rng);
        const ChangeList changes =
            makeChanges(c_in * g.in_h * g.in_w, 0.3, rng);
        std::vector<float> want = base;
        std::vector<float> got = base;
        windowScanConv2d(changes, g, weights.data(), want.data());
        kernels::applyConvDeltas2dScalar(changes, g, weights.data(),
                                         got.data());
        ASSERT_EQ(want, got) << "trial " << trial;
    }
}

TEST(ConvDeltas3d, ScalarMatchesWindowScanBitExact)
{
    Rng rng(113);
    for (int trial = 0; trial < 20; ++trial) {
        Conv3dGeometry g;
        g.kernel = rng.uniformInt(1, 3);
        g.pad = rng.uniformInt(0, g.kernel);
        g.in_d = rng.uniformInt(g.kernel, g.kernel + 3);
        g.in_h = rng.uniformInt(g.kernel, g.kernel + 5);
        g.in_w = rng.uniformInt(g.kernel, g.kernel + 5);
        g.out_channels = rng.uniformInt(1, 20);
        g.out_d = g.in_d + 2 * g.pad - g.kernel + 1;
        g.out_h = g.in_h + 2 * g.pad - g.kernel + 1;
        g.out_w = g.in_w + 2 * g.pad - g.kernel + 1;
        const int64_t c_in = rng.uniformInt(1, 3);
        const std::vector<float> weights = randomVector(
            static_cast<size_t>(c_in * g.kernel * g.kernel * g.kernel *
                                g.out_channels),
            rng);
        const std::vector<float> base = randomVector(
            static_cast<size_t>(g.out_channels * g.out_d * g.out_h *
                                g.out_w),
            rng);
        const ChangeList changes =
            makeChanges(c_in * g.in_d * g.in_h * g.in_w, 0.3, rng);
        std::vector<float> want = base;
        std::vector<float> got = base;
        windowScanConv3d(changes, g, weights.data(), want.data());
        kernels::applyConvDeltas3dScalar(changes, g, weights.data(),
                                         got.data());
        ASSERT_EQ(want, got) << "trial " << trial;
    }
}

TEST(ConvDeltaMacs, ClosedFormMatchesEnumerationSweep2d)
{
    // Every pixel of every geometry, borders and uncovered rows
    // (stride > K) included.
    for (int64_t k = 1; k <= 5; ++k) {
        for (int64_t stride = 1; stride <= 6; ++stride) {
            for (const int64_t h : {k, k + 1, k + 4, k + 9}) {
                const int64_t w = h + 3;
                Conv2dGeometry g;
                g.in_h = h;
                g.in_w = w;
                g.out_channels = 3;
                g.out_h = (h - k) / stride + 1;
                g.out_w = (w - k) / stride + 1;
                g.kernel = k;
                g.stride = stride;
                for (int64_t y = 0; y < h; ++y) {
                    for (int64_t x = 0; x < w; ++x) {
                        int64_t want = 0;
                        for (int64_t oy = 0; oy < g.out_h; ++oy)
                            for (int64_t ox = 0; ox < g.out_w; ++ox)
                                want += (oy * stride <= y &&
                                         y < oy * stride + k &&
                                         ox * stride <= x &&
                                         x < ox * stride + k)
                                            ? 3
                                            : 0;
                        ChangeList one;
                        // Second input channel: the count must not
                        // depend on ci.
                        one.push(static_cast<int32_t>(h * w + y * w + x),
                                 1.0f);
                        ASSERT_EQ(kernels::convDeltaMacs2d(one, g), want)
                            << "k=" << k << " stride=" << stride
                            << " h=" << h << " y=" << y << " x=" << x;
                    }
                }
            }
        }
    }
}

TEST(ConvDeltaMacs, ClosedFormMatchesEnumerationSweep3d)
{
    for (int64_t k = 1; k <= 4; ++k) {
        for (int64_t pad = 0; pad <= k; ++pad) {
            Conv3dGeometry g;
            g.in_d = k + 1;
            g.in_h = k + 2;
            g.in_w = k + 3;
            g.out_channels = 2;
            g.out_d = g.in_d + 2 * pad - k + 1;
            g.out_h = g.in_h + 2 * pad - k + 1;
            g.out_w = g.in_w + 2 * pad - k + 1;
            g.kernel = k;
            g.pad = pad;
            auto covering = [&](int64_t i, int64_t extent) {
                int64_t n = 0;
                for (int64_t o = 0; o < extent; ++o)
                    n += (o - pad <= i && i < o - pad + k) ? 1 : 0;
                return n;
            };
            ChangeList all;
            int64_t want_all = 0;
            for (int64_t z = 0; z < g.in_d; ++z) {
                for (int64_t y = 0; y < g.in_h; ++y) {
                    for (int64_t x = 0; x < g.in_w; ++x) {
                        const int64_t want = covering(z, g.out_d) *
                                             covering(y, g.out_h) *
                                             covering(x, g.out_w) * 2;
                        const int32_t pos = static_cast<int32_t>(
                            (z * g.in_h + y) * g.in_w + x);
                        ChangeList one;
                        one.push(pos, 1.0f);
                        ASSERT_EQ(kernels::convDeltaMacs3d(one, g), want)
                            << "k=" << k << " pad=" << pad;
                        all.push(pos, 1.0f);
                        want_all += want;
                    }
                }
            }
            EXPECT_EQ(kernels::convDeltaMacs3d(all, g), want_all);
        }
    }
}

TEST(ChangeListStorage, ReleaseStorageFreesEverything)
{
    Rng rng(112);
    ChangeList changes;
    std::vector<float> input = randomVector(256, rng);
    std::vector<int32_t> prev(256, -777);
    kernels::scanChanges(input.data(), 256, {0.1f, -100, 100},
                         prev.data(), changes);
    EXPECT_GT(changes.memoryBytes(), 0);
    changes.releaseStorage();
    EXPECT_EQ(changes.memoryBytes(), 0);
    EXPECT_TRUE(changes.empty());
}

} // namespace
} // namespace reuse
