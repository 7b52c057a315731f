/**
 * @file
 * Bit-exactness tests for the dispatched delta kernels against their
 * scalar references: empty change lists, explicit thread-pool
 * dispatch, the change scan and the conv window enumeration.  The
 * per-family sweeps over odd and block-boundary sizes live in
 * test_simd_kernels.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/math_utils.h"
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
    kernels::applyDeltas(changes, weights.data(), m, out.data());
    EXPECT_EQ(out, base);
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

TEST(PoolSlices, WholeCacheLinesSpreadOverTheThreads)
{
    // Kaldi FC6 on 3 workers: four slices, not one 16 KB chunk.
    EXPECT_EQ(kernels::deltaSliceFloats(3482, 3), 880);
    EXPECT_EQ(kernels::deltaSliceFloats(2000, 3), 512);
    EXPECT_EQ(kernels::deltaSliceFloats(2000, 1), 1008);
    EXPECT_EQ(kernels::deltaSliceFloats(360, 0), 368);
    for (int64_t m = 1; m <= 5000; m += 7) {
        for (const size_t workers : {0, 1, 2, 3, 7}) {
            const int64_t slice = kernels::deltaSliceFloats(m, workers);
            ASSERT_EQ(slice % kernels::kCacheLineFloats, 0) << m;
            ASSERT_GE(slice, kernels::kCacheLineFloats) << m;
            ASSERT_LE(ceilDiv(m, slice),
                      static_cast<int64_t>(workers) + 1)
                << "m=" << m << " workers=" << workers;
        }
    }
}

/** Chunks run since the last reset (KernelThreadPool chunk hook). */
std::atomic<int64_t> g_chunks{0};

void
countChunk()
{
    g_chunks.fetch_add(1, std::memory_order_relaxed);
}

/**
 * Chunks a dispatched apply of `rows` rows over m outputs runs: one
 * per slice when it reaches the default threshold on a pool with
 * workers, none (no pool job) otherwise or on the scalar reference.
 */
int64_t
expectedChunks(size_t rows, int64_t m, const DeltaDispatch &dispatch)
{
    const int64_t macs = static_cast<int64_t>(rows) * m;
    const size_t workers = dispatch.pool->workerCount();
    if (workers == 0 || dispatch.arch == kernels::KernelArch::Scalar ||
        macs < kernels::kDefaultParallelMacThreshold)
        return 0;
    return ceilDiv(m, kernels::deltaSliceFloats(m, workers));
}

class RealShapePools : public ::testing::TestWithParam<size_t>
{
};

TEST_P(RealShapePools, ApplyAndGemvMatchScalarBitExact)
{
    // The workloads' FC widths (Kaldi 360 / 2000 / 3482, a tail past
    // a whole number of lines), 400 inputs like Kaldi FC3-FC6, at the
    // default threshold: below it the layer stays on the caller,
    // above it the slices split over the pool.
    const size_t workers = GetParam();
    KernelThreadPool pool(workers);
    DeltaDispatch dispatch;
    dispatch.arch = kernels::defaultDispatch().arch;
    dispatch.pool = &pool;
    Rng rng(107);
    const int64_t n = 400;
    int64_t split = 0;
    KernelThreadPool::setChunkHook(&countChunk);
    for (const int64_t m : {360, 2000, 3482, 4099}) {
        const std::vector<float> weights =
            randomVector(static_cast<size_t>(n * m), rng);
        const std::vector<float> base =
            randomVector(static_cast<size_t>(m), rng);
        for (const double fraction : {0.1, 0.4, 1.0}) {
            SCOPED_TRACE("m=" + std::to_string(m) +
                         " fraction=" + std::to_string(fraction));
            const ChangeList changes = makeChanges(n, fraction, rng);
            std::vector<float> want = base;
            std::vector<float> got = base;
            kernels::applyDeltasScalar(changes, weights.data(), m,
                                       want.data());
            g_chunks = 0;
            kernels::applyDeltas(changes, weights.data(), m, got.data(),
                                 dispatch);
            EXPECT_EQ(g_chunks.load(),
                      expectedChunks(changes.size(), m, dispatch));
            split += g_chunks.load() > 0;
            ASSERT_EQ(std::memcmp(want.data(), got.data(), m * 4), 0)
                << "apply";

            std::vector<float> input =
                randomVector(static_cast<size_t>(n), rng);
            for (float &v : input)
                v = rng.bernoulli(fraction) ? v : 0.0f;
            const size_t rows = static_cast<size_t>(
                std::count_if(input.begin(), input.end(),
                              [](float v) { return v != 0.0f; }));
            kernels::gemvScalar(input.data(), n, weights.data(),
                                base.data(), m, want.data());
            g_chunks = 0;
            kernels::gemv(input.data(), n, weights.data(), base.data(),
                          m, got.data(), dispatch);
            EXPECT_EQ(g_chunks.load(), expectedChunks(rows, m, dispatch));
            split += g_chunks.load() > 0;
            ASSERT_EQ(std::memcmp(want.data(), got.data(), m * 4), 0)
                << "gemv";
        }
    }
    KernelThreadPool::setChunkHook(nullptr);
    if (workers > 0 && dispatch.arch != kernels::KernelArch::Scalar) {
        EXPECT_GT(split, 0) << "no case reached the threshold";
    }
}

INSTANTIATE_TEST_SUITE_P(Workers, RealShapePools,
                         ::testing::Values(size_t{0}, size_t{1},
                                           size_t{3}),
                         [](const ::testing::TestParamInfo<size_t> &info) {
                             return std::to_string(info.param);
                         });

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
