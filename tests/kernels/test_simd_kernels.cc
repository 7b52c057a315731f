/**
 * @file
 * Bit-exactness fuzz suite for the hand-written SIMD kernels.
 *
 * Every compiled-and-runnable implementation family (blocked, AVX2,
 * AVX-512, NEON) is compared against the scalar reference — which
 * defines the floating-point contract — across odd sizes, misaligned
 * tails, 0%/100% change densities and near-match radii.  All
 * comparisons are on float *bits*, not tolerances: the families must
 * agree exactly.  CI reruns this binary with REUSE_KERNELS forced to
 * each family so the dispatched entry points get the same coverage.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "common/random.h"
#include "kernels/change_list.h"
#include "kernels/cpu_features.h"
#include "kernels/delta_kernels.h"
#include "kernels/dispatch.h"
#include "kernels/quant_scan.h"

namespace reuse {
namespace kernels {
namespace {

/** Families to fuzz against the scalar reference. */
const KernelArch kSimdArchs[] = {KernelArch::Blocked,
                                 KernelArch::Neon, KernelArch::Avx2,
                                 KernelArch::Avx512};

/** Bit-exact comparison of two float buffers. */
::testing::AssertionResult
bitsEqual(const float *a, const float *b, int64_t n,
          const char *what)
{
    for (int64_t i = 0; i < n; ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
            return ::testing::AssertionFailure()
                   << what << " differs at [" << i
                   << "]: " << a[i] << " vs " << b[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** Sizes covering sub-vector, odd, power-of-two and tail cases. */
const int64_t kSizes[] = {1,  2,  3,  7,  8,   9,   15,  16,  17,
                          31, 32, 33, 63, 64,  65,  100, 127, 129,
                          255, 256, 257, 1000};

QuantScanParams
makeParams(int32_t radius = 0)
{
    QuantScanParams q;
    q.step = 0.125f;
    q.min_index = -127;
    q.max_index = 127;
    q.radius = radius;
    return q;
}

/**
 * Builds a previous-frame index buffer and a current input whose
 * change density is roughly `density`: unchanged elements re-emit
 * the previous centroid exactly, changed ones move by at least one
 * step (more than any tested radius would need is exercised via the
 * magnitude draw).
 */
void
makeScanCase(int64_t n, double density, const QuantScanParams &q,
             Rng &rng, AlignedVector<float> &input,
             AlignedVector<int32_t> &prev)
{
    input.assign(n + 4, 0.0f);
    prev.assign(n, 0);
    for (int64_t i = 0; i < n; ++i) {
        const int32_t idx =
            static_cast<int32_t>(rng.uniformInt(-100, 100));
        prev[i] = idx;
        if (rng.bernoulli(density)) {
            const int32_t move =
                static_cast<int32_t>(rng.uniformInt(1, 9)) *
                (rng.bernoulli(0.5) ? 1 : -1);
            input[i] = quantCentroid(q, idx + move);
        } else {
            input[i] = quantCentroid(q, idx);
        }
    }
}

/** Asserts two scans produced bit-identical results and state. */
void
expectScansEqual(const ScanResult &want, const ChangeList &want_out,
                 const AlignedVector<int32_t> &want_prev,
                 const ScanResult &got, const ChangeList &got_out,
                 const AlignedVector<int32_t> &got_prev,
                 KernelArch arch)
{
    SCOPED_TRACE(std::string("arch=") + archName(arch));
    ASSERT_EQ(got.changed, want.changed);
    ASSERT_EQ(got.near_matched, want.near_matched);
    ASSERT_EQ(got_out.size(), want_out.size());
    for (size_t c = 0; c < want_out.size(); ++c) {
        ASSERT_EQ(got_out.position(c), want_out.position(c))
            << "change " << c;
        ASSERT_EQ(std::memcmp(&got_out.deltas()[c],
                              &want_out.deltas()[c], sizeof(float)),
                  0)
            << "delta " << c;
    }
    ASSERT_EQ(got_prev, want_prev);
}

class SimdScan : public ::testing::TestWithParam<KernelArch>
{
};

TEST_P(SimdScan, MatchesScalarAcrossSizesAndDensities)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    Rng rng(0xf022);
    for (const int64_t n : kSizes) {
        for (const double density : {0.0, 0.1, 0.5, 1.0}) {
            for (const int32_t radius : {0, 1, 3}) {
                const QuantScanParams q = makeParams(radius);
                AlignedVector<float> input;
                AlignedVector<int32_t> prev;
                makeScanCase(n, density, q, rng, input, prev);

                AlignedVector<int32_t> prev_ref = prev;
                ChangeList ref;
                const ScanResult want =
                    scanChanges(input.data(), n, q, prev_ref.data(),
                                ref, KernelArch::Scalar);

                AlignedVector<int32_t> prev_got = prev;
                ChangeList got;
                const ScanResult have =
                    scanChanges(input.data(), n, q, prev_got.data(),
                                got, arch);

                SCOPED_TRACE("n=" + std::to_string(n) + " density=" +
                             std::to_string(density) + " radius=" +
                             std::to_string(radius));
                expectScansEqual(want, ref, prev_ref, have, got,
                                 prev_got, arch);
            }
        }
    }
}

TEST_P(SimdScan, MatchesScalarOnMisalignedInput)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    Rng rng(0xa119);
    const QuantScanParams q = makeParams();
    for (const int64_t n : {7, 33, 100, 257}) {
        for (const int64_t offset : {1, 2, 3}) {
            AlignedVector<float> input;
            AlignedVector<int32_t> prev;
            makeScanCase(n + offset, 0.3, q, rng, input, prev);
            // Scan through a deliberately misaligned input pointer
            // (and a misaligned tail of the index buffer).
            const float *in = input.data() + offset;
            int32_t *pv = prev.data() + offset;

            AlignedVector<int32_t> prev_ref(pv, pv + n);
            ChangeList ref;
            const ScanResult want = scanChanges(
                in, n, q, prev_ref.data(), ref, KernelArch::Scalar);

            std::vector<int32_t> prev_got(pv, pv + n);
            ChangeList got;
            const ScanResult have =
                scanChanges(in, n, q, prev_got.data(), got, arch);

            SCOPED_TRACE("n=" + std::to_string(n) + " offset=" +
                         std::to_string(offset));
            ASSERT_EQ(have.changed, want.changed);
            ASSERT_EQ(have.near_matched, want.near_matched);
            ASSERT_EQ(got.size(), ref.size());
            for (size_t c = 0; c < ref.size(); ++c) {
                ASSERT_EQ(got.position(c), ref.position(c));
                ASSERT_EQ(got.delta(c), ref.delta(c));
            }
            for (int64_t i = 0; i < n; ++i)
                ASSERT_EQ(prev_got[i], prev_ref[i]);
        }
    }
}

TEST_P(SimdScan, NanInputsClampIdentically)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    const QuantScanParams q = makeParams();
    AlignedVector<float> input = {
        std::nanf(""), 0.5f, -std::nanf(""), 1e30f, -1e30f,
        0.0f,          0.1f, -0.1f,          2.0f,  -2.0f};
    const int64_t n = static_cast<int64_t>(input.size());
    AlignedVector<int32_t> prev_ref(n, 3), prev_got(n, 3);
    ChangeList ref, got;
    const ScanResult want = scanChanges(
        input.data(), n, q, prev_ref.data(), ref, KernelArch::Scalar);
    const ScanResult have =
        scanChanges(input.data(), n, q, prev_got.data(), got, arch);
    expectScansEqual(want, ref, prev_ref, have, got, prev_got, arch);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SimdScan, ::testing::ValuesIn(kSimdArchs),
    [](const ::testing::TestParamInfo<KernelArch> &info) {
        return archName(info.param);
    });

// ---------------------------------------------------------------
// Near-match semantics (verified against the scalar reference, so
// by the scan equivalence above they hold for every family).
// ---------------------------------------------------------------

TEST(NearMatch, RadiusZeroEmitsEveryIndexMove)
{
    const QuantScanParams q = makeParams(0);
    AlignedVector<float> input = {quantCentroid(q, 1),
                                  quantCentroid(q, 5),
                                  quantCentroid(q, -2)};
    AlignedVector<int32_t> prev = {0, 5, -2};
    ChangeList out;
    const ScanResult r = scanChanges(input.data(), 3, q, prev.data(),
                                     out, KernelArch::Scalar);
    EXPECT_EQ(r.changed, 1);
    EXPECT_EQ(r.near_matched, 0);
    EXPECT_EQ(prev[0], 1);
}

TEST(NearMatch, WithinRadiusKeepsRepresentativeAndCounts)
{
    const QuantScanParams q = makeParams(2);
    // Moves of 0, 1, 2 (within), 3 (beyond) and -2 (within).
    AlignedVector<float> input = {
        quantCentroid(q, 10), quantCentroid(q, 11),
        quantCentroid(q, 12), quantCentroid(q, 13),
        quantCentroid(q, 8)};
    AlignedVector<int32_t> prev = {10, 10, 10, 10, 10};
    ChangeList out;
    const ScanResult r = scanChanges(input.data(), 5, q, prev.data(),
                                     out, KernelArch::Scalar);
    EXPECT_EQ(r.changed, 1);
    EXPECT_EQ(r.near_matched, 3);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.position(0), 3);
    // Only the beyond-radius element updates its representative.
    EXPECT_EQ(prev[0], 10);
    EXPECT_EQ(prev[1], 10);
    EXPECT_EQ(prev[2], 10);
    EXPECT_EQ(prev[3], 13);
    EXPECT_EQ(prev[4], 10);
}

TEST(NearMatch, RepresentativeErrorStaysWithinRadiusTimesStep)
{
    // Fuzz: after any number of frames, every element's buffered
    // centroid is within radius * step of its current quantized
    // value — the representative cannot drift further because any
    // larger move is emitted as a change.
    const int32_t radius = 3;
    const QuantScanParams q = makeParams(radius);
    const int64_t n = 64;
    Rng rng(0xb0b);
    AlignedVector<float> input(n);
    AlignedVector<int32_t> prev(n, 0);
    ChangeList out;
    for (int frame = 0; frame < 50; ++frame) {
        for (int64_t i = 0; i < n; ++i)
            input[i] = rng.uniform(-8.0f, 8.0f);
        scanChanges(input.data(), n, q, prev.data(), out,
                    KernelArch::Scalar);
        for (int64_t i = 0; i < n; ++i) {
            const int32_t cur = quantIndex(q, input[i]);
            ASSERT_LE(std::abs(cur - prev[i]), radius)
                << "frame " << frame << " element " << i;
            ASSERT_LE(std::abs(quantCentroid(q, cur) -
                               quantCentroid(q, prev[i])),
                      radius * q.step + 1e-6f);
        }
    }
}

TEST(NearMatch, DriftShareIsZeroAtRadiusZeroAndScalesWithCount)
{
    const QuantScanParams q0 = makeParams(0);
    EXPECT_EQ(nearMatchDriftShare(q0, 100), 0.0);
    const QuantScanParams q2 = makeParams(2);
    EXPECT_EQ(nearMatchDriftShare(q2, 0), 0.0);
    const double one = nearMatchDriftShare(q2, 1);
    EXPECT_GT(one, 0.0);
    EXPECT_DOUBLE_EQ(nearMatchDriftShare(q2, 10), 10 * one);
}

// ---------------------------------------------------------------
// Delta-apply kernels.
// ---------------------------------------------------------------

class SimdApply : public ::testing::TestWithParam<KernelArch>
{
};

TEST_P(SimdApply, MatchesScalarAcrossSizesAndDensities)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    DeltaDispatch dispatch;
    dispatch.arch = arch;
    dispatch.parallel_mac_threshold = -1;  // single-threaded
    Rng rng(0x4ea1);
    for (const int64_t m : kSizes) {
        const int64_t n = 24;
        AlignedVector<float> weights(n * m);
        rng.fillGaussian(weights, 0.0f, 1.0f);
        for (const double density : {0.0, 0.1, 0.5, 1.0}) {
            ChangeList changes;
            for (int64_t i = 0; i < n; ++i) {
                if (density >= 1.0 || rng.bernoulli(density))
                    changes.push(static_cast<int32_t>(i),
                                 rng.uniform(-2.0f, 2.0f));
            }
            AlignedVector<float> ref(m);
            rng.fillGaussian(ref, 0.0f, 1.0f);
            AlignedVector<float> got(ref);
            applyDeltasScalar(changes, weights.data(), m, ref.data());
            applyDeltas(changes, weights.data(), m, got.data(),
                        dispatch);
            SCOPED_TRACE("m=" + std::to_string(m) + " density=" +
                         std::to_string(density));
            EXPECT_TRUE(bitsEqual(got.data(), ref.data(), m, "out"));
        }
    }
}

TEST_P(SimdApply, MatchesScalarOnMisalignedOutput)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    DeltaDispatch dispatch;
    dispatch.arch = arch;
    dispatch.parallel_mac_threshold = -1;
    Rng rng(0x0ff5);
    for (const int64_t m : {9, 33, 100, 257}) {
        for (const int64_t offset : {1, 2, 3}) {
            const int64_t n = 8;
            AlignedVector<float> weights(n * m + offset);
            rng.fillGaussian(weights, 0.0f, 1.0f);
            ChangeList changes;
            for (int64_t i = 0; i < n; ++i)
                changes.push(static_cast<int32_t>(i),
                             rng.uniform(-2.0f, 2.0f));
            AlignedVector<float> ref(m + offset), got;
            rng.fillGaussian(ref, 0.0f, 1.0f);
            got = ref;
            // Both weight and output pointers off cache-line base.
            applyDeltasScalar(changes, weights.data() + offset, m,
                              ref.data() + offset);
            applyDeltas(changes, weights.data() + offset, m,
                        got.data() + offset, dispatch);
            SCOPED_TRACE("m=" + std::to_string(m) + " offset=" +
                         std::to_string(offset));
            EXPECT_TRUE(bitsEqual(got.data() + offset,
                                  ref.data() + offset, m, "out"));
        }
    }
}

TEST_P(SimdApply, ThreadedApplyIsBitExact)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    DeltaDispatch dispatch;
    dispatch.arch = arch;
    dispatch.parallel_mac_threshold = 1;  // always thread
    Rng rng(0x7eaded);
    const int64_t n = 32;
    const int64_t m = 5000;  // several chunks
    AlignedVector<float> weights(n * m);
    rng.fillGaussian(weights, 0.0f, 1.0f);
    ChangeList changes;
    for (int64_t i = 0; i < n; i += 2)
        changes.push(static_cast<int32_t>(i),
                     rng.uniform(-2.0f, 2.0f));
    AlignedVector<float> ref(m), got;
    rng.fillGaussian(ref, 0.0f, 1.0f);
    got = ref;
    applyDeltasScalar(changes, weights.data(), m, ref.data());
    applyDeltas(changes, weights.data(), m, got.data(), dispatch);
    EXPECT_TRUE(bitsEqual(got.data(), ref.data(), m, "threaded out"));
}

TEST_P(SimdApply, GemvMatchesScalar)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    DeltaDispatch dispatch;
    dispatch.arch = arch;
    dispatch.parallel_mac_threshold = -1;
    Rng rng(0x93e4);
    for (const int64_t m : {1, 7, 16, 33, 100, 257}) {
        const int64_t n = 19;
        AlignedVector<float> weights(n * m), biases(m), input(n);
        rng.fillGaussian(weights, 0.0f, 1.0f);
        rng.fillGaussian(biases, 0.0f, 1.0f);
        for (int64_t i = 0; i < n; ++i)
            input[i] = rng.bernoulli(0.3)
                           ? 0.0f
                           : rng.uniform(-1.0f, 1.0f);
        AlignedVector<float> ref(m), got(m);
        gemvScalar(input.data(), n, weights.data(), biases.data(), m,
                   ref.data());
        gemv(input.data(), n, weights.data(), biases.data(), m,
             got.data(), dispatch);
        SCOPED_TRACE("m=" + std::to_string(m));
        EXPECT_TRUE(bitsEqual(got.data(), ref.data(), m, "gemv"));
    }
}

// The conv kernels update channels-last (HWC / DHWC) outputs.  The
// dispatched form must match the scalar reference on float bits
// whether or not the dispatch allows threading.

TEST_P(SimdApply, Conv2dMatchesScalar)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    Rng rng(0xc02d);
    for (const int64_t threshold : {int64_t{-1}, int64_t{1}}) {
        DeltaDispatch dispatch;
        dispatch.arch = arch;
        dispatch.parallel_mac_threshold = threshold;
        for (const int64_t co : {1, 3, 16, 17, 24, 33, 64}) {
            for (const int64_t stride : {1, 2, 4}) {
                Conv2dGeometry g;
                g.in_h = 9;
                g.in_w = 11;
                g.kernel = 3;
                g.stride = stride;
                g.out_channels = co;
                g.out_h = (g.in_h - g.kernel) / g.stride + 1;
                g.out_w = (g.in_w - g.kernel) / g.stride + 1;
                const int64_t in_c = 4;
                AlignedVector<float> weights(in_c * g.kernel *
                                             g.kernel * co);
                rng.fillGaussian(weights, 0.0f, 1.0f);
                ChangeList changes;
                const int64_t in_n = in_c * g.in_h * g.in_w;
                for (int64_t i = 0; i < in_n; ++i) {
                    if (rng.bernoulli(0.25))
                        changes.push(static_cast<int32_t>(i),
                                     rng.uniform(-1.0f, 1.0f));
                }
                const int64_t out_n = g.out_h * g.out_w * co;
                AlignedVector<float> ref(out_n), got;
                rng.fillGaussian(ref, 0.0f, 1.0f);
                got = ref;
                applyConvDeltas2dScalar(changes, g, weights.data(),
                                        ref.data());
                applyConvDeltas2d(changes, g, weights.data(),
                                  got.data(), dispatch);
                SCOPED_TRACE("out_channels=" + std::to_string(co) +
                             " stride=" + std::to_string(stride) +
                             " threshold=" + std::to_string(threshold));
                EXPECT_TRUE(
                    bitsEqual(got.data(), ref.data(), out_n, "conv2d"));
            }
        }
    }
}

TEST_P(SimdApply, Conv3dMatchesScalar)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    Rng rng(0xc03d);
    for (const int64_t threshold : {int64_t{-1}, int64_t{1}}) {
        DeltaDispatch dispatch;
        dispatch.arch = arch;
        dispatch.parallel_mac_threshold = threshold;
        for (const int64_t co : {1, 16, 21, 64}) {
            Conv3dGeometry g;
            g.in_d = 4;
            g.in_h = 6;
            g.in_w = 7;
            g.kernel = 3;
            g.pad = 1;
            g.out_channels = co;
            g.out_d = g.in_d + 2 * g.pad - g.kernel + 1;
            g.out_h = g.in_h + 2 * g.pad - g.kernel + 1;
            g.out_w = g.in_w + 2 * g.pad - g.kernel + 1;
            const int64_t in_c = 3;
            AlignedVector<float> weights(in_c * g.kernel * g.kernel *
                                         g.kernel * co);
            rng.fillGaussian(weights, 0.0f, 1.0f);
            ChangeList changes;
            const int64_t in_n = in_c * g.in_d * g.in_h * g.in_w;
            for (int64_t i = 0; i < in_n; ++i) {
                if (rng.bernoulli(0.25))
                    changes.push(static_cast<int32_t>(i),
                                 rng.uniform(-1.0f, 1.0f));
            }
            const int64_t out_n = g.out_d * g.out_h * g.out_w * co;
            AlignedVector<float> ref(out_n), got;
            rng.fillGaussian(ref, 0.0f, 1.0f);
            got = ref;
            applyConvDeltas3dScalar(changes, g, weights.data(),
                                    ref.data());
            applyConvDeltas3d(changes, g, weights.data(), got.data(),
                              dispatch);
            SCOPED_TRACE("out_channels=" + std::to_string(co) +
                         " threshold=" + std::to_string(threshold));
            EXPECT_TRUE(
                bitsEqual(got.data(), ref.data(), out_n, "conv3d"));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SimdApply, ::testing::ValuesIn(kSimdArchs),
    [](const ::testing::TestParamInfo<KernelArch> &info) {
        return archName(info.param);
    });

// ---------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------

TEST(Dispatch, ScalarIsAlwaysAvailable)
{
    EXPECT_TRUE(archCompiled(KernelArch::Scalar));
    EXPECT_TRUE(archRunnable(KernelArch::Scalar));
    EXPECT_TRUE(archCompiled(KernelArch::Blocked));
    EXPECT_TRUE(archRunnable(KernelArch::Blocked));
}

TEST(Dispatch, BestSupportedArchIsCompiledAndRunnable)
{
    const KernelArch best = bestSupportedArch();
    EXPECT_TRUE(archCompiled(best));
    EXPECT_TRUE(archRunnable(best));
}

TEST(Dispatch, ParsesEveryArchNameAndRejectsUnknown)
{
    for (const KernelArch a :
         {KernelArch::Scalar, KernelArch::Blocked, KernelArch::Neon,
          KernelArch::Avx2, KernelArch::Avx512}) {
        KernelArch parsed;
        EXPECT_TRUE(parseKernelArch(archName(a), parsed))
            << archName(a);
        EXPECT_EQ(parsed, a);
    }
    KernelArch parsed = KernelArch::Avx2;
    EXPECT_FALSE(parseKernelArch("sse9000", parsed));
    EXPECT_EQ(parsed, KernelArch::Avx2);
}

TEST(Dispatch, DefaultRespectsForcedEnv)
{
    // CI reruns this binary with REUSE_KERNELS forced to each
    // family; when set (and supported) the process-wide default
    // must honour it.
    const char *env = std::getenv("REUSE_KERNELS");
    if (env == nullptr)
        GTEST_SKIP() << "REUSE_KERNELS not set";
    KernelArch forced;
    if (!parseKernelArch(env, forced) || !archCompiled(forced) ||
        !archRunnable(forced))
        GTEST_SKIP() << "REUSE_KERNELS=" << env
                     << " not supported here";
    EXPECT_EQ(defaultDispatch().arch, forced);
}

// ---------------------------------------------------------------
// Alignment guarantees (satellite: 64-byte hot-path buffers).
// ---------------------------------------------------------------

TEST(Alignment, ChangeListStorageIsCacheLineAligned)
{
    ChangeList changes;
    changes.push(0, 1.0f);
    EXPECT_TRUE(isBufferAligned(changes.positions()));
    EXPECT_TRUE(isBufferAligned(changes.deltas()));
}

TEST(Alignment, AlignedVectorIsCacheLineAligned)
{
    for (const int64_t n : {1, 7, 100, 1000}) {
        AlignedVector<float> v(n);
        EXPECT_TRUE(isBufferAligned(v.data())) << n;
        AlignedVector<int32_t> w(n);
        EXPECT_TRUE(isBufferAligned(w.data())) << n;
    }
}

} // namespace
} // namespace kernels
} // namespace reuse
