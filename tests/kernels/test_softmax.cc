/**
 * @file
 * Accuracy and bit-exactness of the polynomial softmax
 * (kernels::softmax, poly_math.h's exp): the exp against std::exp,
 * the softmax against a double-precision std:: softmax, every kernel
 * family against the scalar reference, and a fixed digest of the
 * dispatched softmax.  CI reruns this binary with REUSE_KERNELS
 * forced to each family, so the digest test shows that every arch
 * computes the same bits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "common/checksum.h"
#include "common/random.h"
#include "kernels/cpu_features.h"
#include "kernels/delta_kernels.h"

namespace reuse {
namespace kernels {
namespace {

/** Distance in units in the last place between two finite floats. */
int64_t
ulpDistance(float a, float b)
{
    const auto ordered = [](float v) {
        const int32_t bits = std::bit_cast<int32_t>(v);
        return bits < 0 ? static_cast<int64_t>(INT32_MIN) - bits
                        : static_cast<int64_t>(bits);
    };
    const int64_t d = ordered(a) - ordered(b);
    return d < 0 ? -d : d;
}

/** 2^20 + 1 evenly spaced points over [lo, hi], both ends included. */
constexpr int64_t kSweepPoints = (int64_t{1} << 20) + 1;

float
sweepPoint(int64_t k, double lo, double hi)
{
    return static_cast<float>(lo + (hi - lo) * static_cast<double>(k) /
                                       (kSweepPoints - 1));
}

TEST(SoftmaxMath, ExpWithinUlpOfStd)
{
    // Reference: std::exp in double, rounded once to float.  The
    // softmax evaluates e^(x - max) <= 1; the sweep also covers the
    // positive side up to the clamp.  Measured maximum: 1 ulp.
    int64_t worst = 0;
    for (int64_t k = 0; k < kSweepPoints; ++k) {
        const float x = sweepPoint(k, -87.0, 88.0);
        const float ref =
            static_cast<float>(std::exp(static_cast<double>(x)));
        worst = std::max(worst, ulpDistance(softmaxExp(x), ref));
    }
    EXPECT_LE(worst, 1);
    EXPECT_EQ(softmaxExp(0.0f), 1.0f);
}

/** Softmax inputs spread like output-layer logits. */
AlignedVector<float>
randomLogits(int64_t n, Rng &rng)
{
    AlignedVector<float> x(n);
    rng.fillUniform(x, -30.0f, 30.0f);
    return x;
}

TEST(SoftmaxMath, MatchesStdSoftmax)
{
    Rng rng(0x50f7);
    for (const int64_t n : {1, 2, 50, 3482}) {
        // The float softmax this replaced: x - max rounded to float,
        // then std::exp and the sum in double.
        const AlignedVector<float> x = randomLogits(n, rng);
        const float max_v = *std::max_element(x.begin(), x.end());
        std::vector<double> ref(n);
        double denom = 0.0;
        for (int64_t j = 0; j < n; ++j) {
            ref[j] = std::exp(static_cast<double>(x[j] - max_v));
            denom += ref[j];
        }
        AlignedVector<float> got = x;
        softmax(got.data(), n);
        double sum = 0.0;
        for (int64_t j = 0; j < n; ++j) {
            const double want = ref[j] / denom;
            EXPECT_NEAR(got[j], want, 4e-7 * want + 1e-38)
                << "n=" << n << " j=" << j;
            sum += got[j];
        }
        EXPECT_NEAR(sum, 1.0, 1e-5) << "n=" << n;
    }
}

class SoftmaxArch : public ::testing::TestWithParam<KernelArch>
{
};

TEST_P(SoftmaxArch, MatchesScalarBitExact)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    Rng rng(0x50f8);
    for (const int64_t n :
         {1, 3, 15, 16, 17, 31, 50, 320, 1001, 3482, 4099}) {
        const AlignedVector<float> x = randomLogits(n, rng);
        AlignedVector<float> ref = x;
        softmaxScalar(ref.data(), n);
        AlignedVector<float> got = x;
        softmax(got.data(), n, arch);
        ASSERT_EQ(std::memcmp(ref.data(), got.data(), n * 4), 0)
            << "n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SoftmaxArch,
    ::testing::Values(KernelArch::Scalar, KernelArch::Neon,
                      KernelArch::Avx2, KernelArch::Avx512),
    [](const ::testing::TestParamInfo<KernelArch> &info) {
        return archName(info.param);
    });

TEST(SoftmaxMath, DispatchedDigestIsArchIndependent)
{
    // Rows of Kaldi's output width over a sweep of logits, through
    // the dispatched softmax of whatever arch REUSE_KERNELS selects.
    // The digest is a constant: plain IEEE add/mul/div with no FMA
    // and a fixed summation order give the same bits on every arch,
    // ISA and compiler.
    constexpr int64_t kRow = 3482;
    const int64_t rows = kSweepPoints / kRow;
    AlignedVector<float> x(rows * kRow);
    for (int64_t k = 0; k < rows * kRow; ++k)
        x[k] = sweepPoint((k * 7) % kSweepPoints, -40.0, 40.0);
    for (int64_t r = 0; r < rows; ++r)
        softmax(x.data() + r * kRow, kRow);
    uint64_t digest = checksumInit();
    checksumBytes(digest, x.data(), x.size() * sizeof(float));
    EXPECT_EQ(digest, 0x10210e2741f8d344ull) << "digest 0x" << std::hex << digest;
}

} // namespace
} // namespace kernels
} // namespace reuse
