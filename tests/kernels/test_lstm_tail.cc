/**
 * @file
 * Accuracy and bit-exactness of the polynomial LSTM tail
 * (kernels::lstmTail, poly_math.h): sigmoid and tanh against std::
 * over the LSTM's working range, every kernel family against the
 * scalar reference, and a fixed digest of the dispatched tail.  CI
 * reruns this binary with REUSE_KERNELS forced to each family, so the
 * digest test shows that every arch computes the same bits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

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
    // Map the sign-magnitude bit patterns onto a monotonic line.
    const auto ordered = [](float v) {
        const int32_t bits = std::bit_cast<int32_t>(v);
        return bits < 0 ? static_cast<int64_t>(INT32_MIN) - bits
                        : static_cast<int64_t>(bits);
    };
    const int64_t d = ordered(a) - ordered(b);
    return d < 0 ? -d : d;
}

/** 2^20 + 1 evenly spaced points over [-20, 20], both ends included. */
constexpr int64_t kSweepPoints = (int64_t{1} << 20) + 1;

float
sweepPoint(int64_t k)
{
    return static_cast<float>(-20.0 + 40.0 * static_cast<double>(k) /
                                          (kSweepPoints - 1));
}

TEST(LstmTailMath, SigmoidAndTanhWithinUlpOfStd)
{
    // Reference: std:: in double, rounded once to float.  Measured
    // maxima over the sweep: sigmoid 2 ulp, tanh 1 ulp.
    int64_t worst_sigmoid = 0;
    int64_t worst_tanh = 0;
    for (int64_t k = 0; k < kSweepPoints; ++k) {
        const float x = sweepPoint(k);
        const double xd = x;
        const float sigmoid_ref =
            static_cast<float>(1.0 / (1.0 + std::exp(-xd)));
        const float tanh_ref = static_cast<float>(std::tanh(xd));
        worst_sigmoid = std::max(
            worst_sigmoid, ulpDistance(tailSigmoid(x), sigmoid_ref));
        worst_tanh =
            std::max(worst_tanh, ulpDistance(tailTanh(x), tanh_ref));
    }
    EXPECT_LE(worst_sigmoid, 2);
    EXPECT_LE(worst_tanh, 1);
}

TEST(LstmTailMath, SaturatesAndKeepsFixedPoints)
{
    EXPECT_EQ(tailSigmoid(0.0f), 0.5f);
    EXPECT_EQ(tailTanh(0.0f), 0.0f);
    EXPECT_EQ(tailSigmoid(200.0f), 1.0f);
    EXPECT_GE(tailSigmoid(-200.0f), 0.0f);
    EXPECT_LT(tailSigmoid(-200.0f), 1e-37f);
    EXPECT_EQ(tailTanh(200.0f), 1.0f);
    EXPECT_EQ(tailTanh(-200.0f), -1.0f);
    // Odd symmetry holds exactly: both branches negate cleanly.
    for (const float x : {1e-6f, 0.3f, 0.624f, 0.625f, 2.0f, 9.5f})
        EXPECT_EQ(tailTanh(-x), -tailTanh(x)) << x;
}

/** One LSTM tail case: four gate rows, c_{t-1}, and outputs. */
struct TailCase {
    AlignedVector<float> zi, zf, zg, zo, c;

    explicit TailCase(int64_t n)
        : zi(n), zf(n), zg(n), zo(n), c(n)
    {
    }

    LstmGateRows rows() const
    {
        return {zi.data(), zf.data(), zg.data(), zo.data()};
    }
};

/** Gates spread over [-25, 25] (both tanh branches, saturation). */
TailCase
randomCase(int64_t n, Rng &rng)
{
    TailCase tc(n);
    for (auto *v : {&tc.zi, &tc.zf, &tc.zg, &tc.zo})
        rng.fillUniform(*v, -25.0f, 25.0f);
    rng.fillUniform(tc.c, -3.0f, 3.0f);
    return tc;
}

class LstmTailArch : public ::testing::TestWithParam<KernelArch>
{
};

TEST_P(LstmTailArch, MatchesScalarBitExact)
{
    const KernelArch arch = GetParam();
    if (!archCompiled(arch) || !archRunnable(arch))
        GTEST_SKIP() << archName(arch) << " not available";
    Rng rng(0x7a11);
    for (const int64_t n : {1, 3, 4, 7, 16, 17, 63, 320, 1001}) {
        const TailCase tc = randomCase(n, rng);
        AlignedVector<float> c_ref = tc.c;
        AlignedVector<float> h_ref(n);
        lstmTailScalar(tc.rows(), n, c_ref.data(), h_ref.data());
        AlignedVector<float> c_got = tc.c;
        AlignedVector<float> h_got(n);
        lstmTail(tc.rows(), n, c_got.data(), h_got.data(), arch);
        ASSERT_EQ(std::memcmp(c_ref.data(), c_got.data(), n * 4), 0)
            << "c differs, n=" << n;
        ASSERT_EQ(std::memcmp(h_ref.data(), h_got.data(), n * 4), 0)
            << "h differs, n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, LstmTailArch,
    ::testing::Values(KernelArch::Scalar, KernelArch::Neon,
                      KernelArch::Avx2, KernelArch::Avx512),
    [](const ::testing::TestParamInfo<KernelArch> &info) {
        return archName(info.param);
    });

TEST(LstmTailMath, DispatchedDigestIsArchIndependent)
{
    // Every gate and c_{t-1} walks the whole sweep (offset per gate),
    // through the dispatched tail of whatever arch REUSE_KERNELS
    // selects.  The digest is a constant: plain IEEE add/mul/div with
    // no FMA gives the same bits on every arch, ISA and compiler.
    const int64_t n = kSweepPoints;
    TailCase tc(n);
    for (int64_t k = 0; k < n; ++k) {
        tc.zi[k] = sweepPoint(k);
        tc.zf[k] = sweepPoint((k + n / 4) % n);
        tc.zg[k] = sweepPoint((k + n / 2) % n);
        tc.zo[k] = sweepPoint((k + 3 * n / 4) % n);
        tc.c[k] = 0.25f * sweepPoint((k * 7) % n);
    }
    AlignedVector<float> h(n);
    lstmTail(tc.rows(), n, tc.c.data(), h.data());
    uint64_t digest = checksumInit();
    checksumBytes(digest, tc.c.data(), n * sizeof(float));
    checksumBytes(digest, h.data(), n * sizeof(float));
    EXPECT_EQ(digest, 0xca5125a062356e3cull)
        << "digest 0x" << std::hex << digest;
}

} // namespace
} // namespace kernels
} // namespace reuse
