/** @file Unit tests for the fully-connected layer. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "kernels/delta_kernels.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"

namespace reuse {
namespace {

TEST(FullyConnected, ComputesDotProductPlusBias)
{
    FullyConnectedLayer fc("fc", 3, 2);
    // out0 = 1*1 + 2*2 + 3*3 + 0.5 = 14.5; out1 = -1 -2 -3 - 0.5 = -6.5
    for (int64_t i = 0; i < 3; ++i) {
        fc.weight(i, 0) = static_cast<float>(i + 1);
        fc.weight(i, 1) = -1.0f;
    }
    fc.biases() = {0.5f, -0.5f};
    const Tensor in(Shape({3}), std::vector<float>{1, 2, 3});
    const Tensor out = fc.forward(in);
    EXPECT_FLOAT_EQ(out[0], 14.5f);
    EXPECT_FLOAT_EQ(out[1], -6.5f);
}

TEST(FullyConnected, WeightLayoutIsInputMajor)
{
    FullyConnectedLayer fc("fc", 2, 3);
    fc.weight(1, 2) = 7.0f;
    // w[i * M + o] with i=1, o=2, M=3 -> flat index 5.
    EXPECT_EQ(fc.weights()[5], 7.0f);
}

TEST(FullyConnected, ShapesAndCounts)
{
    FullyConnectedLayer fc("fc", 400, 2000);
    EXPECT_EQ(fc.kind(), LayerKind::FullyConnected);
    EXPECT_EQ(fc.outputShape(Shape({400})), Shape({2000}));
    EXPECT_EQ(fc.paramCount(), 400 * 2000 + 2000);
    EXPECT_EQ(fc.macCount(Shape({400})), 400 * 2000);
    EXPECT_TRUE(fc.isReusable());
}

TEST(FullyConnected, AcceptsAnyInputShapeWithRightNumel)
{
    FullyConnectedLayer fc("fc", 6, 2);
    const Tensor in(Shape({2, 3}), 1.0f);
    EXPECT_EQ(fc.outputShape(in.shape()), Shape({2}));
    const Tensor out = fc.forward(in);
    EXPECT_EQ(out.numel(), 2);
}

TEST(FullyConnected, ApplyDeltaMatchesRecompute)
{
    // The reuse path's delta update (Eq. 10) over the layer's
    // input-major weights equals a recompute on the changed input.
    Rng rng(11);
    FullyConnectedLayer fc("fc", 8, 5);
    initGlorot(fc, rng);
    Tensor in(Shape({8}));
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    const Tensor base = fc.forward(in);

    // Change input 3 by +0.25 and correct incrementally.
    AlignedVector<float> corrected(base.data());
    kernels::ChangeList changes;
    changes.push(3, 0.25f);
    kernels::applyDeltas(changes, fc.weights().data(), fc.outputs(),
                         corrected.data());
    Tensor in2 = in;
    in2[3] += 0.25f;
    const Tensor ref = fc.forward(in2);
    for (int64_t o = 0; o < 5; ++o)
        EXPECT_NEAR(corrected[static_cast<size_t>(o)], ref[o], 1e-5f);
}

TEST(FullyConnected, ApplyDeltaZeroIsNoop)
{
    Rng rng(12);
    FullyConnectedLayer fc("fc", 4, 4);
    initGlorot(fc, rng);
    AlignedVector<float> out(4, 1.0f);
    kernels::ChangeList changes;
    changes.push(0, 0.0f);
    kernels::applyDeltas(changes, fc.weights().data(), fc.outputs(),
                         out.data());
    for (float v : out)
        EXPECT_EQ(v, 1.0f);
}

TEST(FullyConnected, SkipsZeroInputsInForward)
{
    // Functional check: zero inputs contribute nothing, so a vector
    // with zeros equals the same vector computed densely.
    FullyConnectedLayer fc("fc", 3, 2);
    Rng rng(13);
    initGlorot(fc, rng);
    const Tensor sparse(Shape({3}), std::vector<float>{0.0f, 2.0f, 0.0f});
    const Tensor out = fc.forward(sparse);
    Tensor expected(Shape({2}));
    for (int64_t o = 0; o < 2; ++o)
        expected[o] = fc.biases()[static_cast<size_t>(o)] +
                      2.0f * fc.weight(1, o);
    EXPECT_NEAR(out[0], expected[0], 1e-6f);
    EXPECT_NEAR(out[1], expected[1], 1e-6f);
}

TEST(FullyConnectedDeath, WrongInputSizePanics)
{
    FullyConnectedLayer fc("fc", 3, 2);
    const Tensor in(Shape({4}));
    EXPECT_DEATH((void)fc.forward(in), "expected");
}

} // namespace
} // namespace reuse
