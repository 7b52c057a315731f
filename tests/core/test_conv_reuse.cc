/** @file Unit tests for incremental conv execution (Sec. IV-C). */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/conv_reuse.h"
#include "nn/initializers.h"

namespace reuse {
namespace {

TEST(ConvReuse2D, FirstExecutionMatchesQuantizedForward)
{
    Rng rng(41);
    Conv2DLayer conv("conv", 2, 3, 3, 1);
    initGlorot(conv, rng);
    const Shape in_shape({2, 8, 8});
    LinearQuantizer quant(32, -3.0f, 3.0f);
    ConvReuseState state(conv, in_shape, quant);

    Tensor in(in_shape);
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    const Tensor out = state.execute(in, rec);
    EXPECT_TRUE(rec.firstExecution);
    EXPECT_EQ(rec.kind, LayerKind::Conv2D);
    EXPECT_EQ(rec.kernelExtent, 3);
    const Tensor want = conv.forward(quant.quantize(in));
    for (int64_t i = 0; i < out.numel(); ++i)
        EXPECT_NEAR(out[i], want[i], 1e-4f);
}

TEST(ConvReuse2D, IdenticalInputIsFullyReused)
{
    Rng rng(42);
    Conv2DLayer conv("conv", 2, 3, 3, 1);
    initGlorot(conv, rng);
    const Shape in_shape({2, 8, 8});
    LinearQuantizer quant(32, -3.0f, 3.0f);
    ConvReuseState state(conv, in_shape, quant);
    Tensor in(in_shape);
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    state.execute(in, rec);
    state.execute(in, rec);
    EXPECT_EQ(rec.inputsChanged, 0);
    EXPECT_EQ(rec.macsPerformed, 0);
}

TEST(ConvReuse2D, MatchesFromScratchOverStream)
{
    Rng rng(43);
    Conv2DLayer conv("conv", 3, 4, 5, 2);
    initGlorot(conv, rng);
    const Shape in_shape({3, 13, 17});
    LinearQuantizer quant(32, -3.0f, 3.0f);
    ConvReuseState state(conv, in_shape, quant);
    Tensor in(in_shape);
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    for (int frame = 0; frame < 8; ++frame) {
        for (int64_t i = 0; i < in.numel(); ++i)
            in[i] += rng.gaussian(0.0f, 0.1f);
        const Tensor out = state.execute(in, rec);
        const Tensor want = conv.forward(quant.quantize(in));
        for (int64_t i = 0; i < out.numel(); ++i)
            EXPECT_NEAR(out[i], want[i], 1e-3f)
                << "frame " << frame << " elem " << i;
    }
}

TEST(ConvReuse2D, PartialChangeCountsAffectedMacs)
{
    Rng rng(44);
    Conv2DLayer conv("conv", 1, 2, 3, 1);
    initGlorot(conv, rng);
    const Shape in_shape({1, 10, 10});
    LinearQuantizer quant(16, -2.0f, 2.0f);
    ConvReuseState state(conv, in_shape, quant);
    Tensor in(in_shape, 0.0f);
    LayerExecRecord rec;
    state.execute(in, rec);

    Tensor in2 = in;
    in2.at({0, 5, 5}) = 1.0f;   // one interior pixel changes
    state.execute(in2, rec);
    EXPECT_EQ(rec.inputsChanged, 1);
    // Interior pixel of a 3x3 stride-1 conv touches 9 positions x 2
    // filters.
    EXPECT_EQ(rec.macsPerformed, 18);

    // Corner pixel: one window.
    Tensor in3 = in;
    in3.at({0, 0, 9}) = 1.0f;
    state.execute(in3, rec);
    EXPECT_EQ(rec.inputsChanged, 2);
    EXPECT_EQ(rec.macsPerformed, 18 + 2);
}

TEST(ConvReuse3D, MatchesFromScratchOverStream)
{
    Rng rng(45);
    Conv3DLayer conv("conv", 2, 3, 3, 1);
    initGlorot(conv, rng);
    const Shape in_shape({2, 4, 6, 6});
    LinearQuantizer quant(32, -3.0f, 3.0f);
    ConvReuseState state(conv, in_shape, quant);
    Tensor in(in_shape);
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    for (int frame = 0; frame < 6; ++frame) {
        for (int64_t i = 0; i < in.numel(); ++i)
            in[i] += rng.gaussian(0.0f, 0.1f);
        const Tensor out = state.execute(in, rec);
        const Tensor want = conv.forward(quant.quantize(in));
        for (int64_t i = 0; i < out.numel(); ++i)
            EXPECT_NEAR(out[i], want[i], 1e-3f);
    }
}

TEST(ConvReuse3D, RecordsKindAndKernel)
{
    Rng rng(46);
    Conv3DLayer conv("conv", 1, 2, 3, 1);
    initGlorot(conv, rng);
    const Shape in_shape({1, 3, 5, 5});
    LinearQuantizer quant(16, -2.0f, 2.0f);
    ConvReuseState state(conv, in_shape, quant);
    Tensor in(in_shape, 0.5f);
    LayerExecRecord rec;
    state.execute(in, rec);
    EXPECT_EQ(rec.kind, LayerKind::Conv3D);
    EXPECT_EQ(rec.kernelExtent, 3);
    EXPECT_EQ(rec.inputsTotal, in.numel());
    EXPECT_EQ(rec.macsFull, conv.macCount(in_shape));
}

TEST(ConvReuse3D, StaticBackgroundMovingBlob)
{
    // Scenario mirroring the video workload: most voxels static, a
    // small moving block changes; reuse must be high and outputs
    // exact.
    Rng rng(47);
    Conv3DLayer conv("conv", 1, 2, 3, 1);
    initGlorot(conv, rng);
    const Shape in_shape({1, 4, 12, 12});
    LinearQuantizer quant(32, -1.0f, 1.0f);
    ConvReuseState state(conv, in_shape, quant);

    Tensor in(in_shape, 0.25f);
    LayerExecRecord rec;
    state.execute(in, rec);
    for (int frame = 1; frame < 5; ++frame) {
        Tensor cur(in_shape, 0.25f);
        // 2x2x2 blob at a frame-dependent position.
        for (int64_t z = 0; z < 2; ++z)
            for (int64_t y = 0; y < 2; ++y)
                for (int64_t x = 0; x < 2; ++x)
                    cur.at({0, z, y + frame, x + frame}) = 0.9f;
        const Tensor out = state.execute(cur, rec);
        EXPECT_GT(rec.similarity(), 0.9);
        const Tensor want = conv.forward(quant.quantize(cur));
        for (int64_t i = 0; i < out.numel(); ++i)
            EXPECT_NEAR(out[i], want[i], 1e-3f);
    }
}

TEST(ConvReuseDeath, ShapeMismatchPanics)
{
    Rng rng(48);
    Conv2DLayer conv("conv", 1, 1, 3, 1);
    initGlorot(conv, rng);
    LinearQuantizer quant(16, -1.0f, 1.0f);
    ConvReuseState state(conv, Shape({1, 8, 8}), quant);
    LayerExecRecord rec;
    EXPECT_DEATH((void)state.execute(Tensor(Shape({1, 9, 9})), rec),
                 "shape mismatch");
}

} // namespace
} // namespace reuse
