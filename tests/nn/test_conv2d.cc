/** @file Unit tests for the 2D convolutional layer. */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "core/conv_reuse.h"
#include "nn/conv2d.h"
#include "nn/initializers.h"

namespace reuse {
namespace {

/** Naive direct convolution used as the reference implementation. */
Tensor
naiveConv2d(const Conv2DLayer &layer, const Tensor &in)
{
    const Shape out_shape = layer.outputShape(in.shape());
    const int64_t oh = out_shape.dim(1);
    const int64_t ow = out_shape.dim(2);
    const int64_t w = in.shape().dim(2);
    Tensor out(out_shape);
    for (int64_t co = 0; co < layer.outChannels(); ++co) {
        for (int64_t oy = 0; oy < oh; ++oy) {
            for (int64_t ox = 0; ox < ow; ++ox) {
                double acc = layer.biases()[static_cast<size_t>(co)];
                for (int64_t ci = 0; ci < layer.inChannels(); ++ci) {
                    for (int64_t ky = 0; ky < layer.kernel(); ++ky) {
                        for (int64_t kx = 0; kx < layer.kernel(); ++kx) {
                            const int64_t iy = oy * layer.stride() + ky;
                            const int64_t ix = ox * layer.stride() + kx;
                            acc += layer.weight(ci, co, ky, kx) *
                                   in.data()[static_cast<size_t>(
                                       (ci * in.shape().dim(1) + iy) *
                                           w +
                                       ix)];
                        }
                    }
                }
                out.at({co, oy, ox}) = static_cast<float>(acc);
            }
        }
    }
    return out;
}

/**
 * The channel-major loop nest forward() used before it accumulated
 * channels-last: per output element, bias, then ascending (ci, ky,
 * kx) with zero inputs skipped.  forward() must match it bit for bit.
 */
Tensor
chwReferenceConv2d(const Conv2DLayer &layer, const Tensor &in)
{
    const Shape out_shape = layer.outputShape(in.shape());
    const int64_t h = in.shape().dim(1);
    const int64_t w = in.shape().dim(2);
    const int64_t oh = out_shape.dim(1);
    const int64_t ow = out_shape.dim(2);
    const int64_t k = layer.kernel();
    const int64_t s = layer.stride();
    Tensor out(out_shape);
    for (int64_t co = 0; co < layer.outChannels(); ++co)
        for (int64_t i = 0; i < oh * ow; ++i)
            out[co * oh * ow + i] =
                layer.biases()[static_cast<size_t>(co)];
    for (int64_t ci = 0; ci < layer.inChannels(); ++ci) {
        for (int64_t oy = 0; oy < oh; ++oy) {
            for (int64_t ox = 0; ox < ow; ++ox) {
                for (int64_t ky = 0; ky < k; ++ky) {
                    for (int64_t kx = 0; kx < k; ++kx) {
                        const float v =
                            in[(ci * h + oy * s + ky) * w + ox * s + kx];
                        if (v == 0.0f)
                            continue;
                        for (int64_t co = 0; co < layer.outChannels();
                             ++co)
                            out[(co * oh + oy) * ow + ox] +=
                                v * layer.weight(ci, co, ky, kx);
                    }
                }
            }
        }
    }
    return out;
}

/** Float-bit equality of two tensors. */
bool
bitsEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

/** Outputs (all filters) whose window covers input pixel (y, x). */
int64_t
bruteForceAffected(const Conv2DLayer &layer, const Shape &in_shape,
                   int64_t y, int64_t x)
{
    const Shape out_shape = layer.outputShape(in_shape);
    const int64_t k = layer.kernel();
    const int64_t s = layer.stride();
    int64_t windows = 0;
    for (int64_t oy = 0; oy < out_shape.dim(1); ++oy)
        for (int64_t ox = 0; ox < out_shape.dim(2); ++ox)
            windows += (oy * s <= y && y < oy * s + k && ox * s <= x &&
                        x < ox * s + k)
                           ? 1
                           : 0;
    return windows * layer.outChannels();
}

struct Conv2dCase {
    int64_t ci, co, k, stride, h, w;
};

class Conv2dParam : public ::testing::TestWithParam<Conv2dCase>
{
};

TEST_P(Conv2dParam, ForwardMatchesNaive)
{
    const Conv2dCase c = GetParam();
    Rng rng(7);
    Conv2DLayer conv("conv", c.ci, c.co, c.k, c.stride);
    initGlorot(conv, rng);
    Tensor in(Shape({c.ci, c.h, c.w}));
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    const Tensor got = conv.forward(in);
    const Tensor want = naiveConv2d(conv, in);
    ASSERT_EQ(got.shape(), want.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-4f) << "at " << i;
}

TEST_P(Conv2dParam, ApplyDeltaMatchesRecompute)
{
    // A reuse frame with one changed input equals a from-scratch
    // forward on the changed (quantized) input.
    const Conv2dCase c = GetParam();
    Rng rng(9);
    Conv2DLayer conv("conv", c.ci, c.co, c.k, c.stride);
    initGlorot(conv, rng);
    const Shape in_shape({c.ci, c.h, c.w});
    LinearQuantizer quant(32, -3.0f, 3.0f);
    ConvReuseState state(conv, in_shape, quant);
    Tensor in(in_shape);
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    state.execute(in, rec);

    for (int rep = 0; rep < 4; ++rep) {
        const int64_t ci = rng.uniformInt(0, c.ci - 1);
        const int64_t y = rng.uniformInt(0, c.h - 1);
        const int64_t x = rng.uniformInt(0, c.w - 1);
        in.at({ci, y, x}) = in.at({ci, y, x}) > 0.0f ? -1.0f : 1.0f;
        const Tensor out = state.execute(in, rec);
        ASSERT_EQ(rec.inputsChanged, 1);
        const Tensor ref = conv.forward(quant.quantize(in));
        for (int64_t i = 0; i < out.numel(); ++i)
            EXPECT_NEAR(out[i], ref[i], 1e-4f) << "at " << i;
    }
}

TEST_P(Conv2dParam, AffectedOutputsMatchesDeltaFootprint)
{
    // For every input pixel: the MACs a one-change reuse frame
    // records equal both the outputs it actually corrected (unit
    // weights, so every touched output moves) and a brute-force
    // enumeration of the covering windows.
    const Conv2dCase c = GetParam();
    Conv2DLayer conv("conv", c.ci, c.co, c.k, c.stride);
    for (auto &w : conv.weights())
        w = 1.0f;
    const Shape in_shape({c.ci, c.h, c.w});
    LinearQuantizer quant(16, -2.0f, 2.0f);
    ConvReuseState state(conv, in_shape, quant);
    const Tensor zeros(in_shape, 0.0f);
    LayerExecRecord rec;
    for (int64_t y = 0; y < c.h; ++y) {
        for (int64_t x = 0; x < c.w; ++x) {
            state.reset();
            state.execute(zeros, rec);
            Tensor in = zeros;
            in.at({c.ci - 1, y, x}) = 1.0f;
            const Tensor probe = state.execute(in, rec);
            int64_t touched = 0;
            for (int64_t i = 0; i < probe.numel(); ++i)
                touched += probe[i] != 0.0f ? 1 : 0;
            const int64_t want = bruteForceAffected(conv, in_shape, y, x);
            EXPECT_EQ(touched, want) << "y=" << y << " x=" << x;
            EXPECT_EQ(rec.macsPerformed, want)
                << "y=" << y << " x=" << x;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dParam,
    ::testing::Values(Conv2dCase{1, 1, 3, 1, 6, 6},
                      Conv2dCase{2, 3, 3, 1, 8, 8},
                      Conv2dCase{3, 4, 5, 2, 12, 14},
                      Conv2dCase{2, 2, 3, 2, 9, 9},
                      Conv2dCase{4, 8, 1, 1, 5, 5},
                      Conv2dCase{3, 24, 5, 2, 17, 21},
                      // Stride > K (uncovered pixels), K = 1 with
                      // stride, and a ragged right/bottom border.
                      Conv2dCase{2, 5, 2, 3, 11, 13},
                      Conv2dCase{3, 7, 1, 2, 7, 9},
                      Conv2dCase{2, 17, 3, 3, 10, 12}));

TEST(Conv2d, ForwardBitExactAcrossRandomShapes)
{
    Rng rng(71);
    for (int trial = 0; trial < 40; ++trial) {
        const int64_t ci = rng.uniformInt(1, 4);
        const int64_t co = rng.uniformInt(1, 40);
        const int64_t k = rng.uniformInt(1, 5);
        const int64_t stride = rng.uniformInt(1, 6);
        const int64_t h = rng.uniformInt(k, k + 12);
        const int64_t w = rng.uniformInt(k, k + 12);
        Conv2DLayer conv("conv", ci, co, k, stride);
        initGlorot(conv, rng);
        rng.fillGaussian(conv.biases(), 0.0f, 0.1f);
        Tensor in(Shape({ci, h, w}));
        const double zero_share = rng.uniform(0.0f, 0.95f);
        for (int64_t i = 0; i < in.numel(); ++i)
            in[i] = rng.bernoulli(zero_share) ? 0.0f
                                              : rng.gaussian(0.0f, 1.0f);
        SCOPED_TRACE("trial " + std::to_string(trial));
        EXPECT_TRUE(
            bitsEqual(conv.forward(in), chwReferenceConv2d(conv, in)));
    }
}

TEST(Conv2d, OutputShapeValidPadding)
{
    Conv2DLayer conv("conv", 3, 24, 5, 2);
    // AutoPilot CONV1: 3x66x200 -> 24x31x98.
    EXPECT_EQ(conv.outputShape(Shape({3, 66, 200})),
              Shape({24, 31, 98}));
}

TEST(Conv2d, ParamAndMacCounts)
{
    Conv2DLayer conv("conv", 3, 24, 5, 2);
    EXPECT_EQ(conv.paramCount(), 3 * 24 * 25 + 24);
    EXPECT_EQ(conv.macCount(Shape({3, 66, 200})),
              24 * 31 * 98 * 3 * 25);
    EXPECT_TRUE(conv.isReusable());
}

TEST(Conv2dDeath, WrongChannelsPanics)
{
    Conv2DLayer conv("conv", 3, 4, 3, 1);
    EXPECT_DEATH((void)conv.forward(Tensor(Shape({2, 8, 8}))),
                 "input channels");
}

} // namespace
} // namespace reuse
