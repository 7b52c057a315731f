/** @file Unit tests for the 3D convolutional layer. */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "core/conv_reuse.h"
#include "nn/conv3d.h"
#include "nn/initializers.h"

namespace reuse {
namespace {

/** Naive direct 3D convolution used as the reference. */
Tensor
naiveConv3d(const Conv3DLayer &layer, const Tensor &in)
{
    const Shape out_shape = layer.outputShape(in.shape());
    const int64_t d = in.shape().dim(1);
    const int64_t h = in.shape().dim(2);
    const int64_t w = in.shape().dim(3);
    const int64_t od = out_shape.dim(1);
    const int64_t oh = out_shape.dim(2);
    const int64_t ow = out_shape.dim(3);
    const int64_t k = layer.kernel();
    const int64_t pad = layer.pad();

    Tensor out(out_shape);
    for (int64_t co = 0; co < layer.outChannels(); ++co) {
        for (int64_t oz = 0; oz < od; ++oz) {
            for (int64_t oy = 0; oy < oh; ++oy) {
                for (int64_t ox = 0; ox < ow; ++ox) {
                    double acc =
                        layer.biases()[static_cast<size_t>(co)];
                    for (int64_t ci = 0; ci < layer.inChannels();
                         ++ci) {
                        for (int64_t kd = 0; kd < k; ++kd) {
                            for (int64_t ky = 0; ky < k; ++ky) {
                                for (int64_t kx = 0; kx < k; ++kx) {
                                    const int64_t iz = oz - pad + kd;
                                    const int64_t iy = oy - pad + ky;
                                    const int64_t ix = ox - pad + kx;
                                    if (iz < 0 || iz >= d || iy < 0 ||
                                        iy >= h || ix < 0 || ix >= w)
                                        continue;
                                    const size_t widx =
                                        static_cast<size_t>(
                                            (((ci * k + kd) * k + ky) *
                                                 k +
                                             kx) *
                                                layer.outChannels() +
                                            co);
                                    acc +=
                                        layer.weights()[widx] *
                                        in.data()[static_cast<size_t>(
                                            ((ci * d + iz) * h + iy) *
                                                w +
                                            ix)];
                                }
                            }
                        }
                    }
                    out.at({co, oz, oy, ox}) = static_cast<float>(acc);
                }
            }
        }
    }
    return out;
}

/**
 * The input-stationary loop nest forward() used before it
 * accumulated channels-last: per output element, bias, then
 * ascending (ci, kd, ky, kx) with zero inputs and padded taps
 * skipped.  forward() must match it bit for bit.
 */
Tensor
chwReferenceConv3d(const Conv3DLayer &layer, const Tensor &in)
{
    const Shape out_shape = layer.outputShape(in.shape());
    const int64_t d = in.shape().dim(1);
    const int64_t h = in.shape().dim(2);
    const int64_t w = in.shape().dim(3);
    const int64_t od = out_shape.dim(1);
    const int64_t oh = out_shape.dim(2);
    const int64_t ow = out_shape.dim(3);
    const int64_t k = layer.kernel();
    const int64_t pad = layer.pad();
    const int64_t c_out = layer.outChannels();
    const int64_t vol = od * oh * ow;
    Tensor out(out_shape);
    for (int64_t co = 0; co < c_out; ++co)
        for (int64_t i = 0; i < vol; ++i)
            out[co * vol + i] = layer.biases()[static_cast<size_t>(co)];
    for (int64_t ci = 0; ci < layer.inChannels(); ++ci) {
        for (int64_t iz = 0; iz < d; ++iz) {
            for (int64_t iy = 0; iy < h; ++iy) {
                for (int64_t ix = 0; ix < w; ++ix) {
                    const float v = in[((ci * d + iz) * h + iy) * w + ix];
                    if (v == 0.0f)
                        continue;
                    for (int64_t kd = 0; kd < k; ++kd) {
                        const int64_t oz = iz + pad - kd;
                        if (oz < 0 || oz >= od)
                            continue;
                        for (int64_t ky = 0; ky < k; ++ky) {
                            const int64_t oy = iy + pad - ky;
                            if (oy < 0 || oy >= oh)
                                continue;
                            for (int64_t kx = 0; kx < k; ++kx) {
                                const int64_t ox = ix + pad - kx;
                                if (ox < 0 || ox >= ow)
                                    continue;
                                const size_t widx = static_cast<size_t>(
                                    (((ci * k + kd) * k + ky) * k + kx) *
                                    c_out);
                                for (int64_t co = 0; co < c_out; ++co)
                                    out[co * vol + (oz * oh + oy) * ow +
                                        ox] +=
                                        v * layer.weights()[widx +
                                                            static_cast<
                                                                size_t>(
                                                                co)];
                            }
                        }
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

/** Outputs (all filters) whose window covers input voxel (z, y, x). */
int64_t
bruteForceAffected(const Conv3DLayer &layer, const Shape &in_shape,
                   int64_t z, int64_t y, int64_t x)
{
    const Shape out_shape = layer.outputShape(in_shape);
    const int64_t k = layer.kernel();
    const int64_t pad = layer.pad();
    auto covers = [&](int64_t o, int64_t i) {
        return o - pad <= i && i < o - pad + k;
    };
    int64_t windows = 0;
    for (int64_t oz = 0; oz < out_shape.dim(1); ++oz)
        for (int64_t oy = 0; oy < out_shape.dim(2); ++oy)
            for (int64_t ox = 0; ox < out_shape.dim(3); ++ox)
                windows +=
                    covers(oz, z) && covers(oy, y) && covers(ox, x) ? 1
                                                                    : 0;
    return windows * layer.outChannels();
}

struct Conv3dCase {
    int64_t ci, co, k, pad, d, h, w;
};

class Conv3dParam : public ::testing::TestWithParam<Conv3dCase>
{
};

TEST_P(Conv3dParam, ForwardMatchesNaive)
{
    const Conv3dCase c = GetParam();
    Rng rng(17);
    Conv3DLayer conv("conv", c.ci, c.co, c.k, c.pad);
    initGlorot(conv, rng);
    Tensor in(Shape({c.ci, c.d, c.h, c.w}));
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    const Tensor got = conv.forward(in);
    const Tensor want = naiveConv3d(conv, in);
    ASSERT_EQ(got.shape(), want.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-4f) << "at " << i;
}

TEST_P(Conv3dParam, ApplyDeltaMatchesRecompute)
{
    // A reuse frame with one changed input equals a from-scratch
    // forward on the changed (quantized) input.
    const Conv3dCase c = GetParam();
    Rng rng(19);
    Conv3DLayer conv("conv", c.ci, c.co, c.k, c.pad);
    initGlorot(conv, rng);
    const Shape in_shape({c.ci, c.d, c.h, c.w});
    LinearQuantizer quant(32, -3.0f, 3.0f);
    ConvReuseState state(conv, in_shape, quant);
    Tensor in(in_shape);
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    state.execute(in, rec);

    for (int rep = 0; rep < 3; ++rep) {
        const int64_t ci = rng.uniformInt(0, c.ci - 1);
        const int64_t z = rng.uniformInt(0, c.d - 1);
        const int64_t y = rng.uniformInt(0, c.h - 1);
        const int64_t x = rng.uniformInt(0, c.w - 1);
        in.at({ci, z, y, x}) = in.at({ci, z, y, x}) > 0.0f ? -1.0f : 1.0f;
        const Tensor out = state.execute(in, rec);
        ASSERT_EQ(rec.inputsChanged, 1);
        const Tensor ref = conv.forward(quant.quantize(in));
        for (int64_t i = 0; i < out.numel(); ++i)
            EXPECT_NEAR(out[i], ref[i], 1e-4f) << "at " << i;
    }
}

TEST_P(Conv3dParam, AffectedOutputsMatchesDeltaFootprint)
{
    // For every input voxel: the MACs of a one-change reuse frame
    // equal the outputs it corrected (unit weights) and a
    // brute-force enumeration of the covering windows.
    const Conv3dCase c = GetParam();
    Conv3DLayer conv("conv", c.ci, c.co, c.k, c.pad);
    for (auto &w : conv.weights())
        w = 1.0f;
    const Shape in_shape({c.ci, c.d, c.h, c.w});
    LinearQuantizer quant(16, -2.0f, 2.0f);
    ConvReuseState state(conv, in_shape, quant);
    const Tensor zeros(in_shape, 0.0f);
    LayerExecRecord rec;
    for (int64_t z = 0; z < c.d; ++z) {
        for (int64_t y = 0; y < c.h; ++y) {
            for (int64_t x = 0; x < c.w; ++x) {
                state.reset();
                state.execute(zeros, rec);
                Tensor in = zeros;
                in.at({c.ci - 1, z, y, x}) = 1.0f;
                const Tensor probe = state.execute(in, rec);
                int64_t touched = 0;
                for (int64_t i = 0; i < probe.numel(); ++i)
                    touched += probe[i] != 0.0f ? 1 : 0;
                const int64_t want =
                    bruteForceAffected(conv, in_shape, z, y, x);
                EXPECT_EQ(touched, want);
                EXPECT_EQ(rec.macsPerformed, want);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv3dParam,
    ::testing::Values(Conv3dCase{1, 1, 3, 1, 4, 5, 5},
                      Conv3dCase{2, 3, 3, 1, 4, 6, 6},
                      Conv3dCase{3, 4, 3, 0, 5, 5, 5},
                      Conv3dCase{2, 2, 1, 0, 3, 4, 4},
                      // Padding wider than half the kernel, and
                      // more filters than one AVX-512 vector.
                      Conv3dCase{2, 5, 3, 2, 3, 4, 5},
                      Conv3dCase{1, 19, 2, 1, 3, 3, 4}));

TEST(Conv3d, ForwardBitExactAcrossRandomShapes)
{
    Rng rng(73);
    for (int trial = 0; trial < 30; ++trial) {
        const int64_t ci = rng.uniformInt(1, 3);
        const int64_t co = rng.uniformInt(1, 24);
        const int64_t k = rng.uniformInt(1, 3);
        const int64_t pad = rng.uniformInt(0, k);
        const int64_t d = rng.uniformInt(k, k + 3);
        const int64_t h = rng.uniformInt(k, k + 5);
        const int64_t w = rng.uniformInt(k, k + 5);
        Conv3DLayer conv("conv", ci, co, k, pad);
        initGlorot(conv, rng);
        rng.fillGaussian(conv.biases(), 0.0f, 0.1f);
        Tensor in(Shape({ci, d, h, w}));
        const double zero_share = rng.uniform(0.0f, 0.95f);
        for (int64_t i = 0; i < in.numel(); ++i)
            in[i] = rng.bernoulli(zero_share) ? 0.0f
                                              : rng.gaussian(0.0f, 1.0f);
        SCOPED_TRACE("trial " + std::to_string(trial));
        EXPECT_TRUE(
            bitsEqual(conv.forward(in), chwReferenceConv3d(conv, in)));
    }
}

TEST(Conv3d, SamePaddingPreservesShape)
{
    Conv3DLayer conv("conv", 3, 64, 3, 1);
    // C3D CONV1: 3x16x112x112 -> 64x16x112x112.
    EXPECT_EQ(conv.outputShape(Shape({3, 16, 14, 14})),
              Shape({64, 16, 14, 14}));
}

TEST(Conv3d, ParamCount)
{
    Conv3DLayer conv("conv", 3, 64, 3, 1);
    EXPECT_EQ(conv.paramCount(), 3 * 64 * 27 + 64);
}

TEST(Conv3dDeath, WrongRankPanics)
{
    Conv3DLayer conv("conv", 3, 4, 3, 1);
    EXPECT_DEATH((void)conv.forward(Tensor(Shape({3, 8, 8}))),
                 "expects");
}

} // namespace
} // namespace reuse
